package engine

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bsched/internal/admission"
	"bsched/internal/chaos"
	"bsched/internal/obs"
)

// diskMetrics groups the persistent cache's instruments (newMetrics
// registers them).
type diskMetrics struct {
	hits      *obs.Counter // record decoded from disk and served after a memory miss
	misses    *obs.Counter // memory miss with no (valid) disk record either
	writes    *obs.Counter // record appended to the active segment
	evictions *obs.Counter // cold record dropped at compaction
	loaded    *obs.Counter // valid records indexed during startup replay
	corrupt   *obs.Counter // torn or corrupt records skipped, never served
	stale     *obs.Counter // healthy records in the retired program-keyed format, skipped at replay
	ioErrors  *obs.Counter // I/O-layer read/append failures (feeds the breaker)
	rejects   *obs.Counter // disk operations skipped while the breaker was open
}

// errDiskIO marks a failure at the I/O layer — the disk itself
// misbehaving — as opposed to corrupt data on a healthy disk. Only
// I/O failures feed the circuit breaker: corrupt records are a data
// problem handled by dropping the record, not a reason to stop
// trusting the device.
var errDiskIO = errors.New("diskcache: i/o error")

const (
	// DefaultCacheMaxBytes bounds the persistent cache on disk when
	// Config.CacheMaxBytes is zero.
	DefaultCacheMaxBytes = 256 << 20

	// SegNamePrefix and SegNameSuffix frame the segment file names
	// (cache-%08d.seg); exported so frontends and their tests can locate
	// segments for inspection and fault injection.
	SegNamePrefix = "cache-"
	SegNameSuffix = ".seg"

	// diskWriteQueue buffers the write-behind channel; when the flusher
	// falls behind, further writes are dropped rather than blocking a
	// compilation worker on the disk.
	diskWriteQueue = 256
	// maxFlushBatch bounds how many queued writes one flush coalesces
	// into a single segment append.
	maxFlushBatch = 64
)

// diskWrite is one queued write-behind record.
type diskWrite struct {
	key     Key
	payload []byte
}

// diskItem locates one live record: which segment holds it, where, and
// how large it is. Items live in the access list (front = most recently
// used), mirroring the in-memory cacheShard's LRU discipline.
type diskItem struct {
	key  Key
	seg  string
	off  int64
	size int64
}

// diskCache is the write-behind persistent layer under the in-memory
// schedule cache. Completed cacheable compilations are appended to an
// active segment file by a background flusher; on startup the segments
// are replayed (torn or corrupt records skipped individually) into an
// in-memory index, so a restarted daemon serves previously compiled
// programs from disk instead of recompiling them. When the directory
// outgrows maxBytes, compaction drops the coldest keys (LRU by access)
// and rewrites the survivors into fresh segments.
//
// Concurrency: one mutex guards the index, the access list and all file
// handles. Reads are a single bounded ReadAt; the only long operation
// under the lock is compaction, which is rare and bounded by maxBytes.
// All methods are nil-safe so the engine can call them unconditionally.
type diskCache struct {
	dir         string
	maxBytes    int64
	segMaxBytes int64
	met         *diskMetrics
	// brk is the disk circuit breaker: repeated I/O failures trip it
	// open and reads/appends are skipped (the daemon degrades to
	// memory-only) until a half-open probe succeeds. chaos injects
	// synthetic I/O errors under test. Both may be nil.
	brk *admission.Breaker
	inj *chaos.Injector

	mu         sync.Mutex
	index      map[Key]*list.Element
	ll         *list.List // front = most recently used; values are *diskItem
	liveBytes  int64      // bytes of indexed (servable) records
	totalBytes int64      // bytes across all segment files, dead records included
	segs       []string   // segment file names, oldest first
	segSeq     int
	active     *os.File
	activeName string
	activeSize int64
	warm       int // records indexed at open: the warm-start figure

	writes chan diskWrite
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// openDiskCache opens (or creates) the cache directory, replays every
// segment into the index, and starts the write-behind flusher. Corrupt
// data is never an error — damaged records are counted and skipped —
// but an unusable directory is.
func openDiskCache(dir string, maxBytes int64, met *diskMetrics, brk *admission.Breaker, inj *chaos.Injector) (*diskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	segMax := maxBytes / 8
	if segMax < 4096 {
		segMax = 4096
	}
	if segMax > 64<<20 {
		segMax = 64 << 20
	}
	d := &diskCache{
		dir:         dir,
		maxBytes:    maxBytes,
		segMaxBytes: segMax,
		met:         met,
		brk:         brk,
		inj:         inj,
		index:       make(map[Key]*list.Element),
		ll:          list.New(),
		writes:      make(chan diskWrite, diskWriteQueue),
		done:        make(chan struct{}),
	}
	if err := d.replay(); err != nil {
		return nil, err
	}
	// Always start a fresh segment: appending after a possibly-torn tail
	// would bury new records behind garbage the replay scan cannot pass.
	d.mu.Lock()
	d.rotateLocked()
	ok := d.active != nil
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("diskcache: directory %s is not writable", dir)
	}
	d.wg.Add(1)
	go d.flusher()
	return d, nil
}

// replay scans every segment file, oldest first, building the index.
// Within and across segments, later records win (last-write-wins), and
// the access order is seeded from write order — the most recently
// written record starts as the most recently used. Torn or corrupt
// records are counted and skipped; when a record's length field itself
// is implausible there is no next-record boundary to resync to, so the
// rest of that segment is abandoned (one more corrupt count).
func (d *diskCache) replay() error {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, SegNamePrefix) && strings.HasSuffix(name, SegNameSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names) // zero-padded sequence numbers: lexical = chronological
	for _, name := range names {
		d.replaySegment(name)
		var seq int
		if _, err := fmt.Sscanf(name, SegNamePrefix+"%d"+SegNameSuffix, &seq); err == nil && seq >= d.segSeq {
			d.segSeq = seq + 1
		}
		d.segs = append(d.segs, name)
	}
	d.warm = len(d.index)
	return nil
}

func (d *diskCache) replaySegment(name string) {
	data, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil {
		d.met.corrupt.Inc()
		return
	}
	d.totalBytes += int64(len(data))
	rest, err := checkSegmentHeader(data)
	if err != nil {
		d.met.corrupt.Inc()
		return
	}
	off := int64(SegHeaderLen)
	for len(rest) > 0 {
		k, _, n, err := decodeRecord(rest)
		switch {
		case err == nil:
			d.indexLocked(&diskItem{key: k, seg: name, off: off, size: int64(n)})
			d.met.loaded.Inc()
		case errors.Is(err, errStaleRecord):
			// A checksummed-valid record from the retired program-granular
			// format: its length field is trustworthy, so skip exactly this
			// record and keep scanning. Counted apart from corruption — the
			// bytes are healthy, just keyed in the wrong space — and never
			// indexed, so an old cache directory warms nothing but starts
			// cleanly and compaction reclaims it.
			d.met.stale.Inc()
		case errors.Is(err, errTornRecord) || n == 0:
			// Torn tail, or a length field too corrupt to resync past:
			// everything from here on in this segment is unreachable.
			d.met.corrupt.Inc()
			return
		default:
			// Bad checksum or unknown version under a plausible length:
			// skip just this record and keep scanning.
			d.met.corrupt.Inc()
		}
		off += int64(n)
		rest = rest[n:]
	}
}

// indexLocked installs it as the most recently used record for its key,
// replacing (and un-counting) any older record under the same key.
// Callers hold mu, or are single-threaded (replay, before the flusher
// starts).
func (d *diskCache) indexLocked(it *diskItem) {
	if el, ok := d.index[it.key]; ok {
		d.liveBytes -= el.Value.(*diskItem).size
		d.ll.Remove(el)
	}
	d.index[it.key] = d.ll.PushFront(it)
	d.liveBytes += it.size
}

// dropLocked removes one record from the index (the file bytes stay
// until the next compaction).
func (d *diskCache) dropLocked(el *list.Element) {
	it := el.Value.(*diskItem)
	d.ll.Remove(el)
	delete(d.index, it.key)
	d.liveBytes -= it.size
}

// get serves one record from disk: locate, read, checksum, decode. A
// corrupt record is counted, dropped from the index and reported as a
// miss — damaged bytes are never served. An I/O failure reports a miss
// too, but keeps the index entry (the record may be fine once the disk
// recovers) and feeds the circuit breaker; while the breaker is open
// the read is skipped entirely, so a sick disk costs a counter bump
// instead of a stalled compile leader.
func (d *diskCache) get(k Key) (*BlockResponse, bool) {
	if d == nil {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.index[k]
	if !ok {
		d.met.misses.Inc()
		return nil, false
	}
	if !d.brk.Allow() {
		d.met.rejects.Inc()
		d.met.misses.Inc()
		return nil, false
	}
	it := el.Value.(*diskItem)
	raw, err := d.readRawLocked(it)
	if errors.Is(err, errDiskIO) {
		d.met.ioErrors.Inc()
		d.brk.Failure()
		d.met.misses.Inc()
		return nil, false
	}
	d.brk.Success()
	if err == nil {
		var resp BlockResponse
		_, payload, _, _ := decodeRecord(raw) // readRawLocked validated it
		if jerr := json.Unmarshal(payload, &resp); jerr == nil {
			d.ll.MoveToFront(el)
			d.met.hits.Inc()
			return &resp, true
		}
		err = errCorruptRecord
	}
	d.met.corrupt.Inc()
	d.dropLocked(el)
	d.met.misses.Inc()
	return nil, false
}

// readRawLocked reads and validates one record's bytes from its
// segment. Failures at the file layer (open, read — including injected
// chaos faults) come back wrapped in errDiskIO; validation failures on
// successfully read bytes do not.
func (d *diskCache) readRawLocked(it *diskItem) ([]byte, error) {
	if err := d.inj.Err(chaos.DiskError); err != nil {
		return nil, fmt.Errorf("%w: %v", errDiskIO, err)
	}
	f, err := os.Open(filepath.Join(d.dir, it.seg))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errDiskIO, err)
	}
	defer f.Close()
	buf := make([]byte, it.size)
	if _, err := f.ReadAt(buf, it.off); err != nil {
		return nil, fmt.Errorf("%w: %v", errDiskIO, err)
	}
	k, _, _, err := decodeRecord(buf)
	if err != nil {
		return nil, err
	}
	if k != it.key {
		return nil, errCorruptRecord
	}
	return buf, nil
}

// put queues one response for write-behind persistence. It never
// blocks: when the flusher is saturated the write is dropped — this is
// a cache, and the entry is still served from memory.
func (d *diskCache) put(k Key, resp *BlockResponse) {
	if d == nil {
		return
	}
	payload, err := json.Marshal(resp)
	if err != nil || recordSize(len(payload)) > maxRecordBytes {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	select {
	case d.writes <- diskWrite{key: k, payload: payload}:
	default:
	}
}

// flusher drains the write queue until close, batching whatever has
// accumulated behind each write into a single locked append pass.
func (d *diskCache) flusher() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case w := <-d.writes:
			batch := []diskWrite{w}
		drain:
			for len(batch) < maxFlushBatch {
				select {
				case w2 := <-d.writes:
					batch = append(batch, w2)
				default:
					break drain
				}
			}
			d.flush(batch)
		}
	}
}

func (d *diskCache) flush(batch []diskWrite) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range batch {
		if !d.brk.Allow() {
			// Breaker open: drop the write instead of poking the sick disk.
			// This is a cache — the entry is still served from memory.
			d.met.rejects.Inc()
			continue
		}
		if d.appendLocked(w.key, appendRecord(nil, w.key, w.payload)) {
			d.met.writes.Inc()
		}
	}
	if d.totalBytes > d.maxBytes {
		d.compactLocked()
	}
}

// appendLocked writes one encoded record to the active segment and
// indexes it, reporting whether the record landed. A short or failed
// write abandons the segment (its torn tail is exactly what replay
// knows how to skip) and starts a fresh one; the record itself is
// dropped rather than indexed as garbage. Write failures — real or
// chaos-injected — feed the circuit breaker.
func (d *diskCache) appendLocked(k Key, rec []byte) bool {
	if err := d.inj.Err(chaos.DiskError); err != nil {
		// Injected write fault: account it like a failed Write, but keep
		// the segment — the bytes on disk are untouched.
		d.met.ioErrors.Inc()
		d.brk.Failure()
		return false
	}
	if d.active == nil || d.activeSize >= d.segMaxBytes {
		d.rotateLocked()
		if d.active == nil {
			return false
		}
	}
	off := d.activeSize
	n, err := d.active.Write(rec)
	d.activeSize += int64(n)
	d.totalBytes += int64(n)
	if err != nil || n != len(rec) {
		d.met.ioErrors.Inc()
		d.brk.Failure()
		d.rotateLocked()
		return false
	}
	d.brk.Success()
	d.indexLocked(&diskItem{key: k, seg: d.activeName, off: off, size: int64(len(rec))})
	return true
}

// rotateLocked closes the active segment and opens the next one.
func (d *diskCache) rotateLocked() {
	if d.active != nil {
		d.active.Close()
		d.active = nil
		d.activeName = ""
		d.activeSize = 0
	}
	name := fmt.Sprintf("%s%08d%s", SegNamePrefix, d.segSeq, SegNameSuffix)
	d.segSeq++
	f, err := os.OpenFile(filepath.Join(d.dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	hdr := appendSegmentHeader(nil)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return
	}
	d.active = f
	d.activeName = name
	d.activeSize = int64(len(hdr))
	d.totalBytes += int64(len(hdr))
	d.segs = append(d.segs, name)
}

// compactLocked brings the directory back under maxBytes: first evict
// the coldest keys until the live set fits comfortably (3/4 of the
// bound, so compactions don't cascade), then rewrite the survivors into
// fresh segments and delete every old file. Survivors are written
// coldest-first so a later replay, which seeds access order from write
// order, reconstructs the same LRU ordering.
func (d *diskCache) compactLocked() {
	target := d.maxBytes * 3 / 4
	for d.liveBytes > target && d.ll.Len() > 0 {
		d.dropLocked(d.ll.Back())
		d.met.evictions.Inc()
	}
	items := make([]*diskItem, 0, d.ll.Len())
	for el := d.ll.Back(); el != nil; el = el.Prev() { // coldest first
		items = append(items, el.Value.(*diskItem))
	}
	oldSegs := d.segs
	d.segs = nil
	d.index = make(map[Key]*list.Element, len(items))
	d.ll = list.New()
	d.liveBytes, d.totalBytes = 0, 0
	if d.active != nil {
		d.active.Close()
		d.active = nil
		d.activeName = ""
		d.activeSize = 0
	}
	for _, it := range items {
		raw, err := d.readRawLocked(it)
		if err != nil {
			if errors.Is(err, errDiskIO) {
				d.met.ioErrors.Inc()
				d.brk.Failure()
			} else {
				d.met.corrupt.Inc()
			}
			continue
		}
		d.appendLocked(it.key, raw)
	}
	for _, name := range oldSegs {
		os.Remove(filepath.Join(d.dir, name))
	}
}

// close stops the flusher, writes out whatever was still queued, and
// closes the active segment. Nothing is fsynced — the cache is
// write-behind by design, and replay handles whatever a crash leaves.
// Safe to call twice; nil-safe.
func (d *diskCache) close() {
	if d == nil {
		return
	}
	d.once.Do(func() {
		close(d.done)
		d.wg.Wait()
		var tail []diskWrite
	drain:
		for {
			select {
			case w := <-d.writes:
				tail = append(tail, w)
			default:
				break drain
			}
		}
		if len(tail) > 0 {
			d.flush(tail)
		}
		d.mu.Lock()
		if d.active != nil {
			d.active.Close()
			d.active = nil
		}
		d.mu.Unlock()
	})
}

// entries, bytes and warmEntries back the disk-cache gauges; all are
// nil-safe so the engine registers them unconditionally.
func (d *diskCache) entries() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

func (d *diskCache) bytes() int64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveBytes
}

func (d *diskCache) warmEntries() int {
	if d == nil {
		return 0
	}
	return d.warm
}
