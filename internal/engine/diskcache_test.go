package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bsched/internal/obs"
)

// openTestDiskCache opens a store whose counters are the engine's own,
// registered on a throwaway registry, and returns both, failing the test
// on error.
func openTestDiskCache(t *testing.T, dir string, maxBytes int64) (*diskCache, *diskMetrics) {
	t.Helper()
	met := &newMetrics(obs.NewRegistry()).disk
	d, err := openDiskCache(dir, maxBytes, met, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, met
}

func diskResp(i int) *BlockResponse {
	return &BlockResponse{
		Block:       fmt.Sprintf("block b%d freq=1\nend\n", i),
		Fingerprint: fmt.Sprintf("%016x", i),
	}
}

// waitFlushed polls until the store has written (at least) want records
// or the deadline passes — put is write-behind, so tests that reopen
// the directory must first let the flusher catch up.
func waitFlushed(t *testing.T, met *diskMetrics, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for met.writes.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("flusher wrote %d records, want %d", met.writes.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDiskCachePutGetReopen is the basic persistence round trip: what
// was put can be got, and can still be got by a second store opened on
// the same directory after the first closed.
func TestDiskCachePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	d, met := openTestDiskCache(t, dir, 1<<20)
	const n = 10
	for i := 0; i < n; i++ {
		d.put(Key{Block: uint64(i), Opts: 1}, diskResp(i))
	}
	waitFlushed(t, met, n)
	for i := 0; i < n; i++ {
		resp, ok := d.get(Key{Block: uint64(i), Opts: 1})
		if !ok || resp.Block != diskResp(i).Block {
			t.Fatalf("get(%d) = %v, %v", i, resp, ok)
		}
	}
	if _, ok := d.get(Key{Block: 999}); ok {
		t.Error("get of a never-put key hit")
	}
	d.close()

	d2, met2 := openTestDiskCache(t, dir, 1<<20)
	defer d2.close()
	if got := met2.loaded.Value(); got != n {
		t.Fatalf("replay loaded %d records, want %d", got, n)
	}
	if got := met2.corrupt.Value(); got != 0 {
		t.Fatalf("replay counted %d corrupt records in a clean directory", got)
	}
	if d2.warmEntries() != n {
		t.Fatalf("warm entries %d, want %d", d2.warmEntries(), n)
	}
	for i := 0; i < n; i++ {
		resp, ok := d2.get(Key{Block: uint64(i), Opts: 1})
		if !ok || resp.Block != diskResp(i).Block {
			t.Fatalf("after reopen, get(%d) = %v, %v", i, resp, ok)
		}
	}
}

// newestSegment returns the path of the most recently created segment
// file in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, SegNamePrefix+"*"+SegNameSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	var newest string
	for _, n := range names {
		if n > newest {
			newest = n
		}
	}
	return newest
}

// TestDiskCacheCrashRecovery simulates the daemon dying mid-flush: N
// records land fully, then the process is "killed" with a record only
// partially written (the write-behind store never fsyncs, so a torn
// tail is exactly what a crash leaves). Reopening must load every
// complete record, skip the torn tail, count it corrupt — and neither
// error nor panic.
func TestDiskCacheCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d, met := openTestDiskCache(t, dir, 1<<20)
	const n = 8
	for i := 0; i < n; i++ {
		d.put(Key{Block: uint64(i)}, diskResp(i))
	}
	waitFlushed(t, met, n)
	d.close()

	// Tear the tail: append the first half of a valid record, as if the
	// crash cut the final write short.
	payload, _ := json.Marshal(diskResp(999))
	rec := appendRecord(nil, Key{Block: 999}, payload)
	f, err := os.OpenFile(newestSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, met2 := openTestDiskCache(t, dir, 1<<20)
	defer d2.close()
	if got := met2.loaded.Value(); got != n {
		t.Errorf("loaded %d records, want %d", got, n)
	}
	if got := met2.corrupt.Value(); got != 1 {
		t.Errorf("corrupt counter %d, want 1 (the torn tail)", got)
	}
	for i := 0; i < n; i++ {
		resp, ok := d2.get(Key{Block: uint64(i)})
		if !ok || resp.Block != diskResp(i).Block {
			t.Fatalf("fully-flushed record %d lost after crash recovery", i)
		}
	}
	if _, ok := d2.get(Key{Block: 999}); ok {
		t.Error("torn record was served")
	}
}

// TestDiskCacheCorruptMiddleRecordSkipped proves records are skipped
// *individually*: a bit flip in the middle of a segment costs exactly
// that record — everything before and after it still loads.
func TestDiskCacheCorruptMiddleRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	// Hand-build one segment with three records.
	var seg []byte
	seg = appendSegmentHeader(seg)
	offs := make([]int, 3)
	for i := 0; i < 3; i++ {
		offs[i] = len(seg)
		payload, _ := json.Marshal(diskResp(i))
		seg = appendRecord(seg, Key{Block: uint64(i)}, payload)
	}
	seg[offs[1]+RecHeaderLen+3] ^= 0x01 // corrupt record 1's body
	path := filepath.Join(dir, SegNamePrefix+"00000000"+SegNameSuffix)
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	d, met := openTestDiskCache(t, dir, 1<<20)
	defer d.close()
	if got := met.loaded.Value(); got != 2 {
		t.Errorf("loaded %d records, want 2", got)
	}
	if got := met.corrupt.Value(); got != 1 {
		t.Errorf("corrupt counter %d, want 1", got)
	}
	for _, i := range []int{0, 2} {
		if _, ok := d.get(Key{Block: uint64(i)}); !ok {
			t.Errorf("healthy record %d around the corruption was lost", i)
		}
	}
	if _, ok := d.get(Key{Block: 1}); ok {
		t.Error("bit-flipped record was served")
	}
}

// appendLegacyRecord hand-builds a record in the retired version-1
// (program-granular) format: identical layout, version byte 1, key
// halves that were program/options fingerprints. The checksum is valid —
// these are healthy bytes from an older daemon, not corruption.
func appendLegacyRecord(dst []byte, prog, opts uint64, payload []byte) []byte {
	rec := appendRecord(nil, Key{Block: prog, Opts: opts}, payload)
	rec[RecHeaderLen] = recVersionLegacy
	body := rec[RecHeaderLen:]
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	return append(dst, rec...)
}

// TestDiskCacheMixedFormatSegment is the migration drill: a segment
// holding both current block-keyed records and legacy program-keyed
// ones (an old -cache-dir pointed at a new daemon) must replay the
// current records, skip-and-count the legacy ones as stale — not
// corrupt — and never fail startup or serve a stale record.
func TestDiskCacheMixedFormatSegment(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	seg = appendSegmentHeader(seg)
	payload, _ := json.Marshal(diskResp(0))
	seg = appendRecord(seg, Key{Block: 10, Opts: 1}, payload)
	// Two legacy records, one of them keyed identically to a current
	// record's halves — it must not shadow or collide with it.
	legacyPayload, _ := json.Marshal(map[string]string{"program": "func old\nend\n"})
	seg = appendLegacyRecord(seg, 10, 1, legacyPayload)
	seg = appendLegacyRecord(seg, 0xfeed, 2, legacyPayload)
	payload2, _ := json.Marshal(diskResp(1))
	seg = appendRecord(seg, Key{Block: 11, Opts: 1}, payload2)
	path := filepath.Join(dir, SegNamePrefix+"00000000"+SegNameSuffix)
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	d, met := openTestDiskCache(t, dir, 1<<20)
	defer d.close()
	if got := met.loaded.Value(); got != 2 {
		t.Errorf("loaded %d records, want 2 (the block-keyed ones)", got)
	}
	if got := met.stale.Value(); got != 2 {
		t.Errorf("stale counter %d, want 2 (the legacy records)", got)
	}
	if got := met.corrupt.Value(); got != 0 {
		t.Errorf("corrupt counter %d, want 0 — legacy is stale, not corrupt", got)
	}
	// The current record whose key halves the legacy one reused must
	// serve the *current* payload; records after the stale run still load.
	if resp, ok := d.get(Key{Block: 10, Opts: 1}); !ok || resp.Block != diskResp(0).Block {
		t.Errorf("block-keyed record shadowed by a stale legacy record: %+v %v", resp, ok)
	}
	if resp, ok := d.get(Key{Block: 11, Opts: 1}); !ok || resp.Block != diskResp(1).Block {
		t.Errorf("record after the stale run was lost: %+v %v", resp, ok)
	}
	if _, ok := d.get(Key{Block: 0xfeed, Opts: 2}); ok {
		t.Error("legacy record was indexed and served")
	}
}

// TestDiskCacheGarbageFileTolerated: a file of pure garbage under the
// cache directory must not break startup or poison lookups.
func TestDiskCacheGarbageFileTolerated(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, SegNamePrefix+"00000007"+SegNameSuffix)
	if err := os.WriteFile(garbage, bytes.Repeat([]byte{0xa5}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	d, met := openTestDiskCache(t, dir, 1<<20)
	defer d.close()
	if got := met.corrupt.Value(); got == 0 {
		t.Error("garbage segment not counted corrupt")
	}
	if got := met.loaded.Value(); got != 0 {
		t.Errorf("loaded %d records from garbage", got)
	}
	d.put(Key{Block: 1}, diskResp(1))
	// The store must still function for writes after meeting garbage.
	deadline := time.Now().Add(5 * time.Second)
	for met.writes.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, ok := d.get(Key{Block: 1}); !ok {
		t.Error("write after garbage replay did not stick")
	}
}

// TestDiskCacheEviction fills a tiny store far past its byte bound and
// checks compaction kicks in: evictions counted, the directory brought
// back under the bound, the hottest key preferentially retained. Writes
// are write-behind, so the test synchronizes with the flusher before
// every access-order-sensitive step.
func TestDiskCacheEviction(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 32 << 10
	d, met := openTestDiskCache(t, dir, maxBytes)
	big := strings.Repeat("x", 512)
	put := func(i int) {
		d.put(Key{Block: uint64(i)}, &BlockResponse{Block: big, Fingerprint: fmt.Sprint(i)})
	}
	// Seed well under the bound so nothing is evicted yet.
	const seed = 20
	for i := 0; i < seed; i++ {
		put(i)
	}
	waitFlushed(t, met, seed)
	if _, ok := d.get(Key{Block: 0}); !ok {
		t.Fatal("seeded key missing before any eviction")
	}
	// Churn far past the bound, re-touching key 0 every few writes so
	// LRU-by-access keeps it within a compaction survivor set that holds
	// dozens of records.
	const last = 220
	writes := int64(seed)
	for i := seed; i < last; i++ {
		put(i)
		writes++
		if i%5 == 0 {
			waitFlushed(t, met, writes)
			if _, ok := d.get(Key{Block: 0}); !ok {
				t.Fatalf("hot key evicted mid-churn at write %d", i)
			}
		}
	}
	waitFlushed(t, met, writes)
	d.close()
	if met.evictions.Value() == 0 {
		t.Fatal("no evictions despite writing far past the byte bound")
	}
	var total int64
	names, _ := filepath.Glob(filepath.Join(dir, SegNamePrefix+"*"+SegNameSuffix))
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	// The directory may sit slightly above liveBytes (segment headers,
	// not-yet-compacted dead records) but must be in the bound's
	// neighborhood, not 220×512 bytes.
	if total > maxBytes*2 {
		t.Errorf("directory holds %d bytes, bound %d", total, maxBytes)
	}
	if d.bytes() > maxBytes {
		t.Errorf("live bytes %d above bound %d", d.bytes(), maxBytes)
	}
	// Recency must matter: the repeatedly-touched key and the most
	// recently written key survive; an ancient cold key is gone.
	if _, ok := d.get(Key{Block: 0}); !ok {
		t.Error("hottest key was evicted")
	}
	if _, ok := d.get(Key{Block: last - 1}); !ok {
		t.Error("most recently written key was evicted")
	}
	if _, ok := d.get(Key{Block: 1}); ok {
		t.Error("cold seed key survived 200 records of churn in a ~60-record store")
	}
}

// TestDiskCacheConcurrent hammers one store from parallel writers and
// readers with a byte bound small enough to force compactions mid-test,
// then reopens the directory and checks every surviving record decodes
// to exactly what its key's writer stored. Run under `make test-race`
// this is the disk layer's race-freedom proof.
func TestDiskCacheConcurrent(t *testing.T) {
	dir := t.TempDir()
	d, met := openTestDiskCache(t, dir, 64<<10)
	const keys = 64
	const writers = 4
	const readers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*7 + i) % keys
				d.put(Key{Block: uint64(k)}, diskResp(k))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 400; i++ {
				k := rnd.Intn(keys)
				if resp, ok := d.get(Key{Block: uint64(k)}); ok && resp.Block != diskResp(k).Block {
					t.Errorf("key %d served another key's schedule", k)
				}
			}
		}(r)
	}
	wg.Wait()
	d.close()
	if met.corrupt.Value() != 0 {
		t.Errorf("%d corrupt records during a clean concurrent run", met.corrupt.Value())
	}

	d2, met2 := openTestDiskCache(t, dir, 64<<10)
	defer d2.close()
	if met2.corrupt.Value() != 0 {
		t.Errorf("%d corrupt records at replay after clean close", met2.corrupt.Value())
	}
	hits := 0
	for k := 0; k < keys; k++ {
		if resp, ok := d2.get(Key{Block: uint64(k)}); ok {
			hits++
			if resp.Block != diskResp(k).Block {
				t.Errorf("after reopen, key %d served another key's schedule", k)
			}
		}
	}
	if hits == 0 {
		t.Error("nothing survived the concurrent run")
	}
}
