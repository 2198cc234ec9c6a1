package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Format selects the structured log encoding.
type Format int

const (
	// FormatKV is logfmt-style `key=value` pairs, one event per line —
	// grep-friendly, the default.
	FormatKV Format = iota
	// FormatJSON is one JSON object per line, for log pipelines.
	FormatJSON
)

// ParseFormat maps a flag value ("kv", "json") to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "kv", "logfmt":
		return FormatKV, nil
	case "json":
		return FormatJSON, nil
	}
	return 0, fmt.Errorf("unknown log format %q (want kv|json)", s)
}

// Logger emits structured one-line events. A nil *Logger is valid and
// discards everything, so callers never need to guard their log sites.
// Lines are written under a mutex, so events from concurrent requests
// never interleave.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	f   Format
	now func() time.Time // tests pin this for stable output
}

// NewLogger builds a logger writing to w in the given format.
func NewLogger(w io.Writer, f Format) *Logger {
	return &Logger{w: w, f: f, now: time.Now}
}

// Log emits one event. kv are alternating keys and values; keys must be
// plain identifiers (they are emitted verbatim), values may be any
// printable type. An odd trailing key gets the value "(missing)". Every
// line carries a `ts` timestamp (UTC, millisecond RFC 3339) and the
// `event` name first, then the pairs in the order given.
func (l *Logger) Log(event string, kv ...any) {
	if l == nil {
		return
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "(missing)")
	}
	ts := l.now().UTC().Format("2006-01-02T15:04:05.000Z07:00")
	var b strings.Builder
	switch l.f {
	case FormatJSON:
		b.WriteString(`{"ts":`)
		b.WriteString(jsonString(ts))
		b.WriteString(`,"event":`)
		b.WriteString(jsonString(event))
		for i := 0; i < len(kv); i += 2 {
			b.WriteByte(',')
			b.WriteString(jsonString(fmt.Sprint(kv[i])))
			b.WriteByte(':')
			b.WriteString(jsonValue(kv[i+1]))
		}
		b.WriteString("}\n")
	default:
		b.WriteString("ts=")
		b.WriteString(ts)
		b.WriteString(" event=")
		b.WriteString(kvValue(event))
		for i := 0; i < len(kv); i += 2 {
			b.WriteByte(' ')
			b.WriteString(fmt.Sprint(kv[i]))
			b.WriteByte('=')
			b.WriteString(kvValue(kv[i+1]))
		}
		b.WriteByte('\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}

// kvValue renders one logfmt value, quoting it when the plain form
// would be ambiguous (empty, a space, an equals sign) or when
// strconv.Quote would change it: quotes, backslashes, control bytes
// such as a CR or a terminal escape, and invalid UTF-8 never reach the
// log raw.
func kvValue(v any) string {
	s := formatValue(v)
	if q := strconv.Quote(s); s == "" || strings.ContainsAny(s, " =") || q[1:len(q)-1] != s {
		return q
	}
	return s
}

// jsonValue renders one JSON value, keeping numbers, booleans and
// durations (milliseconds) typed.
func jsonValue(v any) string {
	switch v.(type) {
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, bool:
		return fmt.Sprint(v)
	case float32, float64, time.Duration:
		return formatValue(v)
	}
	return jsonString(formatValue(v))
}

// formatValue normalizes a value to its log string: floats render
// compactly, durations in milliseconds with three decimals.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case time.Duration:
		return strconv.FormatFloat(float64(x.Microseconds())/1000, 'f', 3, 64)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case error:
		return x.Error()
	}
	return fmt.Sprint(v)
}

// jsonString marshals s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `"?"`
	}
	return string(b)
}

// Request IDs: a process-unique random prefix plus a sequence number,
// so IDs from restarted daemons never collide in aggregated logs and a
// single request can be traced across its log lines and the
// X-Request-ID response header.
var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			binary.BigEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.BigEndian.Uint32(b[:]))
	}()
)

// RequestID returns the next process-unique request ID,
// "xxxxxxxx-NNN": a random per-process prefix and a sequence number.
func RequestID() string {
	return fmt.Sprintf("%s-%d", reqPrefix, reqSeq.Add(1))
}
