package obs

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pinned returns a logger with a frozen clock writing into b.
func pinned(b *strings.Builder, f Format) *Logger {
	l := NewLogger(b, f)
	l.now = func() time.Time {
		return time.Date(2026, 8, 5, 10, 30, 0, 123e6, time.UTC)
	}
	return l
}

func TestLoggerKV(t *testing.T) {
	var b strings.Builder
	l := pinned(&b, FormatKV)
	l.Log("request", "id", "abc-1", "status", 200, "dur_ms", 1500*time.Microsecond, "note", "two words")
	want := `ts=2026-08-05T10:30:00.123Z event=request id=abc-1 status=200 dur_ms=1.500 note="two words"` + "\n"
	if b.String() != want {
		t.Errorf("kv line:\n%q\nwant:\n%q", b.String(), want)
	}
	// Client bytes that strconv.Quote escapes, a CR, a terminal's
	// clear-screen and invalid UTF-8 among them, are quoted, never
	// written raw.
	for _, path := range []string{"/x\ry", "/x\x1b[2Jy", "/x\xffy"} {
		b.Reset()
		l.Log("http", "path", path)
		if want := "ts=2026-08-05T10:30:00.123Z event=http path=" + strconv.Quote(path) + "\n"; b.String() != want {
			t.Errorf("kv line:\n%q\nwant:\n%q", b.String(), want)
		}
	}
}

func TestLoggerJSON(t *testing.T) {
	var b strings.Builder
	l := pinned(&b, FormatJSON)
	l.Log("request", "id", "abc-2", "status", 503, "cached", true, "dur_ms", 1500*time.Microsecond, "err", "queue \"full\"")
	line := b.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("no trailing newline: %q", line)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
	if got["event"] != "request" || got["id"] != "abc-2" || got["err"] != `queue "full"` {
		t.Errorf("decoded %v", got)
	}
	if got["status"] != float64(503) || got["cached"] != true || got["dur_ms"] != 1.5 {
		t.Errorf("numeric/bool/duration fields not typed: %v", got)
	}
	if got["ts"] != "2026-08-05T10:30:00.123Z" {
		t.Errorf("ts = %v", got["ts"])
	}
}

func TestLoggerOddPairs(t *testing.T) {
	var b strings.Builder
	pinned(&b, FormatKV).Log("e", "dangling")
	if !strings.Contains(b.String(), `dangling=(missing)`) {
		t.Errorf("odd kv handling: %q", b.String())
	}
}

func TestNilLoggerDiscards(t *testing.T) {
	var l *Logger
	l.Log("event", "k", "v") // must not panic
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"": FormatKV, "kv": FormatKV, "logfmt": FormatKV, "json": FormatJSON} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) accepted")
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := RequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("id %q missing prefix separator", id)
		}
	}
}
