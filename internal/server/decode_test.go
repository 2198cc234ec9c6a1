package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// decodeProgram is a program text with every kind of character the
// string decoder treats apart: HTML-sensitive characters and U+2028,
// which json.Marshal writes as \u escapes, control characters, a quote,
// a backslash and non-ASCII text.
var decodeProgram = "func f # <a&b> \"q\" \\ \u2028\u2029 é 漢 \ufffd \x00\x01\x1f\x7f\t\r\n" + demoProgram[len("func demo\n"):]

// fullOptions sets every RequestOptions field.
var fullOptions = RequestOptions{
	Scheduler: "traditional", Policy: "auto", TradLatency: 2.5, Alias: "conservative",
	Chances: "dp", Allocator: "coloring", SkipRegalloc: true, SkipPass2: true,
	NoPressureTie: true, NoExposeTie: true, Regs: 48, SpillPool: 8, Budget: "large",
}

// decodeAccepts are values whose json.Marshal encoding the fast decoder
// must take and decode to the same value: every field set and unset, in
// both shapes. (An unset BatchRequest.Programs encodes as null, which
// the fast decoder declines; see decodeDeclines.)
var decodeAccepts = []any{
	&CompileRequest{},
	&CompileRequest{Program: decodeProgram},
	&CompileRequest{Program: decodeProgram, Options: fullOptions, TimeoutMillis: 1500, Priority: "batch"},
	&CompileRequest{Options: RequestOptions{TradLatency: 1e-300, Regs: -1 << 31, SpillPool: 1<<31 - 1}, TimeoutMillis: -1 << 63},
	&CompileRequest{Options: RequestOptions{TradLatency: -0.5e10, Regs: -7}, TimeoutMillis: 1<<63 - 1},
	&BatchRequest{Programs: []CompileRequest{}},
	&BatchRequest{Programs: []CompileRequest{
		{Program: decodeProgram},
		{Program: demoProgram, Options: fullOptions, TimeoutMillis: 7, Priority: "interactive"},
		{},
	}},
}

// decodeAcceptsRaw are hand-written bodies inside the shape that
// json.Marshal does not write, each with the shape it is accepted as:
// every escape, upper-case hex digits, keys out of order, empty objects
// and a zero with a sign.
var decodeAcceptsRaw = []struct {
	body string
	v    any
}{
	{`{"program":"\"\\\/\b\f\n\r\t\u00e9\u00E9\u2028\uFFFD\u0000"}`, &CompileRequest{}},
	{`{"priority":"batch","options":{},"timeout_ms":-0,"program":""}`, &CompileRequest{}},
	{`{"options":{"budget":"small","trad_latency":-0.0E+1,"regs":0,"skip_pass2":false}}`, &CompileRequest{}},
	{` { } `, &CompileRequest{}},
	{` { } `, &BatchRequest{}},
	{`{"programs":[{},{"program":"x"}]}`, &BatchRequest{}},
}

// decodeDeclines are bodies outside the fixed shape, one for each kind
// of input the fast decoder declines; it declines each as either shape.
var decodeDeclines = []struct {
	name, body string
}{
	{"null", `null`},
	{"null-field", `{"program":null}`},
	{"null-options", `{"options":null}`},
	{"null-programs", `{"programs":null}`},
	{"null-element", `{"programs":[null]}`},
	{"unknown-key", `{"program":"x","extra":1}`},
	{"case-variant-key", `{"Program":"x"}`},
	{"escaped-key", `{"progr\u0061m":"x"}`},
	{"duplicate-key", `{"program":"x","program":"y"}`},
	{"duplicate-option", `{"options":{"regs":1,"regs":2}}`},
	{"duplicate-programs", `{"programs":[],"programs":[]}`},
	{"string-for-int", `{"timeout_ms":"5"}`},
	{"int-for-string", `{"program":5}`},
	{"int-for-bool", `{"options":{"skip_pass2":1}}`},
	{"fraction-int", `{"options":{"regs":1.0}}`},
	{"exponent-int", `{"timeout_ms":1e3}`},
	{"overflow-int", `{"timeout_ms":9223372036854775808}`},
	{"negative-overflow-int", `{"options":{"regs":-9223372036854775809}}`},
	{"long-int", `{"timeout_ms":12345678901234567890}`},
	{"out-of-range-float", `{"options":{"trad_latency":1e400}}`},
	{"leading-zero", `{"timeout_ms":01}`},
	{"surrogate-escape", `{"program":"\ud83d\ude00"}`},
	{"lone-surrogate", `{"program":"\udc00"}`},
	{"invalid-utf8", "{\"program\":\"\xff\"}"},
	{"raw-control", "{\"program\":\"a\nb\"}"},
	{"bad-escape", `{"program":"\x"}`},
	{"short-unicode-escape", `{"program":"\u12"}`},
	{"trailing-text", `{"program":"x"} {}`},
	{"trailing-comma", `{"program":"x",}`},
	{"unterminated", `{"program":"x"`},
	{"syntax", `{nope`},
	{"empty", ``},
	{"array", `[{"program":"x"}]`},
	{"bom", "\ufeff{}"},
}

// checkFastDecode runs the fast decoder on body into a value of v's
// type and, when it accepts, checks that encoding/json decodes body
// without error to the same value. It reports whether the fast decoder
// accepted. A declined decode must leave its target untouched.
func checkFastDecode(t *testing.T, body []byte, v any) bool {
	t.Helper()
	typ := reflect.TypeOf(v).Elem()
	fast := reflect.New(typ)
	sentinel := reflect.New(typ)
	if typ == reflect.TypeOf(CompileRequest{}) {
		sentinel.Interface().(*CompileRequest).Program = "untouched"
	} else {
		sentinel.Interface().(*BatchRequest).Programs = []CompileRequest{{Program: "untouched"}}
	}
	fast.Elem().Set(sentinel.Elem())
	var scratch []byte
	if !decodeFast(body, fast.Interface(), &scratch) {
		if !reflect.DeepEqual(fast.Interface(), sentinel.Interface()) {
			t.Fatalf("declined %s decode of %q changed its target to %+v", typ.Name(), body, fast.Elem())
		}
		return false
	}
	want := reflect.New(typ)
	if err := json.Unmarshal(body, want.Interface()); err != nil {
		t.Fatalf("fast path accepted %s %q, encoding/json: %v", typ.Name(), body, err)
	}
	if !reflect.DeepEqual(fast.Interface(), want.Interface()) {
		t.Fatalf("fast %s decode of %q:\n%+v\nencoding/json:\n%+v", typ.Name(), body, fast.Elem(), want.Elem())
	}
	return true
}

// TestDecodeFast checks the fast decoder accepts json.Marshal output of
// both shapes with every field set and unset, decoding what was
// encoded, and declines each kind of input outside the shape, whose
// decode then falls to encoding/json.
func TestDecodeFast(t *testing.T) {
	for i, v := range decodeAccepts {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !checkFastDecode(t, body, v) {
			t.Errorf("accepts[%d]: fast path declined %s", i, body)
		}
		// White space around every token is inside the shape too.
		indented, err := json.MarshalIndent(v, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if !checkFastDecode(t, append(append([]byte("\r\n"), indented...), " \n"...), v) {
			t.Errorf("accepts[%d]: fast path declined the indented %s", i, indented)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		var scratch []byte
		if decodeFast(body, got, &scratch); !reflect.DeepEqual(got, v) {
			t.Errorf("accepts[%d]: decoded %+v, encoded %+v", i, got, v)
		}
	}
	for _, c := range decodeAcceptsRaw {
		if !checkFastDecode(t, []byte(c.body), c.v) {
			t.Errorf("fast path declined %T %s", c.v, c.body)
		}
	}
	// Invalid UTF-8 in a value json.Marshal encodes comes out as U+FFFD.
	body, err := json.Marshal(CompileRequest{Program: "a\xffb"})
	if err != nil {
		t.Fatal(err)
	}
	if !checkFastDecode(t, body, &CompileRequest{}) {
		t.Errorf("fast path declined %s", body)
	}
	for _, c := range decodeDeclines {
		for _, v := range []any{&CompileRequest{}, &BatchRequest{}} {
			if checkFastDecode(t, []byte(c.body), v) {
				t.Errorf("%s: fast path accepted %T %q", c.name, v, c.body)
			}
		}
	}
}

// TestDecodeBodyPooledBuffer decodes two bodies in turn through the
// pooled buffer and finds the first value intact: its strings, escaped
// and not, are copies, not views of the buffer the second body
// overwrote.
func TestDecodeBodyPooledBuffer(t *testing.T) {
	decode := func(fill string) CompileRequest {
		body, err := json.Marshal(CompileRequest{Program: strings.Repeat(fill+"\n", 64), Priority: fill})
		if err != nil {
			t.Fatal(err)
		}
		var req CompileRequest
		if err := decodeBody(bytes.NewReader(body), &req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	first := decode("a")
	decode("b")
	if first.Program != strings.Repeat("a\n", 64) || first.Priority != "a" {
		t.Fatalf("first request changed after the second decode: %q, %q", first.Program, first.Priority)
	}
}

// FuzzDecodeRequest checks the fast decoder against encoding/json on
// any bytes, as both request shapes: an accepted decode must be what
// json.Unmarshal returns, without error, and a declined one
// must leave its target untouched.
func FuzzDecodeRequest(f *testing.F) {
	for _, v := range decodeAccepts {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, c := range decodeAcceptsRaw {
		f.Add([]byte(c.body))
	}
	for _, c := range decodeDeclines {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFastDecode(t, body, &CompileRequest{})
		checkFastDecode(t, body, &BatchRequest{})
	})
}
