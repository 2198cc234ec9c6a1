package server

// Request decoding. Every compile request body is read whole. A body of
// the fixed shape json.Marshal writes for a CompileRequest or a
// BatchRequest, which is what every client in this repository sends, is
// decoded by a hand-written reader in one pass; any other body goes to
// json.Unmarshal, which then supplies the value or the error text and
// rejects any text after the value. The
// fast path accepts only input that encoding/json decodes without error
// to the same value, so the two paths never disagree
// (FuzzDecodeRequest).

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// bodyBuffer holds one request body and the scratch space the fast
// decoder unescapes strings in. Decoded strings are copies, so neither
// is referenced once the decode returns.
type bodyBuffer struct {
	body    bytes.Buffer
	scratch []byte
}

// bodyPool recycles body buffers, so reading a body allocates nothing
// in the steady state.
var bodyPool = sync.Pool{New: func() any { return new(bodyBuffer) }}

// bodyPoolMax caps the buffers a bodyBuffer keeps when it goes back to
// the pool, so one large request does not pin its memory.
const bodyPoolMax = 64 << 10

// decodeBody reads r whole and decodes it into v, a *CompileRequest or
// a *BatchRequest. The buffer grows with what is read, never from a
// length the client declares. A read error is returned as it is: an
// *http.MaxBytesError when r is a MaxBytesReader and the body is over
// its limit, whatever the bytes up to the limit were.
func decodeBody(r io.Reader, v any) error {
	bb := bodyPool.Get().(*bodyBuffer)
	defer func() {
		if bb.body.Cap() <= bodyPoolMax && cap(bb.scratch) <= bodyPoolMax {
			bb.body.Reset()
			bodyPool.Put(bb)
		}
	}()
	if _, err := bb.body.ReadFrom(r); err != nil {
		return err
	}
	body := bb.body.Bytes()
	if decodeFast(body, v, &bb.scratch) {
		return nil
	}
	return json.Unmarshal(body, v)
}

// decodeFast decodes body into v, a *CompileRequest or a *BatchRequest,
// if body has the fixed shape, and reports whether it did. The shape:
//
//   - one object, then only white space;
//   - the exact-case keys program, options, timeout_ms and priority,
//     each at most once, in any order; a batch is {"programs":[…]} of
//     such objects;
//   - inside options, the RequestOptions keys, each at most once;
//   - strings of valid UTF-8 with any escape but a \u surrogate;
//     integers without fraction or exponent that fit their field for
//     timeout_ms, regs and spill_pool; a number for trad_latency; true
//     or false for the flags.
//
// Anything else declines and leaves v untouched: null, an unknown,
// case-variant or repeated key, a type mismatch, trailing text or a
// syntax error. scratch is reused for unescaping.
func decodeFast(body []byte, v any, scratch *[]byte) bool {
	d := fastDecoder{b: body, scratch: *scratch}
	var ok bool
	switch v := v.(type) {
	case *CompileRequest:
		var req CompileRequest
		if ok = d.request(&req) && d.end(); ok {
			*v = req
		}
	case *BatchRequest:
		var batch BatchRequest
		if ok = d.batch(&batch) && d.end(); ok {
			*v = batch
		}
	}
	*scratch = d.scratch
	return ok
}

// fastDecoder reads a body of the fixed request shape; b[i:] is what is
// left to read. Each method reads one value, after any white space, and
// reports false for anything outside the shape.
type fastDecoder struct {
	b       []byte
	i       int
	scratch []byte
}

// space skips JSON white space.
func (d *fastDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was there.
func (d *fastDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only white space is left.
func (d *fastDecoder) end() bool {
	d.space()
	return d.i == len(d.b)
}

// object reads an object. For each member it reads the key and calls
// member, which reads the value and returns the key's bit among the
// object's keys, or 0 for an unknown key or a value it declines. A
// repeated key declines the object.
func (d *fastDecoder) object(member func(key []byte) uint32) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := d.key()
		if !ok || !d.consume(':') {
			return false
		}
		bit := member(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// key reads an object key: the raw bytes up to the next quote, a view
// of the body that member compares and does not keep. A key with an
// escape never equals a known key, so it declines.
func (d *fastDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	key := d.b[d.i : d.i+n]
	d.i += n + 1
	return key, true
}

// request reads a CompileRequest object.
func (d *fastDecoder) request(req *CompileRequest) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "program":
			return flag(1, d.str(&req.Program))
		case "options":
			return flag(2, d.options(&req.Options))
		case "timeout_ms":
			return flag(4, d.integer(&req.TimeoutMillis, 64))
		case "priority":
			return flag(8, d.str(&req.Priority))
		}
		return 0
	})
}

// batch reads a BatchRequest object. An empty programs array decodes to
// an empty, non-nil slice, as encoding/json decodes it.
func (d *fastDecoder) batch(batch *BatchRequest) bool {
	return d.object(func(key []byte) uint32 {
		if string(key) != "programs" || !d.consume('[') {
			return 0
		}
		batch.Programs = []CompileRequest{}
		if d.consume(']') {
			return 1
		}
		for {
			batch.Programs = append(batch.Programs, CompileRequest{})
			if !d.request(&batch.Programs[len(batch.Programs)-1]) {
				return 0
			}
			if d.consume(']') {
				return 1
			}
			if !d.consume(',') {
				return 0
			}
		}
	})
}

// options reads a RequestOptions object.
func (d *fastDecoder) options(o *RequestOptions) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "scheduler":
			return flag(1<<0, d.str(&o.Scheduler))
		case "policy":
			return flag(1<<1, d.str(&o.Policy))
		case "trad_latency":
			return flag(1<<2, d.number(&o.TradLatency))
		case "alias":
			return flag(1<<3, d.str(&o.Alias))
		case "chances":
			return flag(1<<4, d.str(&o.Chances))
		case "allocator":
			return flag(1<<5, d.str(&o.Allocator))
		case "skip_regalloc":
			return flag(1<<6, d.boolean(&o.SkipRegalloc))
		case "skip_pass2":
			return flag(1<<7, d.boolean(&o.SkipPass2))
		case "no_pressure_tie":
			return flag(1<<8, d.boolean(&o.NoPressureTie))
		case "no_expose_tie":
			return flag(1<<9, d.boolean(&o.NoExposeTie))
		case "regs":
			return flag(1<<10, d.int(&o.Regs))
		case "spill_pool":
			return flag(1<<11, d.int(&o.SpillPool))
		case "budget":
			return flag(1<<12, d.str(&o.Budget))
		}
		return 0
	})
}

// flag returns bit when ok and 0 otherwise.
func flag(bit uint32, ok bool) uint32 {
	if ok {
		return bit
	}
	return 0
}

// plain marks the bytes a string holds as they are: printable ASCII but
// the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string into *dst. It copies runs of plain bytes and
// decodes escapes in one pass, into scratch when there are escapes, and
// declines control characters, invalid UTF-8 and \u surrogates, all of
// which encoding/json either rejects or rewrites.
func (d *fastDecoder) str(dst *string) bool {
	if !d.consume('"') {
		return false
	}
	b := d.b
	out := d.scratch[:0]
	escaped := false
	start := d.i
	for i := start; i < len(b); {
		c := b[i]
		if plain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			if escaped {
				out = append(out, b[start:i]...)
				*dst = string(out)
				d.scratch = out
			} else {
				*dst = string(b[start:i])
			}
			d.i = i + 1
			return true
		case c == '\\':
			if i+1 >= len(b) {
				return false
			}
			out = append(out, b[start:i]...)
			escaped = true
			e := b[i+1]
			i += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if i+4 > len(b) {
					return false
				}
				r, err := strconv.ParseUint(string(b[i:i+4]), 16, 32)
				if err != nil || 0xd800 <= r && r < 0xe000 {
					return false
				}
				out = utf8.AppendRune(out, rune(r))
				i += 4
			default:
				return false
			}
			start = i
		case c < 0x20:
			return false
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return false
			}
			i += n
		}
	}
	return false
}

// numberEnd returns the end of the JSON number at b[i:], or -1 if there
// is none there, and whether it has a fraction or an exponent.
func numberEnd(b []byte, i int) (end int, real bool) {
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return -1, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1, false
		}
		real = true
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1, false
		}
		real = true
	}
	return i, real
}

// integer reads an integer that fits in bits into *dst.
func (d *fastDecoder) integer(dst *int64, bits int) bool {
	d.space()
	end, real := numberEnd(d.b, d.i)
	if end < 0 || real {
		return false
	}
	n, err := strconv.ParseInt(string(d.b[d.i:end]), 10, bits)
	if err != nil {
		return false
	}
	*dst = n
	d.i = end
	return true
}

// int reads an integer that fits in an int into *dst.
func (d *fastDecoder) int(dst *int) bool {
	var n int64
	if !d.integer(&n, strconv.IntSize) {
		return false
	}
	*dst = int(n)
	return true
}

// number reads any JSON number that strconv.ParseFloat, as
// encoding/json calls it, takes without error.
func (d *fastDecoder) number(dst *float64) bool {
	d.space()
	end, _ := numberEnd(d.b, d.i)
	if end < 0 {
		return false
	}
	f, err := strconv.ParseFloat(string(d.b[d.i:end]), 64)
	if err != nil {
		return false
	}
	*dst = f
	d.i = end
	return true
}

// boolean reads true or false into *dst.
func (d *fastDecoder) boolean(dst *bool) bool {
	d.space()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		d.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		d.i += len("false")
	default:
		return false
	}
	return true
}
