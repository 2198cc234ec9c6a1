package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// ParseError is the typed error Parse returns for malformed input: the
// 1-based source line plus the underlying cause. User-facing tools match
// it with errors.As to attach file context; the rendered message keeps
// the traditional "line N: ..." shape.
type ParseError struct {
	// Line is the 1-based source line of the error, or 0 when the error
	// is not attributable to a single line (e.g. whole-program validation).
	Line int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %v", e.Line, e.Err)
	}
	return e.Err.Error()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads a program in the textual assembly syntax produced by
// Program.String. The grammar, one construct per line:
//
//	# comment                       (also trailing after any line)
//	func NAME
//	block LABEL freq=FLOAT
//	liveout REG, REG, ...
//	DST = const IMM
//	DST = OP SRC, SRC[, IMM]
//	DST = load SYM[BASE+OFF]        (or SYM[OFF] without a base)
//	store SYM[BASE+OFF], SRC
//	br SRC, LABEL
//	jmp LABEL / call NAME / ret / nop
//	end                             (closes a block)
//
// Any instruction may end with !spill and/or !lat=FLOAT attributes.
// Registers are rN (physical) or vN (virtual).
//
// Parse makes one pass over src and allocates per block, not per line:
// instructions and their register lists are carved from slabs shared by
// the whole program, and names are substrings of src. An instruction
// line is taken apart left to right: destination, mnemonic (found
// without hashing), then the operands.
func Parse(src string) (*Program, error) {
	p := &parser{prog: &Program{}, linesLeft: strings.Count(src, "\n") + 1}
	for lineNo := 1; ; lineNo++ {
		line, more := src, false
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src, more = src[:i], src[i+1:], true
		}
		if err := p.line(strings.TrimSpace(stripComment(line))); err != nil {
			return nil, &ParseError{Line: lineNo, Err: err}
		}
		if !more {
			break
		}
		p.linesLeft--
	}
	if p.block != nil {
		return nil, &ParseError{Err: fmt.Errorf("unterminated block %q", p.block.Label)}
	}
	if err := Validate(p.prog); err != nil {
		return nil, &ParseError{Err: err}
	}
	return p.prog, nil
}

// MustParse is Parse that panics on error; intended for tests and
// statically-known example programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseBlock parses a single block (the "block ... end" form, or bare
// instruction lines) and returns it.
func ParseBlock(src string) (*Block, error) {
	trimmed := strings.TrimSpace(src)
	if !strings.HasPrefix(trimmed, "block") {
		src = "block b0 freq=1\n" + src + "\nend"
	}
	prog, err := Parse("func f\n" + src)
	if err != nil {
		return nil, err
	}
	blocks := prog.Blocks()
	if len(blocks) != 1 {
		return nil, fmt.Errorf("expected exactly one block, found %d", len(blocks))
	}
	return blocks[0], nil
}

// MustParseBlock is ParseBlock that panics on error.
func MustParseBlock(src string) *Block {
	b, err := ParseBlock(src)
	if err != nil {
		panic(err)
	}
	return b
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

// slabMax caps the size of one slab chunk, so a source of mostly blank
// or comment lines cannot make Parse reserve memory in proportion to
// its line count.
const slabMax = 1024

type parser struct {
	prog  *Program
	fn    *Func
	block *Block

	// linesLeft counts the lines from the current one to the end of the
	// source: an upper bound on the instructions still to come, which
	// sizes each new slab chunk.
	linesLeft int
	// instrs, lists and regs are the slabs instructions, blocks'
	// instruction lists and instructions' register lists are carved
	// from. The open block's instructions are lists[open:].
	instrs []Instr
	lists  []*Instr
	open   int
	regs   []Reg
}

// newInstr returns a zeroed instruction from the instruction slab.
func (p *parser) newInstr() *Instr {
	if len(p.instrs) == cap(p.instrs) {
		p.instrs = make([]Instr, 0, min(p.linesLeft, slabMax))
	}
	p.instrs = p.instrs[:len(p.instrs)+1]
	return &p.instrs[len(p.instrs)-1]
}

// addInstr appends in to the open block's instruction list. When the
// list slab is full, the open block's list moves to a new chunk.
func (p *parser) addInstr(in *Instr) {
	if len(p.lists) == cap(p.lists) {
		n := len(p.lists) - p.open
		chunk := make([]*Instr, n, max(2*n, min(p.linesLeft, slabMax)))
		copy(chunk, p.lists[p.open:])
		p.lists, p.open = chunk, 0
	}
	in.Seq = len(p.lists) - p.open
	p.lists = append(p.lists, in)
}

// newRegs returns n registers from the register slab. The slice's
// capacity is its length, so appending to it never writes into the
// registers of the next instruction.
func (p *parser) newRegs(n int) []Reg {
	if cap(p.regs)-len(p.regs) < n {
		p.regs = make([]Reg, 0, max(n, min(2*p.linesLeft, 2*slabMax)))
	}
	i := len(p.regs)
	p.regs = p.regs[:i+n]
	return p.regs[i : i+n : i+n]
}

func (p *parser) line(s string) error {
	if s == "" {
		return nil
	}
	// Every keyword starts with one of these letters, so a line that
	// starts with another, as one with a destination does, skips the
	// field split.
	head, rest := s, ""
	if c := s[0]; c == 'f' || c == 'b' || c == 'e' || c == 'l' {
		head, rest = nextField(s)
	}
	switch head {
	case "func":
		if p.block != nil {
			return fmt.Errorf("func inside block")
		}
		name, rest := nextField(rest)
		if extra, _ := nextField(rest); name == "" || extra != "" {
			return fmt.Errorf("func wants a name")
		}
		p.fn = &Func{Name: name}
		p.prog.Funcs = append(p.prog.Funcs, p.fn)
		return nil
	case "block":
		if p.fn == nil {
			return fmt.Errorf("block outside func")
		}
		if p.block != nil {
			return fmt.Errorf("nested block")
		}
		label, rest := nextField(rest)
		if label == "" {
			return fmt.Errorf("block wants a label")
		}
		b := &Block{Label: label, Freq: 1}
		for {
			var f string
			if f, rest = nextField(rest); f == "" {
				break
			}
			val, ok := strings.CutPrefix(f, "freq=")
			if !ok {
				return fmt.Errorf("unknown block attribute %q", f)
			}
			freq, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(freq) || math.IsInf(freq, 0) {
				return fmt.Errorf("bad freq %q", val)
			}
			b.Freq = freq
		}
		p.block = b
		p.open = len(p.lists)
		return nil
	case "end":
		if p.block == nil {
			return fmt.Errorf("end outside block")
		}
		if n := len(p.lists); n > p.open {
			// Capped, so appending to one block's list never writes
			// into the next block's.
			p.block.Instrs = p.lists[p.open:n:n]
		}
		p.fn.Blocks = append(p.fn.Blocks, p.block)
		p.block = nil
		return nil
	case "liveout":
		if p.block == nil {
			return fmt.Errorf("liveout outside block")
		}
		list := s[len("liveout"):]
		var ops [maxOperands]string
		n := splitOperands(&ops, list)
		if n == 0 {
			return nil
		}
		regs := p.newRegs(n)
		for i := range regs {
			var tok string
			tok, list = nextOperand(list)
			r, err := parseReg(tok)
			if err != nil {
				return err
			}
			regs[i] = r
		}
		if p.block.LiveOut == nil {
			p.block.LiveOut = regs
		} else {
			p.block.LiveOut = append(p.block.LiveOut, regs...)
		}
		return nil
	}
	if p.block == nil {
		return fmt.Errorf("instruction outside block: %q", s)
	}
	in := p.newInstr()
	if err := p.parseInstr(in, s); err != nil {
		return err
	}
	p.addInstr(in)
	return nil
}

// parseInstr parses the trimmed instruction line s into in. Its checks
// run in a fixed order, so a line with several faults reports the same
// one whatever the faults are: the !attributes right to left, then the
// destination, the mnemonic, the operand count and the operands left
// to right.
func (p *parser) parseInstr(in *Instr, s string) error {
	if i := strings.IndexByte(s, '!'); i >= 0 {
		if err := parseAttrs(in, s[i:]); err != nil {
			return err
		}
		s = strings.TrimSpace(s[:i])
	}
	if eq := strings.IndexByte(s, '='); eq >= 0 {
		d := strings.TrimSpace(s[:eq])
		if !looksLikeReg(d) {
			return fmt.Errorf("bad destination %q", d)
		}
		r, err := parseReg(d)
		if err != nil {
			return err
		}
		in.Dst = r
		s = strings.TrimSpace(s[eq+1:])
	}

	// The mnemonic runs to the first ASCII space; the operands are the
	// comma-separated rest.
	m := 0
	for m < len(s) && s[m] != ' ' {
		m++
	}
	op := OpByName(s[:m])
	if op == OpInvalid {
		return fmt.Errorf("unknown opcode %q", s[:m])
	}
	in.Op = op
	var operands [maxOperands]string
	nops := splitOperands(&operands, s[m:])

	switch {
	case op == OpConst:
		if nops != 1 {
			return fmt.Errorf("const wants one immediate")
		}
		imm, err := strconv.ParseInt(operands[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad immediate %q", operands[0])
		}
		in.Imm = imm
	case op.IsLoad():
		if nops != 1 {
			return fmt.Errorf("load wants one memory operand")
		}
		if err := parseMem(in, operands[0]); err != nil {
			return err
		}
	case op.IsStore():
		if nops != 2 {
			return fmt.Errorf("store wants a memory operand and a source")
		}
		if err := parseMem(in, operands[0]); err != nil {
			return err
		}
		r, err := parseReg(operands[1])
		if err != nil {
			return err
		}
		in.Srcs = p.newRegs(1)
		in.Srcs[0] = r
	case op == OpBr:
		if nops != 2 {
			return fmt.Errorf("br wants a condition and a target")
		}
		r, err := parseReg(operands[0])
		if err != nil {
			return err
		}
		in.Srcs = p.newRegs(1)
		in.Srcs[0] = r
		in.Target = operands[1]
	case op == OpJmp || op == OpCall:
		if nops != 1 {
			return fmt.Errorf("%v wants a target", op)
		}
		in.Target = operands[0]
	case op == OpRet || op == OpNop || op == OpVNop:
		if nops != 0 {
			return fmt.Errorf("%v wants no operands", op)
		}
	default:
		nsrc := op.NumSrcs()
		want := nsrc
		if op.HasImm() {
			want++
		}
		if nops != want {
			return fmt.Errorf("%v wants %d operands, got %d", op, want, nops)
		}
		if nsrc > 0 {
			in.Srcs = p.newRegs(nsrc)
		}
		for i := range in.Srcs {
			r, err := parseReg(operands[i])
			if err != nil {
				return err
			}
			in.Srcs[i] = r
		}
		if op.HasImm() {
			imm, err := strconv.ParseInt(operands[nops-1], 10, 64)
			if err != nil {
				return fmt.Errorf("bad immediate %q", operands[nops-1])
			}
			in.Imm = imm
		}
	}
	return nil
}

// parseAttrs applies the "!spill" and "!lat=FLOAT" attributes of s,
// which starts at the line's first '!', from the last one back.
func parseAttrs(in *Instr, s string) error {
	for s != "" {
		i := strings.LastIndexByte(s, '!')
		attr := strings.TrimSpace(s[i+1:])
		switch {
		case attr == "spill":
			in.IsSpill = true
		case strings.HasPrefix(attr, "lat="):
			lat, err := strconv.ParseFloat(attr[len("lat="):], 64)
			if err != nil || math.IsNaN(lat) || math.IsInf(lat, 0) {
				return fmt.Errorf("bad latency attribute %q", attr)
			}
			in.KnownLatency = lat
		default:
			return fmt.Errorf("unknown attribute %q", attr)
		}
		s = s[:i]
	}
	return nil
}

// parseMem parses "sym[base+off]", "sym[off]" or "sym[base]".
func parseMem(in *Instr, s string) error {
	open := strings.IndexByte(s, '[')
	if open < 0 || s[len(s)-1] != ']' {
		return fmt.Errorf("bad memory operand %q", s)
	}
	in.Sym = s[:open]
	if in.Sym == "?" {
		in.Sym = "" // explicit "may alias anything"
	}
	inner := s[open+1 : len(s)-1]
	plus := strings.IndexByte(inner, '+')
	if plus < 0 {
		// Either a bare offset or a bare base register.
		if looksLikeReg(inner) {
			r, err := parseReg(strings.TrimSpace(inner))
			if err != nil {
				return err
			}
			in.Base = r
			return nil
		}
		v, err := strconv.ParseInt(inner, 10, 64)
		if err != nil {
			return fmt.Errorf("bad memory offset %q", inner)
		}
		in.Off = v
		return nil
	}
	r, err := parseReg(strings.TrimSpace(inner[:plus]))
	if err != nil {
		return err
	}
	in.Base = r
	off := inner[plus+1:]
	v, err := strconv.ParseInt(strings.TrimSpace(off), 10, 64)
	if err != nil {
		return fmt.Errorf("bad memory offset %q", off)
	}
	in.Off = v
	return nil
}

func looksLikeReg(s string) bool {
	return len(s) >= 2 && (s[0] == 'r' || s[0] == 'v') && s[1] >= '0' && s[1] <= '9'
}

// parseReg parses "rN" or "vN". Its callers trim s.
func parseReg(s string) (Reg, error) {
	if !looksLikeReg(s) {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	if s[0] == 'r' {
		if n > maxPhysNum {
			return NoReg, fmt.Errorf("physical register number out of range in %q", s)
		}
		return Phys(n), nil
	}
	if n > MaxVirtNum {
		return NoReg, fmt.Errorf("virtual register number out of range in %q", s)
	}
	return Virt(n), nil
}

// maxOperands is the most operands any instruction takes: fma's three
// sources.
const maxOperands = 3

// splitOperands stores the non-empty, trimmed, comma-separated operands
// of s in ops and returns how many there are, counting those past
// len(ops) that it does not store.
func splitOperands(ops *[maxOperands]string, s string) int {
	n := 0
	for {
		var tok string
		if tok, s = nextOperand(s); tok == "" {
			return n
		}
		if n < len(ops) {
			ops[n] = tok
		}
		n++
	}
}

// nextOperand returns the first non-empty comma-separated operand of s,
// trimmed, and the text after its comma; "" when there is none.
func nextOperand(s string) (tok, rest string) {
	for s != "" {
		tok, s, _ = strings.Cut(s, ",")
		if tok = strings.TrimSpace(tok); tok != "" {
			return tok, s
		}
	}
	return "", ""
}

// nextField returns the first field of s and the text after it,
// splitting where strings.Fields would: at runs of Unicode white space.
func nextField(s string) (field, rest string) {
	start := len(s)
	for i, r := range s {
		if !unicode.IsSpace(r) {
			start = i
			break
		}
	}
	s = s[start:]
	for i, r := range s {
		if unicode.IsSpace(r) {
			return s[:i], s[i:]
		}
	}
	return s, ""
}
