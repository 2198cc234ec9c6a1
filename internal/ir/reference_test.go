package ir_test

// This file keeps the codec the package had before its one-pass
// rewrite — the line-splitting parser, the fmt-based printer and the
// field-at-a-time SHA-256 fingerprint — as test-only references, and
// checks the package's codec against them input by input: same
// accept/reject decision, same error text, same printed text, same
// fingerprints. The references are the old code with only the
// physical-register range check corrected (it wrapped n through int32
// before comparing).

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	. "bsched/internal/ir"
	"bsched/internal/workload"
)

// --- reference parser -----------------------------------------------------

func refParse(src string) (*Program, error) {
	p := &refParser{prog: &Program{}}
	for i, line := range strings.Split(src, "\n") {
		if err := p.line(strings.TrimSpace(refStripComment(line))); err != nil {
			return nil, &ParseError{Line: i + 1, Err: err}
		}
	}
	if p.block != nil {
		return nil, &ParseError{Err: fmt.Errorf("unterminated block %q", p.block.Label)}
	}
	if err := Validate(p.prog); err != nil {
		return nil, &ParseError{Err: err}
	}
	return p.prog, nil
}

func refStripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

type refParser struct {
	prog  *Program
	fn    *Func
	block *Block
}

func (p *refParser) line(s string) error {
	if s == "" {
		return nil
	}
	fields := strings.Fields(s)
	switch fields[0] {
	case "func":
		if p.block != nil {
			return fmt.Errorf("func inside block")
		}
		if len(fields) != 2 {
			return fmt.Errorf("func wants a name")
		}
		p.fn = &Func{Name: fields[1]}
		p.prog.Funcs = append(p.prog.Funcs, p.fn)
		return nil
	case "block":
		if p.fn == nil {
			return fmt.Errorf("block outside func")
		}
		if p.block != nil {
			return fmt.Errorf("nested block")
		}
		if len(fields) < 2 {
			return fmt.Errorf("block wants a label")
		}
		b := &Block{Label: fields[1], Freq: 1}
		for _, f := range fields[2:] {
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
		return nil
	case "end":
		if p.block == nil {
			return fmt.Errorf("end outside block")
		}
		p.fn.Blocks = append(p.fn.Blocks, p.block)
		p.block = nil
		return nil
	case "liveout":
		if p.block == nil {
			return fmt.Errorf("liveout outside block")
		}
		for _, tok := range refSplitOperands(s[len("liveout"):]) {
			r, err := refParseReg(tok)
			if err != nil {
				return err
			}
			p.block.LiveOut = append(p.block.LiveOut, r)
		}
		return nil
	}
	if p.block == nil {
		return fmt.Errorf("instruction outside block: %q", s)
	}
	in, err := refParseInstr(s)
	if err != nil {
		return err
	}
	in.Seq = len(p.block.Instrs)
	p.block.Instrs = append(p.block.Instrs, in)
	return nil
}

func refParseInstr(s string) (*Instr, error) {
	in := &Instr{}
	// Peel trailing !attributes.
	for {
		i := strings.LastIndexByte(s, '!')
		if i < 0 {
			break
		}
		attr := strings.TrimSpace(s[i+1:])
		switch {
		case attr == "spill":
			in.IsSpill = true
		case strings.HasPrefix(attr, "lat="):
			lat, err := strconv.ParseFloat(attr[len("lat="):], 64)
			if err != nil || math.IsNaN(lat) || math.IsInf(lat, 0) {
				return nil, fmt.Errorf("bad latency attribute %q", attr)
			}
			in.KnownLatency = lat
		default:
			return nil, fmt.Errorf("unknown attribute %q", attr)
		}
		s = strings.TrimSpace(s[:i])
	}

	if dst, rest, ok := strings.Cut(s, "="); ok {
		d := strings.TrimSpace(dst)
		if !refLooksLikeReg(d) {
			return nil, fmt.Errorf("bad destination %q", d)
		}
		r, err := refParseReg(d)
		if err != nil {
			return nil, err
		}
		in.Dst = r
		s = strings.TrimSpace(rest)
	}

	mnemonic, rest, _ := strings.Cut(s, " ")
	op := OpByName(mnemonic)
	if op == OpInvalid {
		return nil, fmt.Errorf("unknown opcode %q", mnemonic)
	}
	in.Op = op
	rest = strings.TrimSpace(rest)
	operands := refSplitOperands(rest)

	switch {
	case op == OpConst:
		if len(operands) != 1 {
			return nil, fmt.Errorf("const wants one immediate")
		}
		imm, err := strconv.ParseInt(operands[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad immediate %q", operands[0])
		}
		in.Imm = imm
	case op.IsLoad():
		if len(operands) != 1 {
			return nil, fmt.Errorf("load wants one memory operand")
		}
		if err := refParseMem(in, operands[0]); err != nil {
			return nil, err
		}
	case op.IsStore():
		if len(operands) != 2 {
			return nil, fmt.Errorf("store wants a memory operand and a source")
		}
		if err := refParseMem(in, operands[0]); err != nil {
			return nil, err
		}
		r, err := refParseReg(operands[1])
		if err != nil {
			return nil, err
		}
		in.Srcs = []Reg{r}
	case op == OpBr:
		if len(operands) != 2 {
			return nil, fmt.Errorf("br wants a condition and a target")
		}
		r, err := refParseReg(operands[0])
		if err != nil {
			return nil, err
		}
		in.Srcs = []Reg{r}
		in.Target = operands[1]
	case op == OpJmp || op == OpCall:
		if len(operands) != 1 {
			return nil, fmt.Errorf("%v wants a target", op)
		}
		in.Target = operands[0]
	case op == OpRet || op == OpNop || op == OpVNop:
		if len(operands) != 0 {
			return nil, fmt.Errorf("%v wants no operands", op)
		}
	default:
		want := op.NumSrcs()
		if op.HasImm() {
			want++
		}
		if len(operands) != want {
			return nil, fmt.Errorf("%v wants %d operands, got %d", op, want, len(operands))
		}
		for i := 0; i < op.NumSrcs(); i++ {
			r, err := refParseReg(operands[i])
			if err != nil {
				return nil, err
			}
			in.Srcs = append(in.Srcs, r)
		}
		if op.HasImm() {
			imm, err := strconv.ParseInt(operands[len(operands)-1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad immediate %q", operands[len(operands)-1])
			}
			in.Imm = imm
		}
	}
	return in, nil
}

// refParseMem parses "sym[base+off]", "sym[off]" or "sym[base]".
func refParseMem(in *Instr, s string) error {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return fmt.Errorf("bad memory operand %q", s)
	}
	in.Sym = s[:open]
	if in.Sym == "?" {
		in.Sym = "" // explicit "may alias anything"
	}
	inner := s[open+1 : len(s)-1]
	base, off, hasOff := strings.Cut(inner, "+")
	if !hasOff {
		// Either a bare offset or a bare base register.
		if refLooksLikeReg(inner) {
			r, err := refParseReg(inner)
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
	r, err := refParseReg(strings.TrimSpace(base))
	if err != nil {
		return err
	}
	in.Base = r
	v, err := strconv.ParseInt(strings.TrimSpace(off), 10, 64)
	if err != nil {
		return fmt.Errorf("bad memory offset %q", off)
	}
	in.Off = v
	return nil
}

func refLooksLikeReg(s string) bool {
	return len(s) >= 2 && (s[0] == 'r' || s[0] == 'v') && s[1] >= '0' && s[1] <= '9'
}

// refVirtBase is the first virtual register's Reg value.
const refVirtBase = 1 << 20

func refParseReg(s string) (Reg, error) {
	s = strings.TrimSpace(s)
	if !refLooksLikeReg(s) {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	if s[0] == 'r' {
		if n >= refVirtBase-1 { // the fix: compare n, not Reg(n)
			return NoReg, fmt.Errorf("physical register number out of range in %q", s)
		}
		return Phys(n), nil
	}
	if n > MaxVirtNum {
		return NoReg, fmt.Errorf("virtual register number out of range in %q", s)
	}
	return Virt(n), nil
}

func refSplitOperands(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// --- reference printer ----------------------------------------------------

// refReg prints a register through fmt, as the old Reg.String did.
type refReg Reg

func (r refReg) String() string {
	switch reg := Reg(r); {
	case reg.IsPhys():
		return fmt.Sprintf("r%d", reg.Num())
	case reg.IsVirt():
		return fmt.Sprintf("v%d", reg.Num())
	default:
		return "-"
	}
}

func refInstrString(in *Instr) string {
	var b strings.Builder
	switch {
	case in.Op == OpConst:
		fmt.Fprintf(&b, "%s = const %d", refReg(in.Dst), in.Imm)
	case in.Op.IsLoad():
		fmt.Fprintf(&b, "%s = load %s", refReg(in.Dst), refMemOperand(in))
	case in.Op.IsStore():
		fmt.Fprintf(&b, "store %s, %s", refMemOperand(in), refReg(in.Srcs[0]))
	case in.Op == OpBr:
		fmt.Fprintf(&b, "br %s, %s", refReg(in.Srcs[0]), in.Target)
	case in.Op == OpJmp:
		fmt.Fprintf(&b, "jmp %s", in.Target)
	case in.Op == OpCall:
		fmt.Fprintf(&b, "call %s", in.Target)
	case in.Op == OpRet:
		b.WriteString("ret")
	case in.Op == OpNop || in.Op == OpVNop:
		b.WriteString(in.Op.String())
	case in.Op.HasDst():
		fmt.Fprintf(&b, "%s = %s ", refReg(in.Dst), in.Op)
		for i, s := range in.Srcs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refReg(s).String())
		}
		if in.Op.HasImm() {
			if len(in.Srcs) > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", in.Imm)
		}
	default:
		fmt.Fprintf(&b, "%s", in.Op)
	}
	if in.IsSpill {
		b.WriteString(" !spill")
	}
	if in.KnownLatency > 0 {
		fmt.Fprintf(&b, " !lat=%g", in.KnownLatency)
	}
	return b.String()
}

func refMemOperand(in *Instr) string {
	sym := in.Sym
	if sym == "" {
		sym = "?"
	}
	if in.Base == NoReg {
		return fmt.Sprintf("%s[%d]", sym, in.Off)
	}
	return fmt.Sprintf("%s[%s+%d]", sym, refReg(in.Base), in.Off)
}

func refBlockString(b *Block) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %s freq=%g\n", b.Label, b.Freq)
	if len(b.LiveOut) > 0 {
		sb.WriteString("  liveout")
		for i, r := range b.LiveOut {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte(' ')
			sb.WriteString(refReg(r).String())
		}
		sb.WriteByte('\n')
	}
	for _, in := range b.Instrs {
		sb.WriteString("  ")
		sb.WriteString(refInstrString(in))
		sb.WriteByte('\n')
	}
	sb.WriteString("end\n")
	return sb.String()
}

func refFuncString(f *Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s\n", f.Name)
	for _, b := range f.Blocks {
		sb.WriteString(refBlockString(b))
	}
	return sb.String()
}

func refProgramString(p *Program) string {
	var sb strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&sb, "# program %s\n", p.Name)
	}
	for i, f := range p.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(refFuncString(f))
	}
	return sb.String()
}

// --- reference fingerprint ------------------------------------------------

const (
	refTagBlock   = 0xB1
	refTagInstr   = 0x15
	refTagFunc    = 0xF1
	refTagProgram = 0xA0
)

// refHasher streams the encoding into SHA-256 one field at a time.
type refHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newRefHasher() *refHasher { return &refHasher{h: sha256.New()} }

func (f *refHasher) u8(v uint8) {
	f.buf[0] = v
	f.h.Write(f.buf[:1])
}

func (f *refHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:8])
}

func (f *refHasher) i64(v int64)   { f.u64(uint64(v)) }
func (f *refHasher) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f *refHasher) reg(r Reg)     { f.u64(uint64(uint32(r))) }

func (f *refHasher) boolean(b bool) {
	if b {
		f.u8(1)
	} else {
		f.u8(0)
	}
}

func (f *refHasher) str(s string) {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
}

func (f *refHasher) sum64() uint64 {
	var out [sha256.Size]byte
	f.h.Sum(out[:0])
	return binary.LittleEndian.Uint64(out[:8])
}

func (f *refHasher) writeInstr(in *Instr) {
	f.u8(refTagInstr)
	f.u8(uint8(in.Op))
	f.reg(in.Dst)
	f.u64(uint64(len(in.Srcs)))
	for _, s := range in.Srcs {
		f.reg(s)
	}
	f.i64(in.Imm)
	f.str(in.Sym)
	f.reg(in.Base)
	f.i64(in.Off)
	f.str(in.Target)
	f.i64(int64(in.Seq))
	f.boolean(in.IsSpill)
	f.f64(in.KnownLatency)
}

func (f *refHasher) writeBlock(b *Block) {
	f.u8(refTagBlock)
	f.str(b.Label)
	f.f64(b.Freq)
	f.u64(uint64(len(b.LiveOut)))
	for _, r := range b.LiveOut {
		f.reg(r)
	}
	f.u64(uint64(len(b.Instrs)))
	for _, in := range b.Instrs {
		f.writeInstr(in)
	}
}

func refBlockFingerprint(b *Block) uint64 {
	f := newRefHasher()
	f.writeBlock(b)
	return f.sum64()
}

func refProgramFingerprint(p *Program) uint64 {
	f := newRefHasher()
	f.u8(refTagProgram)
	f.str(p.Name)
	f.u64(uint64(len(p.Funcs)))
	for _, fn := range p.Funcs {
		f.u8(refTagFunc)
		f.str(fn.Name)
		f.u64(uint64(len(fn.Blocks)))
		for _, b := range fn.Blocks {
			f.writeBlock(b)
		}
	}
	return f.sum64()
}

// --- differential checks --------------------------------------------------

// checkParseAgainstReference parses src with Parse and refParse and
// fails t unless they agree: both reject it with the same error, or
// both accept it as the same program, which then prints and
// fingerprints the same under both codecs.
func checkParseAgainstReference(t *testing.T, src string) {
	t.Helper()
	got, err := Parse(src)
	want, refErr := refParse(src)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Parse error %v, reference error %v\ninput: %q", err, refErr, src)
	}
	if err != nil {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse error %T is not a *ParseError\ninput: %q", err, src)
		}
		if err.Error() != refErr.Error() {
			t.Fatalf("error text differs:\n got: %s\nwant: %s\ninput: %q", err, refErr, src)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse and the reference build different programs\ninput: %q", src)
	}
	checkCodecAgainstReference(t, got)
}

// checkCodecAgainstReference compares the package's printer and
// fingerprints with the references on p.
func checkCodecAgainstReference(t *testing.T, p *Program) {
	t.Helper()
	if got, want := p.String(), refProgramString(p); got != want {
		t.Fatalf("Program.String differs from the reference:\n got: %q\nwant: %q", got, want)
	}
	progFP, blockFPs := p.Fingerprints()
	if want := refProgramFingerprint(p); progFP != want || p.Fingerprint() != want {
		t.Fatalf("program fingerprint %#016x / %#016x, reference %#016x", progFP, p.Fingerprint(), want)
	}
	blocks := p.Blocks()
	if len(blockFPs) != len(blocks) {
		t.Fatalf("Fingerprints returned %d block fingerprints for %d blocks", len(blockFPs), len(blocks))
	}
	for i, b := range blocks {
		want := refBlockFingerprint(b)
		if blockFPs[i] != want || b.Fingerprint() != want {
			t.Fatalf("block %s: fingerprint %#016x / Fingerprints %#016x, reference %#016x",
				b.Label, b.Fingerprint(), blockFPs[i], want)
		}
		if got, want := b.String(), refBlockString(b); got != want {
			t.Fatalf("Block.String differs from the reference:\n got: %q\nwant: %q", got, want)
		}
		for _, in := range b.Instrs {
			if got, want := in.String(), refInstrString(in); got != want {
				t.Fatalf("Instr.String = %q, reference %q", got, want)
			}
		}
	}
}

// irDocBlocks returns the fenced code blocks of docs/IR.md.
func irDocBlocks(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../../docs/IR.md")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	parts := strings.Split(string(raw), "```")
	for i := 1; i < len(parts); i += 2 {
		out = append(out, strings.TrimPrefix(parts[i], "\n"))
	}
	if len(out) == 0 {
		t.Fatal("docs/IR.md has no fenced blocks")
	}
	return out
}

// suitePrograms returns the paper suite, Livermore and IntMix programs.
func suitePrograms() []*Program {
	all := workload.All()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Program
	for _, name := range names {
		out = append(out, all[name])
	}
	return append(out, workload.Livermore(), workload.IntMix())
}

// codecLatencies are the !lat= values random blocks draw from: exact,
// inexact, and ones %g prints in exponent form.
var codecLatencies = []float64{0.5, 1, 2, 3.25, 1e21, 1e-7}

// randomCodecBlock builds a block over every instruction form, with
// physical and virtual registers at the ends of their ranges, NoReg
// memory bases, attributes and frequencies that exercise every branch
// of the printer. One block in eight also gets a NoReg source, which
// prints as "-" and must be refused alike by both parsers.
func randomCodecBlock(rng *rand.Rand, label string) *Block {
	reg := func() Reg {
		switch rng.Intn(8) {
		case 0, 1:
			return Phys([]int{0, 1, 31, 1<<20 - 2}[rng.Intn(4)])
		case 2:
			return Virt(MaxVirtNum - rng.Intn(3))
		default:
			return Virt(rng.Intn(40))
		}
	}
	syms := []string{"x", "idx", "$stack", "", "table"}
	b := &Block{Label: label, Freq: []float64{1, 0.5, 100, 3.25, 1e21, 1e-7, 0}[rng.Intn(7)]}
	n := 1 + rng.Intn(40)
	for k := 0; k < n; k++ {
		op := Op(1 + rng.Intn(int(OpVNop)))
		for op.IsTerminator() && k < n-1 {
			op = Op(1 + rng.Intn(int(OpVNop)))
		}
		in := &Instr{Op: op, Seq: k}
		if op.HasDst() {
			in.Dst = reg()
		}
		for s := 0; s < op.NumSrcs(); s++ {
			in.Srcs = append(in.Srcs, reg())
		}
		if op.HasImm() {
			in.Imm = rng.Int63n(1<<40) - 1<<39
		}
		if op.IsMem() {
			in.Sym = syms[rng.Intn(len(syms))]
			if rng.Intn(3) > 0 {
				in.Base = reg()
			}
			in.Off = int64(rng.Intn(1024)) - 512
		}
		switch op {
		case OpBr, OpJmp:
			in.Target = label
		case OpCall:
			in.Target = "helper"
		}
		if rng.Intn(5) == 0 {
			in.IsSpill = true
		}
		if rng.Intn(4) == 0 {
			in.KnownLatency = codecLatencies[rng.Intn(len(codecLatencies))]
		}
		b.Instrs = append(b.Instrs, in)
	}
	for k := rng.Intn(4); k > 0; k-- {
		b.LiveOut = append(b.LiveOut, reg())
	}
	if rng.Intn(8) == 0 {
		for _, in := range b.Instrs {
			if len(in.Srcs) > 0 {
				in.Srcs[0] = NoReg
				break
			}
		}
	}
	return b
}

// mutate returns variants of src: a space turned into a tab, an
// operand dropped, and a stray '!', '=' or '#' inserted.
func mutate(rng *rand.Rand, src string) []string {
	if src == "" {
		return nil
	}
	var out []string
	if i := randomIndex(rng, src, ' '); i >= 0 {
		out = append(out, src[:i]+"\t"+src[i+1:])
	}
	if i := randomIndex(rng, src, ','); i >= 0 {
		// Cut from the comma to the end of the operand after it.
		end := len(src)
		if j := strings.IndexAny(src[i+1:], ",\n"); j >= 0 {
			end = i + 1 + j
		}
		out = append(out, src[:i]+src[end:])
	}
	for _, c := range []string{"!", "=", "#"} {
		i := rng.Intn(len(src) + 1)
		out = append(out, src[:i]+c+src[i:])
	}
	return out
}

// randomIndex returns the index of a random occurrence of c in s, or -1.
func randomIndex(rng *rand.Rand, s string, c byte) int {
	n := strings.Count(s, string(c))
	if n == 0 {
		return -1
	}
	i := -1
	for k := rng.Intn(n); k >= 0; k-- {
		i += 1 + strings.IndexByte(s[i+1:], c)
	}
	return i
}

// TestCodecMatchesReference runs the parser, printer and fingerprints
// against the references over the fuzz seeds, every program in
// docs/IR.md, the paper suite, Livermore and IntMix programs, 600
// random blocks, and byte-level mutations of all of them.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	inputs := fuzzParseSeeds(t)
	inputs = append(inputs, irDocBlocks(t)...)
	for _, p := range suitePrograms() {
		checkCodecAgainstReference(t, p)
		inputs = append(inputs, p.String())
	}
	for i := 0; i < 600; i++ {
		b := randomCodecBlock(rng, fmt.Sprintf("b%d", i))
		p := &Program{Funcs: []*Func{{Name: "f", Blocks: []*Block{b}}}}
		if i%3 == 0 {
			p.Name = "rand"
		}
		checkCodecAgainstReference(t, p)
		inputs = append(inputs, p.String())
	}
	accepted := 0
	for _, src := range inputs {
		if _, err := refParse(src); err == nil {
			accepted++
		}
		checkParseAgainstReference(t, src)
		for _, m := range mutate(rng, src) {
			checkParseAgainstReference(t, m)
		}
	}
	// Some random blocks carry a NoReg source and fail to parse back;
	// make sure the accepting path is still the common one.
	if accepted < len(inputs)*3/4 {
		t.Fatalf("only %d of %d inputs parse; the differential check barely covers the accepting path", accepted, len(inputs))
	}
}

// TestParseSlabChunks checks programs whose blocks outgrow one slab
// chunk, so that the open block's instruction list moves to a new chunk
// mid-block, against the reference: a 2,500-instruction block after two
// of 700, under a 3,000-line program.
func TestParseSlabChunks(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func f\n")
	for bi, n := range []int{700, 700, 2500} {
		fmt.Fprintf(&sb, "block b%d freq=1\n  v0 = const 1\n", bi)
		for i := 1; i < n; i++ {
			fmt.Fprintf(&sb, "  v%d = addi v%d, %d\n", i, i-1, i)
		}
		sb.WriteString("end\n")
	}
	checkParseAgainstReference(t, sb.String())
}

// TestParseUnicodeSpace checks the parser against the reference where
// white space is not ASCII: the suite programs and docs/IR.md with other
// characters unicode.IsSpace accepts put at the ends of lines, after
// '=' and ',', and between a directive's fields. One variant in four
// also draws a non-space rune or an invalid byte.
func TestParseUnicodeSpace(t *testing.T) {
	spaces := []string{"\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2028", "\u3000", "\u202f", "é", "\xff"}
	rng := rand.New(rand.NewSource(24))
	inputs := irDocBlocks(t)
	for _, p := range suitePrograms() {
		inputs = append(inputs, p.String())
	}
	accepted, total := 0, 4*len(inputs)
	for _, src := range inputs {
		for variant := 0; variant < 4; variant++ {
			choices := len(spaces) - 2
			if variant == 3 {
				choices = len(spaces)
			}
			lines := strings.Split(src, "\n")
			for i, line := range lines {
				sp := spaces[rng.Intn(choices)]
				switch rng.Intn(6) {
				case 1:
					lines[i] = sp + line
				case 2:
					lines[i] = line + sp
				case 3:
					lines[i] = strings.Replace(line, "= ", "="+sp, 1)
				case 4:
					lines[i] = strings.Replace(line, ", ", ","+sp, 1)
				case 5:
					if f := strings.Fields(line); len(f) > 1 && (f[0] == "func" || f[0] == "block" || f[0] == "liveout") {
						lines[i] = strings.Replace(line, f[0]+" ", f[0]+sp, 1)
					}
				}
			}
			mutated := strings.Join(lines, "\n")
			checkParseAgainstReference(t, mutated)
			if _, err := refParse(mutated); err == nil {
				accepted++
			}
		}
	}
	// Most variants stay valid; make sure the accepting path, where
	// fields must split where strings.Fields splits them, is covered.
	t.Logf("%d of %d variants parse", accepted, total)
	if accepted < total/2 {
		t.Fatalf("only %d of %d variants parse", accepted, total)
	}
}
