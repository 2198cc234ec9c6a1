package ir

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRegClasses(t *testing.T) {
	p := Phys(3)
	v := Virt(7)
	if !p.IsPhys() || p.IsVirt() || p.Num() != 3 || p.String() != "r3" {
		t.Errorf("Phys(3) misbehaves: %v num=%d", p, p.Num())
	}
	if !v.IsVirt() || v.IsPhys() || v.Num() != 7 || v.String() != "v7" {
		t.Errorf("Virt(7) misbehaves: %v num=%d", v, v.Num())
	}
	if NoReg.IsPhys() || NoReg.IsVirt() || NoReg.Num() != -1 || NoReg.String() != "-" {
		t.Errorf("NoReg misbehaves")
	}
}

func TestRegPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Phys(-1) did not panic")
		}
	}()
	Phys(-1)
}

func TestOpMetadata(t *testing.T) {
	cases := []struct {
		op          Op
		dst         bool
		srcs        int
		load, store bool
		term        bool
	}{
		{OpConst, true, 0, false, false, false},
		{OpAdd, true, 2, false, false, false},
		{OpAddI, true, 1, false, false, false},
		{OpFMA, true, 3, false, false, false},
		{OpLoad, true, 0, true, false, false},
		{OpStore, false, 1, false, true, false},
		{OpBr, false, 1, false, false, true},
		{OpRet, false, 0, false, false, true},
	}
	for _, c := range cases {
		if c.op.HasDst() != c.dst || c.op.NumSrcs() != c.srcs ||
			c.op.IsLoad() != c.load || c.op.IsStore() != c.store ||
			c.op.IsTerminator() != c.term {
			t.Errorf("%v metadata wrong", c.op)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := OpInvalid + 1; op.Valid(); op++ {
		if got := OpByName(op.String()); got != op {
			t.Errorf("OpByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if OpByName("bogus") != OpInvalid {
		t.Errorf("OpByName(bogus) should be OpInvalid")
	}
}

func TestUsesIncludesBase(t *testing.T) {
	in := &Instr{Op: OpLoad, Dst: Virt(0), Sym: "a", Base: Virt(1)}
	uses := in.AppendUses(nil)
	if len(uses) != 1 || uses[0] != Virt(1) {
		t.Errorf("load uses = %v, want [v1]", uses)
	}
	st := &Instr{Op: OpStore, Srcs: []Reg{Virt(2)}, Sym: "a", Base: Virt(1)}
	uses = st.AppendUses(uses[:0])
	if len(uses) != 2 || uses[0] != Virt(2) || uses[1] != Virt(1) {
		t.Errorf("store uses = %v, want [v2 v1]", uses)
	}
	// NoReg sources are skipped, any number of sources is read, and the
	// result extends dst rather than replacing it.
	wide := &Instr{Op: OpFMA, Dst: Virt(9), Srcs: []Reg{Virt(3), NoReg, Virt(4), Virt(5), Virt(6)}}
	if got := wide.AppendUses([]Reg{Phys(0)}); !reflect.DeepEqual(got, []Reg{Phys(0), Virt(3), Virt(4), Virt(5), Virt(6)}) {
		t.Errorf("wide uses = %v", got)
	}
	buf := make([]Reg, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() { buf = st.AppendUses(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendUses into a reused buffer: %v allocs, want 0", allocs)
	}
}

func TestBuilderProducesValidBlock(t *testing.T) {
	b := NewBuilder("k", 2)
	c := b.Const(4)
	l := b.Load("a", c, 8)
	s := b.Op2(OpAdd, l, c)
	b.Store("b", c, 0, s)
	b.MarkLiveOut(s)
	b.Ret()
	blk := b.Block()
	if err := ValidateBlock(blk); err != nil {
		t.Fatalf("builder produced invalid block: %v", err)
	}
	if blk.NumLoads() != 1 {
		t.Errorf("NumLoads = %d, want 1", blk.NumLoads())
	}
	if blk.MaxVirt() != 2 {
		t.Errorf("MaxVirt = %d, want 2", blk.MaxVirt())
	}
	for i, in := range blk.Instrs {
		if in.Seq != i {
			t.Errorf("Seq[%d] = %d", i, in.Seq)
		}
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	src := `# test program
func main
block entry freq=2.5
liveout v3
v0 = const 42
v1 = addi v0, 8
v2 = load a[v1+16]
v3 = add v2, v0
v4 = fmul v3, v3
store b[v1+0], v4
v5 = load $stack[8] !spill
v6 = load a[0] !lat=2
br v3, entry
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Print and reparse: the result must be structurally identical.
	printed := p.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed form: %v\n%s", err, printed)
	}
	if p.String() != p2.String() {
		t.Errorf("round trip unstable:\n--- first\n%s\n--- second\n%s", printed, p2.String())
	}
	b := p.Blocks()[0]
	if b.Freq != 2.5 || b.Label != "entry" {
		t.Errorf("block metadata wrong: %+v", b)
	}
	if got := b.Instrs[6]; !got.IsSpill || got.Sym != "$stack" || got.Off != 8 {
		t.Errorf("spill attr lost: %v", got)
	}
	if got := b.Instrs[7]; got.KnownLatency != 2 {
		t.Errorf("lat attr lost: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown op", "func f\nblock b freq=1\nv0 = bogus v1\nend", "unknown opcode"},
		{"instr outside block", "func f\nv0 = const 1", "outside block"},
		{"block outside func", "block b freq=1\nend", "outside func"},
		{"unterminated", "func f\nblock b freq=1\nv0 = const 1", "unterminated"},
		{"bad register", "func f\nblock b freq=1\nv0 = addi x9, 1\nend", "bad register"},
		{"bad freq", "func f\nblock b freq=abc\nend", "bad freq"},
		{"arity", "func f\nblock b freq=1\nv0 = add v1\nend", "wants 2 operands"},
		{"terminator middle", "func f\nblock b freq=1\nret\nv0 = const 1\nend", "not at block end"},
		{"unknown target", "func f\nblock b freq=1\nv0 = const 1\nbr v0, nowhere\nend", "unknown target"},
		{"dup label", "func f\nblock b freq=1\nend\nblock b freq=1\nend", "duplicate"},
		{"bad attr", "func f\nblock b freq=1\nv0 = const 1 !wat\nend", "unknown attribute"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestParseRegisterRange checks that register numbers past a class's
// range are refused as parse errors rather than wrapped around: the
// three physical numbers below once parsed as r1, r0 and a negative
// register that printed as "-".
func TestParseRegisterRange(t *testing.T) {
	for _, reg := range []string{
		"r4294967297", "r4294967296", "r4293918720",
		"r1048575", fmt.Sprintf("v%d", MaxVirtNum+1),
	} {
		for _, src := range []string{
			"func f\nblock b freq=1\n" + reg + " = const 1\nend",
			"func f\nblock b freq=1\nv0 = load a[" + reg + "+0]\nend",
			"func f\nblock b freq=1\nliveout " + reg + "\nend",
		} {
			_, err := Parse(src)
			var pe *ParseError
			if !errors.As(err, &pe) || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("Parse(%q) = %v, want an out-of-range *ParseError", src, err)
			}
		}
	}
	b := MustParseBlock(fmt.Sprintf("r%d = const 1\nv%d = const 2", maxPhysNum, MaxVirtNum))
	if b.Instrs[0].Dst != Phys(maxPhysNum) || b.Instrs[1].Dst != Virt(MaxVirtNum) {
		t.Errorf("largest register numbers misparsed: %v", b.Instrs)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Phys(1<<32) did not panic")
		}
	}()
	Phys(1 << 32)
}

func TestParseBlockBare(t *testing.T) {
	b, err := ParseBlock("v0 = const 1\nv1 = addi v0, 2")
	if err != nil {
		t.Fatalf("ParseBlock: %v", err)
	}
	if len(b.Instrs) != 2 {
		t.Errorf("got %d instrs", len(b.Instrs))
	}
}

func TestParseMemOperandForms(t *testing.T) {
	b := MustParseBlock(`
		v0 = const 1
		v1 = load a[v0+8]
		v2 = load a[16]
		v3 = load a[v0]
		v4 = load ?[0]
	`)
	if in := b.Instrs[1]; in.Base != Virt(0) || in.Off != 8 {
		t.Errorf("base+off form wrong: %v", in)
	}
	if in := b.Instrs[2]; in.Base != NoReg || in.Off != 16 {
		t.Errorf("bare offset form wrong: %v", in)
	}
	if in := b.Instrs[3]; in.Base != Virt(0) || in.Off != 0 {
		t.Errorf("bare base form wrong: %v", in)
	}
	if in := b.Instrs[4]; in.Sym != "" {
		t.Errorf("? symbol should parse to unknown alias class: %q", in.Sym)
	}
}

// TestParsedSlicesDoNotAlias checks that the parser's shared slabs
// never leak into a caller's appends: growing one instruction's
// sources, one block's live-out set or one block's instruction list
// must leave its neighbours untouched.
func TestParsedSlicesDoNotAlias(t *testing.T) {
	p := MustParse(`func f
block a freq=1
  liveout v1
  v0 = const 1
  v1 = add v0, v0
  v2 = add v1, v1
end
block b freq=1
  liveout v3
  v3 = add v2, v2
end
`)
	a, b := p.Funcs[0].Blocks[0], p.Funcs[0].Blocks[1]
	want := p.String()
	a.Instrs[1].Srcs = append(a.Instrs[1].Srcs, Virt(9))
	a.LiveOut = append(a.LiveOut, Virt(9))
	a.Instrs = append(a.Instrs, &Instr{Op: OpNop})
	a.Instrs[1].Srcs = a.Instrs[1].Srcs[:2]
	a.LiveOut = a.LiveOut[:1]
	a.Instrs = a.Instrs[:3]
	if got := p.String(); got != want {
		t.Errorf("appends to block a changed the program:\n%s\nwant:\n%s", got, want)
	}
	if len(b.Instrs) != 1 || b.Instrs[0].Srcs[0] != Virt(2) || b.LiveOut[0] != Virt(3) {
		t.Errorf("block b changed: %s", b)
	}
}

func TestCloneIndependence(t *testing.T) {
	b := MustParseBlock("v0 = const 1\nv1 = addi v0, 2")
	c := b.Clone()
	c.Instrs[0].Imm = 99
	c.Instrs[1].Srcs[0] = Virt(5)
	if b.Instrs[0].Imm != 1 || b.Instrs[1].Srcs[0] != Virt(0) {
		t.Errorf("clone shares storage with original")
	}
}

func TestValidateCatchesBadInstrs(t *testing.T) {
	bad := []*Instr{
		{Op: OpAdd, Dst: Virt(0), Srcs: []Reg{Virt(1)}}, // arity
		{Op: OpConst},                         // no dst
		{Op: OpJmp},                           // no target
		{Op: OpConst, Dst: Virt(0), Sym: "a"}, // mem operand on non-mem
		{Op: OpLoad, Dst: Virt(0), Sym: "a", KnownLatency: -1}, // negative latency
		{Op: OpStore, Srcs: []Reg{NoReg}, Sym: "a"},            // NoReg source
	}
	for i, in := range bad {
		b := &Block{Label: "b", Instrs: []*Instr{in}}
		if err := ValidateBlock(b); err == nil {
			t.Errorf("case %d (%v): no validation error", i, in.Op)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	p := MustParse(`
func f
block a freq=1
v0 = const 1
end
block b freq=2
v0 = const 2
end
`)
	if len(p.Blocks()) != 2 {
		t.Errorf("Blocks() = %d", len(p.Blocks()))
	}
	c := p.Clone()
	c.Funcs[0].Blocks[0].Freq = 9
	if p.Funcs[0].Blocks[0].Freq != 1 {
		t.Errorf("program clone shares blocks")
	}
}
