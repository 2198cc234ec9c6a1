package ir

import (
	"sync"
	"testing"
)

const fpDemoSrc = `func demo
block body freq=100
  v0 = const 8
  v1 = load x[v0+0]
  v2 = load x[v0+8]
  v3 = fadd v1, v2
  v4 = load idx[v0+0]
  v5 = load table[v4+0]
  v6 = fmul v3, v5
  store out[v0+0], v6
  v7 = addi v0, 8
  v8 = slt v7, v6
  br v8, body
end
`

func parseDemo(t *testing.T) *Program {
	t.Helper()
	p, err := Parse(fpDemoSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func demoBlock(t *testing.T) *Block {
	t.Helper()
	return parseDemo(t).Blocks()[0]
}

// TestFingerprintStable pins the fingerprint of a fixed block to a
// constant. SHA-256 over a deterministic encoding cannot vary between
// processes, runs or architectures; if this constant ever changes, the
// encoding changed and every persisted cache key is invalidated — which
// is exactly the kind of change that should fail a test.
func TestFingerprintStable(t *testing.T) {
	b := demoBlock(t)
	const want = 0x153be1f6520b5c2d // golden; recompute only on deliberate encoding changes
	if got := b.Fingerprint(); got != want {
		t.Errorf("Fingerprint() = %#016x, want %#016x", got, want)
	}
}

// TestProgramFingerprintStable pins the demo program's fingerprint the
// way TestFingerprintStable pins its block's: the server echoes it in
// every response, so it must not drift with the encoder either.
func TestProgramFingerprintStable(t *testing.T) {
	p := parseDemo(t)
	const want uint64 = 0xe5e96b242f32efb9 // golden; recompute only on deliberate encoding changes
	if got := p.Fingerprint(); got != want {
		t.Errorf("Program.Fingerprint() = %#016x, want %#016x", got, want)
	}
}

// TestFingerprintsMatchBlocks checks that Fingerprints, which hashes
// each block inside the program's one encoding, returns exactly the
// program's Fingerprint and every block's own Fingerprint, in order.
func TestFingerprintsMatchBlocks(t *testing.T) {
	p := MustParse(fpDemoSrc + `
block tail freq=3
  liveout v1
  v1 = const 2
end
func second
block only freq=0.5
  ret
end
`)
	progFP, blockFPs := p.Fingerprints()
	if progFP != p.Fingerprint() {
		t.Errorf("Fingerprints program hash %#016x, Fingerprint %#016x", progFP, p.Fingerprint())
	}
	blocks := p.Blocks()
	if len(blockFPs) != len(blocks) {
		t.Fatalf("%d block fingerprints for %d blocks", len(blockFPs), len(blocks))
	}
	for i, b := range blocks {
		if blockFPs[i] != b.Fingerprint() {
			t.Errorf("block %s: Fingerprints %#016x, Fingerprint %#016x", b.Label, blockFPs[i], b.Fingerprint())
		}
	}
	if blockFPs[0] != demoBlock(t).Fingerprint() {
		t.Error("a block's fingerprint depends on the blocks around it")
	}
}

// TestFingerprintConcurrent fingerprints from several goroutines at once:
// the encoders share a pool of buffers, and no buffer may be handed out
// while another call is still encoding into it.
func TestFingerprintConcurrent(t *testing.T) {
	progs := make([]*Program, 8)
	want := make([]uint64, len(progs))
	for i := range progs {
		progs[i] = parseDemo(t)
		progs[i].Funcs[0].Blocks[0].Instrs[0].Imm = int64(i)
		want[i] = progs[i].Fingerprint()
	}
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(p *Program, want uint64) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				fp, blocks := p.Fingerprints()
				if fp != want || blocks[0] != p.Blocks()[0].Fingerprint() {
					t.Errorf("concurrent fingerprint %#016x, want %#016x", fp, want)
					return
				}
			}
		}(progs[i], want[i])
	}
	wg.Wait()
}

// TestFingerprintReparse checks that two independent parses of the same
// source agree — no pointer identity, allocation order or map iteration
// sneaks into the hash.
func TestFingerprintReparse(t *testing.T) {
	a, b := demoBlock(t), demoBlock(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("two parses of the same source fingerprint differently")
	}
	pa, pb := parseDemo(t), parseDemo(t)
	if pa.Fingerprint() != pb.Fingerprint() {
		t.Error("two parses of the same program fingerprint differently")
	}
	if c := demoBlock(t).Clone(); c.Fingerprint() != a.Fingerprint() {
		t.Error("Clone changed the fingerprint")
	}
}

// TestFingerprintOrderSensitive swaps two independent instructions and
// expects a different hash: a schedule cache must distinguish orderings
// even when the instruction multiset is identical.
func TestFingerprintOrderSensitive(t *testing.T) {
	a, b := demoBlock(t), demoBlock(t)
	// Instructions 1 and 2 are the two loads from x — same opcode, same
	// base, different offsets. Swapping them preserves the multiset.
	b.Instrs[1], b.Instrs[2] = b.Instrs[2], b.Instrs[1]
	b.Instrs[1].Seq, b.Instrs[2].Seq = b.Instrs[2].Seq, b.Instrs[1].Seq // same Seq values, swapped positions
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("reordered block has the same fingerprint")
	}
}

// TestFingerprintMutationSensitive flips one field at a time and checks
// every mutation lands on a distinct fingerprint (and none collides with
// the original) — collision sanity on near-identical blocks, the common
// case for a content-addressed cache.
func TestFingerprintMutationSensitive(t *testing.T) {
	mutations := map[string]func(*Block){
		"label":       func(b *Block) { b.Label = "body2" },
		"freq":        func(b *Block) { b.Freq = 101 },
		"liveout":     func(b *Block) { b.LiveOut = append(b.LiveOut, Virt(8)) },
		"opcode":      func(b *Block) { b.Instrs[3].Op = OpFSub },
		"dst":         func(b *Block) { b.Instrs[0].Dst = Virt(40) },
		"src":         func(b *Block) { b.Instrs[3].Srcs[1] = Virt(1) },
		"imm":         func(b *Block) { b.Instrs[0].Imm = 16 },
		"sym":         func(b *Block) { b.Instrs[1].Sym = "y" },
		"base":        func(b *Block) { b.Instrs[1].Base = NoReg },
		"off":         func(b *Block) { b.Instrs[2].Off = 16 },
		"target":      func(b *Block) { b.Instrs[10].Target = "exit" },
		"seq":         func(b *Block) { b.Instrs[5].Seq += 100 },
		"spill-flag":  func(b *Block) { b.Instrs[7].IsSpill = true },
		"known-lat":   func(b *Block) { b.Instrs[1].KnownLatency = 2 },
		"drop-instr":  func(b *Block) { b.Instrs = b.Instrs[:len(b.Instrs)-1] },
		"extra-instr": func(b *Block) { b.Instrs = append(b.Instrs, &Instr{Op: OpNop, Seq: 99}) },
	}
	base := demoBlock(t).Fingerprint()
	seen := map[uint64]string{}
	for name, mutate := range mutations {
		b := demoBlock(t)
		mutate(b)
		fp := b.Fingerprint()
		if fp == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
		if prev, ok := seen[fp]; ok {
			t.Errorf("mutations %q and %q collide at %#016x", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestProgramFingerprint checks the program hash sees structure the
// block hashes alone do not: function names and program name.
func TestProgramFingerprint(t *testing.T) {
	a, b := parseDemo(t), parseDemo(t)
	b.Funcs[0].Name = "demo2"
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("renamed function has the same program fingerprint")
	}
	c := parseDemo(t)
	c.Name = "other"
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("renamed program has the same fingerprint")
	}
	d := parseDemo(t)
	d.Funcs[0].Blocks[0].Instrs[0].Imm = 9
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("block edit invisible to the program fingerprint")
	}
}
