package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
)

// Fingerprinting gives every block and program a stable 64-bit identity
// derived from its content: opcodes, operands, immediates, memory
// operands, ordering, frequencies and live-out sets. Two blocks have the
// same fingerprint exactly when they are structurally identical
// instruction by instruction, in order.
//
// The hash is the first 8 bytes of a SHA-256 over an unambiguous binary
// encoding (every variable-length field is length-prefixed, every record
// is tagged), so fingerprints are stable across processes and runs —
// nothing in the encoding walks a Go map. The compilation service
// (bsched/internal/server) uses fingerprints as content-addressed cache
// keys: any edit that could change a schedule changes the fingerprint.
//
// A program's encoding embeds each of its blocks' encodings verbatim,
// so Program.Fingerprints encodes the program once and hashes each
// block's bytes where they lie.

// Encoding tags, one per record kind, so that e.g. a block boundary can
// never be confused with an instruction field.
const (
	fpTagBlock   = 0xB1
	fpTagInstr   = 0x15
	fpTagFunc    = 0xF1
	fpTagProgram = 0xA0
)

// fpHasher appends the encoding to one byte buffer, which sum64 hashes
// in a single SHA-256 call. All multi-byte values are little-endian.
type fpHasher struct {
	buf []byte
}

// fpPool recycles encoding buffers, so fingerprinting allocates nothing
// in the steady state.
var fpPool = sync.Pool{New: func() any { return new(fpHasher) }}

// fpPoolMax caps the buffer a hasher keeps when it goes back to the
// pool, so one huge program does not pin its encoding's memory.
const fpPoolMax = 256 << 10

func getFPHasher() *fpHasher { return fpPool.Get().(*fpHasher) }

func putFPHasher(f *fpHasher) {
	if cap(f.buf) > fpPoolMax {
		return
	}
	f.buf = f.buf[:0]
	fpPool.Put(f)
}

func (f *fpHasher) u8(v uint8)    { f.buf = append(f.buf, v) }
func (f *fpHasher) u64(v uint64)  { f.buf = binary.LittleEndian.AppendUint64(f.buf, v) }
func (f *fpHasher) i64(v int64)   { f.u64(uint64(v)) }
func (f *fpHasher) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f *fpHasher) reg(r Reg)     { f.u64(uint64(uint32(r))) }

func (f *fpHasher) boolean(b bool) {
	if b {
		f.u8(1)
	} else {
		f.u8(0)
	}
}

func (f *fpHasher) str(s string) {
	f.u64(uint64(len(s)))
	f.buf = append(f.buf, s...)
}

// sum64 returns the first 8 bytes of the SHA-256 of b, little-endian.
func sum64(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8])
}

// writeInstr encodes every semantic field of the instruction. Seq,
// IsSpill and KnownLatency are included: all three can change the
// schedule a block compiles to (tie-breaking, pressure accounting and
// weighting respectively), so they must change the fingerprint too.
func (f *fpHasher) writeInstr(in *Instr) {
	f.u8(fpTagInstr)
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

// writeBlock encodes the block: label, frequency, live-out set (in its
// declared order) and every instruction in order.
func (f *fpHasher) writeBlock(b *Block) {
	f.u8(fpTagBlock)
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

// Fingerprint returns a stable 64-bit content hash of the block. It is
// sensitive to instruction order, every operand field, the live-out set
// and the profiled frequency; it does not depend on pointer identity or
// any map iteration order, so it is reproducible across runs and
// processes.
func (b *Block) Fingerprint() uint64 {
	f := getFPHasher()
	f.writeBlock(b)
	fp := sum64(f.buf)
	putFPHasher(f)
	return fp
}

// Fingerprint returns a stable 64-bit content hash of the whole program:
// its name, the names of its functions and the fingerprint-relevant
// content of every block, in order.
func (p *Program) Fingerprint() uint64 {
	fp, _ := p.Fingerprints()
	return fp
}

// Fingerprints returns the program's Fingerprint and, in Blocks order,
// every block's Fingerprint, from one encoding pass: each block's hash
// is taken over its bytes inside the program's encoding.
func (p *Program) Fingerprints() (uint64, []uint64) {
	n := 0
	for _, fn := range p.Funcs {
		n += len(fn.Blocks)
	}
	blocks := make([]uint64, 0, n)
	f := getFPHasher()
	f.u8(fpTagProgram)
	f.str(p.Name)
	f.u64(uint64(len(p.Funcs)))
	for _, fn := range p.Funcs {
		f.u8(fpTagFunc)
		f.str(fn.Name)
		f.u64(uint64(len(fn.Blocks)))
		for _, b := range fn.Blocks {
			start := len(f.buf)
			f.writeBlock(b)
			blocks = append(blocks, sum64(f.buf[start:]))
		}
	}
	fp := sum64(f.buf)
	putFPHasher(f)
	return fp, blocks
}
