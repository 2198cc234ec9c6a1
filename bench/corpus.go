package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"bsched/internal/ir"
	"bsched/internal/server"
	"bsched/internal/workload"
)

// source is one program a generator produced: what the daemon is sent
// and what the output checks compare its answer against.
type source struct {
	// id indexes the workload's program table; -1 marks a program sent
	// once (fresh programs, batch partners), which has no first answer to
	// compare a cache hit against.
	id   int
	prog *ir.Program
	opts server.RequestOptions
	// suite names the paper-suite program this is, or "".
	suite string
}

// request is one generated HTTP request. The body is encoded before any
// timed phase starts.
type request struct {
	batch bool // POST /v1/compile/batch instead of /v1/compile
	body  []byte
	progs []*source
}

func (r *request) path() string {
	if r.batch {
		return "/v1/compile/batch"
	}
	return "/v1/compile"
}

func newCompileRequest(s *source) *request {
	body, err := json.Marshal(server.CompileRequest{Program: s.prog.String(), Options: s.opts})
	if err != nil {
		panic(err) // plain strings and scalars always encode
	}
	return &request{body: body, progs: []*source{s}}
}

func newBatchRequest(ss ...*source) *request {
	var br server.BatchRequest
	for _, s := range ss {
		br.Programs = append(br.Programs, server.CompileRequest{Program: s.prog.String(), Options: s.opts})
	}
	body, err := json.Marshal(br)
	if err != nil {
		panic(err)
	}
	return &request{batch: true, body: body, progs: ss}
}

// rngFor derives an independent, reproducible stream for one purpose of
// one seeded run.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// suiteNames are the eight Perfect Club analogues the quality metrics
// average over, in the paper's column order.
var suiteNames = workload.BenchmarkNames()

// suiteSources returns the eight paper-suite programs as sources.
func suiteSources() []*source {
	var out []*source
	all := workload.All()
	for _, n := range suiteNames {
		out = append(out, &source{id: -1, prog: all[n], suite: n})
	}
	return out
}

// suiteBlockSizes lists the instruction counts of the paper suite's
// blocks, the size distribution miss-fresh draws from.
func suiteBlockSizes() []int {
	var sizes []int
	for _, s := range suiteSources() {
		for _, b := range s.prog.Blocks() {
			sizes = append(sizes, len(b.Instrs))
		}
	}
	return sizes
}

// kernelNames lists every block builder of the workload package, sorted
// so that a seed picks the same kernels on every run.
var kernelNames, kernelBuilders = func() ([]string, map[string]func(string, float64, int) *ir.Block) {
	all := map[string]func(string, float64, int) *ir.Block{}
	for _, m := range []map[string]func(string, float64, int) *ir.Block{
		workload.Kernels(), workload.IntKernels(), workload.LivermoreKernels(),
	} {
		for k, v := range m {
			all[k] = v
		}
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, all
}()

// maxParam bounds kernel parameters (unroll, depth, width): 1-6 spans
// 4 to 180 instructions.
const maxParam = 6

// kernelSizes[name][p-1] is the instruction count of kernel name at
// parameter p.
var kernelSizes = func() map[string][]int {
	out := map[string][]int{}
	for _, n := range kernelNames {
		for p := 1; p <= maxParam; p++ {
			out[n] = append(out[n], len(kernelBuilders[n]("k", 1, p).Instrs))
		}
	}
	return out
}()

// kernelOfSize builds a seeded kernel block of about target instructions:
// a random kernel and parameter among those within 25% of the target, or
// the closest one when none is.
func kernelOfSize(rng *rand.Rand, label string, target int) *ir.Block {
	type inst struct {
		name string
		p    int
	}
	var near []inst
	best, bestD := inst{}, -1
	for _, n := range kernelNames {
		for p := 1; p <= maxParam; p++ {
			d := kernelSizes[n][p-1] - target
			d = max(d, -d)
			if bestD < 0 || d < bestD {
				best, bestD = inst{n, p}, d
			}
			if 4*d <= target {
				near = append(near, inst{n, p})
			}
		}
	}
	if len(near) > 0 {
		best = near[rng.Intn(len(near))]
	}
	return kernelBuilders[best.name](label, float64(1+rng.Intn(1000)), best.p)
}

// smallKernelBlock builds a seeded kernel block of at most 43
// instructions (parameter 1 or 2).
func smallKernelBlock(rng *rand.Rand, label string) *ir.Block {
	build := kernelBuilders[kernelNames[rng.Intn(len(kernelNames))]]
	return build(label, float64(1+rng.Intn(1000)), 1+rng.Intn(2))
}

func program(name string, blocks []*ir.Block) *ir.Program {
	return &ir.Program{Name: name, Funcs: []*ir.Func{{Name: "main", Blocks: blocks}}}
}

// tableShape is the seed-independent skeleton of a Zipf table: for each
// popularity rank, the size class (an index into the paper suite's block
// sizes) of each of its 1-6 blocks. Seeds choose the kernels that fill
// it, so runs on different seeds differ in content but offer the same
// size profile by popularity: with Zipf(1.1) over 256 programs the top
// program draws a fifth of all requests, and a seeded shape would make
// its size, not the code under test, decide the run's cost.
func tableShape(n int) [][]int {
	r := rand.New(rand.NewSource(0)) // fixed: the shape is not seeded
	classes := len(suiteBlockSizes())
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, 1+r.Intn(6))
		for k := range out[i] {
			out[i][k] = r.Intn(classes)
		}
	}
	return out
}

// suiteRank is the fixed popularity rank of paper program k (of 8) in a
// table of n programs: spread evenly, never at the head.
func suiteRank(k, n int) int { return (k + 1) * n / (len(suiteNames) + 1) }

// zipfTable is a program table in popularity-rank order, drawn with a
// Zipf(s=1.1) popularity.
type zipfTable struct {
	progs []*source
	zipf  *rand.Zipf
}

// newZipfTable fills the ranks of shape: the paper programs at their
// fixed ranks, and every other rank from build.
func newZipfTable(rng *rand.Rand, shape [][]int, build func(rank int, classes []int) *ir.Program) *zipfTable {
	progs := make([]*source, len(shape))
	for k, s := range suiteSources() {
		progs[suiteRank(k, len(shape))] = s
	}
	for r := range progs {
		if progs[r] == nil {
			progs[r] = &source{prog: build(r, shape[r])}
		}
		progs[r].id = r
	}
	return &zipfTable{progs: progs, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(progs)-1))}
}

func (t *zipfTable) pick() *source { return t.progs[t.zipf.Uint64()] }

// hitCorpus is hit-zipf's program table: n programs of 1-6 kernel blocks,
// the eight paper programs among them.
func hitCorpus(rng *rand.Rand, n int) *zipfTable {
	sizes := suiteBlockSizes()
	return newZipfTable(rng, tableShape(n), func(r int, classes []int) *ir.Program {
		name := fmt.Sprintf("h%03d", r)
		blocks := make([]*ir.Block, len(classes))
		for k, c := range classes {
			blocks[k] = kernelOfSize(rng, fmt.Sprintf("%s_b%d", name, k), sizes[c])
		}
		return program(name, blocks)
	})
}

// zipfGen draws hit-zipf requests: Zipf picks from the warm table, each
// program's request encoded once.
func zipfGen(t *zipfTable) func() *request {
	reqs := map[int]*request{}
	return func() *request { return t.request(reqs) }
}

// request returns the encoded request for a Zipf pick, caching it in
// reqs.
func (t *zipfTable) request(reqs map[int]*request) *request {
	s := t.pick()
	r, ok := reqs[s.id]
	if !ok {
		r = newCompileRequest(s)
		reqs[s.id] = r
	}
	return r
}

// heavyEvery and heavyInstrs shape miss-fresh's tail: exactly one request
// in heavyEvery carries one extra block of heavyInstrs instructions, far
// above the suite's largest block (151), where the quadratic credit pass
// dominates compile time.
const (
	heavyEvery  = 32
	heavyInstrs = 256
)

// missGen draws miss-fresh requests: never-seen programs of 1-3 random
// blocks sized from the paper suite's block-size distribution, with one
// request in four asking for the small budget tier.
func missGen(rng *rand.Rand) func() *request {
	sizes := suiteBlockSizes()
	i := 0
	return func() *request {
		name := fmt.Sprintf("m%d", i)
		blocks := make([]*ir.Block, 1+rng.Intn(3))
		for k := range blocks {
			blocks[k] = randomBlock(rng, sizes[rng.Intn(len(sizes))], fmt.Sprintf("%s_b%d", name, k))
		}
		if i%heavyEvery == heavyEvery-1 {
			blocks = append(blocks, randomBlock(rng, heavyInstrs, fmt.Sprintf("%s_h", name)))
		}
		s := &source{id: -1, prog: program(name, blocks)}
		if rng.Intn(4) == 0 {
			s.opts.Budget = server.TierSmall
		}
		i++
		return newCompileRequest(s)
	}
}

// randomBlock is a workload.Random block of n instructions (the return
// included) under a label unique to the run.
func randomBlock(rng *rand.Rand, n int, label string) *ir.Block {
	b := workload.Random(rng, workload.DefaultRandomParams(max(n-1, 1)))
	b.Label = label
	return b
}

// churnCorpus is churn-disk's program table: programs of 1-6 blocks drawn
// from a shared pool of distinct kernel blocks four times the daemon's
// memory cache, the eight paper programs among them. The pool holds an
// equal number of blocks of every size class; a program's block of class
// c is a seeded pick among them.
func churnCorpus(rng *rand.Rand, nProgs, poolSize int) *zipfTable {
	sizes := suiteBlockSizes()
	pool := make([]*ir.Block, poolSize)
	for i := range pool {
		pool[i] = kernelOfSize(rng, fmt.Sprintf("c%04d", i), sizes[i%len(sizes)])
	}
	perClass := poolSize / len(sizes)
	return newZipfTable(rng, tableShape(nProgs), func(r int, classes []int) *ir.Program {
		var blocks []*ir.Block
		seen := map[int]bool{}
		for _, c := range classes {
			i := c + len(sizes)*rng.Intn(perClass)
			for seen[i] {
				i = c + len(sizes)*rng.Intn(perClass)
			}
			seen[i] = true
			blocks = append(blocks, pool[i])
		}
		return program(fmt.Sprintf("p%04d", r), blocks)
	})
}

// churnGen draws churn-disk requests: 10% fresh programs of one or two
// small kernel blocks (compiled and written behind to disk), 25% two-program batches whose programs share
// half their blocks (coalescing, NDJSON streaming), and the rest Zipf
// picks served from memory or disk.
func churnGen(t *zipfTable, rng *rand.Rand) func() *request {
	reqs := map[int]*request{}
	i := 0
	return func() *request {
		i++
		switch x := rng.Float64(); {
		case x < 0.10:
			name := fmt.Sprintf("f%d", i)
			blocks := make([]*ir.Block, 1+rng.Intn(2))
			for k := range blocks {
				blocks[k] = smallKernelBlock(rng, fmt.Sprintf("%s_b%d", name, k))
			}
			return newCompileRequest(&source{id: -1, prog: program(name, blocks)})
		case x < 0.35:
			a, c := t.pick(), t.pick()
			ab := a.prog.Blocks()
			blocks := append([]*ir.Block(nil), ab[:(len(ab)+1)/2]...)
			seen := map[*ir.Block]bool{}
			for _, b := range blocks {
				seen[b] = true
			}
			for _, b := range c.prog.Blocks() {
				if len(blocks) < len(ab) && !seen[b] {
					blocks = append(blocks, b)
					seen[b] = true
				}
			}
			return newBatchRequest(a, &source{id: -1, prog: program(fmt.Sprintf("b%d", i), blocks)})
		default:
			return t.request(reqs)
		}
	}
}
