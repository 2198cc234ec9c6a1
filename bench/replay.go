package main

// The traced replay: the per-layer half of the benchmark. It sends a
// fixed sample of a workload's requests, one at a time, to in-process
// servers set up like the workload's daemon, and times each layer's
// public function with spans recorded from this file: spans inside the
// program are not added here. Per request it takes
//
//   - server.handler: Handler().ServeHTTP on server A (the root cost);
//   - client.loopback: the same request over loopback HTTP to server C,
//     prepared identically, so net.loopback = loopback − handler;
//   - the same work the handler does, decomposed into the public calls it
//     makes (json decode, ir.Parse, fingerprints, compile.RunBlock for
//     every block the handler had to compile, json encode), with the
//     compiler's deps/weights/schedule/regalloc stages as children of
//     compile.block through compile.Options.SpanObserver.
//
// server.unattributed is handler minus the decomposed layers: cache
// lookup, queueing, response assembly and the HTTP plumbing the
// decomposition does not reproduce. It is reported, never hidden. The
// decomposition also runs once with spans off; the difference is
// trace.overhead_pct. All spans stay in memory and are written at the
// end as a Chrome trace-event file Perfetto loads.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bsched/internal/budget"
	"bsched/internal/compile"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/obs"
	"bsched/internal/sched"
	"bsched/internal/server"
)

// stageSpan maps compile's stage names onto the layers' public names.
var stageSpan = map[string]string{
	compile.StageDeps:     "deps.build",
	compile.StageWeights:  "core.weights",
	compile.StageSchedule: "sched.schedule",
	compile.StageRegalloc: "regalloc.run",
}

// compileOptions lowers the request options the generators set (only the
// budget tier) onto compile.Options the way the server does.
func compileOptions(o server.RequestOptions) compile.Options {
	switch o.Budget {
	case server.TierSmall:
		return compile.Options{BlockBudget: compile.DefaultBlockBudget / 16}
	case server.TierLarge:
		return compile.Options{BlockBudget: 8 * compile.DefaultBlockBudget}
	case server.TierUnlimited:
		return compile.Options{BlockBudget: -1}
	}
	return compile.Options{}
}

// replayServer is one in-process server the replay drives.
type replayServer struct {
	srv *server.Server
	h   http.Handler
}

func (s *replayServer) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// replayPlan is what the replay needs to set its servers up like the
// workload's daemon.
type replayPlan struct {
	cfg  server.Config
	warm *zipfTable // programs sent once before the replay; nil for none
	// diskFrom, when set, is a populated cache directory each server
	// starts from a copy of.
	diskFrom string
}

// replayResult is the replay's per-layer metrics plus the /metrics
// scrapes of server A around it.
type replayResult struct {
	layers        map[string]float64
	before, after scrape
}

func newReplayServer(plan replayPlan, dir string) (*replayServer, error) {
	cfg := plan.cfg
	// Single-threaded replay: one compile worker, so the handler's
	// compiles run one after another like the decomposition's.
	cfg.Workers = 1
	if plan.diskFrom != "" {
		cfg.CacheDir = dir
		if err := copyDir(plan.diskFrom, dir); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &replayServer{srv: srv, h: srv.Handler()}
	if plan.warm != nil {
		for _, src := range plan.warm.progs {
			if rec := s.serve(http.MethodPost, "/v1/compile", newCompileRequest(src).body); rec.Code != http.StatusOK {
				srv.Close()
				return nil, fmt.Errorf("replay warm %s: %d %s", src.prog.Name, rec.Code, rec.Body)
			}
		}
	}
	return s, nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (s *replayServer) metrics() (scrape, error) {
	return parseProm(s.serve(http.MethodGet, "/metrics", nil).Body)
}

// replay runs the traced replay of sample and writes
// <cfg.out>/<name>.trace.json.
func replay(cfg config, name string, plan replayPlan, sample []*request) (replayResult, error) {
	var res replayResult
	dir, err := os.MkdirTemp(cfg.work, name+"-replay-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	a, err := newReplayServer(plan, filepath.Join(dir, "a"))
	if err != nil {
		return res, err
	}
	defer a.srv.Close()
	c, err := newReplayServer(plan, filepath.Join(dir, "c"))
	if err != nil {
		return res, err
	}
	defer c.srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: c.h}
	go hs.Serve(ln)
	defer hs.Close()
	cBase := "http://" + ln.Addr().String()
	client := newClient(1)
	defer client.CloseIdleConnections()

	fps, err := optionsFingerprints(sample)
	if err != nil {
		return res, err
	}
	if res.before, err = a.metrics(); err != nil {
		return res, err
	}

	tracer := obs.NewTracer(obs.NewTraceStore(1, 1))
	tr := tracer.Start("replay "+name, "", "")
	var handlerAllocs, decodeAllocs, parseAllocs, weightsAllocs uint64
	var spansOff, spansOn time.Duration
	for i, r := range sample {
		// Ask A's cache, through its peer-lookup endpoint, which blocks
		// it holds (memory or disk): the handler compiles the rest.
		reqs, err := decodeRequest(r)
		if err != nil {
			return res, err
		}
		compiled := map[string]bool{}
		for _, req := range reqs {
			p, err := ir.Parse(req.Program)
			if err != nil {
				return res, err
			}
			for _, b := range p.Blocks() {
				key := blockKey(b, req.Options, fps)
				if a.serve(http.MethodGet, "/v1/peer/lookup/"+key, nil).Code != http.StatusOK {
					compiled[key] = true
				}
			}
		}

		root := tr.StartSpan(nil, "request")
		root.SetAttr("index", fmt.Sprint(i))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rec := a.serve(http.MethodPost, r.path(), r.body)
		hd := time.Since(t0)
		runtime.ReadMemStats(&m1)
		handlerAllocs += m1.Mallocs - m0.Mallocs
		tr.SpanAt(root, "server.handler", t0, hd)
		if rec.Code != http.StatusOK {
			return res, fmt.Errorf("replay %s: %d %s", r.path(), rec.Code, rec.Body)
		}
		answer, err := decodeAnswer(r, rec.Body.Bytes())
		if err != nil {
			return res, err
		}

		t0 = time.Now()
		status, _, err := post(client, cBase, r, false)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("replay loopback %s: status %d", r.path(), status)
		}
		if err != nil {
			return res, err
		}
		tr.SpanAt(root, "client.loopback", t0, time.Since(t0))

		// The decomposition runs with spans off and on, alternating which
		// goes first so that warm caches favour neither.
		for pass := 0; pass < 2; pass++ {
			on := (i+pass)%2 == 1
			t0 = time.Now()
			if on {
				dec := tr.StartSpan(root, "decomposed")
				err = decompose(tr, dec, r, answer, compiled, fps)
				dec.End()
				spansOn += time.Since(t0)
			} else {
				err = decompose(nil, nil, r, answer, compiled, fps)
				spansOff += time.Since(t0)
			}
			if err != nil {
				return res, err
			}
		}
		root.End()

		d, p, w, err := allocProbe(r, compiled, fps)
		if err != nil {
			return res, err
		}
		decodeAllocs, parseAllocs, weightsAllocs = decodeAllocs+d, parseAllocs+p, weightsAllocs+w
	}
	tracer.Finish(tr)
	if res.after, err = a.metrics(); err != nil {
		return res, err
	}

	view := tr.View()
	self, incl := selfTimes(view)
	n := float64(len(sample))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	layers := map[string]float64{
		"server.handler_us":     us(incl["server.handler"]),
		"compile.block_us":      us(incl["compile.block"]),
		"compile.overhead_us":   us(self["compile.block"]),
		"net.loopback_us":       us(incl["client.loopback"] - incl["server.handler"]),
		"server.handler_allocs": float64(handlerAllocs) / n,
		"server.decode_allocs":  float64(decodeAllocs) / n,
		"ir.parse_allocs":       float64(parseAllocs) / n,
		"core.weights_allocs":   float64(weightsAllocs) / n,
		"trace.overhead_pct":    100 * (spansOn - spansOff).Seconds() / spansOff.Seconds(),
	}
	attributed := incl["compile.block"]
	for _, l := range []string{"server.decode", "ir.parse", "ir.fingerprint", "server.encode"} {
		layers[l+"_us"] = us(self[l])
		attributed += self[l]
	}
	for _, l := range stageSpan {
		layers[l+"_us"] = us(self[l])
	}
	layers["server.unattributed_us"] = us(incl["server.handler"] - attributed)
	res.layers = layers

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return res, err
	}
	f, err := os.Create(filepath.Join(cfg.out, name+".trace.json"))
	if err != nil {
		return res, err
	}
	bw := bufio.NewWriter(f)
	err = obs.WriteChromeTrace(bw, view)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// selfTimes sums, per span name, self time (duration minus the part its
// children cover; children never overlap, the replay being sequential)
// and inclusive time.
func selfTimes(v obs.TraceView) (self, incl map[string]time.Duration) {
	children := map[string]time.Duration{}
	for _, s := range v.Spans {
		children[s.Parent] += s.Duration
	}
	self, incl = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range v.Spans {
		incl[s.Name] += s.Duration
		self[s.Name] += s.Duration - children[s.ID]
	}
	return self, incl
}

// optionsFingerprints learns the server's options fingerprint for every
// options value in the sample, from a scratch server's answer to a
// one-instruction program.
func optionsFingerprints(sample []*request) (map[server.RequestOptions]string, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	s := &replayServer{srv: srv, h: srv.Handler()}
	out := map[server.RequestOptions]string{}
	for _, r := range sample {
		for _, src := range r.progs {
			if _, ok := out[src.opts]; ok {
				continue
			}
			probe := &source{prog: program("probe", []*ir.Block{ir.MustParseBlock("ret")}), opts: src.opts}
			rec := s.serve(http.MethodPost, "/v1/compile", newCompileRequest(probe).body)
			var resp server.CompileResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				return nil, fmt.Errorf("options probe: %d %s", rec.Code, rec.Body)
			}
			out[src.opts] = resp.OptionsFingerprint
		}
	}
	return out, nil
}

// decodeAnswer decodes the handler's answer to r into the values the
// server encoded, for the decomposition to encode again.
func decodeAnswer(r *request, body []byte) ([]any, error) {
	if !r.batch {
		var resp server.CompileResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return []any{&resp}, nil
	}
	var frames []any
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		f := new(server.BatchFrame)
		if err := dec.Decode(f); err == io.EOF {
			return frames, nil
		} else if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
}

// decodeRequest decodes r's body as the server does.
func decodeRequest(r *request) ([]server.CompileRequest, error) {
	if r.batch {
		var br server.BatchRequest
		err := json.Unmarshal(r.body, &br)
		return br.Programs, err
	}
	var cr server.CompileRequest
	err := json.Unmarshal(r.body, &cr)
	return []server.CompileRequest{cr}, err
}

// blockKey renders a block's cache key in the server's wire form.
func blockKey(b *ir.Block, o server.RequestOptions, fps map[server.RequestOptions]string) string {
	return fmt.Sprintf("b%016x-%s", b.Fingerprint(), fps[o])
}

// decompose makes the public calls the handler makes for r, each in its
// own span under parent (tr nil: no spans).
func decompose(tr *obs.Trace, parent *obs.Span, r *request, answer []any,
	compiled map[string]bool, fps map[server.RequestOptions]string) error {
	sp := tr.StartSpan(parent, "server.decode")
	reqs, err := decodeRequest(r)
	if err != nil {
		return err
	}
	sp.End()

	sp = tr.StartSpan(parent, "ir.parse")
	progs := make([]*ir.Program, len(reqs))
	for i, req := range reqs {
		p, err := ir.Parse(req.Program)
		if err != nil {
			return err
		}
		progs[i] = p
	}
	sp.End()

	sp = tr.StartSpan(parent, "ir.fingerprint")
	var keys [][]string
	for i, p := range progs {
		p.Fingerprint()
		var ks []string
		for _, b := range p.Blocks() {
			ks = append(ks, blockKey(b, reqs[i].Options, fps))
		}
		keys = append(keys, ks)
	}
	sp.End()

	done := map[string]bool{}
	for i, p := range progs {
		for k, b := range p.Blocks() {
			key := keys[i][k]
			if !compiled[key] || done[key] {
				continue
			}
			done[key] = true
			cs := tr.StartSpan(parent, "compile.block")
			opts := compileOptions(reqs[i].Options)
			if tr != nil {
				opts.SpanObserver = func(s compile.StageSpan) { tr.SpanAt(cs, stageSpan[s.Stage], s.Start, s.Duration) }
			}
			_, err := compile.RunBlock(context.Background(), b, opts)
			cs.End()
			if err != nil {
				return err
			}
		}
	}

	sp = tr.StartSpan(parent, "server.encode")
	for _, v := range answer {
		if _, err := json.Marshal(v); err != nil {
			return err
		}
	}
	sp.End()
	return nil
}

// allocProbe counts the heap allocations of decoding r, parsing its
// programs, and the balanced weight computation of every block the
// handler compiled (pass 1's DAG), outside any timed span.
func allocProbe(r *request, compiled map[string]bool, fps map[server.RequestOptions]string) (decode, parse, weights uint64, err error) {
	var m0, m1 runtime.MemStats
	allocs := func(f func() error) (uint64, error) {
		runtime.ReadMemStats(&m0)
		err := f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, err
	}
	var reqs []server.CompileRequest
	decode, err = allocs(func() (err error) {
		reqs, err = decodeRequest(r)
		return err
	})
	if err != nil {
		return
	}
	progs := make([]*ir.Program, len(reqs))
	parse, err = allocs(func() error {
		for i, req := range reqs {
			p, err := ir.Parse(req.Program)
			if err != nil {
				return err
			}
			progs[i] = p
		}
		return nil
	})
	if err != nil {
		return
	}
	balanced, _ := sched.PolicyByName(sched.PolicyBalanced)
	done := map[string]bool{}
	for i, p := range progs {
		opts := compileOptions(reqs[i].Options)
		for _, b := range p.Blocks() {
			key := blockKey(b, reqs[i].Options, fps)
			if !compiled[key] || done[key] {
				continue
			}
			done[key] = true
			work := b.Clone()
			ir.Renumber(work)
			g := deps.Build(work, deps.BuildOptions{})
			limit := opts.BlockBudget
			if limit == 0 {
				limit = compile.DefaultBlockBudget
			}
			n, _ := allocs(func() error {
				// A budget-exhausted weighting is the degradation ladder's
				// business, not a replay failure; its allocations count.
				_, err := balanced.Weights(g, sched.PolicyConfig{}, budget.New(context.Background(), limit))
				return err
			})
			weights += n
		}
	}
	return
}
