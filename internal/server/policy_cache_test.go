package server

// Cache soundness across the scheduling-policy portfolio: the policy is
// part of the options fingerprint, so a schedule compiled under one
// policy must never be served for a request that asked for another —
// through the in-memory cache, the persistent (disk) layer, or the peer
// protocol. The legacy default path is the other half of the contract:
// an empty policy hashes exactly like the pre-portfolio scheduler
// field, so warm caches survive the upgrade.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
	"bsched/internal/obs"
	"bsched/internal/sched"
)

// TestPolicyFingerprintDistinct pins the fingerprint algebra: every
// registered policy keys differently, "auto" keys differently from all
// of them (and re-keys with the decision-rule version), and the legacy
// default spellings collapse onto the forced-balanced key.
func TestPolicyFingerprintDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range sched.PolicyNames() {
		fp := (&RequestOptions{Policy: name}).fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("policies %q and %q share fingerprint %016x", prev, name, fp)
		}
		seen[fp] = name
	}
	autoFP := (&RequestOptions{Policy: sched.PolicyAuto}).fingerprint()
	if prev, dup := seen[autoFP]; dup {
		t.Fatalf("auto shares fingerprint with %q", prev)
	}

	// Compatibility: default, spelled-out balanced scheduler, and forced
	// balanced policy are all one key — pre-portfolio disk caches stay
	// warm.
	def := (&RequestOptions{}).fingerprint()
	if fp := (&RequestOptions{Scheduler: "balanced"}).fingerprint(); fp != def {
		t.Error("spelled-out balanced scheduler re-keyed the default")
	}
	if fp := (&RequestOptions{Policy: sched.PolicyBalanced}).fingerprint(); fp != def {
		t.Error("forced balanced policy re-keyed the default")
	}
	// And the traditional pair collapses the same way.
	tradSched := (&RequestOptions{Scheduler: "traditional"}).fingerprint()
	if fp := (&RequestOptions{Policy: sched.PolicyTraditional}).fingerprint(); fp != tradSched {
		t.Error("forced traditional policy re-keyed the traditional scheduler")
	}
	if tradSched == def {
		t.Error("traditional and balanced share a fingerprint")
	}
	// Policy wins over Scheduler in the key, exactly as it does in the
	// compile: the pair (traditional scheduler, balanced policy) is the
	// balanced key.
	if fp := (&RequestOptions{Scheduler: "traditional", Policy: sched.PolicyBalanced}).fingerprint(); fp != def {
		t.Error("policy did not take fingerprint precedence over scheduler")
	}

	// The legacy chances field is validated but no longer changes the
	// compile, so both spellings share the default key and a cold
	// unionfind compile answers exactly like a cold default one.
	for _, ch := range []string{"dp", "unionfind"} {
		if fp := (&RequestOptions{Chances: ch}).fingerprint(); fp != def {
			t.Errorf("chances %q re-keyed the default", ch)
		}
	}
	_, ts := startServer(t, Config{CacheCapacity: -1})
	_, dflt, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	status, uf, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Chances: "unionfind"}})
	if status != http.StatusOK || dflt == nil {
		t.Fatalf("chances unionfind: status %d", status)
	}
	if a, b := stripStamps(dflt), stripStamps(uf); !bytes.Equal(a, b) {
		t.Errorf("chances unionfind response differs from the default:\n%s\n%s", b, a)
	}
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Chances: "quantum"}}); status != http.StatusBadRequest {
		t.Errorf("unknown chances method: status %d, want 400", status)
	}
}

// autoMixProgram has one block with loads (the decision rule keeps it
// on balanced) and one load-free block (the rule sends it to
// critical-path), so one auto request lands its blocks on different
// policies.
const autoMixProgram = `func automix
block loady freq=1
v0 = load a[0]
v1 = load a[8]
v2 = add v0, v1
liveout v2
end
block pure freq=1
v0 = const 1
v1 = add v0, v0
v2 = mul v1, v0
liveout v2
end`

// TestPolicyCacheMemorySoundness drives the portfolio over HTTP: the
// default request and a forced balanced one share a cache entry; every
// registered policy plus auto answers under its own options
// fingerprint, each block naming the policy it was compiled under (auto
// picking per block); a schedule cached under one policy never
// satisfies another's request; and the per-policy counters land in
// /stats and /metrics.
func TestPolicyCacheMemorySoundness(t *testing.T) {
	_, ts := startServer(t, Config{})
	post := func(program string, opts RequestOptions) *CompileResponse {
		t.Helper()
		status, resp, errResp := postCompile(t, ts.URL, CompileRequest{Program: program, Options: opts})
		if status != http.StatusOK {
			t.Fatalf("policy %q: status %d (%+v)", opts.Policy, status, errResp)
		}
		return resp
	}

	// The compatibility anchor: default and forced balanced are one key,
	// so the second request is a warm hit on the first.
	def := post(demoProgram, RequestOptions{})
	bal := post(demoProgram, RequestOptions{Policy: sched.PolicyBalanced})
	if def.Cached || !bal.Cached {
		t.Fatalf("default then forced balanced: cached %v then %v, want false then true", def.Cached, bal.Cached)
	}
	if bal.OptionsFingerprint != def.OptionsFingerprint {
		t.Fatalf("forced balanced keyed %s, default %s", bal.OptionsFingerprint, def.OptionsFingerprint)
	}

	// Every policy plus auto, in turn, over one mixed program: each
	// request after the first probes blocks cached under other policies
	// and must compile afresh under its own key.
	autoPicks := map[string]string{"loady": sched.PolicyBalanced, "pure": sched.PolicyCriticalPath}
	first := map[string]*CompileResponse{}
	for _, name := range append(sched.PolicyNames(), sched.PolicyAuto) {
		resp := post(autoMixProgram, RequestOptions{Policy: name})
		if resp.Cached {
			t.Errorf("%s: served from another policy's cache entry", name)
		}
		for other, prev := range first {
			if prev.OptionsFingerprint == resp.OptionsFingerprint {
				t.Errorf("policies %q and %q share options fingerprint %s", other, name, prev.OptionsFingerprint)
			}
		}
		first[name] = resp
		for _, b := range resp.Blocks {
			want := name
			if name == sched.PolicyAuto {
				want = autoPicks[b.Label]
			}
			if b.Policy != want {
				t.Errorf("%s: block %s compiled under %q, want %q", name, b.Label, b.Policy, want)
			}
		}
	}

	// Each policy re-requested is its own warm entry.
	again := post(autoMixProgram, RequestOptions{Policy: sched.PolicyTraditional})
	if !again.Cached || again.Program != first[sched.PolicyTraditional].Program {
		t.Errorf("repeat traditional request: cached %v, schedule unchanged %v",
			again.Cached, again.Program == first[sched.PolicyTraditional].Program)
	}

	fams := getStats(t, ts.URL)
	for _, name := range sched.PolicyNames() {
		if v := statValue(fams, "bschedd_policy_blocks_total", name); v < 1 {
			t.Errorf("/stats bschedd_policy_blocks_total[%s] = %g, want >= 1", name, v)
		}
	}
	cs, bounds, _ := obs.Find(fams, "bschedd_policy_cycles", sched.PolicyBalanced)
	if p50 := cs.Quantile(bounds, 0.5); cs.Count < 1 || p50 <= 0 {
		t.Errorf("balanced cycles: count %d, p50 %g; want count >= 1 and positive p50", cs.Count, p50)
	}
	metrics, _ := scrapeMetrics(t, ts.URL)
	if v := statValue(metrics, "bschedd_policy_blocks_total", sched.PolicyCriticalPath); v < 1 {
		t.Errorf("/metrics bschedd_policy_blocks_total[%s] = %g, want >= 1", sched.PolicyCriticalPath, v)
	}
}

// TestPolicyCacheDiskSoundness: a restart on the same cache directory
// keeps the balanced entry warm, but a traditional request against the
// restarted daemon must recompile — the disk record's key carries the
// policy too.
func TestPolicyCacheDiskSoundness(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Config{CacheDir: dir})
	if status, _, _ := postCompile(t, ts1.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyBalanced}}); status != http.StatusOK {
		t.Fatal("seed compile failed")
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := startServer(t, Config{CacheDir: dir})
	_, warm, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyBalanced}})
	if warm == nil || !warm.Cached {
		t.Fatal("balanced entry did not survive the restart")
	}
	_, trad, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyTraditional}})
	if trad == nil {
		t.Fatal("traditional request failed")
	}
	if trad.Cached {
		t.Fatal("disk-cached balanced schedule served for a traditional request")
	}
	if trad.Blocks[0].Policy != sched.PolicyTraditional {
		t.Fatalf("disk-path traditional response names policy %q", trad.Blocks[0].Policy)
	}
	if got := metric(s2, "bschedd_policy_blocks_total", sched.PolicyTraditional); got != 1 {
		t.Errorf("traditional blocks compiled after restart = %g, want 1", got)
	}
}

// TestPolicyCachePeerSoundness: the peer lookup endpoint answers for
// the exact key it cached — a balanced compilation is invisible under
// the traditional options fingerprint, so a fleet never serves one
// policy's schedule for another's key.
func TestPolicyCachePeerSoundness(t *testing.T) {
	_, ts := startServer(t, Config{})
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyBalanced}}); status != http.StatusOK {
		t.Fatal("seed compile failed")
	}
	prog, err := ir.Parse(demoProgram)
	if err != nil {
		t.Fatal(err)
	}
	blockFP := prog.Funcs[0].Blocks[0].Fingerprint()

	balKey := engine.Key{Block: blockFP, Opts: (&RequestOptions{Policy: sched.PolicyBalanced}).fingerprint()}
	resp, err := http.Get(ts.URL + "/v1/peer/lookup/" + balKey.String())
	if err != nil {
		t.Fatal(err)
	}
	var got engine.BlockResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("balanced peer lookup: status %d err %v", resp.StatusCode, err)
	}
	if got.Summary.Policy != sched.PolicyBalanced {
		t.Fatalf("peer payload names policy %q", got.Summary.Policy)
	}

	tradKey := engine.Key{Block: blockFP, Opts: (&RequestOptions{Policy: sched.PolicyTraditional}).fingerprint()}
	resp, err = http.Get(ts.URL + "/v1/peer/lookup/" + tradKey.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traditional-key lookup after balanced compile: status %d, want 404", resp.StatusCode)
	}
}

// widePolicyProgram renders a single-block program of n alternating
// loads and adds: wide enough that the small budget tier runs out
// inside the policy's weighting rung rather than in DAG construction.
func widePolicyProgram(n int) string {
	var sb strings.Builder
	sb.WriteString("func starve\nblock wide freq=1\n")
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&sb, "v%d = load a[%d]\n", i, 8*i)
		} else {
			fmt.Fprintf(&sb, "v%d = add v%d, v%d\n", i, i-1, i-1)
		}
	}
	sb.WriteString("end")
	return sb.String()
}

// TestForcePolicyOverride: a daemon started with Config.ForcePolicy
// compiles every request under that policy and keys the cache by it,
// whatever the request asked for. Starved on the small tier, every
// degradation event names the forced policy — the operator's only way
// to tell which portfolio member was starved.
func TestForcePolicyOverride(t *testing.T) {
	for _, tc := range []struct {
		force   string
		program string
		opts    RequestOptions
		starve  bool // the forced policy's weighting rung must degrade
	}{
		{force: sched.PolicyCriticalPath, program: demoProgram},
		{force: sched.PolicyBalancedDense, program: widePolicyProgram(768),
			opts: RequestOptions{Budget: TierSmall, SkipRegalloc: true}, starve: true},
	} {
		t.Run(tc.force, func(t *testing.T) {
			_, ts := startServer(t, Config{ForcePolicy: tc.force})
			asked := tc.opts
			asked.Policy = sched.PolicyBalanced
			status, resp, errResp := postCompile(t, ts.URL, CompileRequest{Program: tc.program, Options: asked})
			if status != http.StatusOK {
				t.Fatalf("status %d (%+v)", status, errResp)
			}
			for _, b := range resp.Blocks {
				if b.Policy != tc.force {
					t.Fatalf("forced daemon compiled block %s under %q, want %q", b.Label, b.Policy, tc.force)
				}
			}
			keyed := tc.opts
			keyed.Policy = tc.force
			if want := fmt.Sprintf("%016x", keyed.fingerprint()); resp.OptionsFingerprint != want {
				t.Fatalf("forced response keyed %s, want %s", resp.OptionsFingerprint, want)
			}
			starved := false
			for _, e := range resp.Degradations {
				if e.Policy != tc.force {
					t.Errorf("degradation %s %s→%s names policy %q, want %q", e.Stage, e.From, e.To, e.Policy, tc.force)
				}
				starved = starved || e.From == compile.RungPolicyPrefix+tc.force
			}
			if starved != tc.starve {
				t.Errorf("policy rung degraded = %v, want %v (events %+v)", starved, tc.starve, resp.Degradations)
			}
		})
	}
}

// TestNewRejectsUnknownForcePolicy: New refuses a ForcePolicy that is
// neither a registered policy nor auto, instead of starting a daemon
// whose every compile answers 400 and blames the client.
func TestNewRejectsUnknownForcePolicy(t *testing.T) {
	if s, err := New(Config{ForcePolicy: "balancd"}); err == nil {
		s.Close()
		t.Fatal(`New accepted ForcePolicy "balancd"`)
	} else if !strings.Contains(err.Error(), `"balancd"`) {
		t.Fatalf("error does not name the bad policy: %v", err)
	}
	for _, name := range append(sched.PolicyNames(), sched.PolicyAuto) {
		s, err := New(Config{ForcePolicy: name})
		if err != nil {
			t.Fatalf("ForcePolicy %q: %v", name, err)
		}
		s.Close()
	}
}
