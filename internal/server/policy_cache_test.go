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
	"testing"

	"bsched/internal/engine"
	"bsched/internal/ir"
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

// TestPolicyCacheMemorySoundness is the satellite regression: a cached
// balanced result must never satisfy a traditional request (or any
// other policy's), and each response must name the policy it was
// compiled under.
func TestPolicyCacheMemorySoundness(t *testing.T) {
	s, ts := startServer(t, Config{})
	_, first, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyBalanced}})
	if first == nil || first.Cached {
		t.Fatal("seed balanced compile missing or cached")
	}
	if first.Blocks[0].Policy != sched.PolicyBalanced {
		t.Fatalf("balanced response names policy %q", first.Blocks[0].Policy)
	}

	status, trad, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyTraditional}})
	if status != http.StatusOK {
		t.Fatalf("traditional request: status %d", status)
	}
	if trad.Cached {
		t.Fatal("cached balanced schedule served for a traditional request")
	}
	if trad.Blocks[0].Policy != sched.PolicyTraditional {
		t.Fatalf("traditional response names policy %q", trad.Blocks[0].Policy)
	}
	if trad.OptionsFingerprint == first.OptionsFingerprint {
		t.Fatal("balanced and traditional share an options fingerprint")
	}

	// Each policy re-requested is its own warm entry.
	_, again, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyTraditional}})
	if !again.Cached {
		t.Error("repeat traditional request missed its own cache entry")
	}
	if again.Program != trad.Program {
		t.Error("cached traditional schedule differs from its original")
	}

	// /stats records both policies' blocks.
	snap := s.Stats()
	if snap.PolicyBlocks[sched.PolicyBalanced] < 1 || snap.PolicyBlocks[sched.PolicyTraditional] < 1 {
		t.Errorf("policy block counters = %v, want both balanced and traditional >= 1", snap.PolicyBlocks)
	}
	if cs, ok := snap.PolicyCycles[sched.PolicyBalanced]; !ok || cs.Count < 1 || cs.P50Slots <= 0 {
		t.Errorf("balanced cycle summary = %+v, want count >= 1 and positive p50", cs)
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
	if got := s2.Stats().PolicyBlocks[sched.PolicyTraditional]; got != 1 {
		t.Errorf("traditional blocks compiled after restart = %d, want 1", got)
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

	balKey := Key{Block: blockFP, Opts: (&RequestOptions{Policy: sched.PolicyBalanced}).fingerprint()}
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

	tradKey := Key{Block: blockFP, Opts: (&RequestOptions{Policy: sched.PolicyTraditional}).fingerprint()}
	resp, err = http.Get(ts.URL + "/v1/peer/lookup/" + tradKey.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traditional-key lookup after balanced compile: status %d, want 404", resp.StatusCode)
	}
}

// TestForcePolicyOverride: a daemon started with Config.ForcePolicy
// compiles every request under that policy and keys the cache by it,
// whatever the request asked for.
func TestForcePolicyOverride(t *testing.T) {
	_, ts := startServer(t, Config{ForcePolicy: sched.PolicyCriticalPath})
	status, resp, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Policy: sched.PolicyBalanced}})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Blocks[0].Policy != sched.PolicyCriticalPath {
		t.Fatalf("forced daemon compiled under %q, want critical-path", resp.Blocks[0].Policy)
	}
	want := fmt.Sprintf("%016x", (&RequestOptions{Policy: sched.PolicyCriticalPath}).fingerprint())
	if resp.OptionsFingerprint != want {
		t.Fatalf("forced response keyed %s, want %s", resp.OptionsFingerprint, want)
	}
}
