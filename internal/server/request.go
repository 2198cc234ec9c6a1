package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"bsched/internal/compile"
	"bsched/internal/deps"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
)

// Budget tiers. A tier names a per-block work allowance so that clients
// can't ask for arbitrary (possibly enormous) budgets and so that the
// tier can be part of the cache key: the same program compiled under a
// smaller budget may legitimately land on different ladder rungs, so the
// two results must not share a cache slot.
const (
	TierSmall     = "small"     // 1/16 of the default: degrades early, cheap on hostile input
	TierDefault   = "default"   // compile.DefaultBlockBudget
	TierLarge     = "large"     // 8× the default
	TierUnlimited = "unlimited" // only the deadline bounds the work
)

// MaxRegs bounds the client-selectable register file. The allocators
// build O(Regs) state per block, so an unbounded value would let one
// cheap request force an enormous allocation inside a worker — a Go
// runtime OOM is fatal and no panic boundary recovers it. Real register
// files are far below this.
const MaxRegs = 1024

// tierBudget maps a tier name to a compile.Options.BlockBudget value.
func tierBudget(tier string) (int64, error) {
	switch tier {
	case "", TierDefault:
		return 0, nil // compile's own default
	case TierSmall:
		return compile.DefaultBlockBudget / 16, nil
	case TierLarge:
		return 8 * compile.DefaultBlockBudget, nil
	case TierUnlimited:
		return -1, nil
	}
	return 0, fmt.Errorf("unknown budget tier %q (want %s|%s|%s|%s)",
		tier, TierSmall, TierDefault, TierLarge, TierUnlimited)
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	// Program is the textual IR source (docs/IR.md).
	Program string `json:"program"`
	// Options selects the scheduling configuration; the zero value is a
	// default balanced compilation.
	Options RequestOptions `json:"options"`
	// TimeoutMillis is this request's wall-clock deadline, from its
	// arrival: each block it compiles runs under what is left of it, and
	// a wait on an identical in-flight compilation ends at it. Zero means
	// the server default; values above the server maximum are clamped.
	// The deadline is not part of the cache key: a slower identical
	// request is happy to reuse a faster one's schedule, and a result the
	// deadline degraded is served to its own requester but never cached.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Priority is the admission class: "interactive" (default) or
	// "batch". The X-Priority header, when present, wins over this
	// field. Like the deadline it is not part of the cache key — only
	// the queueing differs, never the schedule.
	Priority string `json:"priority,omitempty"`
}

// RequestOptions is the JSON mirror of the schedule-relevant subset of
// compile.Options. Every field but the legacy Chances participates in
// the options fingerprint.
type RequestOptions struct {
	// Scheduler is the legacy spelling of Policy: "balanced" (default)
	// or "traditional", used only when Policy is empty.
	Scheduler string `json:"scheduler,omitempty"`
	// Policy selects a scheduling policy from the portfolio registry
	// ("balanced", "traditional", "average", "balanced-dense",
	// "critical-path") or "auto" for the per-block decision rule
	// (docs/POLICIES.md). When set it takes precedence over Scheduler.
	Policy string `json:"policy,omitempty"`
	// TradLatency is the traditional scheduler's fixed load latency
	// (default 2, the paper's cache hit time).
	TradLatency float64 `json:"trad_latency,omitempty"`
	// Alias is "disjoint" (default) or "conservative".
	Alias string `json:"alias,omitempty"`
	// Chances is a legacy field, validated as "dp" or "unionfind" but
	// otherwise ignored: the compile always runs the exact Chances DP.
	Chances string `json:"chances,omitempty"`
	// Allocator is "local" (default) or "coloring".
	Allocator string `json:"allocator,omitempty"`
	// SkipRegalloc stops after scheduling pass 1.
	SkipRegalloc bool `json:"skip_regalloc,omitempty"`
	// SkipPass2 skips the post-allocation scheduling pass.
	SkipPass2 bool `json:"skip_pass2,omitempty"`
	// NoPressureTie / NoExposeTie disable the §4.1 tie-break heuristics.
	NoPressureTie bool `json:"no_pressure_tie,omitempty"`
	NoExposeTie   bool `json:"no_expose_tie,omitempty"`
	// Regs / SpillPool size the register file (0,0 → the default 32/6).
	Regs      int `json:"regs,omitempty"`
	SpillPool int `json:"spill_pool,omitempty"`
	// Budget is the work-budget tier: "small", "default", "large" or
	// "unlimited".
	Budget string `json:"budget,omitempty"`
}

// compileOptions lowers the request options onto compile.Options,
// validating every enum.
func (o *RequestOptions) compileOptions() (compile.Options, error) {
	var out compile.Options
	switch o.Scheduler {
	case "", sched.PolicyBalanced, sched.PolicyTraditional:
	default:
		return out, fmt.Errorf("unknown scheduler %q (want balanced|traditional)", o.Scheduler)
	}
	if o.Policy != "" && o.Policy != sched.PolicyAuto {
		if _, ok := sched.PolicyByName(o.Policy); !ok {
			return out, fmt.Errorf("unknown policy %q (want %s|%s)",
				o.Policy, strings.Join(sched.PolicyNames(), "|"), sched.PolicyAuto)
		}
	}
	out.Policy = o.Policy
	if out.Policy == "" {
		out.Policy = o.Scheduler
	}
	out.TradLatency = o.TradLatency
	if o.TradLatency != 0 && !(o.TradLatency >= 1) {
		return out, fmt.Errorf("trad_latency %g out of range [1, ∞)", o.TradLatency)
	}
	switch o.Alias {
	case "", "disjoint":
		out.Alias = deps.AliasDisjoint
	case "conservative":
		out.Alias = deps.AliasConservative
	default:
		return out, fmt.Errorf("unknown alias mode %q (want disjoint|conservative)", o.Alias)
	}
	switch o.Chances {
	case "", "dp", "unionfind":
	default:
		return out, fmt.Errorf("unknown chances method %q (want dp|unionfind)", o.Chances)
	}
	switch o.Allocator {
	case "", "local":
		out.Allocator = pipeline.AllocLocal
	case "coloring":
		out.Allocator = pipeline.AllocColoring
	default:
		return out, fmt.Errorf("unknown allocator %q (want local|coloring)", o.Allocator)
	}
	out.SkipRegalloc = o.SkipRegalloc
	out.SkipPass2 = o.SkipPass2
	out.Heuristics.NoPressureTie = o.NoPressureTie
	out.Heuristics.NoExposeTie = o.NoExposeTie
	if (o.Regs == 0) != (o.SpillPool == 0) {
		return out, fmt.Errorf("regs and spill_pool must be set together")
	}
	if o.Regs != 0 {
		if o.Regs > MaxRegs {
			return out, fmt.Errorf("regs %d above the server maximum %d", o.Regs, MaxRegs)
		}
		cfg := regalloc.Config{Regs: o.Regs, SpillPool: o.SpillPool}
		if err := cfg.Validate(); err != nil {
			return out, err
		}
		out.Regalloc = cfg
	}
	budget, err := tierBudget(o.Budget)
	if err != nil {
		return out, err
	}
	out.BlockBudget = budget
	return out, nil
}

// fingerprint hashes every schedule-relevant option into 64 bits, the
// second half of the engine.Key. Defaults are normalized first ("" and
// "balanced" hash identically), so spelling a default out does not
// defeat the cache.
func (o *RequestOptions) fingerprint() uint64 {
	h := sha256.New()
	var buf [8]byte
	wu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wstr := func(s string) {
		wu64(uint64(len(s)))
		h.Write([]byte(s))
	}
	wbool := func(b bool) {
		if b {
			wu64(1)
		} else {
			wu64(0)
		}
	}
	norm := func(s, def string) string {
		if s == "" {
			return def
		}
		return s
	}
	// The effective policy hashes in the historical scheduler slot: an
	// empty Policy resolves to the legacy Scheduler name, so default and
	// spelled-out balanced requests keep their pre-portfolio fingerprints
	// (warm caches survive the upgrade), while any forced policy re-keys.
	// "auto" folds the decision-rule version in as well: a pick cached by
	// an older rule must not satisfy a request expecting the new one.
	eff := o.Policy
	switch eff {
	case "":
		eff = norm(o.Scheduler, "balanced")
	case sched.PolicyAuto:
		eff = sched.PolicyAuto + "@" + sched.DecisionRuleVersion
	}
	wstr(eff)
	lat := o.TradLatency
	if lat == 0 {
		lat = 2
	}
	wu64(math.Float64bits(lat))
	wstr(norm(o.Alias, "disjoint"))
	// Chances no longer changes the compile; its slot keeps the old
	// default's bytes so every existing key stays the same.
	wstr("dp")
	wstr(norm(o.Allocator, "local"))
	wbool(o.SkipRegalloc)
	wbool(o.SkipPass2)
	wbool(o.NoPressureTie)
	wbool(o.NoExposeTie)
	regs, pool := o.Regs, o.SpillPool
	if regs == 0 && pool == 0 {
		regs, pool = 32, 6 // regalloc.DefaultConfig
	}
	wu64(uint64(regs))
	wu64(uint64(pool))
	wstr(norm(o.Budget, TierDefault))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return binary.LittleEndian.Uint64(out[:8])
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Stage is compile.Error's stage when the failure came from the
	// compiler ("regalloc", "input", ...), else "".
	Stage string `json:"stage,omitempty"`
	// Block is the failing block's label when attributable.
	Block string `json:"block,omitempty"`
	// RetryAfterSeconds accompanies 503 backpressure rejections.
	RetryAfterSeconds int `json:"retry_after_s,omitempty"`
}
