package server

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// keyKeep is one change of a RequestOptions field that leaves the
// options fingerprint alone, with the reason that is sound.
type keyKeep struct {
	// from and to are the two values, in either order; both nil matches
	// every change of the field.
	from, to any
	// normalized marks a listed normalization: the two lowerings differ
	// but must compile every block alike. Otherwise they must be equal.
	normalized bool
	why        string
}

// keyField gives every valid value of one RequestOptions field, the
// other fields it changes against (zero unless given), and the changes
// that keep the key. Regs and SpillPool change together, as a [2]int.
type keyField struct {
	field  string
	base   RequestOptions
	values []any
	keep   []keyKeep
}

var keyFields = []keyField{
	{field: "Scheduler", values: []any{"", "balanced", "traditional"}, keep: []keyKeep{
		{from: "", to: "balanced", normalized: true, why: `"" schedules balanced`},
	}},
	{field: "Scheduler", base: RequestOptions{Policy: "average"}, values: []any{"", "balanced", "traditional"}, keep: []keyKeep{
		{why: "a set policy wins over the legacy scheduler spelling"},
	}},
	{field: "Policy", values: []any{"", "balanced", "traditional", "average", "balanced-dense", "critical-path", "auto"}, keep: []keyKeep{
		{from: "", to: "balanced", normalized: true, why: `"" schedules balanced`},
	}},
	{field: "TradLatency", base: RequestOptions{Policy: "traditional"}, values: []any{0.0, 1.0, 2.0, 3.5}, keep: []keyKeep{
		{from: 0.0, to: 2.0, normalized: true, why: "0 means the paper's cache hit time, 2"},
	}},
	{field: "Alias", values: []any{"", "disjoint", "conservative"}, keep: []keyKeep{
		{from: "", to: "disjoint", why: "disjoint is the default alias mode"},
	}},
	{field: "Chances", values: []any{"", "dp", "unionfind"}, keep: []keyKeep{
		{why: "legacy field, validated and then ignored: the compile always runs the exact Chances DP"},
	}},
	{field: "Allocator", values: []any{"", "local", "coloring"}, keep: []keyKeep{
		{from: "", to: "local", why: "local is the default allocator"},
	}},
	{field: "SkipRegalloc", values: []any{false, true}},
	{field: "SkipPass2", values: []any{false, true}},
	{field: "NoPressureTie", values: []any{false, true}},
	{field: "NoExposeTie", values: []any{false, true}},
	{field: "Regs+SpillPool", values: []any{[2]int{0, 0}, [2]int{32, 6}, [2]int{12, 3}, [2]int{64, 8}}, keep: []keyKeep{
		{from: [2]int{0, 0}, to: [2]int{32, 6}, normalized: true, why: "0/0 is the default register file, regalloc.DefaultConfig's 32/6"},
	}},
	{field: "Budget", values: []any{"", TierSmall, TierDefault, TierLarge, TierUnlimited}, keep: []keyKeep{
		{from: "", to: TierDefault, why: "default is the default tier"},
	}},
}

// set gives f's field(s) of o the value v.
func (f *keyField) set(o *RequestOptions, v any) {
	ov := reflect.ValueOf(o).Elem()
	if pair, ok := v.([2]int); ok {
		ov.FieldByName("Regs").SetInt(int64(pair[0]))
		ov.FieldByName("SpillPool").SetInt(int64(pair[1]))
		return
	}
	ov.FieldByName(f.field).Set(reflect.ValueOf(v))
}

// match returns the index of the keep entry covering the change a → b,
// or -1.
func (f *keyField) match(a, b any) int {
	for k, kp := range f.keep {
		if kp.from == nil && kp.to == nil || kp.from == a && kp.to == b || kp.from == b && kp.to == a {
			return k
		}
	}
	return -1
}

// TestOptionsKeyComplete keeps fingerprint() and compileOptions() in
// step: changing any RequestOptions field to another valid value either
// changes the options key, or lowers to an identical compile.Options,
// or is a listed normalization under which the blocks compile alike. A
// field missing from keyFields fails the test, so a new option must
// state whether it belongs in the key.
func TestOptionsKeyComplete(t *testing.T) {
	listed := map[string]bool{}
	for _, f := range keyFields {
		for _, name := range strings.Split(f.field, "+") {
			listed[name] = true
		}
	}
	typ := reflect.TypeOf(RequestOptions{})
	for i := 0; i < typ.NumField(); i++ {
		if !listed[typ.Field(i).Name] {
			t.Errorf("RequestOptions.%s has no keyFields entry: list its valid values and the changes that keep the key", typ.Field(i).Name)
		}
	}

	blocks := []*ir.Block{workload.Saxpy("sx", 1, 4), workload.MDForce("md", 1, 4)}
	for _, f := range keyFields {
		used := make([]bool, len(f.keep))
		for i, a := range f.values {
			for _, b := range f.values[i+1:] {
				oa, ob := f.base, f.base
				f.set(&oa, a)
				f.set(&ob, b)
				la, errA := oa.compileOptions()
				lb, errB := ob.compileOptions()
				if errA != nil || errB != nil {
					t.Fatalf("%s: %v or %v is not valid: %v, %v", f.field, a, b, errA, errB)
				}
				if oa.fingerprint() != ob.fingerprint() {
					continue
				}
				k := f.match(a, b)
				if k < 0 {
					t.Errorf("%s %v → %v (other fields %+v) keeps the key but is not listed", f.field, a, b, f.base)
					continue
				}
				used[k] = true
				if !f.keep[k].normalized {
					if !reflect.DeepEqual(la, lb) {
						t.Errorf("%s %v → %v keeps the key but lowers differently:\n%+v\n%+v", f.field, a, b, la, lb)
					}
					continue
				}
				for _, blk := range blocks {
					ra, errA := compile.RunBlock(context.Background(), blk, la)
					rb, errB := compile.RunBlock(context.Background(), blk, lb)
					if errA != nil || errB != nil {
						t.Fatalf("%s %v → %v: block %s: %v, %v", f.field, a, b, blk.Label, errA, errB)
					}
					if ra.Block.String() != rb.Block.String() || ra.Policy != rb.Policy {
						t.Errorf("%s %v → %v keeps the key but compiles block %s differently", f.field, a, b, blk.Label)
					}
				}
			}
		}
		for k, u := range used {
			if !u {
				t.Errorf("%s: listed change %v → %v (%s) no longer keeps the key", f.field, f.keep[k].from, f.keep[k].to, f.keep[k].why)
			}
		}
	}
}
