package compile

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"bsched/internal/ir"
	"bsched/internal/workload"
)

// budgetGoldenPath pins what every budgeted stage charges. The options
// fingerprint hashes the budget tier by name only (docs/CACHE-KEYS.md),
// so a charge that moves would silently change what a cached key
// means: the same tier name would degrade at a different point.
const budgetGoldenPath = "testdata/budget_charges.golden"

// budgetGoldenBlocks returns the pinned inputs, each under a stable
// name: every block of the paper suite, the Livermore loops and the
// integer mix, then 64 seeded random blocks of 8 to 512 instructions.
func budgetGoldenBlocks() (names []string, blocks []*ir.Block) {
	progs := workload.All()
	progs["Livermore"] = workload.Livermore()
	progs["IntMix"] = workload.IntMix()
	pnames := make([]string, 0, len(progs))
	for name := range progs {
		pnames = append(pnames, name)
	}
	sort.Strings(pnames)
	for _, pn := range pnames {
		for _, f := range progs[pn].Funcs {
			for _, b := range f.Blocks {
				names = append(names, pn+"/"+f.Name+"/"+b.Label)
				blocks = append(blocks, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	for k := 0; k < 64; k++ {
		n := 8 + rng.Intn(512-8+1)
		names = append(names, fmt.Sprintf("random/%02d/n%d", k, n))
		blocks = append(blocks, workload.Random(rng, workload.DefaultRandomParams(n)))
	}
	return names, blocks
}

// budgetLedger compiles every golden input under the default budget and
// under the server's small tier (DefaultBlockBudget/16) and renders, one
// line per block and tier, the work used and every degradation taken.
func budgetLedger(t *testing.T) string {
	t.Helper()
	names, blocks := budgetGoldenBlocks()
	tiers := []struct {
		name   string
		budget int64
	}{{"default", DefaultBlockBudget}, {"small", DefaultBlockBudget / 16}}
	var sb strings.Builder
	for i, b := range blocks {
		for _, tier := range tiers {
			res, err := RunBlock(context.Background(), b, Options{BlockBudget: tier.budget})
			if err != nil {
				t.Fatalf("%s %s: %v", names[i], tier.name, err)
			}
			fmt.Fprintf(&sb, "%s %s work=%d degradations=%d\n", names[i], tier.name, res.WorkUsed, len(res.Degradations))
			for _, e := range res.Degradations {
				fmt.Fprintf(&sb, "  %s\n", e)
			}
		}
	}
	return sb.String()
}

// TestBudgetChargesGolden pins, block by block, the work units that DAG
// construction, the weights rung and list scheduling charge, and the
// degradations those charges cause, under the default and small tiers.
func TestBudgetChargesGolden(t *testing.T) {
	want, err := os.ReadFile(budgetGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := budgetLedger(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", budgetGoldenPath, i+1, g, w)
		}
	}
}
