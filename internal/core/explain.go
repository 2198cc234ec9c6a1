package core

import (
	"fmt"
	"math/bits"
	"strings"

	"bsched/internal/deps"
)

// Component describes one connected component of G_ind(i) during the
// balanced analysis of instruction i.
type Component struct {
	// Nodes are the component's members (original node indices).
	Nodes []int
	// Loads are the balanced candidates among them.
	Loads []int
	// Chances is the maximum number of candidate loads on any directed
	// path in the component (0 = no candidates, nothing credited).
	Chances int
	// Credit is IssueSlots(i)/Chances, the amount added to each load.
	Credit float64
}

// Explanation is the full balanced-analysis record for one instruction.
type Explanation struct {
	// Node is the instruction analysed.
	Node int
	// Removed is |Pred(i) ∪ Succ(i)|, the nodes excluded from G_ind.
	Removed int
	// Components partitions G_ind(i).
	Components []Component
}

// Explain reports how instruction i's issue slot is distributed across
// the loads of the block — the inner loop of Fig. 6 made inspectable. It
// runs the weight pass's own kernel, so its components come in the same
// order, and carry the same Chances and credit, as the ones Weights
// charges and credits. cmd/bsched's -explain flag prints it.
func Explain(g *deps.Graph, i int, opts Options) Explanation {
	k := newKernel(g, opts)
	k.start(i)
	ex := Explanation{Node: i, Removed: g.N() - 1}
	for _, s := range k.words {
		ex.Removed -= bits.OnesCount64(s.ind)
	}
	slots := opts.issueSlots(g.Instr(i))
	for k.next() {
		c := Component{Chances: k.chances()}
		if c.Chances > 0 {
			c.Credit = slots / float64(c.Chances)
		}
		for j := k.lo; j <= k.hi; j++ {
			for x := k.words[j].comp; x != 0; x &= x - 1 {
				v := j<<6 | bits.TrailingZeros64(x)
				c.Nodes = append(c.Nodes, v)
				if k.candidate(v) {
					c.Loads = append(c.Loads, v)
				}
			}
		}
		ex.Components = append(ex.Components, c)
	}
	return ex
}

// Format renders the explanation with the given node namer (nil uses
// plain indices).
func (ex Explanation) Format(name func(int) string) string {
	if name == nil {
		name = func(i int) string { return fmt.Sprintf("#%d", i) }
	}
	var b strings.Builder
	fmt.Fprintf(&b, "instruction %s: %d dependent nodes removed, %d component(s)\n",
		name(ex.Node), ex.Removed, len(ex.Components))
	for k, c := range ex.Components {
		fmt.Fprintf(&b, "  component %d: %d nodes, %d loads, chances=%d",
			k, len(c.Nodes), len(c.Loads), c.Chances)
		if c.Chances > 0 {
			fmt.Fprintf(&b, " -> +%.3f to each of", c.Credit)
			for _, l := range c.Loads {
				fmt.Fprintf(&b, " %s", name(l))
			}
		} else {
			b.WriteString(" -> no credit (no loads)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
