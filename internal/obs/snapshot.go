// Fleet-mergeable metric snapshots. Registry.Snapshot exports every
// registered family as plain data (JSON-serializable, no atomics, no
// closures) so one node can ship its whole registry to a peer over the
// fleet endpoints; MergeFamilies folds the snapshots of N nodes into
// one fleet view — counters sum, gauges become per-node series under a
// "node" label, histograms add bucket-wise. WriteSnapshotText is the
// one Prometheus text writer: it renders the node-local registry for
// /metrics (through Registry.WriteText) and the merged fleet view for
// /v1/fleet/metrics alike.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Metric kinds carried by a FamilySnapshot. The string values double as
// the exposition-format TYPE names.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// SeriesSnapshot is one series of a family: a label-value tuple plus
// either a scalar value (counter, gauge) or a bucket distribution
// (histogram; BucketCounts is per-bucket, not cumulative, with the
// +Inf bucket last).
type SeriesSnapshot struct {
	LabelValues  []string `json:"label_values,omitempty"`
	Value        float64  `json:"value,omitempty"`
	BucketCounts []int64  `json:"bucket_counts,omitempty"`
	Sum          float64  `json:"sum,omitempty"`
	Count        int64    `json:"count,omitempty"`
}

// FamilySnapshot is one metric family as plain data. Info families
// snapshot as gauges (constant 1 with identifying labels), matching how
// they render.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Labels []string         `json:"labels,omitempty"`
	Bounds []float64        `json:"bounds,omitempty"`
	Series []SeriesSnapshot `json:"series,omitempty"`
	// exemplar is an unlabeled histogram's last exemplar. It is
	// node-local: not serialized, and dropped by MergeFamilies.
	exemplar *exemplar
}

// Snapshot exports every registered family in registration order.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	out := make([]FamilySnapshot, len(fams))
	for i, f := range fams {
		out[i] = f.snapshot()
	}
	return out
}

// NodeSnapshot is one node's full registry snapshot, tagged with the
// node's identity (its base URL on the ring, or "standalone").
type NodeSnapshot struct {
	Node     string           `json:"node"`
	Families []FamilySnapshot `json:"families"`
}

// MergeFamilies folds per-node registry snapshots into one fleet view:
//
//   - counters: series with the same label tuple sum across nodes;
//   - gauges: summing instantaneous values would manufacture meaningless
//     numbers (what is the sum of three uptimes?), so each node's series
//     keep their value and gain a leading "node" label;
//   - histograms: series with the same label tuple add bucket-wise
//     (counts, sum, count) — bucket bounds are identical across nodes
//     running the same binary; a series whose bounds disagree with the
//     first-seen family is skipped rather than mis-added.
//
// Families appear in first-seen order (i.e. the first node's
// registration order), series within a family in sorted label order. A
// family whose kind disagrees across nodes keeps the first-seen kind
// and skips the conflicting node's series.
func MergeFamilies(nodes []NodeSnapshot) []FamilySnapshot {
	type mergedFamily struct {
		fs     FamilySnapshot
		series map[string]*SeriesSnapshot
		order  []string
	}
	var order []string
	fams := make(map[string]*mergedFamily)

	for _, node := range nodes {
		for _, fs := range node.Families {
			mf := fams[fs.Name]
			if mf == nil {
				mf = &mergedFamily{series: make(map[string]*SeriesSnapshot)}
				mf.fs = FamilySnapshot{Name: fs.Name, Help: fs.Help, Kind: fs.Kind,
					Labels: append([]string(nil), fs.Labels...),
					Bounds: append([]float64(nil), fs.Bounds...)}
				if fs.Kind == KindGauge {
					mf.fs.Labels = append([]string{"node"}, mf.fs.Labels...)
				}
				fams[fs.Name] = mf
				order = append(order, fs.Name)
			}
			if fs.Kind != mf.fs.Kind {
				continue
			}
			for _, s := range fs.Series {
				switch fs.Kind {
				case KindGauge:
					vals := append([]string{node.Node}, s.LabelValues...)
					key := strings.Join(vals, "\x1f")
					if mf.series[key] == nil {
						mf.series[key] = &SeriesSnapshot{LabelValues: vals, Value: s.Value}
						mf.order = append(mf.order, key)
					}
				case KindHistogram:
					if !equalBounds(fs.Bounds, mf.fs.Bounds) {
						continue
					}
					key := strings.Join(s.LabelValues, "\x1f")
					dst := mf.series[key]
					if dst == nil {
						dst = &SeriesSnapshot{
							LabelValues:  append([]string(nil), s.LabelValues...),
							BucketCounts: make([]int64, len(s.BucketCounts)),
						}
						mf.series[key] = dst
						mf.order = append(mf.order, key)
					}
					if len(dst.BucketCounts) == len(s.BucketCounts) {
						for i, c := range s.BucketCounts {
							dst.BucketCounts[i] += c
						}
						dst.Sum += s.Sum
						dst.Count += s.Count
					}
				default: // counter
					key := strings.Join(s.LabelValues, "\x1f")
					dst := mf.series[key]
					if dst == nil {
						dst = &SeriesSnapshot{LabelValues: append([]string(nil), s.LabelValues...)}
						mf.series[key] = dst
						mf.order = append(mf.order, key)
					}
					dst.Value += s.Value
				}
			}
		}
	}

	out := make([]FamilySnapshot, 0, len(order))
	for _, name := range order {
		mf := fams[name]
		sort.Strings(mf.order)
		for _, key := range mf.order {
			mf.fs.Series = append(mf.fs.Series, *mf.series[key])
		}
		out = append(out, mf.fs)
	}
	return out
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteSnapshotText renders snapshots in Prometheus text exposition
// format: `# HELP` and `# TYPE` comments, then one line per series.
// Counters print as integers. A node-local histogram's exemplar renders
// as a `# EXEMPLAR` comment after its family; merged families carry
// none.
func WriteSnapshotText(w io.Writer, fams []FamilySnapshot) {
	for _, fs := range fams {
		writeHeader(w, fs.Name, fs.Help, fs.Kind)
		for _, s := range fs.Series {
			switch fs.Kind {
			case KindHistogram:
				bucketNames := append(append(make([]string, 0, len(fs.Labels)+1), fs.Labels...), "le")
				var cum int64
				for i, c := range s.BucketCounts {
					cum += c
					le := "+Inf"
					if i < len(fs.Bounds) {
						le = formatFloat(fs.Bounds[i])
					}
					bucketValues := append(append(make([]string, 0, len(s.LabelValues)+1), s.LabelValues...), le)
					fmt.Fprintf(w, "%s_bucket%s %d\n", fs.Name, formatLabels(bucketNames, bucketValues), cum)
				}
				suffix := formatLabels(fs.Labels, s.LabelValues)
				fmt.Fprintf(w, "%s_sum%s %s\n", fs.Name, suffix, formatFloat(s.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", fs.Name, suffix, s.Count)
			case KindCounter:
				fmt.Fprintf(w, "%s%s %s\n", fs.Name, formatLabels(fs.Labels, s.LabelValues), strconv.FormatFloat(s.Value, 'f', -1, 64))
			default:
				fmt.Fprintf(w, "%s%s %s\n", fs.Name, formatLabels(fs.Labels, s.LabelValues), formatFloat(s.Value))
			}
		}
		if e := fs.exemplar; e != nil {
			fmt.Fprintf(w, "# EXEMPLAR %s trace_id=\"%s\" %s\n", fs.Name, escapeLabel(e.traceID), formatFloat(e.value))
		}
	}
}
