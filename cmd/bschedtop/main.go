// Command bschedtop is a live terminal dashboard for a bschedd fleet —
// top(1) for the scheduling service. It polls one node's GET
// /v1/fleet/stats (that node fetches each ring peer's /stats, so
// pointing bschedtop at ANY node shows the whole fleet) and redraws a
// per-node table plus fleet totals every interval:
//
//	bschedtop -addr http://10.0.0.1:8370
//	bschedtop -once          # one snapshot, no screen control
//
// Columns, per node, each read from the node's metric families
// (docs/OBSERVABILITY.md): request rate since the previous poll (QPS),
// lifetime requests, p99 service time, block-cache hit rate across all
// tiers (memory + disk + peer, as a fraction of block dispatches),
// queue occupancy against its bound, admission sheds (CoDel sojourn +
// queue-full), the disk circuit-breaker state, and retained traces.
// Unreachable nodes stay listed with their error — the fleet view
// degrades, it does not vanish.
//
// The tool is read-only: it issues nothing but GETs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"bsched/internal/admission"
	"bsched/internal/obs"
)

// fleetNode and fleetStats mirror the GET /v1/fleet/stats shape. Only
// the families' plain-data form is shared with the daemon, which keeps
// the binary decoupled from the server package.
type fleetNode struct {
	Node      string               `json:"node"`
	Self      bool                 `json:"self"`
	Reachable bool                 `json:"reachable"`
	Error     string               `json:"error"`
	Families  []obs.FamilySnapshot `json:"families"`
}

type fleetStats struct {
	Self      string               `json:"self"`
	Nodes     []fleetNode          `json:"nodes"`
	Reachable int                  `json:"reachable"`
	Totals    []obs.FamilySnapshot `json:"totals"`
}

// poll fetches one fleet snapshot.
func poll(client *http.Client, addr string) (*fleetStats, error) {
	resp, err := client.Get(addr + "/v1/fleet/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var fs fleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return nil, err
	}
	return &fs, nil
}

// value is the value of family name's series with the given label
// values, as an integer; 0 when the snapshot has no such series.
func value(fams []obs.FamilySnapshot, name string, labels ...string) int64 {
	s, _, _ := obs.Find(fams, name, labels...)
	return int64(s.Value)
}

// blockEvents is one outcome of bschedd_block_cache_events_total.
func blockEvents(fams []obs.FamilySnapshot, outcome string) int64 {
	return value(fams, "bschedd_block_cache_events_total", outcome)
}

// sheds counts admission sheds: CoDel sojourn plus queue-full.
func sheds(fams []obs.FamilySnapshot) int64 {
	return value(fams, "bschedd_admission_total", "shed_sojourn") + value(fams, "bschedd_admission_total", "shed_full")
}

// hitRate is the all-tier block cache hit fraction: every dispatch
// that avoided a compile (memory, disk or peer) over all dispatches.
func hitRate(fams []obs.FamilySnapshot) float64 {
	served := blockEvents(fams, "hit") + blockEvents(fams, "disk") + blockEvents(fams, "peer")
	total := served + blockEvents(fams, "miss")
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// p99Millis is the p99 service time of successful compiles, in
// milliseconds, from the request-duration histogram's buckets.
func p99Millis(fams []obs.FamilySnapshot) float64 {
	s, bounds, _ := obs.Find(fams, "bschedd_request_duration_seconds")
	return 1000 * s.Quantile(bounds, 0.99)
}

// breakerState names the disk circuit breaker's position, "-" when the
// node does not report one.
func breakerState(fams []obs.FamilySnapshot) string {
	s, _, ok := obs.Find(fams, "bschedd_breaker_state")
	if !ok {
		return "-"
	}
	return admission.BreakerState(s.Value).String()
}

// render draws one frame. prev carries the previous poll's per-node
// request counts for the QPS column; elapsed is the time since it.
func render(w io.Writer, fs *fleetStats, prev map[string]int64, elapsed time.Duration) {
	fmt.Fprintf(w, "bschedtop — fleet via %s — %d/%d nodes up — %s\n\n",
		fs.Self, fs.Reachable, len(fs.Nodes), time.Now().Format("15:04:05"))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tUP\tQPS\tREQS\tP99(ms)\tHIT%\tQUEUE\tSHED\tBRKR\tTRACES")
	for _, n := range fs.Nodes {
		name := n.Node
		if n.Self {
			name += " *"
		}
		if !n.Reachable {
			// The error is the row's last column, so it prints whole.
			fmt.Fprintf(tw, "%s\tDOWN\t-\t-\t-\t-\t-\t-\t-\t%s\n", name, n.Error)
			continue
		}
		f := n.Families
		reqs := value(f, "bschedd_requests_total")
		qps := ""
		if last, ok := prev[n.Node]; ok && elapsed > 0 {
			qps = fmt.Sprintf("%.1f", float64(reqs-last)/elapsed.Seconds())
		}
		fmt.Fprintf(tw, "%s\tup\t%s\t%d\t%.2f\t%.1f\t%d/%d\t%d\t%s\t%d\n",
			name, qps, reqs, p99Millis(f), 100*hitRate(f),
			value(f, "bschedd_queue_depth"), value(f, "bschedd_queue_capacity"), sheds(f),
			breakerState(f), value(f, "bschedd_traces_retained"))
	}
	tw.Flush()

	t := fs.Totals
	served := blockEvents(t, "hit") + blockEvents(t, "disk") + blockEvents(t, "peer")
	fmt.Fprintf(w, "\nfleet totals: %d requests, %d ok, %d rejected, %d block hits (mem %d / disk %d / peer %d), %d sheds\n",
		value(t, "bschedd_requests_total"), value(t, "bschedd_responses_total", "ok"), value(t, "bschedd_responses_total", "rejected"),
		served, blockEvents(t, "hit"), blockEvents(t, "disk"), blockEvents(t, "peer"), sheds(t))
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8370", "base URL of any fleet node")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen control)")
	flag.Parse()
	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	client := &http.Client{Timeout: 10 * time.Second}
	prev := map[string]int64{}
	lastPoll := time.Time{}
	for {
		fs, err := poll(client, base)
		now := time.Now()
		if err != nil {
			if *once {
				fmt.Fprintf(os.Stderr, "bschedtop: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "bschedtop: %v (retrying in %s)\n", err, *interval)
		} else {
			var buf strings.Builder
			elapsed := time.Duration(0)
			if !lastPoll.IsZero() {
				elapsed = now.Sub(lastPoll)
			}
			render(&buf, fs, prev, elapsed)
			if !*once {
				fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			}
			fmt.Print(buf.String())
			for _, n := range fs.Nodes {
				if n.Reachable {
					prev[n.Node] = value(n.Families, "bschedd_requests_total")
				}
			}
			lastPoll = now
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}
