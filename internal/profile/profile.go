// Package profile is the cycle-attribution profiler: it explains where a
// multi-threaded schedule's cycles went. A profiled run is an ordinary
// cycle-level simulation with two observational layers on top:
//
//   - attribution — every core-cycle tagged with a cause bucket
//     (internal/attr), conserving exactly: per-core bucket sums equal the
//     run's cycle count; and
//   - the dynamic critical path — the run's dependence graph (intra-thread
//     register/program-order edges plus produce→consume cross-thread
//     edges) reconstructed from the simulator's event stream, with the
//     longest weighted path extracted and its cycles blamed on static
//     instructions and queues.
//
// Explain diffs two profiled runs (GREMIO vs DSWP, naive vs COCO) and decomposes the cycle delta exactly into per-bucket deltas.
// Everything is measured in simulator cycles — never wall-clock — and all
// renderings are byte-deterministic.
package profile

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/attr"
	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures one profiled simulation run.
type Options struct {
	// Workload, Partitioner and Program label the report ("ks", "dswp",
	// "coco"); they do not affect measurement.
	Workload, Partitioner, Program string
	// Cfg is the machine; Threads/Args/Mem the program and input.
	Cfg     sim.Config
	Threads []*ir.Function
	Args    []int64
	Mem     []int64
	// MaxCycles bounds the simulation (<= 0 uses the default budget).
	MaxCycles int64
	// Metrics and Trace are optional observability sinks; Trace also
	// receives produce→consume flow events (Perfetto arrows) when Flows is
	// set. Pid places the run's lanes in the trace.
	Metrics *obs.Scope
	Trace   *obs.Trace
	Pid     int
	Flows   bool
}

// Report is the profile of one run.
type Report struct {
	Workload    string
	Partitioner string
	Program     string
	Cycles      int64
	Cores       int
	// Instrs is the number of dynamic instructions across cores.
	Instrs int64
	// Attr is the run's cycle attribution; it conserves (checked at
	// profile time): per-core bucket sums equal Cycles.
	Attr *attr.Run
	// Path is the run's dynamic critical path.
	Path *Path
}

// Run simulates the program with attribution and event collection enabled
// and returns its profile. The attribution conservation invariant is
// verified before the report is returned.
func Run(o Options) (*Report, error) {
	maxCycles := o.MaxCycles
	if maxCycles <= 0 {
		maxCycles = budget.Default().SimCycles
	}
	col := &collector{}
	ob := &sim.Observer{
		Metrics: o.Metrics,
		Trace:   o.Trace,
		Pid:     o.Pid,
		Attr:    true,
		Events:  col.add,
		Flows:   o.Flows && o.Trace != nil,
	}
	res, err := sim.RunObserved(o.Cfg, o.Threads, o.Args, o.Mem, maxCycles, ob)
	if err != nil {
		return nil, fmt.Errorf("profile: %s/%s/%s: %w", o.Workload, o.Partitioner, o.Program, err)
	}
	totals := make([]int64, len(res.PerCore))
	for i := range totals {
		totals[i] = res.Cycles
	}
	if err := res.Attr.CheckConservation(totals); err != nil {
		return nil, fmt.Errorf("profile: %s/%s/%s: %w", o.Workload, o.Partitioner, o.Program, err)
	}
	var instrs int64
	for _, c := range res.PerCore {
		instrs += c.Instrs
	}
	return &Report{
		Workload:    o.Workload,
		Partitioner: o.Partitioner,
		Program:     o.Program,
		Cycles:      res.Cycles,
		Cores:       len(res.PerCore),
		Instrs:      instrs,
		Attr:        res.Attr,
		Path:        buildPath(col.events, o.Threads, o.Cfg.QueueCap),
	}, nil
}

// collector buffers the simulator's event stream for path reconstruction.
type collector struct{ events []sim.Event }

func (c *collector) add(e sim.Event) { c.events = append(c.events, e) }

// label renders the report's run identity ("ks/dswp/coco").
func (r *Report) label() string {
	return r.Workload + "/" + r.Partitioner + "/" + r.Program
}

// Render writes the report as deterministic text: header, per-core and
// total cycle attribution, and the critical path's top contributors
// (at most top instructions and top queues; top <= 0 means all).
func (r *Report) Render(w io.Writer, top int) error {
	if _, err := fmt.Fprintf(w, "== profile %s ==\n", r.label()); err != nil {
		return err
	}
	ipc100 := int64(0)
	if r.Cycles > 0 {
		ipc100 = 100 * r.Instrs / r.Cycles
	}
	fmt.Fprintf(w, "cycles=%d cores=%d instrs=%d ipc=%d.%02d\n",
		r.Cycles, r.Cores, r.Instrs, ipc100/100, ipc100%100)
	fmt.Fprintf(w, "\ncycle attribution (cycles):\n")
	for c := range r.Attr.Cores {
		fmt.Fprintf(w, "  core%d: %s\n", c, bucketLine(&r.Attr.Cores[c]))
	}
	tot := r.Attr.TotalBuckets()
	fmt.Fprintf(w, "  total: %s\n", bucketLine(&tot))
	queueStalls := renderQueueStalls(r.Attr)
	if queueStalls != "" {
		fmt.Fprintf(w, "\nqueue stall blame (cycles):\n%s", queueStalls)
	}
	p := r.Path
	fmt.Fprintf(w, "\ncritical path: length=%d cycles, %d events (run: %d cycles)\n",
		p.Length, p.Nodes, r.Cycles)
	fmt.Fprintf(w, "top instructions by critical-path share:\n")
	for i, b := range capTop(p.Instrs, top) {
		fmt.Fprintf(w, "  %2d. %8d cy  n=%-7d core%d #%d: %s\n",
			i+1, b.Cycles, b.Count, b.Core, b.ID, b.Label)
	}
	fmt.Fprintf(w, "top queues by critical-path share:\n")
	for i, q := range capTopQ(p.Queues, top) {
		if _, err := fmt.Fprintf(w, "  %2d. %8d cy  n=%-7d q%d\n", i+1, q.Cycles, q.Count, q.Queue); err != nil {
			return err
		}
	}
	return nil
}

// bucketLine renders one tally with every bucket named, in bucket order.
func bucketLine(b *attr.Buckets) string {
	s := ""
	for i := attr.Bucket(0); i < attr.NumBuckets; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", i, b[i])
	}
	return s
}

// renderQueueStalls lists each queue's communication stall blame, skipping
// all-zero queues; empty string when no queue stalled anything.
func renderQueueStalls(a *attr.Run) string {
	s := ""
	for q := range a.Queues {
		b := &a.Queues[q]
		n := b[attr.QueueEmpty] + b[attr.QueueFull] + b[attr.CommLatency]
		if n == 0 {
			continue
		}
		s += fmt.Sprintf("  q%d: queue-empty=%d queue-full=%d comms-latency=%d\n",
			q, b[attr.QueueEmpty], b[attr.QueueFull], b[attr.CommLatency])
	}
	return s
}

func capTop(s []InstrBlame, top int) []InstrBlame {
	if top > 0 && len(s) > top {
		return s[:top]
	}
	return s
}

func capTopQ(s []QueueBlame, top int) []QueueBlame {
	if top > 0 && len(s) > top {
		return s[:top]
	}
	return s
}

// sortInstrBlame orders blame entries by cycles descending, then core,
// then instruction ID — a total, deterministic order.
func sortInstrBlame(s []InstrBlame) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Cycles != s[j].Cycles {
			return s[i].Cycles > s[j].Cycles
		}
		if s[i].Core != s[j].Core {
			return s[i].Core < s[j].Core
		}
		return s[i].ID < s[j].ID
	})
}

func sortQueueBlame(s []QueueBlame) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Cycles != s[j].Cycles {
			return s[i].Cycles > s[j].Cycles
		}
		return s[i].Queue < s[j].Queue
	})
}
