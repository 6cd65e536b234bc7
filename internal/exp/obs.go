package exp

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Obs bundles the observability sinks threaded through the experiment
// harness. Both sinks are optional and a nil *Obs records nothing, so the
// pipeline carries no nil checks at record sites.
//
// The trace layout is deterministic: each workload is one trace process
// (pid = its position in workloads.Names(), so traces from different runs
// line up), with the partitioner-independent analysis phases on tid 0 and
// each partitioner's pipeline phases on their own tid. Phase spans are
// self-clocked in abstract work units (interpreter steps, dependence-graph
// size, generated instructions, simulator cycles), so a span's width in
// the viewer is proportional to the work the phase represents and the
// whole file is byte-identical across runs and worker-pool sizes.
type Obs struct {
	// Trace receives phase spans (and, with Timeline, detailed simulator
	// and interpreter timelines).
	Trace *obs.Trace
	// Metrics receives per-phase timers/gauges under "exp.<workload>" and
	// per-run interpreter/simulator counters under
	// "exp.<workload>.<partitioner>.<naive|coco>.<interp|sim>".
	Metrics *obs.Registry
	// Timeline additionally records per-cycle simulator lanes (coalesced
	// issue-stall spans per core, queue-occupancy counters) and
	// interpreter queue-occupancy tracks. These reach hundreds of
	// thousands of events on the reference inputs — the trace's event
	// limit bounds them (drops are counted) — so the detailed lanes are
	// opt-in while phase spans stay small enough to golden-test.
	Timeline bool
}

const tidAnalysis = 0

// partTid maps a partitioner to its stable thread lane within a
// workload's trace process.
func partTid(part string) int {
	switch part {
	case "GREMIO":
		return 1
	case "DSWP":
		return 2
	}
	return 3
}

var (
	pidOnce sync.Once
	pids    map[string]int
)

// workloadPid returns the deterministic trace process ID for a workload:
// its 1-based position in workloads.Names(). Workloads outside the standard
// set (hand-built test kernels) share one parking pid.
func workloadPid(name string) int {
	pidOnce.Do(func() {
		pids = map[string]int{}
		for i, name := range workloads.Names() {
			pids[name] = i + 1
		}
	})
	if p, ok := pids[name]; ok {
		return p
	}
	return len(pids) + 1
}

// namedLane returns the (workload pid, tid) lane with its process and
// thread labels registered.
func (o *Obs) namedLane(w string, tid int, name string) *obs.Lane {
	if o == nil || o.Trace == nil {
		return nil
	}
	pid := workloadPid(w)
	o.Trace.ProcessName(pid, w)
	o.Trace.ThreadName(pid, tid, name)
	return o.Trace.Lane(pid, tid)
}

// analysisLane is the workload's partitioner-independent lane (profiling,
// PDG construction, the single-threaded simulation baseline).
func (o *Obs) analysisLane(w string) *obs.Lane {
	return o.namedLane(w, tidAnalysis, "analysis")
}

// partLane is the (workload, partitioner) pipeline lane.
func (o *Obs) partLane(w, part string) *obs.Lane {
	return o.namedLane(w, partTid(part), part)
}

// scope is the workload's metric scope, "exp.<w>".
func (o *Obs) scope(w string) *obs.Scope {
	if o == nil {
		return nil
	}
	return o.Metrics.Scope("exp").Child(w)
}

// partScope is the (workload, partitioner) metric scope, "exp.<w>.<part>".
func (o *Obs) partScope(w, part string) *obs.Scope {
	return o.scope(w).Child(part)
}

// Detailed timelines get their own trace processes so the per-cycle lanes
// don't drown the phase spans: one pid per (workload, partitioner,
// program) simulation and one per interpreter run, derived from the same
// deterministic workload index. partTid is 0 for the single-threaded
// baseline, progBit 0 for naive and 1 for COCO.
func timelinePid(base int, w string, partTid, progBit int) int {
	return base + (workloadPid(w)-1)*8 + partTid*2 + progBit
}

const (
	simPidBase    = 1000
	interpPidBase = 2000
)

// simObserver builds the simulator observer for one measured program, or
// nil when nothing would be recorded.
func (o *Obs) simObserver(w, part, label string, progBit int) *sim.Observer {
	if o == nil {
		return nil
	}
	ob := &sim.Observer{}
	if part == "" {
		ob.Metrics = o.scope(w).Child(label + ".sim")
	} else {
		ob.Metrics = o.partScope(w, part).Child(label + ".sim")
	}
	if o.Trace != nil && o.Timeline {
		tid := 0
		if part != "" {
			tid = partTid(part)
		}
		ob.Trace = o.Trace
		ob.Pid = timelinePid(simPidBase, w, tid, progBit)
		name := w + "/" + label + " sim"
		if part != "" {
			name = w + "/" + part + "/" + label + " sim"
		}
		o.Trace.ProcessName(ob.Pid, name)
	}
	if ob.Metrics == nil && ob.Trace == nil {
		return nil
	}
	return ob
}

// interpLane returns the queue-occupancy lane for one interpreter run
// (Timeline mode only).
func (o *Obs) interpLane(w, part, label string, progBit int) *obs.Lane {
	if o == nil || o.Trace == nil || !o.Timeline {
		return nil
	}
	pid := timelinePid(interpPidBase, w, partTid(part), progBit)
	o.Trace.ProcessName(pid, w+"/"+part+"/"+label+" interp")
	o.Trace.ThreadName(pid, 0, "queues")
	return o.Trace.Lane(pid, 0)
}
