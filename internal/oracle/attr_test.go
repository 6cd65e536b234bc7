package oracle

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestSimAttrConservesOnCorpus: cycle attribution must conserve exactly —
// per-core bucket sums equal the run's cycle count, and instruction blame
// accounts for every non-idle cycle — on every corpus program, both at the
// default queue depth and under the benign shrink-queue fault (the halved
// depth shifts cycles into the queue buckets).
func TestSimAttrConservesOnCorpus(t *testing.T) {
	for _, pc := range obsPrograms(t) {
		cfg := sim.DefaultConfig()
		if len(pc.prog.Threads) > cfg.Cores {
			cfg.Cores = len(pc.prog.Threads)
		}
		if pc.prog.NumQueues > cfg.NumQueues {
			cfg.NumQueues = pc.prog.NumQueues
		}
		for _, spec := range []fault.Spec{{}, {Class: fault.ShrinkQueue, Seed: 11}} {
			config := pc.config + "/clean"
			if spec.Class != "" {
				config = pc.config + "/" + string(spec.Class)
			}
			run := cfg
			run.QueueCap = spec.QueueCap(cfg.QueueCap)
			res, err := sim.RunObserved(run, pc.prog.Threads, pc.c.Args,
				append([]int64(nil), pc.c.Mem...), 50_000_000, &sim.Observer{Attr: true})
			if err != nil {
				t.Errorf("%s: %v", config, err)
				continue
			}
			totals := make([]int64, len(res.PerCore))
			for i := range totals {
				totals[i] = res.Cycles
			}
			if err := res.Attr.CheckConservation(totals); err != nil {
				t.Errorf("%s: %v", config, err)
				continue
			}
			if tot := res.Attr.TotalBuckets(); tot[attr.Issue] == 0 && res.Cycles > 0 {
				t.Errorf("%s: no issue cycles in %d-cycle run", config, res.Cycles)
			}
		}
	}
}
