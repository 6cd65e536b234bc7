package oracle

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestSimAttrConservesOnCorpus: cycle attribution must conserve exactly —
// per-core bucket sums equal the run's cycle count, and instruction blame
// accounts for every non-idle cycle — on every corpus program, both clean
// and under benign fault injection (where the Fault bucket must absorb the
// injected stalls).
func TestSimAttrConservesOnCorpus(t *testing.T) {
	var faultCycles int64
	for _, pc := range obsPrograms(t) {
		cfg := sim.DefaultConfig()
		if len(pc.prog.Threads) > cfg.Cores {
			cfg.Cores = len(pc.prog.Threads)
		}
		if pc.prog.NumQueues > cfg.NumQueues {
			cfg.NumQueues = pc.prog.NumQueues
		}
		for _, spec := range []*fault.Spec{nil, {Class: fault.StallThread, Seed: 11}} {
			config := pc.config + "/clean"
			var inj *fault.Injector
			if spec != nil {
				config = pc.config + "/" + string(spec.Class)
				inj = spec.New()
			}
			res, err := sim.RunInjected(cfg, pc.prog.Threads, pc.c.Args,
				append([]int64(nil), pc.c.Mem...), 50_000_000,
				&sim.Observer{Attr: true}, inj)
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
			tot := res.Attr.TotalBuckets()
			if spec == nil && tot[attr.Fault] != 0 {
				t.Errorf("%s: clean run attributed %d cycles to fault", config, tot[attr.Fault])
			}
			if spec != nil {
				faultCycles += tot[attr.Fault]
			}
			if tot[attr.Issue] == 0 && res.Cycles > 0 {
				t.Errorf("%s: no issue cycles in %d-cycle run", config, res.Cycles)
			}
		}
	}
	if faultCycles == 0 {
		t.Error("stall injection left the fault bucket empty across the whole corpus")
	}
}
