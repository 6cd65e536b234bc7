package mtcg

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// Counts returns the dynamic instruction statistics the program has on the
// input whose single-threaded run of Orig recorded the edge profile prof,
// without running it. Each thread keeps the relevant blocks of Orig and
// replicates the branches that decide them, so on the same input each of
// its blocks executes exactly as often as the original block it copies: a
// count is static instructions times that block's frequency (Frequencies).
// A branch whose original another thread owns counts as DupBranch; every
// other instruction that is not communication, inserted jumps included,
// counts as Compute — the classification interp.RunMT makes as it runs.
// The program must record its Origins (see Program).
func (p *Program) Counts(prof *ir.Profile) interp.CommStats {
	freq := prof.Frequencies(p.Orig)
	var st interp.CommStats
	for t, ft := range p.Threads {
		for i, b := range ft.Blocks {
			n := freq[p.Origins[t][i].ID]
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.Produce:
					st.Produce += n
				case in.Op == ir.Consume:
					st.Consume += n
				case in.Op == ir.ProduceSync:
					st.ProduceSync += n
				case in.Op == ir.ConsumeSync:
					st.ConsumeSync += n
				case in.Op == ir.Br && in.Orig != nil && p.Assign[in.Orig] != t:
					st.DupBranch += n
				default:
					st.Compute += n
				}
			}
		}
	}
	return st
}
