// Package workloads provides the eleven benchmark kernels of Figure 6(b)
// hand-written in the framework's IR. Each kernel mirrors the loop
// structure, control flow, and dependence shape of the original function
// (adpcm_decoder, FindMaxGpAndSwap, dist1, refresh_potential, smvp, ...);
// the data is synthetic, generated deterministically, because the figures
// are driven by dependence structure rather than by particular values.
//
// Every workload carries a "train" input (used for profiling, as in the
// paper's methodology) and a larger "reference" input (used for
// measurement).
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/ir"
)

// Input is one input set: parameter values and an initial memory image.
type Input struct {
	Args []int64
	Mem  []int64
}

// Workload is one benchmark kernel.
type Workload struct {
	// Name is the short benchmark name used throughout the paper's
	// figures (e.g. "ks", "mpeg2enc").
	Name string
	// Function is the parallelized function's name in the original
	// benchmark (Figure 6(b)).
	Function string
	// Suite is the benchmark suite of origin.
	Suite string
	// ExecPct is the fraction of benchmark execution time the function
	// accounts for (Figure 6(b)).
	ExecPct int

	F       *ir.Function
	Objects []ir.MemObject

	// Train and Ref build fresh input sets (memory images are mutated by
	// runs, so each call returns a new copy).
	Train func() Input
	Ref   func() Input

	fpOnce sync.Once
	fp     string
}

// Fingerprint returns a content hash over everything that determines the
// workload's analysis artifacts and measurements: the IR (canonical
// text), the memory objects, and both input sets. Two workloads that
// merely share a Name have different fingerprints when any of those
// differ — which is what lets caches key on content instead of on names.
// The fingerprint is computed once per Workload value; the IR and inputs
// are treated as immutable after first use, like the rest of the
// framework does.
func (w *Workload) Fingerprint() string {
	w.fpOnce.Do(func() {
		h := cache.NewHasher(1)
		h.Field("name", w.Name)
		h.Field("ir", w.F.String())
		for _, o := range w.Objects {
			h.Field("object", o.Name)
			h.Int("base", o.Base)
			h.Int("size", o.Size)
		}
		train, ref := w.Train(), w.Ref()
		h.Int64s("train.args", train.Args)
		h.Int64s("train.mem", train.Mem)
		h.Int64s("ref.args", ref.Args)
		h.Int64s("ref.mem", ref.Mem)
		w.fp = h.Sum()
	})
	return w.fp
}

// kernels lists every workload in the order of Figure 6(b) — the order
// every figure and golden is rendered in. name repeats what build().Name
// returns so a lookup or a listing constructs no kernel it does not hand
// out.
var kernels = []struct {
	name  string
	build func() *Workload
}{
	{"adpcmdec", ADPCMDec},
	{"adpcmenc", ADPCMEnc},
	{"ks", KS},
	{"mpeg2enc", MPEG2Enc},
	{"177.mesa", Mesa},
	{"181.mcf", MCF},
	{"183.equake", Equake},
	{"188.ammp", AMMP},
	{"300.twolf", Twolf},
	{"435.gromacs", Gromacs},
	{"458.sjeng", Sjeng},
}

// All returns every workload, in the order of Figure 6(b).
func All() []*Workload {
	ws := make([]*Workload, len(kernels))
	for i, k := range kernels {
		ws[i] = k.build()
	}
	return ws
}

// Names returns every workload name, in the order of Figure 6(b).
func Names() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}

// ByName returns the workload with the given name.
func ByName(name string) (*Workload, error) {
	for _, k := range kernels {
		if k.name == name {
			return k.build(), nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// lcg is a small deterministic generator for synthetic inputs.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed*6364136223846793005 + 1442695040888963407} }

func (g *lcg) next() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state >> 17
}

// intn returns a value in [0, n).
func (g *lcg) intn(n int64) int64 { return int64(g.next() % uint64(n)) }

// f64 returns a value in [0, 1).
func (g *lcg) f64() float64 { return float64(g.next()%(1<<30)) / float64(1<<30) }

// fbits returns the register encoding of a float64.
func fbits(v float64) int64 { return int64(ir.Float64Bits(v)) }
