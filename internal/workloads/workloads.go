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

	// fp memoizes Fingerprint; shared, when set, is the kernels table
	// entry's memo and takes its place.
	fp     fpMemo
	shared *fpMemo
}

// fpMemo is a content fingerprint computed at most once.
type fpMemo struct {
	once sync.Once
	sum  string
}

// Fingerprint returns a content hash over everything that determines the
// workload's analysis artifacts and measurements: the IR (canonical
// text), the memory objects, and both input sets. Two workloads that
// merely share a Name have different fingerprints when any of those
// differ — which is what lets caches key on content instead of on names.
//
// The contract has two halves. A value handed out by ByName or All is
// immutable and carries its kernel's fingerprint: the kernel is a
// constant of the binary, so its content is hashed on the first call in
// the process and every later call, on any value of that kernel, is a
// load. A value you construct yourself (KS() and the other constructors,
// an inline-IR workload) hashes its own content on its first call, so
// changing its IR or inputs before that call changes the fingerprint;
// after it the value is treated as immutable, like the rest of the
// framework does.
func (w *Workload) Fingerprint() string {
	m := w.shared
	if m == nil {
		m = &w.fp
	}
	m.once.Do(func() { m.sum = w.contentHash() })
	return m.sum
}

// contentHash builds the IR text and both input images and hashes them:
// milliseconds for the larger kernels, which is why Fingerprint memoizes
// it.
func (w *Workload) contentHash() string {
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
	return h.Sum()
}

// kernel is one row of the kernels table: the constructor, the name it
// returns (so a lookup or a listing constructs no kernel it does not hand
// out), and the fingerprint every value built from the row shares.
type kernel struct {
	name  string
	build func() *Workload
	fp    fpMemo
}

// get builds a fresh value of the kernel — new IR, new instruction
// pointers — that shares only the row's fingerprint memo.
func (k *kernel) get() *Workload {
	w := k.build()
	w.shared = &k.fp
	return w
}

// kernels lists every workload in the order of Figure 6(b) — the order
// every figure and golden is rendered in.
var kernels = []*kernel{
	{name: "adpcmdec", build: ADPCMDec},
	{name: "adpcmenc", build: ADPCMEnc},
	{name: "ks", build: KS},
	{name: "mpeg2enc", build: MPEG2Enc},
	{name: "177.mesa", build: Mesa},
	{name: "181.mcf", build: MCF},
	{name: "183.equake", build: Equake},
	{name: "188.ammp", build: AMMP},
	{name: "300.twolf", build: Twolf},
	{name: "435.gromacs", build: Gromacs},
	{name: "458.sjeng", build: Sjeng},
}

// All returns a fresh value of every workload, in the order of Figure
// 6(b). The values are immutable and carry their kernels' fingerprints
// (see Fingerprint).
func All() []*Workload {
	ws := make([]*Workload, len(kernels))
	for i, k := range kernels {
		ws[i] = k.get()
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

// ByName returns a fresh value of the workload with the given name: its
// IR is its own, so callers may run analyses that annotate it, but its
// content is the kernel's and immutable, and it carries the kernel's
// fingerprint (see Fingerprint).
func ByName(name string) (*Workload, error) {
	for _, k := range kernels {
		if k.name == name {
			return k.get(), nil
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
