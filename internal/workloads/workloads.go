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

	// Train and Ref build fresh input sets: memory images are mutated by
	// runs, so each call returns a new copy its caller may run on. An
	// engine's runs (internal/exp) call neither: they copy the images
	// Inputs built once into a working image the engine reuses.
	Train func() Input
	Ref   func() Input

	inOnce     sync.Once
	train, ref Input
	fpOnce     sync.Once
	fp         string
}

// Inputs returns the workload's train and reference input sets, built by
// Train and Ref on the first call and shared by every later one. They are
// read-only: a run mutates its memory image, so it runs on a copy of
// Mem, and a caller that wants an image of its own calls Train or Ref.
func (w *Workload) Inputs() (train, ref Input) {
	w.inOnce.Do(func() { w.train, w.ref = w.Train(), w.Ref() })
	return w.train, w.ref
}

// Fingerprint returns a content hash over everything that determines the
// workload's analysis artifacts and measurements: the IR (canonical
// text), the memory objects, and both input sets. Two workloads that
// merely share a Name have different fingerprints when any of those
// differ — which is what lets caches key on content instead of on names.
//
// The hash is computed on the first call and every later call is a load,
// so the value is treated as immutable from then on, like the rest of the
// framework does. A value handed out by ByName or All is the process's one
// value of its kernel, hashed once per process. A value you construct
// yourself (KS() and the other constructors, an inline-IR workload)
// hashes its own content on its first call, so changing its IR, or its
// inputs before Inputs first builds them, changes the fingerprint.
func (w *Workload) Fingerprint() string {
	w.fpOnce.Do(func() { w.fp = w.contentHash() })
	return w.fp
}

// contentHash builds the IR text and hashes it with both input sets:
// milliseconds for the larger kernels, which is why Fingerprint memoizes
// it. The inputs it hashes are Inputs', so their build here is the
// workload's only one.
func (w *Workload) contentHash() string {
	h := cache.NewHasher(1)
	h.Field("name", w.Name)
	h.Field("ir", w.F.String())
	for _, o := range w.Objects {
		h.Field("object", o.Name)
		h.Int("base", o.Base)
		h.Int("size", o.Size)
	}
	train, ref := w.Inputs()
	h.Int64s("train.args", train.Args)
	h.Int64s("train.mem", train.Mem)
	h.Int64s("ref.args", ref.Args)
	h.Int64s("ref.mem", ref.Mem)
	return h.Sum()
}

// kernel is one row of the kernels table: the constructor, the name it
// returns (so a lookup or a listing constructs no kernel it does not hand
// out), and the one value of the kernel the process hands out.
type kernel struct {
	name  string
	build func() *Workload
	once  sync.Once
	w     *Workload
}

// get returns the row's value, built on the first call in the process.
// The kernel is a constant of the binary, so every caller — every request
// of a server, every cell of an experiment — shares that one value.
func (k *kernel) get() *Workload {
	k.once.Do(func() { k.w = k.build() })
	return k.w
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

// All returns every workload, in the order of Figure 6(b): the same
// shared values ByName hands out.
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

// ByName returns the workload with the given name. The value is built once
// per process and shared by every caller, so it is immutable: run analyses
// over it freely, but a caller that wants to change a kernel changes a
// copy (ir.Parse(w.F.String()), or the kernel's constructor).
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
