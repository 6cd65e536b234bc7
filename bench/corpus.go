package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/randprog"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// DefaultSeed is the -seed default; testdata/randprog_manifest.json is the
// inline corpus it generates.
const DefaultSeed = 20070912

// partitioners are the wire spellings, in the order every pass uses them.
var partitioners = []string{"gremio", "dswp"}

// inlineSize is the randprog size axis of every inline program. coco.Plan
// is superlinear in program size (~1 ms at 40 instructions, ~100 ms at
// 640), so a corpus that mixed sizes would owe most of its run time, and
// of its seed-to-seed spread, to its few largest programs. The other axes
// (CFG shape, alias density, live-outs, queue pressure) follow the seed.
const inlineSize = 160

// request is one generated request: the only thing the program under test
// ever sees of a workload.
type request struct {
	Label string
	Req   serve.Request
	Body  []byte // Req as the JSON an HTTP client posts
}

func newRequest(label string, r serve.Request) request {
	body, err := json.Marshal(&r)
	if err != nil {
		panic(err) // a Request of strings and int64s always marshals
	}
	return request{Label: label, Req: r, Body: body}
}

// subSeed derives an independent stream seed from the one -seed argument
// (SplitMix64 over seed and a stream label), so the corpus, the
// partitioner alternation and the Zipf draws never share a generator.
func subSeed(seed int64, stream string) int64 {
	x := uint64(seed)
	for _, c := range []byte(stream) {
		x = (x ^ uint64(c)) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// kernelRequests returns the 11 paper kernels under one partitioner, in
// figure order. They do not depend on the seed.
func kernelRequests(partitioner string, sim bool) []request {
	var out []request
	for _, w := range workloads.All() {
		label := w.Name + "/" + partitioner
		if sim {
			label += "/sim"
		}
		out = append(out, newRequest(label, serve.Request{Workload: w.Name, Partitioner: partitioner, Sim: sim}))
	}
	return out
}

// inlineEntry draws corpus program i of a seed: every randprog axis but
// the size from the program's own seed.
func inlineEntry(seed int64, i int) (randprog.Entry, *randprog.Program) {
	pseed := subSeed(seed, "inline") + int64(i)
	axes := randprog.AxesForSeed(pseed, 0)
	axes.Size = inlineSize
	p := randprog.Generate(rand.New(rand.NewSource(pseed)), axes.Options())
	return randprog.Entry{
		Seed:        pseed,
		Axes:        axes,
		Fingerprint: p.Fingerprint(),
		Instrs:      p.F.NumInstrs(),
		Blocks:      len(p.F.Blocks),
	}, p
}

// inlineCorpus generates n distinct inline-IR requests. Straight-line
// programs go to GREMIO and everything with control flow to DSWP: GREMIO's
// partitions may communicate both ways, and with its single-entry queues
// the multi-threaded interpreter deadlocks at a join block on about 1 in
// 1000 branchy randprog programs (README, "Findings"); a benchmark workload
// must not contain requests that fail. The CFG shape is drawn from the
// program's seed, so about a quarter of every corpus is GREMIO's.
func inlineCorpus(seed int64, n int) []request {
	out := make([]request, n)
	for i := range out {
		e, p := inlineEntry(seed, i)
		r := serve.Request{
			IR:          p.F.String(),
			Name:        fmt.Sprintf("rp%d", e.Seed),
			Args:        p.Args,
			Mem:         p.Mem,
			Partitioner: "dswp",
		}
		if e.Axes.Shape == randprog.ShapeStraight {
			r.Partitioner = "gremio"
		}
		for _, o := range p.Objects {
			r.Objects = append(r.Objects, serve.MemObject{Name: o.Name, Base: o.Base, Size: o.Size})
		}
		out[i] = newRequest(r.Name, r)
	}
	return out
}

// corpusManifest describes the first n inline programs of a seed in the
// randprog manifest format, so Manifest.Regenerate can prove the generator
// still produces them.
func corpusManifest(seed int64, n int) *randprog.Manifest {
	m := &randprog.Manifest{Version: randprog.ManifestVersion, Seed: seed}
	for i := 0; i < n; i++ {
		e, _ := inlineEntry(seed, i)
		m.Programs = append(m.Programs, e)
	}
	return m
}

// zipfKeys lays out the warm key space by popularity rank: the kernel keys
// (11 kernels × sim on/off × 2 partitioners, variant-major, so the 11
// hottest keys are the 11 distinct kernels) and then two inline programs
// per kernel key. Only the inline tail follows the seed. A warm kernel
// request costs 0.6–24 ms depending on the kernel and a warm inline one
// 0.4 ms, so a seed that chose which key is hottest would move every
// latency metric by multiples; with this layout the median falls inside
// adpcmdec's band and the 95th percentile inside mpeg2enc's, each several
// percent of traffic away from the next band.
func zipfKeys(seed int64, kernels int) []request {
	var keys []request
	for _, sim := range []bool{true, false} {
		for _, p := range partitioners {
			keys = append(keys, kernelRequests(p, sim)...)
		}
	}
	if kernels < len(keys) {
		keys = keys[:kernels]
	}
	return append(keys, inlineCorpus(seed, 2*len(keys))...)
}

// zipfQuota splits n requests over keys ranks in Zipf(s=1.1) proportion,
// P(k) ∝ (1+k)^-1.1, handing the rounding remainder to the largest
// fractions. Every pass sends exactly this mix: with independent draws the
// number of 24 ms requests in a pass would vary by ±8 % and the pass
// throughput by ±3 % with it, which is sampling noise, not the program.
func zipfQuota(n, keys int) []int {
	weights := make([]float64, keys)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -1.1)
		total += weights[k]
	}
	quota := make([]int, keys)
	frac := make([]float64, keys)
	order := make([]int, keys)
	left := n
	for k, w := range weights {
		exact := float64(n) * w / total
		quota[k] = int(exact)
		frac[k] = exact - float64(quota[k])
		order[k] = k
		left -= quota[k]
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for _, k := range order[:left] {
		quota[k]++
	}
	return quota
}

// zipfPass returns one pass's request order: the quota of every key,
// shuffled by the seed's stream.
func zipfPass(rng *rand.Rand, quota []int) []int {
	var out []int
	for k, q := range quota {
		for ; q > 0; q-- {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfRand is the seed's request-order stream.
func zipfRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(subSeed(seed, "zipf"))) }
