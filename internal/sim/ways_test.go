package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// hierarchies builds cores private L1/L2 pairs over one shared L3, every
// level with keep(sets, configured ways, line) ways, and for each core the
// other cores' hierarchies its stores invalidate (RunObserved's set-up).
func hierarchies(cfg *Config, cores int, keep func(sets, ways, line int) int) ([]*hierarchy, [][]*hierarchy) {
	l3 := newCache(cfg.L3Sets, keep(cfg.L3Sets, cfg.L3Ways, cfg.L3Line), cfg.L3Line)
	hs := make([]*hierarchy, cores)
	for i := range hs {
		hs[i] = &hierarchy{
			l1:  newCache(cfg.L1Sets, keep(cfg.L1Sets, cfg.L1Ways, cfg.L1Line), cfg.L1Line),
			l2:  newCache(cfg.L2Sets, keep(cfg.L2Sets, cfg.L2Ways, cfg.L2Line), cfg.L2Line),
			l3:  l3,
			cfg: cfg,
		}
	}
	others := make([][]*hierarchy, cores)
	for i := range hs {
		for j, o := range hs {
			if j != i {
				others[i] = append(others[i], o)
			}
		}
	}
	return hs, others
}

// TestImageWaysBoundaries pins the ways a level keeps at the image sizes
// where ⌈lines ÷ sets⌉ crosses one and the configured ways.
func TestImageWaysBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	sets, ways, line := cfg.L3Sets, cfg.L3Ways, cfg.L3Line
	for _, tc := range []struct {
		words, want int
	}{
		{0, 1},
		{1, 1},
		{sets * line, 1},           // one line per set
		{sets*line + 1, 2},         // one word into a second line
		{sets * ways * line, ways}, // exactly sets × ways lines
		{(sets*ways + 1) * line, ways},
		{4 * sets * ways * line, ways},
	} {
		if got := imageWays(sets, ways, line, tc.words); got != tc.want {
			t.Errorf("imageWays(%d, %d, %d, %d) = %d, want %d", sets, ways, line, tc.words, got, tc.want)
		}
	}
}

// TestImageWaysEquivalent drives two cache systems over one image with the
// same seeded stream of loads and stores on one to three cores: one built
// with the ways imageWays keeps, one with the configured ways. Every access
// must cost the same latency and both must end with equal MemStats. Image
// sizes run from one word to four times the L3's capacity, plus the three
// boundaries around a full L3 set; a small machine makes eviction common,
// the Figure 6(a) machine checks the sizes the kernels use.
func TestImageWaysEquivalent(t *testing.T) {
	small := DefaultConfig()
	small.L1Sets, small.L1Ways, small.L1Line = 4, 2, 2
	small.L2Sets, small.L2Ways, small.L2Line = 8, 4, 4
	small.L3Sets, small.L3Ways, small.L3Line = 16, 6, 4
	accesses := 20_000
	if testing.Short() {
		accesses = 4_000
	}
	for _, m := range []struct {
		name string
		cfg  Config
	}{{"small", small}, {"fig6a", DefaultConfig()}} {
		cfg := m.cfg
		capWords := cfg.L3Sets * cfg.L3Ways * cfg.L3Line
		rng := rand.New(rand.NewSource(43))
		sizes := []int{
			cfg.L3Sets * cfg.L3Line,                  // one line per L3 set
			cfg.L3Sets * cfg.L3Ways * cfg.L3Line,     // exactly sets × ways lines
			(cfg.L3Sets*cfg.L3Ways + 1) * cfg.L3Line, // one line more
		}
		for range 9 {
			sizes = append(sizes, 1+rng.Intn(4*capWords))
		}
		for i, words := range sizes {
			cores := 1 + i%3
			t.Run(fmt.Sprintf("%s/words=%d/cores=%d", m.name, words, cores), func(t *testing.T) {
				sized, sizedOthers := hierarchies(&cfg, cores, func(sets, ways, line int) int {
					return imageWays(sets, ways, line, words)
				})
				full, fullOthers := hierarchies(&cfg, cores, func(_, ways, _ int) int { return ways })
				sizedStats := make([]MemStats, cores)
				fullStats := make([]MemStats, cores)
				last := make([]int64, cores)
				for n := range accesses {
					c := rng.Intn(cores)
					// Half the accesses stay near the core's last address,
					// so sets refill and evict; half land anywhere.
					addr := rng.Int63n(int64(words))
					if rng.Intn(2) == 0 {
						addr = min(max(last[c]+rng.Int63n(129)-64, 0), int64(words)-1)
					}
					last[c] = addr
					var a, b int
					if rng.Intn(3) == 0 {
						a = sized[c].store(addr, sizedOthers[c], &sizedStats[c])
						b = full[c].store(addr, fullOthers[c], &fullStats[c])
					} else {
						a = sized[c].load(addr, &sizedStats[c])
						b = full[c].load(addr, &fullStats[c])
					}
					if a != b {
						t.Fatalf("access %d: core %d addr %d: latency %d with image ways, %d with configured ways", n, c, addr, a, b)
					}
				}
				for c := range sizedStats {
					if sizedStats[c] != fullStats[c] {
						t.Errorf("core %d: MemStats %+v with image ways, %+v with configured ways", c, sizedStats[c], fullStats[c])
					}
				}
			})
		}
	}
}

// TestRunSingleAllocationBound holds a single-threaded simulation of ks to
// under 64 KiB of allocation besides its image: the caches keep only the
// ways ks's image can fill. A cache system of the configured ways
// allocates about 200 KiB on its own.
func TestRunSingleAllocationBound(t *testing.T) {
	w, err := workloads.ByName("ks")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Ref()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunSingle(DefaultConfig(), w.F, in.Args, in.Mem, 1<<40); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := after.TotalAlloc - before.TotalAlloc
	if raceEnabled {
		t.Skipf("race detector on: ran ks (%d B allocated), bound not checked", n)
	}
	if n >= 64<<10 {
		t.Errorf("RunSingle(ks) allocated %d B, want under %d", n, 64<<10)
	}
}
