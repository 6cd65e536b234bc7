package exp

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestWorkingImages: two runs held at once get distinct backing arrays; a
// buffer given back after its run wrote into it comes back equal to the
// next master; a larger buffer is resliced to a smaller image's length,
// and one too small is dropped for a new one. Without a list every take
// is a private copy.
func TestWorkingImages(t *testing.T) {
	big := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	small := []int64{9, 8, 7}
	var l images

	a, b := l.take(big), l.take(big)
	if &a[0] == &b[0] {
		t.Fatal("two held working images share a backing array")
	}
	if &a[0] == &big[0] || &b[0] == &big[0] {
		t.Fatal("a working image is the master itself")
	}
	for i := range a {
		a[i], b[i] = -1, -2
	}
	l.give(a)
	again := l.take(big)
	if &again[0] != &a[0] {
		t.Error("a given-back buffer was not reused")
	}
	if !slices.Equal(again, big) {
		t.Errorf("a reused buffer the last run wrote into reads %v, want the master %v", again, big)
	}

	l.give(again)
	l.give(b)
	s := l.take(small)
	if &s[0] != &b[0] || !slices.Equal(s, small) {
		t.Errorf("a 3-word image took %v (len %d), want the larger free buffer resliced to %v", s, len(s), small)
	}
	if len(l.free) != 1 {
		t.Fatalf("%d buffers free after taking one of two, want 1", len(l.free))
	}

	// A buffer of capacity 8 is free: a 16-word image drops it and
	// allocates, so the list keeps no more buffers than were ever held.
	h := l.take(make([]int64, 16))
	if cap(h) < 16 || len(l.free) != 0 {
		t.Errorf("taking a 16-word image: cap %d, %d free; want cap >= 16 and none free", cap(h), len(l.free))
	}

	var none *images
	p := none.take(big)
	none.give(p)
	if &p[0] == &big[0] || !slices.Equal(p, big) {
		t.Error("without a list, take is not a private copy of the master")
	}
}

// TestWorkingImagesConcurrent: goroutines sharing one list each find
// their working image equal to the master when they take it and write all
// of it while they hold it, so a buffer handed to two holders at once, or
// back before its copy, shows under -race or as a wrong word.
func TestWorkingImagesConcurrent(t *testing.T) {
	masters := [][]int64{{1, 2, 3}, {4, 5, 6, 7, 8, 9, 10}}
	var l images
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				master := masters[(g+i)%len(masters)]
				buf := l.take(master)
				if !slices.Equal(buf, master) {
					t.Errorf("goroutine %d took %v, want %v", g, buf, master)
				}
				for j := range buf {
					buf[j] = int64(-g)
				}
				l.give(buf)
			}
		}()
	}
	wg.Wait()
	if len(l.free) > 4 {
		t.Errorf("%d buffers free after four goroutines, want at most 4", len(l.free))
	}
}

// TestEngineHoldsOneImage: a serial engine that makes every kind of run
// it owns on one workload — the train profile, the single-threaded and
// both multi-threaded simulations, both programs on the counting
// interpreter (an observed engine runs them), a profiler run and the
// reference run — keeps one working image, and leaves the workload's
// shared inputs as a fresh construction builds them.
func TestEngineHoldsOneImage(t *testing.T) {
	w := subset(t, "ks")[0]
	e := NewEngine(EngineOptions{Jobs: 1, Obs: &Obs{}})
	ctx := context.Background()
	if _, err := e.SpeedupCell(ctx, sim.DefaultConfig(), w, partition.GREMIO{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CommCell(ctx, w, partition.DSWP{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Profile(ctx, sim.DefaultConfig(), w, partition.GREMIO{}, true, nil, 0); err != nil {
		t.Fatal(err)
	}
	ref, err := e.Reference(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Mem != nil {
		t.Error("the memoized reference run keeps the working image it ran on")
	}
	if n := len(e.imgs.free); n != 1 {
		t.Errorf("the engine keeps %d working images after its serial runs, want 1", n)
	}
	checkInputsPristine(t, []*workloads.Workload{w})
}

// checkInputsPristine fails t unless every workload's shared inputs
// still equal what its Train and Ref construct, word for word.
func checkInputsPristine(t *testing.T, ws []*workloads.Workload) {
	t.Helper()
	for _, w := range ws {
		train, ref := w.Inputs()
		if !reflect.DeepEqual(train, w.Train()) || !reflect.DeepEqual(ref, w.Ref()) {
			t.Errorf("%s: a run wrote into the workload's shared inputs", w.Name)
		}
	}
}
