package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestSharedKernelStaysPristine: every request for a named kernel is
// handed the kernels table's one value. Two servers in one process answer
// concurrent cold requests for it under both partitioners, with and
// without the simulator, while other goroutines read the same keys back
// warm or merge into the flights. No request may write to the shared
// value: the race detector watches the run (CI runs this package under
// -race), and afterwards every table value's IR text, fingerprint and
// shared input images (Inputs, which every run copies into its engine's
// working image) must still equal those of a freshly constructed kernel —
// also after the package's other tests, when tests run shuffled, and
// after a four-worker engine has rendered the figures over the table
// values: every kernel with Figure 8's profiler notes, or under -short ks
// alone without them.
//
// It runs twice. Unseeded, the servers share nothing, so each runs the
// kernel's reference interpretation and single-threaded simulation over
// the table value. Seeded, both open one directory that already holds the
// kernel's baseline record, so every computation on either seeds its
// engine from that one record at once.
func TestSharedKernelStaysPristine(t *testing.T) {
	for _, seeded := range []bool{false, true} {
		t.Run(fmt.Sprintf("seeded=%v", seeded), func(t *testing.T) {
			sharedKernelPass(t, seeded)
		})
	}
	ws, explain := workloads.All(), true
	if testing.Short() {
		ks, err := workloads.ByName("ks")
		if err != nil {
			t.Fatal(err)
		}
		ws, explain = []*workloads.Workload{ks}, false
	}
	e := exp.NewEngine(exp.EngineOptions{Jobs: 4})
	if err := e.RenderFigures(context.Background(), io.Discard, sim.DefaultConfig(), ws, "all", explain, nil); err != nil {
		t.Fatal(err)
	}
	for name, build := range constructors {
		if err := sameAsConstructed(name, build()); err != nil {
			t.Error(err)
		}
	}
}

// sharedKernelPass is one pass of TestSharedKernelStaysPristine.
func sharedKernelPass(t *testing.T, seeded bool) {
	const kernel = "ks"
	var reqs []*Request
	for _, part := range []string{"gremio", "dswp"} {
		for _, simOn := range []bool{false, true} {
			reqs = append(reqs, &Request{Workload: kernel, Partitioner: part, Sim: simOn})
		}
	}
	var opts Options
	if seeded {
		// The seeding server degrades, the others do not: its response
		// is under a key of its own, its baseline under theirs.
		opts.CacheDir = t.TempDir()
		seeder := newServer(t, Options{CacheDir: opts.CacheDir, Degrade: true})
		mustOK(t, seeder.Do(context.Background(), &Request{Workload: kernel, Sim: true}))
	}
	servers := []*Server{newServer(t, opts), newServer(t, opts)}
	const readers, calls = 3, 3 // per server and request
	bodies := make([][][]byte, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range servers {
		for ri, req := range reqs {
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c := 0; c < calls; c++ {
						res := s.Do(context.Background(), req)
						if res.Status != http.StatusOK {
							t.Errorf("%s/%s sim=%v: status %d: %s", kernel, req.Partitioner, req.Sim, res.Status, res.Body)
							return
						}
						mu.Lock()
						bodies[ri] = append(bodies[ri], res.Body)
						mu.Unlock()
					}
				}()
			}
		}
	}
	wg.Wait()
	for ri, bs := range bodies {
		for _, b := range bs {
			if !bytes.Equal(b, bs[0]) {
				t.Fatalf("request %d (%s sim=%v): answers differ across servers and paths", ri, reqs[ri].Partitioner, reqs[ri].Sim)
			}
		}
	}
	for si, s := range servers {
		if st := s.StatsSnapshot(); st.Compute != int64(len(reqs)) {
			t.Errorf("server %d computed %d times, want %d (one per request key)", si, st.Compute, len(reqs))
		}
		hits, runs := counter(s, "serve.baseline.hit"), counter(s, "serve.baseline.st_runs")
		switch {
		case seeded && (hits != int64(len(reqs)) || runs != 0):
			t.Errorf("server %d: %d computations seeded from the record, %d single-threaded simulations; want %d and 0", si, hits, runs, len(reqs))
		case !seeded && runs == 0:
			t.Errorf("server %d: no single-threaded simulation of the table kernel ran unseeded", si)
		}
	}
}

// constructors maps each kernel's name to its constructor, whose values
// never come from the kernels table.
var constructors = map[string]func() *workloads.Workload{
	"adpcmdec": workloads.ADPCMDec, "adpcmenc": workloads.ADPCMEnc, "ks": workloads.KS,
	"mpeg2enc": workloads.MPEG2Enc, "177.mesa": workloads.Mesa, "181.mcf": workloads.MCF,
	"183.equake": workloads.Equake, "188.ammp": workloads.AMMP, "300.twolf": workloads.Twolf,
	"435.gromacs": workloads.Gromacs, "458.sjeng": workloads.Sjeng,
}

// sameAsConstructed reports how the kernels table's value of name differs
// from fresh, a value built by the kernel's constructor.
func sameAsConstructed(name string, fresh *workloads.Workload) error {
	w, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	if got, want := w.F.String(), fresh.F.String(); got != want {
		return fmt.Errorf("%s: the table value's IR changed:\n%s\nwant\n%s", name, got, want)
	}
	if got, want := w.Fingerprint(), fresh.Fingerprint(); got != want {
		return fmt.Errorf("%s: the table value's fingerprint is %s, a fresh value's %s", name, got, want)
	}
	train, ref := w.Inputs()
	for _, in := range []struct {
		set       string
		got, want workloads.Input
	}{{"train", train, fresh.Train()}, {"ref", ref, fresh.Ref()}} {
		if !reflect.DeepEqual(in.got, in.want) {
			return fmt.Errorf("%s: the table value's shared %s input differs from a fresh value's", name, in.set)
		}
	}
	return nil
}
