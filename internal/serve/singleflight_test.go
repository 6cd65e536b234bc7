package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/cli"
)

// TestMergedFlightCancellationNotCounted pins the serving layer's
// singleflight accounting under cancellation: a request that joins
// another flight and receives an error from it (here: the leader was
// cancelled) must get the 503 degradation path and must NOT increment the
// serve.singleflight.merged counter — that counter means "a caller was
// served identical bytes from another's flight", and no bytes were
// served. The group-level join count still records the join, which is
// what keeps the queue-pressure picture honest.
func TestMergedFlightCancellationNotCounted(t *testing.T) {
	s := newServer(t, Options{Degrade: true})

	// Derive the exact cache/flight key the request below will use, and
	// plant a leader flight on it that ends in cancellation.
	req := &Request{Workload: "ks", Partitioner: "gremio"}
	w, err := req.workload()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.ResolvePartitioner("gremio")
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(w, p.Name(), req.Sim, req.Budget.toBudget(s.maxBudget), s.defDegrade)

	started := make(chan struct{})
	release := make(chan struct{})
	go s.sf.Do(key, func() ([]byte, error) {
		close(started)
		<-release
		return nil, context.Canceled
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan Result, 1)
	go func() { done <- s.Do(ctx, req) }()

	// Wait for the request to join the planted flight, then cancel it.
	for s.sf.Merged() != 1 {
		runtime.Gosched()
	}
	close(release)
	res := <-done

	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", res.Status, res.Body)
	}
	if res.Source != "error" {
		t.Fatalf("source = %q, want error", res.Source)
	}
	st := s.StatsSnapshot()
	if st.SingleflightMerged != 0 {
		t.Fatalf("singleflight.merged = %d, want 0: a cancelled merge served no bytes", st.SingleflightMerged)
	}
	if s.sf.Merged() != 1 {
		t.Fatalf("group joins = %d, want 1: the join itself must still be counted", s.sf.Merged())
	}

	// The failed flight must not poison the key: the same request now
	// computes cleanly.
	ok := s.Do(context.Background(), req)
	if ok.Status != http.StatusOK || ok.Source != "cold" {
		t.Fatalf("post-cancellation request: status=%d source=%q, want 200/cold", ok.Status, ok.Source)
	}
	if got := s.StatsSnapshot().SingleflightMerged; got != 0 {
		t.Fatalf("singleflight.merged after clean compute = %d, want 0", got)
	}
}
