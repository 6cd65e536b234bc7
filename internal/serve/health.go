package serve

import (
	"sync"

	"repro/internal/obs"
)

// State is the server's availability state, a three-state machine:
//
//	healthy  — full service, disk-backed cache online
//	degraded — the cache circuit breaker tripped the disk layer to
//	           memory-only mode; requests are still served (fail-open),
//	           warmth across restarts is what's lost
//	draining — shutdown has begun; in-flight and already-routed requests
//	           complete, readiness turns false so balancers stop routing
//
// healthy and degraded flip with the breaker; draining is terminal.
type State int32

const (
	Healthy State = iota
	Degraded
	Draining
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	}
	return "unknown"
}

// health drives the state machine from its two inputs — breaker state
// and drain — and publishes every transition to the metrics registry
// (serve.health.state gauge, serve.health.transitions counter).
type health struct {
	scope *obs.Scope

	mu          sync.Mutex
	breakerOpen bool
	draining    bool
	state       State
}

func newHealth(scope *obs.Scope) *health {
	h := &health{scope: scope}
	scope.Gauge("health.state").Set(int64(Healthy))
	return h
}

// setBreaker records a cache breaker transition (open=true means the
// disk layer went offline).
func (h *health) setBreaker(open bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.breakerOpen = open
	h.recompute()
}

// setDraining moves the machine to its terminal state.
func (h *health) setDraining() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.draining = true
	h.recompute()
}

// recompute folds the inputs into the state; callers hold h.mu.
func (h *health) recompute() {
	next := Healthy
	if h.breakerOpen {
		next = Degraded
	}
	if h.draining {
		next = Draining
	}
	if next == h.state {
		return
	}
	h.state = next
	h.scope.Counter("health.transitions").Inc()
	h.scope.Gauge("health.state").Set(int64(next))
}

// State returns the current availability state.
func (h *health) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}
