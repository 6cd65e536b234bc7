package interp

import (
	"fmt"
	"math/rand"
	"strings"
)

// Scheduler is a pluggable thread-scheduling policy for RunMT. The
// multi-threaded interpreter is a cooperative machine: at every step it asks
// the policy which runnable thread to attempt next. A correct MTCG program
// must produce identical live-outs and final memory under *every* policy —
// the differential oracle (internal/oracle) exercises several policies
// precisely because queue-placement and synchronization bugs can hide behind
// any single interleaving.
//
// Implementations are used by one run at a time and need not be safe for
// concurrent use.
type Scheduler interface {
	// Name identifies the policy in reports and reproducer printouts.
	Name() string
	// Pick returns the index of the thread to attempt next, chosen from
	// runnable, which is non-empty and lists thread indices in increasing
	// order (threads that are neither finished nor blocked since the last
	// progress). lastRan is the step number at which each thread last
	// issued an instruction (-1 if never); step is the number of
	// instructions issued so far.
	Pick(runnable []int, lastRan []int64, step int64) int
}

// roundRobin makes threads take turns in index order, skipping blocked
// threads: the finest interleaving there is, one switch per instruction, and
// so the most picks. It was RunMT's default until the default became
// run-to-block (see Adversarial).
type roundRobin struct{ cursor int }

// RoundRobin returns the deterministic take-turns policy.
func RoundRobin() Scheduler { return &roundRobin{} }

func (s *roundRobin) Name() string { return "round-robin" }

func (s *roundRobin) Pick(runnable []int, _ []int64, _ int64) int {
	// First runnable thread at or after the cursor, wrapping around.
	pick := runnable[0]
	for _, ti := range runnable {
		if ti >= s.cursor {
			pick = ti
			break
		}
	}
	s.cursor = pick + 1
	return pick
}

// randomSched picks uniformly among runnable threads with a seeded PRNG, so
// a failure under "random(seed)" replays exactly.
type randomSched struct {
	rng  *rand.Rand
	seed int64
}

// Random returns the seeded uniform-random policy.
func Random(seed int64) Scheduler {
	return &randomSched{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (s *randomSched) Name() string { return fmt.Sprintf("random(%d)", s.seed) }

func (s *randomSched) Pick(runnable []int, _ []int64, _ int64) int {
	return runnable[s.rng.Intn(len(runnable))]
}

// adversarial maximizes skew: it keeps running one thread until that thread
// blocks or finishes, then switches to the runnable thread that has waited
// longest (smallest last-ran step — "longest-blocked-first"). This drives
// queues to their capacity limits and starves consumers, the schedule most
// likely to expose placement and synchronization bugs.
//
// It is also the default: a nil MTConfig.Sched means this policy. It
// changes its mind only when a thread blocks or returns, so a run switches
// threads once per burst instead of once per instruction. Results cannot
// tell the difference: they are schedule-independent for every program the
// oracle passes.
type adversarial struct{ current int }

// Adversarial returns the deterministic run-to-block, longest-blocked-first
// policy (the default).
func Adversarial() Scheduler { return &adversarial{current: -1} }

func (s *adversarial) Name() string { return "adversarial" }

func (s *adversarial) Pick(runnable []int, lastRan []int64, _ int64) int {
	for _, ti := range runnable {
		if ti == s.current {
			return ti // keep driving the same thread while it can run
		}
	}
	pick := runnable[0]
	for _, ti := range runnable[1:] {
		if lastRan[ti] < lastRan[pick] {
			pick = ti
		}
	}
	s.current = pick
	return pick
}

// SchedulerByName builds a policy from its CLI spelling: "round-robin" (or
// "rr"), "random" (seeded with seed), or "adversarial".
func SchedulerByName(name string, seed int64) (Scheduler, error) {
	switch strings.ToLower(name) {
	case "round-robin", "rr", "":
		return RoundRobin(), nil
	case "random":
		return Random(seed), nil
	case "adversarial", "adv":
		return Adversarial(), nil
	}
	return nil, fmt.Errorf("interp: unknown schedule %q (want round-robin, random, or adversarial)", name)
}
