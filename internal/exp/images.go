package exp

import "sync"

// images is an engine's free list of working memory images. Every run an
// engine owns — the train profile, the reference run, the single-threaded
// and multi-threaded simulations, the profiler's run — mutates its memory
// image, so it runs on a working copy of the workload's read-only input
// (workloads.Workload.Inputs): it takes a buffer here, runs on it and
// gives it back, and the engine's later runs reuse it instead of building
// a new image each. The list dies with its engine. A nil list is a run
// without an engine (a Pipeline literal, the package-level
// SingleThreadedCycles): each take copies privately and give keeps
// nothing.
type images struct {
	mu   sync.Mutex
	free [][]int64
}

// take returns a working copy of master: the free buffer given back last,
// resliced to master's length, or a new one when there is none or it is
// too small. A buffer too small is dropped, so the list never holds more
// buffers than the engine's runs held at once.
func (l *images) take(master []int64) []int64 {
	if l != nil {
		l.mu.Lock()
		var buf []int64
		if n := len(l.free); n > 0 {
			buf = l.free[n-1]
			l.free[n-1] = nil
			l.free = l.free[:n-1]
		}
		l.mu.Unlock()
		if cap(buf) >= len(master) {
			return append(buf[:0], master...)
		}
	}
	return append([]int64(nil), master...)
}

// give returns a buffer take handed out, once its run is over and nothing
// reads it any more.
func (l *images) give(buf []int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, buf)
	l.mu.Unlock()
}
