package sim

// cache is one set-associative, LRU cache level tracking only line
// presence (timing model; data values live in the functional state). Tags
// and stamps are flat arrays indexed set*ways+way: the per-set slice
// representation cost two allocations per set — thousands per simulation
// run for the L3 — and scattered each set's ways across the heap.
//
// A level may keep fewer ways than its Config names: RunObserved builds
// each one with imageWays, the ways the run's memory image can fill.
type cache struct {
	sets  int
	ways  int
	line  int     // words per line
	tags  []int64 // tags[set*ways+way]; -1 empty
	lru   []int64 // last-touch stamps
	stamp int64
}

// newCache allocates a level of sets sets of ways ways, every way empty.
// Each lookup, fill and invalidation scans the ways of one set, so a level
// built with imageWays compares only the tags its lines can occupy.
func newCache(sets, ways, line int) *cache {
	c := &cache{sets: sets, ways: ways, line: line}
	c.tags = make([]int64, sets*ways)
	c.lru = make([]int64, sets*ways)
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// imageWays returns the ways a level keeps over an image of words words:
// min(ways, ⌈lines ÷ sets⌉), and at least one. The result is exact. Loads
// and stores are bounds-checked against the image before they reach a
// cache, so its ⌈words ÷ line⌉ lines put at most ⌈lines ÷ sets⌉ distinct
// lines into any one set. A set with that many ways always has an empty way
// for a missing line and never evicts, and neither does the configured set;
// with nothing evicted, presence depends only on fills and invalidations,
// so every hit, miss and latency is the configured level's. Where the image
// is larger, the level keeps its configured ways and LRU victims, and so
// does a level with no sets or no words per line.
func imageWays(sets, ways, line, words int) int {
	if sets <= 0 || line <= 0 {
		return ways
	}
	lines := (words + line - 1) / line
	return min(ways, max((lines+sets-1)/sets, 1))
}

// lineOf returns the line-granular address.
func (c *cache) lineOf(addr int64) int64 { return addr / int64(c.line) }

// lookup reports whether the line holding addr is present, refreshing LRU
// on hit.
func (c *cache) lookup(addr int64) bool {
	ln := c.lineOf(addr)
	base := int(ln%int64(c.sets)) * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == ln {
			c.stamp++
			c.lru[base+w] = c.stamp
			return true
		}
	}
	return false
}

// fill inserts the line holding addr, evicting the LRU way.
func (c *cache) fill(addr int64) {
	ln := c.lineOf(addr)
	base := int(ln%int64(c.sets)) * c.ways
	victim, oldest := 0, int64(1<<62)
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == -1 {
			victim = w
			break
		}
		if c.lru[base+w] < oldest {
			victim, oldest = w, c.lru[base+w]
		}
	}
	c.stamp++
	c.tags[base+victim] = ln
	c.lru[base+victim] = c.stamp
}

// invalidate drops the line holding addr if present (snoop-based
// write-invalidate coherence).
func (c *cache) invalidate(addr int64) {
	ln := c.lineOf(addr)
	base := int(ln%int64(c.sets)) * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == ln {
			c.tags[base+w] = -1
		}
	}
}

// hierarchy is one core's private L1+L2 over the shared L3.
type hierarchy struct {
	l1, l2 *cache
	l3     *cache // shared
	cfg    *Config
}

// MemStats counts accesses per level.
type MemStats struct {
	L1Hits, L2Hits, L3Hits, MemAccesses int64
}

// load returns the latency of a load and updates cache state.
func (h *hierarchy) load(addr int64, st *MemStats) int {
	if h.l1.lookup(addr) {
		st.L1Hits++
		return h.cfg.L1Lat
	}
	if h.l2.lookup(addr) {
		st.L2Hits++
		h.l1.fill(addr)
		return h.cfg.L2Lat
	}
	if h.l3.lookup(addr) {
		st.L3Hits++
		h.l2.fill(addr)
		h.l1.fill(addr)
		return h.cfg.L3Lat
	}
	st.MemAccesses++
	h.l3.fill(addr)
	h.l2.fill(addr)
	h.l1.fill(addr)
	return h.cfg.MemLat
}

// store performs a write-through-L1, write-back-L2 store: it fills the
// local hierarchy and invalidates the line in every other core's private
// caches.
func (h *hierarchy) store(addr int64, others []*hierarchy, st *MemStats) int {
	lat := h.cfg.L1Lat
	if !h.l1.lookup(addr) {
		h.l1.fill(addr)
	}
	if !h.l2.lookup(addr) {
		h.l2.fill(addr)
	}
	if !h.l3.lookup(addr) {
		h.l3.fill(addr)
	}
	for _, o := range others {
		o.l1.invalidate(addr)
		o.l2.invalidate(addr)
	}
	return lat
}
