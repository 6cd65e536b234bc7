package sim

import (
	"repro/internal/attr"
	"repro/internal/ir"
	"repro/internal/obs"
)

// portClass buckets instructions onto Itanium 2 issue ports. Communication
// instructions use the M pipeline (Section 4), competing with loads and
// stores for the 4 M-type slots.
type portClass uint8

const (
	portALU portClass = iota
	portMem
	portFP
	portBranch
)

func classify(op ir.Op) portClass {
	switch {
	case op.IsMemAccess() || op.IsComm():
		return portMem
	case op.IsFloat():
		return portFP
	case op.IsTerminator():
		return portBranch
	}
	return portALU
}

// portTab is classify precomputed over the whole opcode space, so the
// issue loop buckets each instruction with one array load instead of a
// chain of predicate calls per issued instruction.
var portTab [256]portClass

func init() {
	for i := range portTab {
		portTab[i] = classify(ir.Op(i))
	}
}

// latencyOf returns the result latency of non-memory, non-communication
// instructions.
func (s *system) latencyOf(op ir.Op) int64 {
	switch op {
	case ir.Mul:
		return int64(s.cfg.MulLatency)
	case ir.Div, ir.Rem:
		return int64(s.cfg.DivLatency)
	case ir.FDiv, ir.FSqrt:
		return int64(s.cfg.FDivLatency)
	}
	if op.IsFloat() {
		return int64(s.cfg.FPLatency)
	}
	return 1
}

// cycleTag is stepCore's attribution verdict for one core-cycle: the cause
// bucket, the static instruction to blame (-1 only for Idle), and the queue
// to blame (-1 if none). When the core issued, the tag is Issue blaming the
// first instruction of the issue group; otherwise it names the first
// blocking hazard.
type cycleTag struct {
	bucket attr.Bucket
	instr  int
	queue  int
}

// blockTag resolves the cycle's tag at a stop site: Issue if anything
// already issued this cycle, else the blocking cause.
func blockTag(issued, firstID int, b attr.Bucket, instr, queue int) cycleTag {
	if issued > 0 {
		return cycleTag{bucket: attr.Issue, instr: firstID, queue: -1}
	}
	return cycleTag{bucket: b, instr: instr, queue: queue}
}

// stepCore issues as many instructions as the core can this cycle (in
// order, bounded by issue width, port availability, operand readiness and
// queue state). It returns the number of instructions issued and the
// cycle's attribution tag (meaningful only on attribution runs).
func (s *system) stepCore(c *core, cycle int64, saPortsUsed *int) (int, cycleTag) {
	code := c.code.Code
	if cycle < c.fetchReady {
		// Front-end bubble after a mispredict: blame the instruction whose
		// fetch is delayed. The bubble's end is known exactly.
		c.wake = c.fetchReady
		return 0, cycleTag{bucket: attr.Branch, instr: int(code[c.pc].ID), queue: -1}
	}
	cfg := &s.cfg
	issueWidth := cfg.IssueWidth
	limits := s.limits
	issued := 0
	firstID := -1
	ports := [4]int{}

	for issued < issueWidth && !c.done {
		pc := c.pc
		di := &code[pc]
		id := int(di.ID)
		cls := di.Tag & 3
		if ports[cls] >= limits[cls] {
			// Structural hazard; in-order issue stops. At issued == 0 this
			// is only reachable with a zero-port config.
			return issued, blockTag(issued, firstID, attr.DepStall, id, -1)
		}
		// Operand readiness (stall-on-use: the stall happens here, at
		// the first instruction that needs a late value). The stall is
		// blamed on the cause of the latest-arriving unready operand (the
		// first such in source order), and its clearing time — the latest
		// ready time, which only this core's own issues could ever move —
		// is memoized as the wake.
		lateT, lateR := int64(-1), int32(0)
		if di.NSrc > 0 {
			if t := c.ready[di.S0]; t > cycle {
				lateT, lateR = t, di.S0
			}
			if di.NSrc > 1 {
				if t := c.ready[di.S1]; t > cycle && t > lateT {
					lateT, lateR = t, di.S1
				}
				if di.NSrc > 2 {
					for _, r := range c.code.Instrs[pc].Srcs[2:] {
						if t := c.ready[r]; t > cycle && t > lateT {
							lateT, lateR = t, int32(r)
						}
					}
				}
			}
		}
		if lateT >= 0 {
			b, bq := attr.DepStall, -1
			if c.readyCause != nil {
				b, bq = attr.Bucket(c.readyCause[lateR]), int(c.readyQueue[lateR])
			} else if issued == 0 {
				c.wake = lateT
			}
			return issued, blockTag(issued, firstID, b, id, bq)
		}

		// done is the cycle the instruction's result becomes usable (the
		// Event.Done the profiler builds dependence edges from); evQueue
		// is the queue a communication instruction touched.
		done := cycle + 1
		evQueue := -1
		stop := false // terminator: the issue group ends here

		switch di.Op {
		case ir.Produce, ir.ProduceSync:
			if s.queues[di.Queue].Len() >= s.qcap {
				// Queue full: blocked until the consumer frees a slot.
				if issued == 0 {
					c.blockedFullQ = di.Queue
				}
				return issued, blockTag(issued, firstID, attr.QueueFull, id, int(di.Queue))
			}
			if *saPortsUsed >= cfg.SAPorts {
				// SA request ports exhausted this cycle: contention.
				return issued, blockTag(issued, firstID, attr.CommLatency, id, int(di.Queue))
			}
			*saPortsUsed++
			v := int64(0)
			if di.Op == ir.Produce {
				v = c.regs[di.S0]
			}
			c.stats.Produces++
			q := s.queues[di.Queue]
			e := saEntry{val: v, arrival: cycle + int64(cfg.SALatency)}
			if s.flows {
				s.flowSeq++
				e.flow = s.flowSeq
			}
			q.Push(e)
			qs := &s.qstats[di.Queue]
			qs.Produced++
			if d := int64(q.Len()); d > qs.HighWater {
				qs.HighWater = d
			}
			if s.saLane != nil {
				s.saLane.Counter(s.qnames[di.Queue], cycle, "depth", int64(q.Len()))
			}
			if s.flows {
				s.coreLanes[c.id].FlowStart(s.qnames[di.Queue], "sa", e.flow, cycle)
				s.coreLanes[c.id].SpanAt("produce", "sa", cycle, 1, obs.A("q", int64(di.Queue)))
			}
			done = cycle + int64(cfg.SALatency)
			evQueue = int(di.Queue)
		case ir.Consume, ir.ConsumeSync:
			q := s.queues[di.Queue]
			if q.Len() == 0 {
				// Nothing produced yet: the producing thread is behind.
				if issued == 0 {
					c.blockedEmptyQ = di.Queue
				}
				return issued, blockTag(issued, firstID, attr.QueueEmpty, id, int(di.Queue))
			}
			if *saPortsUsed >= cfg.SAPorts {
				return issued, blockTag(issued, firstID, attr.CommLatency, id, int(di.Queue))
			}
			*saPortsUsed++
			e := q.Pop()
			v := e.val
			arr := e.arrival
			if s.flows {
				s.coreLanes[c.id].SpanAt("consume", "sa", cycle, 1, obs.A("q", int64(di.Queue)))
				s.coreLanes[c.id].FlowEnd(s.qnames[di.Queue], "sa", e.flow, cycle)
			}
			c.stats.Consumes++
			s.qstats[di.Queue].Consumed++
			if s.saLane != nil {
				s.saLane.Counter(s.qnames[di.Queue], cycle, "depth", int64(q.Len()))
			}
			if di.Op == ir.Consume {
				c.regs[di.Dst] = v
				// Stall-on-use: the consume completes now; its value
				// becomes usable when the SA delivers it.
				if arr < cycle+1 {
					arr = cycle + 1
				}
				c.ready[di.Dst] = arr
				if c.readyCause != nil {
					c.readyCause[di.Dst] = uint8(attr.CommLatency)
					c.readyQueue[di.Dst] = di.Queue
				}
				done = arr
			}
			evQueue = int(di.Queue)
		case ir.Load:
			addr := c.regs[di.S0] + di.Imm
			if addr < 0 || addr >= int64(len(s.mem)) {
				s.fault(c, c.code.Instrs[pc], addr)
				return issued, blockTag(issued, firstID, attr.Memory, id, -1)
			}
			lat := c.caches.load(addr, &c.stats.Mem)
			c.regs[di.Dst] = s.mem[addr]
			c.ready[di.Dst] = cycle + int64(lat)
			if c.readyCause != nil {
				c.readyCause[di.Dst] = uint8(attr.Memory)
				c.readyQueue[di.Dst] = -1
			}
			done = cycle + int64(lat)
		case ir.Store:
			addr := c.regs[di.S1] + di.Imm
			if addr < 0 || addr >= int64(len(s.mem)) {
				s.fault(c, c.code.Instrs[pc], addr)
				return issued, blockTag(issued, firstID, attr.Memory, id, -1)
			}
			c.caches.store(addr, c.inval, &c.stats.Mem)
			s.mem[addr] = c.regs[di.S0]
		case ir.Br:
			taken := c.regs[di.S0] != 0
			predTaken := c.pred[id] >= 2
			if taken != predTaken {
				c.stats.Mispreds++
				c.fetchReady = cycle + 1 + int64(cfg.MispredictPenalty)
				done = c.fetchReady
			}
			// 2-bit saturating counter update.
			if taken && c.pred[id] < 3 {
				c.pred[id]++
			} else if !taken && c.pred[id] > 0 {
				c.pred[id]--
			}
			if taken {
				c.pc = di.Taken()
			} else {
				c.pc = di.Fall()
			}
			stop = true // control transfer ends the issue group
		case ir.Jump:
			c.pc = di.Taken()
			stop = true
		case ir.Ret:
			c.done = true
			s.doneCores++
			if di.NSrc > 0 {
				c.outs = []int64{}
				for _, r := range c.code.Instrs[pc].Srcs {
					c.outs = append(c.outs, c.regs[r])
				}
			}
			stop = true
		default:
			c.code.Instrs[pc].Eval(c.regs)
			done = cycle + s.lat[di.Op]
			c.ready[di.Dst] = done
			if c.readyCause != nil {
				c.readyCause[di.Dst] = uint8(attr.DepStall)
				c.readyQueue[di.Dst] = -1
			}
		}

		ports[cls]++
		c.stats.Instrs++
		issued++
		if firstID < 0 {
			firstID = id
		}
		if s.events != nil {
			s.events(Event{Core: c.id, In: c.code.Instrs[pc], Issue: cycle, Done: done, Queue: evQueue})
		}
		if stop {
			return issued, cycleTag{bucket: attr.Issue, instr: firstID, queue: -1}
		}
		c.pc++
	}
	return issued, blockTag(issued, firstID, attr.DepStall, -1, -1)
}

// stepCoreFast is stepCore for runs with no observability sinks attached
// (no attribution, no event stream, no trace lanes, no flow arrows): the
// cycle's attribution tag is never read on that path, so the tag and
// first-issued-instruction bookkeeping, the per-instruction sink checks,
// and the readyCause plumbing all drop out of the issue loop, which keeps
// the pc in a register and executes the hot ALU opcodes in its switch. Both
// run over the thread's decoded stream (ir.Stream — the flat, pc-indexed
// records the interpreter runs over too, with Tag holding the issue-port
// class). Timing, statistics, and block memos are
// bit-identical to stepCore — TestStepCoreFastEquivalence pins the two
// against each other.
func (s *system) stepCoreFast(c *core, cycle int64, saPortsUsed *int) int {
	if cycle < c.fetchReady {
		c.wake = c.fetchReady
		return 0
	}
	cfg := &s.cfg
	issueWidth := cfg.IssueWidth
	saPorts := cfg.SAPorts
	regs := c.regs
	ready := c.ready
	issued := 0
	// avail counts remaining port slots per class; the &3 masks keep the
	// class in the compiler-provable [0,4) range so the array indexing is
	// bounds-check free. pc shadows c.pc in a register for the duration
	// of the call (written back at the single exit below).
	avail := s.limits
	code := c.code.Code
	pc := c.pc

loop:
	for issued < issueWidth && !c.done {
		di := &code[pc]
		cls := di.Tag & 3
		if avail[cls] == 0 {
			break loop
		}
		var lateT int64 = -1
		if di.NSrc > 0 {
			if t := ready[di.S0]; t > cycle {
				lateT = t
			}
			if di.NSrc > 1 {
				if t := ready[di.S1]; t > cycle && t > lateT {
					lateT = t
				}
				if di.NSrc > 2 {
					for _, r := range c.code.Instrs[pc].Srcs[2:] {
						if t := ready[r]; t > cycle && t > lateT {
							lateT = t
						}
					}
				}
			}
		}
		if lateT >= 0 {
			if issued == 0 {
				c.wake = lateT
			}
			break loop
		}

		stop := false

		switch di.Op {
		case ir.Add:
			regs[di.Dst] = regs[di.S0] + regs[di.S1]
			ready[di.Dst] = cycle + 1
		case ir.Const:
			regs[di.Dst] = di.Imm
			ready[di.Dst] = cycle + 1
		case ir.Mov:
			regs[di.Dst] = regs[di.S0]
			ready[di.Dst] = cycle + 1
		case ir.Sub:
			regs[di.Dst] = regs[di.S0] - regs[di.S1]
			ready[di.Dst] = cycle + 1
		case ir.CmpLT:
			if regs[di.S0] < regs[di.S1] {
				regs[di.Dst] = 1
			} else {
				regs[di.Dst] = 0
			}
			ready[di.Dst] = cycle + 1
		case ir.CmpGT:
			if regs[di.S0] > regs[di.S1] {
				regs[di.Dst] = 1
			} else {
				regs[di.Dst] = 0
			}
			ready[di.Dst] = cycle + 1
		case ir.Shl:
			regs[di.Dst] = regs[di.S0] << (uint64(regs[di.S1]) & 63)
			ready[di.Dst] = cycle + 1
		case ir.Shr:
			regs[di.Dst] = regs[di.S0] >> (uint64(regs[di.S1]) & 63)
			ready[di.Dst] = cycle + 1
		case ir.And:
			regs[di.Dst] = regs[di.S0] & regs[di.S1]
			ready[di.Dst] = cycle + 1
		case ir.Xor:
			regs[di.Dst] = regs[di.S0] ^ regs[di.S1]
			ready[di.Dst] = cycle + 1
		case ir.Produce, ir.ProduceSync:
			if s.queues[di.Queue].Len() >= s.qcap {
				if issued == 0 {
					c.blockedFullQ = di.Queue
				}
				break loop
			}
			if *saPortsUsed >= saPorts {
				break loop
			}
			*saPortsUsed++
			v := int64(0)
			if di.Op == ir.Produce {
				v = regs[di.S0]
			}
			c.stats.Produces++
			q := s.queues[di.Queue]
			q.Push(saEntry{val: v, arrival: cycle + int64(cfg.SALatency)})
			qs := &s.qstats[di.Queue]
			qs.Produced++
			if d := int64(q.Len()); d > qs.HighWater {
				qs.HighWater = d
			}
		case ir.Consume, ir.ConsumeSync:
			q := s.queues[di.Queue]
			if q.Len() == 0 {
				if issued == 0 {
					c.blockedEmptyQ = di.Queue
				}
				break loop
			}
			if *saPortsUsed >= saPorts {
				break loop
			}
			*saPortsUsed++
			e := q.Pop()
			c.stats.Consumes++
			s.qstats[di.Queue].Consumed++
			if di.Op == ir.Consume {
				regs[di.Dst] = e.val
				arr := e.arrival
				if arr < cycle+1 {
					arr = cycle + 1
				}
				ready[di.Dst] = arr
			}
		case ir.Load:
			addr := regs[di.S0] + di.Imm
			if addr < 0 || addr >= int64(len(s.mem)) {
				s.fault(c, c.code.Instrs[pc], addr)
				break loop
			}
			lat := c.caches.load(addr, &c.stats.Mem)
			regs[di.Dst] = s.mem[addr]
			ready[di.Dst] = cycle + int64(lat)
		case ir.Store:
			addr := regs[di.S1] + di.Imm
			if addr < 0 || addr >= int64(len(s.mem)) {
				s.fault(c, c.code.Instrs[pc], addr)
				break loop
			}
			c.caches.store(addr, c.inval, &c.stats.Mem)
			s.mem[addr] = regs[di.S0]
		case ir.Br:
			taken := regs[di.S0] != 0
			predTaken := c.pred[di.ID] >= 2
			if taken != predTaken {
				c.stats.Mispreds++
				c.fetchReady = cycle + 1 + int64(cfg.MispredictPenalty)
			}
			if taken && c.pred[di.ID] < 3 {
				c.pred[di.ID]++
			} else if !taken && c.pred[di.ID] > 0 {
				c.pred[di.ID]--
			}
			if taken {
				pc = di.Taken()
			} else {
				pc = di.Fall()
			}
			stop = true
		case ir.Jump:
			pc = di.Taken()
			stop = true
		case ir.Ret:
			c.done = true
			s.doneCores++
			if di.NSrc > 0 {
				c.outs = []int64{}
				for _, r := range c.code.Instrs[pc].Srcs {
					c.outs = append(c.outs, regs[r])
				}
			}
			stop = true
		default:
			c.code.Instrs[pc].Eval(regs)
			ready[di.Dst] = cycle + s.lat[di.Op]
		}

		avail[cls]--
		c.stats.Instrs++
		issued++
		if stop {
			break loop
		}
		pc++
	}
	c.pc = pc
	return issued
}

// fault records an out-of-range memory access and halts the core.
func (s *system) fault(c *core, in *ir.Instr, addr int64) {
	c.done = true
	s.doneCores++
	if s.err == nil {
		s.err = &MemFaultError{Core: c.id, Instr: in, Addr: addr, Size: int64(len(s.mem))}
	}
}
