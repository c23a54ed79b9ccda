package gpusim

import (
	"fmt"
	"math"
	"sync"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/trace"
)

// Simulator runs cycle-level launch simulations under one configuration.
// A Simulator holds no mutable per-run state: caches and DRAM state are
// handed out per RunLaunch call (matching a trace-driven simulator restarted
// per kernel launch), so concurrent RunLaunch calls from multiple goroutines
// are safe as long as their SkipTB functions are. The backing arrays of that
// per-run state are recycled through an internal sync.Pool, which is itself
// concurrency-safe.
type Simulator struct {
	cfg    Config
	arenas sync.Pool // of *runArena
}

// New returns a simulator for the given configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Simulator {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

type warpState struct {
	// stream is the warp's instruction stream, embedded by value so issue()
	// calls Next without an allocation per warp.
	stream trace.SynthStream
	done   bool
}

type tbState struct {
	id    int
	slot  int32 // index of this state in runState.tbs
	sm    int
	warps []warpState
	live  int // warps not yet exited

	barArrived int
	barWaiting []int32 // warp indices parked at the barrier
}

// warpRef identifies one warp by its thread block's arena slot and warp
// index. It is deliberately pointer-free: the scheduler's ready queues and
// wake heaps copy entries heavily, and pointer-free entries keep those moves
// out of the garbage collector's write barriers.
type warpRef struct {
	slot int32
	w    int32
}

type wakeEntry struct {
	cycle int64
	ref   warpRef
}

// wakeHeap is a binary min-heap on wake cycle. The sift loops are
// hole-based: the displaced element is held in hand and written once at
// its final position. Whatever the loops' shape, after every push and pop
// the heap array is the one the classic swap-based sift leaves, entry for
// entry — the pop order of equal-cycle entries, which the simulation
// results depend on, rests on it (TestWakeHeapMatchesClassicSift).
type wakeHeap []wakeEntry

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	hp := *h
	i := len(hp) - 1
	for i > 0 {
		p := (i - 1) / 2
		if hp[p].cycle <= e.cycle {
			break
		}
		hp[i] = hp[p]
		i = p
	}
	hp[i] = e
}

func (h *wakeHeap) peek() (int64, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0].cycle, true
}

// popDue pops the root entry if it is due by cycle. Fusing the peek and the
// pop keeps drainWakes to one bounds check per drained entry.
//
// The pop is bottom-up (Floyd's): the hole left by the root walks to a leaf
// along the smaller child — the right one only when strictly smaller, one
// comparison per level feeding a select — and the last entry, moved, is
// then lifted back up past every path entry whose cycle is ≥ its own. The
// classic sift stops where the smaller child is ≥ moved; every path entry
// below that point is ≥ moved too, so the lift puts moved exactly there,
// above the equal entries, as the classic sift leaves it.
func (h *wakeHeap) popDue(cycle int64) (warpRef, bool) {
	old := *h
	if len(old) == 0 || old[0].cycle > cycle {
		return warpRef{}, false
	}
	top := old[0].ref
	n := len(old) - 1
	moved := old[n]
	hp := old[:n]
	*h = hp
	i := 0
	for {
		l := 2*i + 1
		if l+1 >= len(hp) {
			if l < len(hp) {
				hp[i] = hp[l]
				i = l
			}
			break
		}
		c := l + int(b2i(hp[l+1].cycle < hp[l].cycle))
		hp[i] = hp[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if hp[p].cycle < moved.cycle {
			break
		}
		hp[i] = hp[p]
		i = p
	}
	old[i] = moved
	return top, true
}

type smState struct {
	id        int
	ready     []warpRef
	readyHead int
	wakes     wakeHeap
	resident  int
	warpInsts int64
	lastCycle int64
}

func (sm *smState) pushReady(r warpRef) { sm.ready = append(sm.ready, r) }

func (sm *smState) popReady() (warpRef, bool) {
	if sm.readyHead >= len(sm.ready) {
		return warpRef{}, false
	}
	r := sm.ready[sm.readyHead]
	sm.readyHead++
	if sm.readyHead > 1024 && sm.readyHead*2 > len(sm.ready) {
		sm.ready = append(sm.ready[:0], sm.ready[sm.readyHead:]...)
		sm.readyHead = 0
	}
	return r, true
}

func (sm *smState) hasReady() bool { return sm.readyHead < len(sm.ready) }

func (sm *smState) drainWakes(cycle int64) {
	for {
		ref, ok := sm.wakes.popDue(cycle)
		if !ok {
			return
		}
		sm.pushReady(ref)
	}
}

// noEvent is the next-event entry of an SM with no ready warp and no wake.
const noEvent int64 = math.MaxInt64

// nextEvent returns the cycle sm next has work, once its wakes due before
// now are drained: now while it holds a ready warp, else its earliest wake,
// else noEvent.
func (sm *smState) nextEvent(now int64) int64 {
	if sm.hasReady() {
		return now
	}
	if c, ok := sm.wakes.peek(); ok {
		return c
	}
	return noEvent
}

func (sm *smState) reset(id int) {
	sm.id = id
	sm.ready = sm.ready[:0]
	sm.readyHead = 0
	sm.wakes = sm.wakes[:0]
	sm.resident = 0
	sm.warpInsts = 0
	sm.lastCycle = 0
}

// runState bundles the mutable state of one launch simulation.
type runState struct {
	sim   *Simulator
	synth trace.Synthetic // the launch's instruction streams
	opts  RunOptions
	mem   *memSystem
	sms   []smState
	res   *LaunchResult
	occ   int // blocks per SM
	wpb   int
	cycle int64

	// tbs is the thread-block arena: one slot per potentially resident
	// block (NumSMs x occupancy), recycled through free as blocks retire.
	tbs  []tbState
	free []int32

	// next is the serial scheduler: next[i] is the cycle SM i next has
	// work (see smState.nextEvent). The run loop visits, in ascending id,
	// the SMs whose entry is the current cycle.
	next []int64

	// latTab is Lat.Of with the <1 clamp baked in, indexed by opcode, so
	// the per-instruction issue path is one table load instead of a
	// switch. Indexed by the raw uint8 so every opcode value an ir program
	// can carry stays in range.
	latTab [256]int64

	// Observability (see internal/metrics). mc is nil for uninstrumented
	// runs. The mct scratch counters are bumped with plain unconditional
	// increments on the hot path — an add to run-local state is cheaper
	// than a branch per event — and flushed into mc once at the end of the
	// run; only distribution observes (which need the collector itself)
	// sit behind mc != nil guards. Collection never influences timing, so
	// instrumented and uninstrumented runs are bit-identical.
	mc  *metrics.Collector
	mct runCounters

	// Cancellation (see RunOptions.Ctx). done is the context's Done channel
	// (nil for unabortable runs, so the poll is a nil-channel select that
	// always falls through); aborted latches once cancellation is observed.
	// Polls happen only at launch start and sampling-unit boundaries, never
	// on the per-instruction hot path, so an uncancelled run is bit-identical
	// to one with no context at all.
	done    <-chan struct{}
	aborted bool

	nextTB  int
	totalTB int
	liveTBs int

	totalIssued  int64
	lastDispatch int64 // cycle the most recent block's warps became ready

	// Specified-thread-block sampling units.
	specified      int32 // arena slot of the specified block (-1 = none)
	pendingSpecify bool
	unitStart      int64
	unitStartInsts int64

	// Fixed-size sampling units.
	fixedStartInsts int64
	fixedStartCycle int64
	bbv             []int64

	// par holds the epoch-parallel engine's state (see parallel.go). It is
	// lazily allocated on the first parallel run and recycled with the
	// arena; serial runs never touch it. parRun is true while the current
	// run uses the parallel engine — it routes rs.wake to the per-SM
	// parallel wake wheel instead of the serial heap.
	par    *parState
	parRun bool

	addrs [trace.MaxRequests]uint64
}

// runCounters are the run-local metrics scratch counters (flushed into the
// run's Collector at the end of the launch; see runState.mc).
type runCounters struct {
	smVisits, stallVisits                   int64
	issueALU, issueMem, issueBar, issueExit int64
	timeJumps, jumpedCycles                 int64
	wakePushes, tbDispatch                  int64
	epochs, deferredReqs                    int64 // parallel mode only
}

// addFrom folds another scratch set into c; the parallel barrier uses it to
// merge per-shard counters (all fields are order-independent sums).
func (c *runCounters) addFrom(o *runCounters) {
	c.smVisits += o.smVisits
	c.stallVisits += o.stallVisits
	c.issueALU += o.issueALU
	c.issueMem += o.issueMem
	c.issueBar += o.issueBar
	c.issueExit += o.issueExit
	c.timeJumps += o.timeJumps
	c.jumpedCycles += o.jumpedCycles
	c.wakePushes += o.wakePushes
	c.tbDispatch += o.tbDispatch
	c.epochs += o.epochs
	c.deferredReqs += o.deferredReqs
}

// runArena owns the reusable backing state of one launch simulation. Arenas
// are recycled through the Simulator's sync.Pool so repeated RunLaunch
// calls stop paying the allocation and zeroing cost of caches, heaps and
// queues (the LaunchResult handed to the caller is always freshly
// allocated and never recycled).
type runArena struct {
	rs  runState
	sms []smState
}

func (s *Simulator) getArena() *runArena {
	if v := s.arenas.Get(); v != nil {
		return v.(*runArena)
	}
	ar := &runArena{sms: make([]smState, s.cfg.NumSMs)}
	ar.rs.mem = newMemSystem(s.cfg)
	ar.rs.sms = ar.sms
	return ar
}

// reset prepares the arena's runState for a fresh launch simulation.
func (ar *runArena) reset(s *Simulator, l *kernel.Launch, opts RunOptions) *runState {
	rs := &ar.rs
	for i := range ar.sms {
		ar.sms[i].reset(i)
	}
	rs.mem.reset()
	rs.sim = s
	rs.synth = trace.NewSynthetic(l)
	rs.opts = opts
	rs.mc = opts.Metrics
	rs.mct = runCounters{}
	rs.done = nil
	if opts.Ctx != nil {
		rs.done = opts.Ctx.Done()
	}
	rs.aborted = false
	rs.parRun = false
	rs.mem.dram.mc = opts.Metrics
	rs.res = &LaunchResult{SMs: make([]SMStat, s.cfg.NumSMs)}
	rs.occ = 0
	rs.wpb = l.Kernel.WarpsPerBlock()
	rs.cycle = 0
	rs.free = rs.free[:0]
	for op := range rs.latTab {
		lat := int64(s.cfg.Lat.Of(isa.Opcode(op)))
		if lat < 1 {
			lat = 1
		}
		rs.latTab[op] = lat
	}
	rs.nextTB = 0
	rs.totalTB = l.NumBlocks()
	rs.liveTBs = 0
	rs.totalIssued = 0
	rs.lastDispatch = 0
	rs.specified = -1
	rs.pendingSpecify = true
	rs.unitStart = 0
	rs.unitStartInsts = 0
	rs.fixedStartInsts = 0
	rs.fixedStartCycle = 0
	rs.bbv = rs.bbv[:0]
	return rs
}

// prepareSlots sizes the thread-block arena for the launch's maximum
// residency. Slots are handed out LIFO via rs.free; tbs never grows during
// a run, so &rs.tbs[slot] pointers stay valid.
func (rs *runState) prepareSlots(n int) {
	if cap(rs.tbs) < n {
		tbs := make([]tbState, n)
		copy(tbs, rs.tbs[:cap(rs.tbs)])
		rs.tbs = tbs
	}
	rs.tbs = rs.tbs[:n]
	for i := n - 1; i >= 0; i-- {
		rs.free = append(rs.free, int32(i))
	}
}

// RunLaunch simulates launch l, reading its warps' instructions from the
// launch's lazy synthetic trace. Blocks opts.SkipTB asks to skip retire
// instantly without being simulated.
func (s *Simulator) RunLaunch(l *kernel.Launch, opts RunOptions) *LaunchResult {
	ar := s.getArena()
	res := ar.runLaunch(s, l, opts)
	s.arenas.Put(ar)
	return res
}

// runLaunch is RunLaunch on the given arena.
func (ar *runArena) runLaunch(s *Simulator, l *kernel.Launch, opts RunOptions) *LaunchResult {
	rs := ar.reset(s, l, opts)
	rs.occ = s.cfg.Limits.BlocksPerSM(l.Kernel)
	rs.prepareSlots(s.cfg.NumSMs * rs.occ)
	if w := opts.Workers; w > 1 && s.cfg.NumSMs > 1 {
		rs.runParallel()
	} else {
		rs.run()
	}
	res := rs.res
	rs.res = nil
	rs.synth = trace.Synthetic{}
	rs.opts = RunOptions{}
	rs.mc = nil
	rs.done = nil
	rs.mem.dram.mc = nil
	return res
}

// checkAbort polls the run's cancellation channel (a no-op for runs without
// one) and latches rs.aborted. Called at launch start and from the
// sampling-unit close paths — the boundaries RunOptions.Ctx documents.
func (rs *runState) checkAbort() {
	if rs.done == nil || rs.aborted {
		return
	}
	select {
	case <-rs.done:
		rs.aborted = true
	default:
	}
}

func (rs *runState) run() {
	rs.checkAbort()
	rs.next = rs.next[:0]
	earliest := noEvent
	if !rs.aborted {
		// Initial greedy fill: round-robin one block per SM until every SM
		// is at occupancy or blocks run out.
		for round := 0; round < rs.occ; round++ {
			for i := range rs.sms {
				if sm := &rs.sms[i]; sm.resident < rs.occ {
					rs.dispatchOne(sm)
				}
			}
		}
		for i := range rs.sms {
			c := rs.sms[i].nextEvent(rs.cycle)
			rs.next = append(rs.next, c)
			earliest = min(earliest, c)
		}
	}

	// Next-event main loop. Time jumps to the earliest entry of rs.next;
	// the pass then visits, in ascending id, every SM due at that cycle and
	// recomputes the earliest entry. A scan of every SM every cycle visits
	// SMs in the same order, and its extra visits — to SMs with no ready
	// warp and no wake due — change nothing, so results are bit-identical
	// to that scan's.
	for rs.liveTBs > 0 && !rs.aborted {
		if earliest == noEvent {
			panic(fmt.Sprintf("gpusim: deadlock with %d live thread blocks at cycle %d",
				rs.liveTBs, rs.cycle))
		}
		if earliest > rs.cycle {
			rs.mct.timeJumps++
			rs.mct.jumpedCycles += earliest - rs.cycle
			rs.cycle = earliest
		}
		now := rs.cycle
		earliest = noEvent
		for i, c := range rs.next {
			if c == now {
				sm := &rs.sms[i]
				sm.drainWakes(now)
				rs.mct.smVisits++
				if ref, ok := sm.popReady(); ok {
					rs.issue(sm, ref)
				} else {
					rs.mct.stallVisits++
				}
				c = sm.nextEvent(now + 1)
				rs.next[i] = c
			}
			earliest = min(earliest, c)
		}
		rs.cycle++
	}

	rs.finishRun()
}

// finishRun closes the trailing fixed unit, if any, and assembles the
// LaunchResult. Shared by the serial and parallel event loops; an aborted
// run keeps only the units that closed completely before the abort.
func (rs *runState) finishRun() {
	if !rs.aborted && rs.opts.FixedUnitInsts > 0 && rs.totalIssued > rs.fixedStartInsts {
		rs.closeFixedUnit()
	}

	res := rs.res
	res.Aborted = rs.aborted
	res.Cycles = rs.cycle
	for i := range rs.sms {
		res.SMs[i] = SMStat{WarpInsts: rs.sms[i].warpInsts, Cycles: rs.sms[i].lastCycle}
	}
	res.SimulatedWarpInsts = rs.totalIssued
	res.L1Hits, res.L1Misses = rs.mem.l1Stats()
	res.L2Hits, res.L2Misses = rs.mem.l2.Hits, rs.mem.l2.Misses
	res.DRAMAccesses, res.DRAMRowHits = rs.mem.dram.Accesses, rs.mem.dram.RowHits
	res.Writebacks = rs.mem.writebacks()
	res.MSHRMerges = rs.mem.MSHRMerges
	rs.flushMetrics(res)
}

// flushMetrics folds the run's scratch counters and the memory system's
// statistics into the run's collector. Called once per launch; a nil
// collector makes this (and every per-event observation) a no-op.
func (rs *runState) flushMetrics(res *LaunchResult) {
	mc := rs.mc
	if mc == nil {
		return
	}
	mc.Add(metrics.SimLaunches, 1)
	mc.Add(metrics.SimCycles, uint64(rs.cycle))
	mc.Add(metrics.SimWarpInsts, uint64(rs.totalIssued))
	mc.Add(metrics.SimSMVisits, uint64(rs.mct.smVisits))
	mc.Add(metrics.SimStallVisits, uint64(rs.mct.stallVisits))
	mc.Add(metrics.SimIssueALU, uint64(rs.mct.issueALU))
	mc.Add(metrics.SimIssueMem, uint64(rs.mct.issueMem))
	mc.Add(metrics.SimIssueBar, uint64(rs.mct.issueBar))
	mc.Add(metrics.SimIssueExit, uint64(rs.mct.issueExit))
	mc.Add(metrics.SimTimeJumps, uint64(rs.mct.timeJumps))
	mc.Add(metrics.SimJumpedCycles, uint64(rs.mct.jumpedCycles))
	mc.Add(metrics.SimEpochs, uint64(rs.mct.epochs))
	mc.Add(metrics.SimDeferredReqs, uint64(rs.mct.deferredReqs))
	mc.Add(metrics.SchedWakePushes, uint64(rs.mct.wakePushes))
	mc.Add(metrics.SchedTBDispatch, uint64(rs.mct.tbDispatch))
	mc.Add(metrics.SchedTBSkips, uint64(res.SkippedTBs))
	mc.Add(metrics.MemL1Hits, uint64(res.L1Hits))
	mc.Add(metrics.MemL1Misses, uint64(res.L1Misses))
	mc.Add(metrics.MemL2Hits, uint64(res.L2Hits))
	mc.Add(metrics.MemL2Misses, uint64(res.L2Misses))
	mc.Add(metrics.MemMSHRMerges, uint64(res.MSHRMerges))
	mc.Add(metrics.MemWritebacks, uint64(res.Writebacks))
	mc.Add(metrics.MemDRAMAccesses, uint64(res.DRAMAccesses))
	mc.Add(metrics.MemDRAMRowHits, uint64(res.DRAMRowHits))
	mc.Add(metrics.MemDRAMQueued, uint64(rs.mem.dram.queued))
	for i := range rs.sms {
		mc.Observe(metrics.DistSMWarpInsts, uint64(rs.sms[i].warpInsts))
		mc.Observe(metrics.DistSMActiveCycles, uint64(rs.sms[i].lastCycle))
	}
}

// dispatchOne hands the next pending thread block (skipping as directed by
// opts.SkipTB) to sm. It returns false when no blocks remain.
func (rs *runState) dispatchOne(sm *smState) bool {
	skip := rs.opts.SkipTB
	for rs.nextTB < rs.totalTB {
		tb := rs.nextTB
		if skip != nil && skip(tb, rs.res) {
			rs.nextTB++
			rs.res.SkippedTBs++
			continue
		}
		rs.nextTB++
		slot := rs.free[len(rs.free)-1]
		rs.free = rs.free[:len(rs.free)-1]
		st := &rs.tbs[slot]
		st.id, st.slot, st.sm, st.live = tb, slot, sm.id, rs.wpb
		st.barArrived = 0
		st.barWaiting = st.barWaiting[:0]
		if cap(st.warps) < rs.wpb {
			st.warps = make([]warpState, rs.wpb)
		} else {
			st.warps = st.warps[:rs.wpb]
		}
		// The global scheduler dispatches at a bounded rate; stagger block
		// start times accordingly.
		readyAt := rs.cycle
		if min := rs.lastDispatch + int64(rs.sim.cfg.DispatchInterval); min > readyAt {
			readyAt = min
		}
		rs.lastDispatch = readyAt
		for w := 0; w < rs.wpb; w++ {
			ws := &st.warps[w]
			ws.done = false
			rs.synth.InitStream(&ws.stream, tb, w)
			// Deterministic start jitter decorrelates execution phases.
			// Blocks of the initial fill get a large jitter (they would
			// otherwise run in lockstep cohorts that take many occupancy
			// generations to drift apart, distorting early sampling
			// units); steady-state dispatches get a small per-warp jitter
			// only.
			jitter := int64(0)
			if rs.sim.cfg.DispatchInterval > 0 {
				h := uint64(tb)*0x9e3779b97f4a7c15 + uint64(w)*0xbf58476d1ce4e5b9
				h ^= h >> 29
				span := uint64(rs.sim.cfg.DispatchInterval) * 16
				if rs.cycle == 0 {
					span = uint64(rs.sim.cfg.DispatchInterval) * 256
				}
				jitter = int64(h % span)
			}
			rs.wake(sm, warpRef{slot: slot, w: int32(w)}, readyAt+jitter)
		}
		sm.resident++
		rs.liveTBs++
		rs.mct.tbDispatch++
		if !rs.parRun {
			rs.res.TBOrder = append(rs.res.TBOrder, int32(tb))
		}
		if rs.pendingSpecify {
			rs.specified = slot
			rs.pendingSpecify = false
		}
		return true
	}
	return false
}

// wake makes warp ref of a block resident on sm ready at cycle at: at once
// when at is not in the future, else through sm's wake heap (in parallel
// mode, its timing wheel).
func (rs *runState) wake(sm *smState, ref warpRef, at int64) {
	if at <= rs.cycle {
		sm.pushReady(ref)
		return
	}
	rs.mct.wakePushes++
	if rs.parRun {
		// Parallel mode keeps warp wakes in the per-SM timing wheel. A wake
		// at or before the wheel's drain mark would pop at the next drain
		// (the coming epoch's start) anyway, so it goes ready directly.
		if pw := &rs.par.sms[sm.id].wheel; at > pw.pos {
			pw.push(ref, at)
		} else {
			sm.pushReady(ref)
		}
		return
	}
	sm.wakes.push(wakeEntry{cycle: at, ref: ref})
}

func (rs *runState) issue(sm *smState, ref warpRef) {
	tb := &rs.tbs[ref.slot]
	ev, ok := tb.warps[ref.w].stream.Next(rs.addrs[:])
	if !ok {
		// A validated program's streams end exactly at EXIT; a bare end is
		// treated as an exit so an unvalidated ir program without one still
		// retires.
		rs.finishWarp(tb, ref.w)
		return
	}
	sm.warpInsts++
	sm.lastCycle = rs.cycle + 1
	rs.totalIssued++

	if rs.opts.FixedUnitInsts > 0 {
		for int(ev.Block) >= len(rs.bbv) {
			rs.bbv = append(rs.bbv, 0)
		}
		rs.bbv[ev.Block]++
		if rs.totalIssued-rs.fixedStartInsts >= rs.opts.FixedUnitInsts {
			rs.closeFixedUnit()
		}
	}

	switch ev.Op {
	case isa.OpEXIT:
		rs.mct.issueExit++
		rs.finishWarp(tb, ref.w)
	case isa.OpBAR:
		rs.mct.issueBar++
		tb.barArrived++
		if tb.barArrived >= tb.live {
			rs.releaseBarrier(sm, tb)
			rs.wake(sm, ref, rs.cycle+int64(rs.sim.cfg.Lat.BAR))
		} else {
			tb.barWaiting = append(tb.barWaiting, ref.w)
		}
	case isa.OpLDG, isa.OpSTG:
		// The SM's load/store port injects one request per cycle, so a
		// divergent instruction's requests arrive serialised — memory
		// divergence costs at least one cycle per request even when every
		// request hits (the Eq. 2 "memory divergence" effect).
		rs.mct.issueMem++
		done := rs.cycle + 1
		for i := 0; i < int(ev.NumReq); i++ {
			arrive := rs.cycle + int64(i)
			if c := rs.mem.access(sm.id, rs.addrs[i], arrive, ev.Op); c > done {
				done = c
			}
		}
		rs.mem.pruneMSHRs(sm.id, rs.cycle)
		rs.wake(sm, ref, done)
	default:
		// An ALU latency is at least 1, so the wake is always in the
		// future: it goes straight onto the SM's heap.
		rs.mct.issueALU++
		rs.mct.wakePushes++
		sm.wakes.push(wakeEntry{cycle: rs.cycle + rs.latTab[ev.Op], ref: ref})
	}
}

func (rs *runState) releaseBarrier(sm *smState, tb *tbState) {
	lat := int64(rs.sim.cfg.Lat.BAR)
	for _, wi := range tb.barWaiting {
		rs.wake(sm, warpRef{slot: tb.slot, w: wi}, rs.cycle+lat)
	}
	tb.barWaiting = tb.barWaiting[:0]
	tb.barArrived = 0
}

func (rs *runState) finishWarp(tb *tbState, wi int32) {
	w := &tb.warps[wi]
	if w.done {
		return
	}
	w.done = true
	tb.live--
	// No warp exits while a sibling waits at a barrier: every warp of a
	// block reads the same instruction sequence (TestWarpsOfABlockReadOneSequence),
	// so all of them pass each barrier before any of them exits.
	if tb.live == 0 {
		rs.retireTB(tb)
	}
}

func (rs *runState) retireTB(tb *tbState) {
	sm := &rs.sms[tb.sm]
	sm.resident--
	rs.liveTBs--
	rs.res.SimulatedTBs++
	retireCycle := rs.cycle + 1
	rs.res.TBOrder = append(rs.res.TBOrder, ^int32(tb.id))
	if rs.specified == tb.slot {
		rs.closeUnit(retireCycle, tb.id)
	}
	rs.free = append(rs.free, tb.slot)
	if !rs.aborted {
		rs.dispatchOne(sm)
	}
}

func (rs *runState) closeUnit(cycle int64, tbID int) {
	u := UnitStats{
		SpecifiedTB: tbID,
		StartCycle:  rs.unitStart,
		EndCycle:    cycle,
		WarpInsts:   rs.totalIssued - rs.unitStartInsts,
	}
	rs.res.Units = append(rs.res.Units, u)
	rs.unitStart = cycle
	rs.unitStartInsts = rs.totalIssued
	rs.specified = -1
	rs.pendingSpecify = true
	rs.checkAbort()
}

func (rs *runState) closeFixedUnit() {
	f := FixedUnit{
		WarpInsts: rs.totalIssued - rs.fixedStartInsts,
		Cycles:    rs.cycle + 1 - rs.fixedStartCycle,
		BBV:       append([]int64(nil), rs.bbv...),
	}
	clear(rs.bbv)
	rs.res.FixedUnits = append(rs.res.FixedUnits, f)
	rs.fixedStartInsts = rs.totalIssued
	rs.fixedStartCycle = rs.cycle + 1
	rs.checkAbort()
}
