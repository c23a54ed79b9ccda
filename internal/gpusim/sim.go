package gpusim

import (
	"fmt"
	"math/bits"
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
// are safe as long as they do not share Hooks. The backing arrays of that
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
// hole-based — the displaced element is held in hand and written once at
// its final position — but perform exactly the comparisons of the classic
// swap-based sift, so the resulting layout (and hence the pop order of
// equal-cycle entries, which the simulation results depend on) is
// identical entry for entry.
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
func (h *wakeHeap) popDue(cycle int64) (warpRef, bool) {
	old := *h
	if len(old) == 0 || old[0].cycle > cycle {
		return warpRef{}, false
	}
	top := old[0].ref
	n := len(old) - 1
	moved := old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m, mc := i, moved.cycle
		if l < n && old[l].cycle < mc {
			m, mc = l, old[l].cycle
		}
		if r < n && old[r].cycle < mc {
			m = r
		}
		if m == i {
			break
		}
		old[i] = old[m]
		i = m
	}
	if n > 0 {
		old[i] = moved
	}
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

func (sm *smState) reset(id int) {
	sm.id = id
	sm.ready = sm.ready[:0]
	sm.readyHead = 0
	sm.wakes = sm.wakes[:0]
	sm.resident = 0
	sm.warpInsts = 0
	sm.lastCycle = 0
}

// wheelSize is the span (cycles) of the scheduler's timing wheel: an idle
// SM waking within wheelSize cycles is recorded in the wheel bucket of its
// exact wake cycle, so it costs nothing at all until then. The span covers
// the pipeline, L1 and uncontended DRAM latencies; wakes further out
// (heavily queued DRAM) overflow to the per-SM calendar. Must be a power
// of two; the value only moves work between the wheel and the calendar and
// never affects simulation results.
const (
	wheelSize = 512
	wheelMask = wheelSize - 1
)

// calendar is the parked-SM event calendar: for each parked SM it records
// the cycle at which the SM next becomes actionable (0 = not parked; wake
// cycles are always strictly positive because wakes are strictly in the
// future). With at most one entry per SM a flat per-SM array beats any
// ordered structure: parking is a single store, and pulling the due SMs is
// an id-ordered scan over a couple of cache lines, gated by a cached
// minimum so cycles with nothing due cost one compare.
type calendar struct {
	at   []int64 // per-SM wake cycle, 0 = not parked
	next int64   // exact min of the non-zero entries (undefined when n == 0)
	n    int     // number of parked SMs
}

func (c *calendar) reset(numSMs int) {
	if cap(c.at) < numSMs {
		c.at = make([]int64, numSMs)
	} else {
		c.at = c.at[:numSMs]
		clear(c.at)
	}
	c.n = 0
}

func (c *calendar) push(sm int32, cycle int64) {
	c.at[sm] = cycle
	if c.n == 0 || cycle < c.next {
		c.next = cycle
	}
	c.n++
}

func (c *calendar) peekCycle() (int64, bool) {
	if c.n == 0 {
		return 0, false
	}
	return c.next, true
}

// pullDueMask sets the bit of every parked SM due by cycle in the due mask,
// unparks them, and recomputes the cached minimum of the remainder. It
// reports whether any SM was pulled.
func (c *calendar) pullDueMask(cycle int64, due []uint64) bool {
	if c.n == 0 || c.next > cycle {
		return false
	}
	min := int64(0)
	pulled := false
	for sm, at := range c.at {
		if at == 0 {
			continue
		}
		if at <= cycle {
			due[sm>>6] |= 1 << (uint(sm) & 63)
			pulled = true
			c.at[sm] = 0
			c.n--
		} else if min == 0 || at < min {
			min = at
		}
	}
	c.next = min
	return pulled
}

// runState bundles the mutable state of one launch simulation.
type runState struct {
	sim   *Simulator
	synth trace.Synthetic // the launch's instruction streams
	opts  RunOptions
	hk    *Hooks
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

	// Event-calendar scheduling state. All SM sets are bitmasks of
	// maskWords uint64 words (bit i = SM i), iterated low-to-high so SMs
	// are always processed in ascending id — the order of the per-cycle
	// scan this machinery replaces. ready holds the SMs with a ready warp
	// (visited every cycle); an idle SM waking within wheelSize cycles
	// sits in the wheel bucket of its wake cycle and costs nothing until
	// then; wakes beyond the wheel overflow to the per-SM calendar.
	maskWords int
	ready     []uint64 // SMs with a ready warp
	due       []uint64 // scratch: SMs actionable this cycle
	wheel     []uint64 // wheelSize buckets x maskWords words
	wheelSum  []uint64 // wheelSize bits: bucket non-empty
	cal       calendar

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
	wakePushes                              int64
	wheelParks, calParks                    int64
	parkedWheel                             int64 // current wheel population; maintained only when mc != nil
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
	c.wheelParks += o.wheelParks
	c.calParks += o.calParks
	c.parkedWheel += o.parkedWheel
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

var noHooks Hooks

// resizeCleared returns s resized to n elements, all zero, reusing the
// backing array when possible.
func resizeCleared(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
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
	rs.hk = opts.Hooks
	if rs.hk == nil {
		rs.hk = &noHooks
	}
	rs.mc = opts.Metrics
	rs.mct = runCounters{}
	rs.done = nil
	if opts.Ctx != nil {
		rs.done = opts.Ctx.Done()
	}
	rs.aborted = false
	rs.parRun = false
	rs.mem.setMetrics(opts.Metrics)
	rs.res = &LaunchResult{SMs: make([]SMStat, s.cfg.NumSMs)}
	rs.occ = 0
	rs.wpb = l.Kernel.WarpsPerBlock()
	rs.cycle = 0
	rs.free = rs.free[:0]
	rs.maskWords = (len(ar.sms) + 63) / 64
	rs.ready = resizeCleared(rs.ready, rs.maskWords)
	rs.due = resizeCleared(rs.due, rs.maskWords)
	rs.wheel = resizeCleared(rs.wheel, wheelSize*rs.maskWords)
	rs.wheelSum = resizeCleared(rs.wheelSum, wheelSize/64)
	rs.cal.reset(len(ar.sms))
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
// launch's lazy synthetic trace. If opts/Hooks request skipping, skipped
// blocks retire instantly without being simulated.
func (s *Simulator) RunLaunch(l *kernel.Launch, opts RunOptions) *LaunchResult {
	ar := s.getArena()
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
	rs.hk = nil
	rs.mc = nil
	rs.done = nil
	rs.mem.setMetrics(nil)
	s.arenas.Put(ar)
	return res
}

func (rs *runState) hooks() *Hooks { return rs.hk }

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

		// Seed the schedule: SMs with a warp ready at cycle 0 enter the
		// ready mask, the rest park (wheel or calendar) at their earliest
		// wake.
		for i := range rs.sms {
			sm := &rs.sms[i]
			sm.drainWakes(rs.cycle)
			if sm.hasReady() {
				rs.ready[i>>6] |= 1 << (uint(i) & 63)
			} else if c, ok := sm.wakes.peek(); ok {
				rs.parkSM(int32(i), c)
			}
		}
	}

	// Event-schedule main loop. Instead of scanning every SM every cycle,
	// each cycle assembles the actionable set — SMs with a ready warp,
	// plus SMs whose recorded wake cycle is exactly now (wheel bucket /
	// calendar) — and visits only those; idle SMs cost nothing until
	// their wake. When no SM is actionable, time jumps straight to the
	// next recorded wake. Bits are scanned low-to-high, so within a cycle
	// SMs are processed in ascending id, exactly the order of the
	// per-cycle scan this replaces — results are bit-identical.
	words := rs.maskWords
	for rs.liveTBs > 0 && !rs.aborted {
		slot := int(rs.cycle) & wheelMask
		bkt := rs.wheel[slot*words : (slot+1)*words]
		if rs.mc != nil {
			for _, w := range bkt {
				rs.mct.parkedWheel -= int64(bits.OnesCount64(w))
			}
		}
		var any uint64
		for w := 0; w < words; w++ {
			d := rs.ready[w] | bkt[w]
			bkt[w] = 0
			rs.due[w] = d
			any |= d
		}
		rs.wheelSum[slot>>6] &^= 1 << (uint(slot) & 63)
		if rs.cal.pullDueMask(rs.cycle, rs.due) {
			any = 1
		}
		if any == 0 {
			// Nothing actionable: jump to the earliest recorded wake.
			next := rs.nextWheelCycle()
			if c, ok := rs.cal.peekCycle(); ok && (next == 0 || c < next) {
				next = c
			}
			if next == 0 {
				panic(fmt.Sprintf("gpusim: deadlock with %d live thread blocks at cycle %d",
					rs.liveTBs, rs.cycle))
			}
			rs.mct.timeJumps++
			rs.mct.jumpedCycles += next - rs.cycle
			rs.cycle = next
			continue
		}
		for w := 0; w < words; w++ {
			d := rs.due[w]
			for d != 0 {
				bit := d & (-d)
				d &^= bit
				id := int32(w<<6 + bits.TrailingZeros64(bit))
				sm := &rs.sms[id]
				sm.drainWakes(rs.cycle)
				rs.mct.smVisits++
				if ref, ok := sm.popReady(); ok {
					rs.issue(sm, ref)
				} else {
					rs.mct.stallVisits++
				}
				if sm.hasReady() {
					rs.ready[w] |= bit
				} else {
					rs.ready[w] &^= bit
					if c, ok := sm.wakes.peek(); ok {
						rs.parkSM(id, c)
					}
				}
			}
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
	mc.Add(metrics.SchedWheelParks, uint64(rs.mct.wheelParks))
	mc.Add(metrics.SchedCalParks, uint64(rs.mct.calParks))
	mc.Add(metrics.SchedTBDispatch, uint64(res.SimulatedTBs))
	mc.Add(metrics.SchedTBSkips, uint64(res.SkippedTBs))
	mc.Add(metrics.MemL1Hits, uint64(res.L1Hits))
	mc.Add(metrics.MemL1Misses, uint64(res.L1Misses))
	mc.Add(metrics.MemL2Hits, uint64(res.L2Hits))
	mc.Add(metrics.MemL2Misses, uint64(res.L2Misses))
	mc.Add(metrics.MemMSHRMerges, uint64(res.MSHRMerges))
	mc.Add(metrics.MemMSHRPrunes, uint64(rs.mem.prunes))
	mc.Add(metrics.MemWritebacks, uint64(res.Writebacks))
	mc.Add(metrics.MemDRAMAccesses, uint64(res.DRAMAccesses))
	mc.Add(metrics.MemDRAMRowHits, uint64(res.DRAMRowHits))
	mc.Add(metrics.MemDRAMQueued, uint64(rs.mem.dram.queued))
	for i := range rs.sms {
		mc.Observe(metrics.DistSMWarpInsts, uint64(rs.sms[i].warpInsts))
		mc.Observe(metrics.DistSMActiveCycles, uint64(rs.sms[i].lastCycle))
	}
}

// parkSM records that idle SM id next becomes actionable at cycle c: in the
// timing wheel when c is within its span, else in the overflow calendar.
func (rs *runState) parkSM(id int32, c int64) {
	if c-rs.cycle < wheelSize {
		slot := int(c) & wheelMask
		rs.wheel[slot*rs.maskWords+int(id)>>6] |= 1 << (uint(id) & 63)
		rs.wheelSum[slot>>6] |= 1 << (uint(slot) & 63)
		rs.mct.wheelParks++
		if rs.mc != nil {
			rs.mct.parkedWheel++
			rs.mc.Observe(metrics.DistWheelOccupancy, uint64(rs.mct.parkedWheel))
		}
	} else {
		rs.cal.push(id, c)
		rs.mct.calParks++
		if rs.mc != nil {
			rs.mc.Observe(metrics.DistCalOccupancy, uint64(rs.cal.n))
		}
	}
}

// nextWheelCycle returns the earliest cycle after rs.cycle with a non-empty
// wheel bucket, or 0 if the wheel is empty. Every wheel entry is within
// (rs.cycle, rs.cycle+wheelSize), so the wrapped slot distance is
// unambiguous. The occupancy summary is scanned a word (64 buckets) at a
// time.
func (rs *runState) nextWheelCycle() int64 {
	nw := len(rs.wheelSum)
	startSlot := int(rs.cycle+1) & wheelMask
	wi := startSlot >> 6
	w := rs.wheelSum[wi] &^ (1<<(uint(startSlot)&63) - 1)
	for k := 0; k <= nw; k++ {
		if w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			d := int64(s - startSlot)
			if d < 0 {
				d += wheelSize
			}
			return rs.cycle + 1 + d
		}
		wi++
		if wi == nw {
			wi = 0
		}
		w = rs.wheelSum[wi]
	}
	return 0
}

// dispatchOne hands the next pending thread block (skipping as directed by
// hooks) to sm. It returns false when no blocks remain.
func (rs *runState) dispatchOne(sm *smState) bool {
	h := rs.hooks()
	for rs.nextTB < rs.totalTB {
		tb := rs.nextTB
		if h.SkipTB != nil && h.SkipTB(tb) {
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
			rs.wake(warpRef{slot: slot, w: int32(w)}, readyAt+jitter)
		}
		sm.resident++
		rs.liveTBs++
		if !rs.parRun {
			rs.res.TBOrder = append(rs.res.TBOrder, int32(tb))
		}
		if h.OnTBDispatch != nil {
			h.OnTBDispatch(tb, sm.id, rs.cycle)
		}
		if rs.pendingSpecify {
			rs.specified = slot
			rs.pendingSpecify = false
		}
		return true
	}
	return false
}

func (rs *runState) wake(ref warpRef, at int64) {
	smID := rs.tbs[ref.slot].sm
	sm := &rs.sms[smID]
	if at <= rs.cycle {
		sm.pushReady(ref)
		return
	}
	rs.mct.wakePushes++
	if rs.parRun {
		// Parallel mode keeps warp wakes in the per-SM timing wheel. A wake
		// at or before the wheel's drain mark would pop at the next drain
		// (the coming epoch's start) anyway, so it goes ready directly.
		if pw := &rs.par.sms[smID].wheel; at > pw.pos {
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
		if rs.opts.CollectBBV {
			for int(ev.Block) >= len(rs.bbv) {
				rs.bbv = append(rs.bbv, 0)
			}
			rs.bbv[ev.Block]++
		}
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
			rs.releaseBarrier(tb)
			rs.wake(ref, rs.cycle+int64(rs.sim.cfg.Lat.BAR))
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
		rs.wake(ref, done)
	default:
		rs.mct.issueALU++
		rs.wake(ref, rs.cycle+rs.latTab[ev.Op])
	}
}

func (rs *runState) releaseBarrier(tb *tbState) {
	lat := int64(rs.sim.cfg.Lat.BAR)
	for _, wi := range tb.barWaiting {
		rs.wake(warpRef{slot: tb.slot, w: wi}, rs.cycle+lat)
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
	h := rs.hooks()
	sm := &rs.sms[tb.sm]
	sm.resident--
	rs.liveTBs--
	rs.res.SimulatedTBs++
	retireCycle := rs.cycle + 1
	rs.res.TBOrder = append(rs.res.TBOrder, ^int32(tb.id))
	if h.OnTBRetire != nil {
		h.OnTBRetire(tb.id, tb.sm, retireCycle)
	}
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
		Index:       len(rs.res.Units),
		SpecifiedTB: tbID,
		StartCycle:  rs.unitStart,
		EndCycle:    cycle,
		WarpInsts:   rs.totalIssued - rs.unitStartInsts,
	}
	rs.res.Units = append(rs.res.Units, u)
	if h := rs.hooks(); h.OnUnitClose != nil {
		h.OnUnitClose(u)
	}
	rs.unitStart = cycle
	rs.unitStartInsts = rs.totalIssued
	rs.specified = -1
	rs.pendingSpecify = true
	rs.checkAbort()
}

func (rs *runState) closeFixedUnit() {
	f := FixedUnit{
		Index:     len(rs.res.FixedUnits),
		WarpInsts: rs.totalIssued - rs.fixedStartInsts,
		Cycles:    rs.cycle + 1 - rs.fixedStartCycle,
	}
	if rs.opts.CollectBBV {
		f.BBV = append([]int64(nil), rs.bbv...)
		for i := range rs.bbv {
			rs.bbv[i] = 0
		}
	}
	rs.res.FixedUnits = append(rs.res.FixedUnits, f)
	rs.fixedStartInsts = rs.totalIssued
	rs.fixedStartCycle = rs.cycle + 1
	rs.checkAbort()
}
