// Epoch-synchronized parallel event loop (RunOptions.Workers > 1).
//
// The serial loop in sim.go interleaves all SMs cycle by cycle on one
// goroutine. This file trades a bounded amount of cross-SM timing accuracy
// for wall-clock speed, following the epoch model of "Parallelizing a
// modern GPU simulator" (arXiv 2502.14691): SMs are partitioned into
// contiguous shards, one per worker, and every shard advances its SMs
// independently through a time quantum of Q cycles. Shards meet at a
// barrier at the end of each epoch, where a single goroutine services all
// deferred memory traffic against the shared L2/DRAM, retires thread
// blocks, dispatches replacements, closes sampling units, and polls
// cancellation.
//
// Ownership rules (what makes the data-race-free part trivial):
//
//   - Worker-owned during an epoch: the shard's smStates, the tbStates
//     resident on those SMs, the warp streams, the per-SM L1 caches and
//     MSHR tables, and the per-SM deferred-request records (parSM).
//   - Barrier-owned (touched only between epochs, single-threaded): the
//     L2, DRAM, dispatch cursor (nextTB/free/lastDispatch), liveTBs,
//     SkipTB, sampling-unit state, the LaunchResult, and the metrics
//     collector.
//   - Per-shard scratch (merged at the barrier as order-independent
//     sums): runCounters, issued-instruction counts, BBV accumulators,
//     and the address buffer.
//
// Determinism contract: for a fixed quantum the simulation is a pure
// function of the launch — independent of the worker count — because (a)
// an SM's intra-epoch execution depends only on its own state, (b) the
// barrier services deferred requests in a globally sorted (arrive, sm,
// seq) order, and (c) retirement/dispatch processing is sorted by
// (cycle, sm). Worker count only changes which goroutine computes what.
//
// Accuracy: memory requests that miss the L1 are deferred to the epoch
// barrier, so a warp whose miss would have returned mid-epoch instead
// wakes at the start of the next epoch — cross-SM memory timing is
// quantized to epochs and per-access divergence is bounded by the
// quantum. Fixed-size sampling units close at barriers rather than on the
// exact instruction, and same-line accesses within one epoch resolve as
// MSHR merges even when a serial run would have completed the first fill
// in between. Serial mode (Workers <= 1) is bit-identical to builds
// without this file.
package gpusim

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sort"
	"sync"

	"tbpoint/internal/isa"
	"tbpoint/internal/trace"
)

// DefaultQuantum is the epoch length (cycles) used when RunOptions.Quantum
// is unset. It is roughly two L1-miss round trips (L1+L2 hit latency is
// ~118 cycles under the default config): long enough to amortize the
// barrier, short enough that deferring misses to the barrier moves wakes
// by less than one round trip on average. Measured on eventloop-black,
// quantum 256 keeps total-cycle divergence under 1% where 512 already
// costs ~15%, at equal wall-clock speed.
const DefaultQuantum = 256

// parSentinel marks an MSHR entry whose fill is deferred to the current
// epoch's barrier; the value encodes parSentinel + the index of the
// deferred request in the owning SM's parSM.reqs. Real completion cycles
// are always far below it, so the issue path distinguishes "outstanding,
// completion unknown" from "outstanding, completion known" with one
// compare. Every sentinel is overwritten with the real completion cycle at
// the barrier, so sentinels never survive an epoch.
const parSentinel = int64(1) << 60

// parReq is one L1 miss deferred to the epoch barrier.
type parReq struct {
	arrive  int64  // request arrival cycle (issue cycle + divergence offset)
	done    int64  // completion cycle, filled in at the barrier
	addr    uint64 // request address
	wb      uint64 // dirty line evicted by the L1 fill (0 = none)
	pend    int32  // index into the owning SM's parSM.pends
	isStore bool
}

// parWaiter records a same-epoch access to a line with a deferred fill in
// flight: it resolves as an MSHR merge when the fill's completion becomes
// known at the barrier. Both indices are into the owning SM's parSM.
type parWaiter struct{ req, pend int32 }

// parPending is a memory instruction waiting on at least one deferred
// request; its warp wakes at the barrier once every request has resolved.
type parPending struct {
	ref       warpRef
	done      int64 // max known completion across the instruction's requests
	remaining int32 // unresolved deferred requests/waiters
}

// parRetire is a thread block that finished during an epoch; global
// retirement (unit close, redispatch) is deferred to the barrier.
type parRetire struct {
	cycle int64 // retire cycle (finish cycle + 1, as in retireTB)
	slot  int32
	sm    int32
	tbID  int
}

// parSM is the per-SM epoch-local record set. It is written only by the
// owning shard's worker during an epoch and only by the barrier goroutine
// between epochs. Keeping these per SM (not per shard) is what makes the
// barrier's processing order — ascending SM id, creation order within an
// SM — independent of how SMs are sharded across workers.
type parSM struct {
	reqs    []parReq
	waiters []parWaiter
	pends   []parPending
	retires []parRetire
	wheel   parWheel
}

func (p *parSM) reset() {
	p.reqs = p.reqs[:0]
	p.waiters = p.waiters[:0]
	p.pends = p.pends[:0]
	p.retires = p.retires[:0]
	p.wheel.reset()
}

// parWheelSize is the span (cycles) of the per-SM warp-wake timing wheel
// used by the parallel event loop. Warp wakes are overwhelmingly short
// (pipeline latencies); the few that land further out (heavily queued DRAM
// completions delivered at a barrier) overflow to a binary heap. Must be a
// power of two. The value only moves work between the wheel and the
// overflow heap and never affects simulation results.
const (
	parWheelSize = 1024
	parWheelMask = parWheelSize - 1
)

// parWheel is the parallel engine's replacement for smState.wakes: a
// cycle-indexed ring of warp lists with O(1) push and pop. The serial loop
// cannot use it because goldens pin the serial heap's equal-cycle pop
// order; the parallel mode defines its own deterministic order — FIFO
// within a bucket — which is worker-count invariant because each wheel is
// owned by exactly one SM and fed in that SM's deterministic issue order
// (plus the barrier's deterministic wake order between epochs).
//
// Invariant: every bucketed entry's wake cycle lies in (pos, pos +
// parWheelSize), so a bucket index maps to exactly one cycle and entries
// need not carry their cycle. Pushes further out than the span go to the
// overflow heap, which pops directly when due.
//
// pos is the window anchor and is moved ONLY at sharding-invariant points
// — the epoch start before workers launch, the epoch end at the barrier —
// never by drainTo. A shard's drain progression depends on the other SMs
// it happens to share a worker with; anchoring the wheel-vs-overflow
// decision (and the barrier's wake-vs-ready decision) to it would leak the
// sharding into results and break worker-count invariance. The invariant
// holds at both anchors: intra-epoch pushes land in (start, start +
// span), every entry still bucketed when an epoch ends is >= end (the
// epoch loop drained everything earlier), and barrier pushes land in
// (end, end + span).
type parWheel struct {
	buckets  [][]warpRef // parWheelSize rings, allocated on first push
	sum      [parWheelSize / 64]uint64
	pos      int64 // window anchor: epoch start, or epoch end during a barrier
	next     int64 // exact min bucketed wake cycle, 0 = wheel empty
	count    int   // bucketed entries
	overflow wakeHeap
}

func (pw *parWheel) reset() {
	if pw.count > 0 {
		for w, bits64 := range pw.sum {
			for bits64 != 0 {
				b := bits64 & (-bits64)
				bits64 &^= b
				slot := w<<6 + bits.TrailingZeros64(b)
				pw.buckets[slot] = pw.buckets[slot][:0]
			}
			pw.sum[w] = 0
		}
	}
	pw.pos = 0
	pw.next = 0
	pw.count = 0
	pw.overflow = pw.overflow[:0]
}

// push records that ref wakes at cycle at, which must be > pw.pos.
func (pw *parWheel) push(ref warpRef, at int64) {
	if at-pw.pos < parWheelSize {
		if pw.buckets == nil {
			pw.buckets = make([][]warpRef, parWheelSize)
		}
		slot := at & parWheelMask
		pw.buckets[slot] = append(pw.buckets[slot], ref)
		pw.sum[slot>>6] |= 1 << (uint(slot) & 63)
		pw.count++
		if pw.next == 0 || at < pw.next {
			pw.next = at
		}
		return
	}
	pw.overflow.push(wakeEntry{cycle: at, ref: ref})
}

// peekNext returns the earliest recorded wake cycle, or 0 when empty.
func (pw *parWheel) peekNext() int64 {
	next := pw.next
	if c, ok := pw.overflow.peek(); ok && (next == 0 || c < next) {
		next = c
	}
	return next
}

// drainTo pushes every entry due by cycle onto sm's ready queue — bucketed
// entries first (ascending cycle, FIFO within a cycle), then overflow —
// and advances the drain high-water mark. A call with nothing due is two
// compares.
func (pw *parWheel) drainTo(sm *smState, cycle int64) {
	for pw.next != 0 && pw.next <= cycle {
		slot := pw.next & parWheelMask
		b := pw.buckets[slot]
		for _, ref := range b {
			sm.pushReady(ref)
		}
		pw.count -= len(b)
		pw.buckets[slot] = b[:0]
		pw.sum[slot>>6] &^= 1 << (uint(slot) & 63)
		if pw.count == 0 {
			pw.next = 0
		} else {
			pw.next = pw.scanFrom(pw.next + 1)
		}
	}
	for {
		ref, ok := pw.overflow.popDue(cycle)
		if !ok {
			return
		}
		sm.pushReady(ref)
	}
}

// scanFrom returns the cycle of the first non-empty bucket at or after
// cycle from. The caller guarantees the wheel is non-empty, so by the span
// invariant the answer lies in [from, from+parWheelSize).
func (pw *parWheel) scanFrom(from int64) int64 {
	nw := len(pw.sum)
	startSlot := int(from) & parWheelMask
	wi := startSlot >> 6
	w := pw.sum[wi] &^ (1<<(uint(startSlot)&63) - 1)
	for k := 0; k <= nw; k++ {
		if w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			d := int64(s - startSlot)
			if d < 0 {
				d += parWheelSize
			}
			return from + d
		}
		wi++
		if wi == nw {
			wi = 0
		}
		w = pw.sum[wi]
	}
	panic("gpusim: parallel wake wheel lost an entry")
}

// parShard is one worker's slice of the GPU plus its private scratch.
type parShard struct {
	rs     *runState
	lo, hi int // SM id range [lo, hi)

	issued int64       // warp instructions issued this epoch
	merges int64       // MSHR merges observed this epoch
	bbv    []int64     // epoch-local BBV accumulator
	mct    runCounters // epoch-local metrics scratch

	panicV     any // recovered panic, re-raised by the barrier goroutine
	panicStack []byte

	addrs [trace.MaxRequests]uint64

	// pad keeps concurrently-written shards off each other's cache lines.
	_ [48]byte
}

// parReqRef addresses one deferred request for the barrier's global sort.
type parReqRef struct {
	arrive  int64
	sm, idx int32
}

// parEpoch is one unit of work handed to a worker: simulate [start, end).
type parEpoch struct{ start, end int64 }

// parState is the recycled state of the parallel engine (runState.par).
type parState struct {
	shards  []parShard
	sms     []parSM
	reqRefs []parReqRef
	retires []parRetire
	// maxRetire tracks the last retirement cycle; it becomes the launch's
	// Cycles (the serial loop's exit cycle is likewise the final retire
	// cycle).
	maxRetire int64
}

// runParallel is the epoch-synchronized counterpart of run(). The caller
// guarantees opts.Workers > 1 and NumSMs > 1.
func (rs *runState) runParallel() {
	nsm := len(rs.sms)
	workers := rs.opts.Workers
	if workers > nsm {
		workers = nsm
	}
	quantum := rs.opts.Quantum
	if quantum < 1 {
		quantum = DefaultQuantum
	}

	p := rs.par
	if p == nil {
		p = &parState{}
		rs.par = p
	}
	if cap(p.sms) < nsm {
		p.sms = make([]parSM, nsm)
	}
	p.sms = p.sms[:nsm]
	for i := range p.sms {
		p.sms[i].reset()
	}
	if cap(p.shards) < workers {
		p.shards = make([]parShard, workers)
	}
	p.shards = p.shards[:workers]
	for i := range p.shards {
		sh := &p.shards[i]
		sh.rs = rs
		sh.lo = i * nsm / workers
		sh.hi = (i + 1) * nsm / workers
		sh.issued, sh.merges = 0, 0
		sh.mct = runCounters{}
		sh.bbv = sh.bbv[:0]
		sh.panicV, sh.panicStack = nil, nil
	}
	p.maxRetire = 0
	rs.parRun = true

	rs.checkAbort()
	if !rs.aborted {
		// Initial greedy fill, exactly as the serial loop does it.
		for round := 0; round < rs.occ; round++ {
			for i := range rs.sms {
				if sm := &rs.sms[i]; sm.resident < rs.occ {
					rs.dispatchOne(sm)
				}
			}
		}
	}

	// Persistent worker pool: one goroutine per extra shard, fed epochs
	// over a channel; shard 0 runs on the calling goroutine. A worker
	// panic is captured per shard and re-raised deterministically (lowest
	// shard first) after the epoch joins, so the pool always shuts down
	// cleanly — the chaos tests rely on this.
	var wg sync.WaitGroup
	cmds := make([]chan parEpoch, workers-1)
	for i := range cmds {
		cmds[i] = make(chan parEpoch, 1)
		go func(sh *parShard, c <-chan parEpoch) {
			for e := range c {
				sh.runEpoch(e.start, e.end)
				wg.Done()
			}
		}(&p.shards[i+1], cmds[i])
	}
	defer func() {
		for _, c := range cmds {
			close(c)
		}
	}()

	start := int64(0)
	for rs.liveTBs > 0 && !rs.aborted {
		end := start + quantum
		for i := range p.sms {
			p.sms[i].wheel.pos = start
		}
		wg.Add(len(cmds))
		for _, c := range cmds {
			c <- parEpoch{start, end}
		}
		p.shards[0].runEpoch(start, end)
		wg.Wait()
		for i := range p.shards {
			if v := p.shards[i].panicV; v != nil {
				panic(fmt.Sprintf("gpusim: parallel shard %d panicked: %v\n%s",
					i, v, p.shards[i].panicStack))
			}
		}
		rs.mct.epochs++
		rs.cycle = end
		rs.barrier(end)

		// Next epoch starts at the barrier cycle, or jumps forward when
		// every SM is idle beyond it (the serial loop's time jump).
		start = end
		if rs.liveTBs > 0 && !rs.aborted {
			next := int64(-1)
			idle := true
			for i := range rs.sms {
				if rs.sms[i].hasReady() {
					idle = false
					break
				}
				if c := p.sms[i].wheel.peekNext(); c != 0 && (next == -1 || c < next) {
					next = c
				}
			}
			if idle {
				if next == -1 {
					panic(fmt.Sprintf("gpusim: parallel deadlock with %d live thread blocks at cycle %d",
						rs.liveTBs, rs.cycle))
				}
				if next > end {
					rs.mct.timeJumps++
					rs.mct.jumpedCycles += next - end
					start = next
				}
			}
		}
	}

	if !rs.aborted && p.maxRetire > 0 {
		rs.cycle = p.maxRetire
	}
	rs.finishRun()
}

// runEpoch advances the shard's SMs through [start, end). Within a cycle
// SMs issue in ascending id, like the serial loop; when no SM in the shard
// has work at the current cycle, time skips to the shard's next wake.
func (sh *parShard) runEpoch(start, end int64) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicV = r
			sh.panicStack = debug.Stack()
		}
	}()
	rs := sh.rs
	cycle := start
	for cycle < end {
		next := int64(-1)
		for i := sh.lo; i < sh.hi; i++ {
			sm := &rs.sms[i]
			pw := &rs.par.sms[i].wheel
			pw.drainTo(sm, cycle)
			if !sm.hasReady() {
				if c := pw.peekNext(); c != 0 && (next == -1 || c < next) {
					next = c
				}
				continue
			}
			sh.mct.smVisits++
			ref, _ := sm.popReady()
			sh.issue(sm, ref, cycle)
			if sm.hasReady() {
				next = cycle + 1
			} else if c := pw.peekNext(); c != 0 && (next == -1 || c < next) {
				next = c
			}
		}
		if next == -1 {
			return // shard idle until the barrier
		}
		if next <= cycle {
			next = cycle + 1
		}
		if next > cycle+1 {
			sh.mct.timeJumps++
			sh.mct.jumpedCycles += next - cycle - 1
		}
		cycle = next
	}
}

// wake is the shard-local rs.wake: warps woken during an epoch always
// belong to the issuing SM, so the target wheel is worker-owned. The
// caller has already drained the SM's wheel to cycle, so at > cycle
// implies at is past the wheel's drain mark.
func (sh *parShard) wake(sm *smState, ref warpRef, cycle, at int64) {
	if at <= cycle {
		sm.pushReady(ref)
		return
	}
	sh.mct.wakePushes++
	sh.rs.par.sms[sm.id].wheel.push(ref, at)
}

// issue is the shard-local issue(): identical instruction semantics, with
// global side effects (memory misses, retirement, sampling units) deferred
// to the barrier.
func (sh *parShard) issue(sm *smState, ref warpRef, cycle int64) {
	rs := sh.rs
	tb := &rs.tbs[ref.slot]
	ev, ok := tb.warps[ref.w].stream.Next(sh.addrs[:])
	if !ok {
		sh.finishWarp(tb, ref.w, cycle)
		return
	}
	sm.warpInsts++
	sm.lastCycle = cycle + 1
	sh.issued++

	if rs.opts.FixedUnitInsts > 0 {
		for int(ev.Block) >= len(sh.bbv) {
			sh.bbv = append(sh.bbv, 0)
		}
		sh.bbv[ev.Block]++
	}

	switch ev.Op {
	case isa.OpEXIT:
		sh.mct.issueExit++
		sh.finishWarp(tb, ref.w, cycle)
	case isa.OpBAR:
		sh.mct.issueBar++
		tb.barArrived++
		if tb.barArrived >= tb.live {
			sh.releaseBarrier(tb, cycle)
			sh.wake(sm, ref, cycle, cycle+int64(rs.sim.cfg.Lat.BAR))
		} else {
			tb.barWaiting = append(tb.barWaiting, ref.w)
		}
	case isa.OpLDG, isa.OpSTG:
		sh.mct.issueMem++
		sh.issueMem(sm, ref, cycle, ev)
	default:
		sh.mct.issueALU++
		sh.wake(sm, ref, cycle, cycle+rs.latTab[ev.Op])
	}
}

// issueMem performs one memory instruction against worker-owned state: the
// SM's L1 and MSHR table are consulted (and the L1 allocates on miss)
// exactly as in serial mode, but misses are deferred as parReq records and
// serviced against the shared L2/DRAM at the barrier.
func (sh *parShard) issueMem(sm *smState, ref warpRef, cycle int64, ev trace.Event) {
	rs := sh.rs
	m := rs.mem
	psm := &rs.par.sms[sm.id]
	l1 := &m.l1[sm.id]
	t := &m.mshrs[sm.id]
	isStore := ev.Op == isa.OpSTG
	done := cycle + 1
	pend := int32(-1)
	for i := 0; i < int(ev.NumReq); i++ {
		addr := sh.addrs[i]
		arrive := cycle + int64(i)
		var line uint64
		if l1.lineShift >= 0 {
			line = addr >> l1.lineShift
		} else {
			line = addr / l1.lineB
		}
		v := t.get(line)
		if v >= parSentinel {
			// Outstanding miss deferred to this epoch's barrier:
			// merge, completion known once the fill is serviced.
			sh.merges++
			if pend < 0 {
				pend = int32(len(psm.pends))
				psm.pends = append(psm.pends, parPending{ref: ref})
			}
			psm.waiters = append(psm.waiters, parWaiter{req: int32(v - parSentinel), pend: pend})
			psm.pends[pend].remaining++
			continue
		}
		if v > arrive {
			// Outstanding fill with a known completion (issued in an
			// earlier epoch): classic MSHR merge.
			sh.merges++
			if v > done {
				done = v
			}
			continue
		}
		hit, wb := l1.access(addr, arrive, isStore)
		if hit {
			if c := arrive + int64(m.cfg.L1.HitLat); c > done {
				done = c
			}
			continue
		}
		// L1 miss: the line is allocated now (as in serial mode); the
		// L2/DRAM round trip — and the evicted dirty line's writeback —
		// are deferred to the barrier.
		sh.mct.deferredReqs++
		if pend < 0 {
			pend = int32(len(psm.pends))
			psm.pends = append(psm.pends, parPending{ref: ref})
		}
		req := int32(len(psm.reqs))
		psm.reqs = append(psm.reqs, parReq{arrive: arrive, addr: addr, wb: wb, pend: pend, isStore: isStore})
		psm.pends[pend].remaining++
		t.put(line, parSentinel+int64(req))
	}
	if pend < 0 {
		sh.wake(sm, ref, cycle, done)
		return
	}
	if p := &psm.pends[pend]; done > p.done {
		p.done = done
	}
}

func (sh *parShard) releaseBarrier(tb *tbState, cycle int64) {
	rs := sh.rs
	sm := &rs.sms[tb.sm]
	lat := int64(rs.sim.cfg.Lat.BAR)
	for _, wi := range tb.barWaiting {
		sh.wake(sm, warpRef{slot: tb.slot, w: wi}, cycle, cycle+lat)
	}
	tb.barWaiting = tb.barWaiting[:0]
	tb.barArrived = 0
}

func (sh *parShard) finishWarp(tb *tbState, wi int32, cycle int64) {
	w := &tb.warps[wi]
	if w.done {
		return
	}
	w.done = true
	tb.live--
	if tb.live == 0 {
		// Global retirement (liveTBs, unit close, redispatch) happens at the
		// barrier; recording it here keeps the epoch loop worker-pure.
		psm := &sh.rs.par.sms[tb.sm]
		psm.retires = append(psm.retires, parRetire{cycle: cycle + 1, slot: tb.slot, sm: int32(tb.sm), tbID: tb.id})
	}
}

// barrier is the single-threaded end-of-epoch exchange: merge shard
// scratch, service deferred memory traffic in a deterministic global
// order, wake the waiting warps, process retirements and dispatch
// replacements, close sampling units, and poll cancellation. rs.cycle is
// end on entry and on return (retirement processing rewinds it temporarily
// so dispatchOne sees the retire cycle, as the serial loop would).
func (rs *runState) barrier(end int64) {
	p := rs.par
	m := rs.mem

	// Re-anchor every wake wheel at the epoch end: all surviving entries
	// are >= end, and the barrier's own wakes land relative to end. This
	// keeps the wheel-vs-ready and wheel-vs-overflow decisions independent
	// of how far each shard happened to drain.
	for i := range p.sms {
		p.sms[i].wheel.pos = end
	}

	// 1. Fold per-shard scratch into run-global state. All of these are
	// order-independent sums, so the merge is worker-count invariant.
	for i := range p.shards {
		sh := &p.shards[i]
		rs.totalIssued += sh.issued
		sh.issued = 0
		m.MSHRMerges += sh.merges
		sh.merges = 0
		rs.mct.addFrom(&sh.mct)
		sh.mct = runCounters{}
		if len(sh.bbv) > 0 {
			for len(sh.bbv) > len(rs.bbv) {
				rs.bbv = append(rs.bbv, 0)
			}
			for b, n := range sh.bbv {
				rs.bbv[b] += n
				sh.bbv[b] = 0
			}
			sh.bbv = sh.bbv[:0]
		}
	}

	// 2. Service deferred L1 misses against the L2/DRAM in globally sorted
	// (arrive, sm, index) order — a total order independent of sharding.
	refs := p.reqRefs[:0]
	for smi := range p.sms {
		for ri := range p.sms[smi].reqs {
			refs = append(refs, parReqRef{arrive: p.sms[smi].reqs[ri].arrive, sm: int32(smi), idx: int32(ri)})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if a.sm != b.sm {
			return a.sm < b.sm
		}
		return a.idx < b.idx
	})
	p.reqRefs = refs
	l2Lat := int64(m.cfg.L2.HitLat)
	rtLat := int64(m.cfg.L1.HitLat + m.cfg.L2.HitLat)
	for _, r := range refs {
		req := &p.sms[r.sm].reqs[r.idx]
		if req.wb != 0 {
			m.writeback(int(r.sm), req.wb, req.arrive)
		}
		hit2, wb2 := m.l2.access(req.addr, req.arrive, req.isStore)
		if wb2 != 0 {
			m.dram.access(wb2, req.arrive+l2Lat)
		}
		if hit2 {
			req.done = req.arrive + rtLat
		} else {
			req.done = m.dram.access(req.addr, req.arrive+l2Lat)
		}
		t := &m.mshrs[r.sm]
		l1 := &m.l1[r.sm]
		var line uint64
		if l1.lineShift >= 0 {
			line = req.addr >> l1.lineShift
		} else {
			line = req.addr / l1.lineB
		}
		t.put(line, req.done) // overwrites the epoch's sentinel
		// Requests of the next epoch arrive from end on, and req.arrive
		// can be up to 31 cycles past it: prune no later than end.
		m.pruneMSHRs(int(r.sm), min(req.arrive, end))
	}

	// 3. Resolve waiters against their fills, then wake every pending
	// instruction: SMs ascending, creation order within an SM. Wakes whose
	// completion fell inside the epoch land in the past and pop at the
	// next epoch's first drain — this clamp is the mode's divergence.
	for smi := range p.sms {
		psm := &p.sms[smi]
		for _, wt := range psm.waiters {
			pd := &psm.pends[wt.pend]
			if d := psm.reqs[wt.req].done; d > pd.done {
				pd.done = d
			}
			pd.remaining--
		}
		for ri := range psm.reqs {
			pd := &psm.pends[psm.reqs[ri].pend]
			if d := psm.reqs[ri].done; d > pd.done {
				pd.done = d
			}
			pd.remaining--
		}
		for i := range psm.pends {
			pd := &psm.pends[i]
			if pd.remaining != 0 {
				panic(fmt.Sprintf("gpusim: parallel barrier left %d unresolved requests on SM %d", pd.remaining, smi))
			}
			rs.wake(&rs.sms[smi], pd.ref, pd.done)
		}
		psm.reqs = psm.reqs[:0]
		psm.waiters = psm.waiters[:0]
		psm.pends = psm.pends[:0]
	}

	// 4. Retirements in (cycle, sm) order — at most one issue per SM per
	// cycle makes the key unique, so the order is total and
	// shard-independent. dispatchOne runs with rs.cycle rewound to the
	// retire cycle so dispatch stagger matches the serial path's view.
	rets := p.retires[:0]
	for smi := range p.sms {
		psm := &p.sms[smi]
		for _, r := range psm.retires {
			rets = append(rets, r)
		}
	}
	sort.Slice(rets, func(i, j int) bool {
		a, b := rets[i], rets[j]
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		return a.sm < b.sm
	})
	p.retires = rets
	for _, r := range rets {
		sm := &rs.sms[r.sm]
		sm.resident--
		rs.liveTBs--
		rs.res.SimulatedTBs++
		if rs.specified == r.slot {
			rs.closeUnit(r.cycle, r.tbID)
		}
		rs.free = append(rs.free, r.slot)
		if r.cycle > p.maxRetire {
			p.maxRetire = r.cycle
		}
		if !rs.aborted {
			rs.cycle = r.cycle
			rs.dispatchOne(sm)
		}
	}
	for smi := range p.sms {
		p.sms[smi].retires = p.sms[smi].retires[:0]
	}
	rs.cycle = end

	// 5. Fixed-size sampling units close at barriers (epoch-quantized).
	if rs.opts.FixedUnitInsts > 0 && rs.totalIssued-rs.fixedStartInsts >= rs.opts.FixedUnitInsts {
		rs.closeFixedUnit()
	}
	rs.checkAbort()
}
