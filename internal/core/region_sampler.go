package core

import (
	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
)

// samplerState is the homogeneous-region sampling state machine (§IV-B2).
type samplerState int

const (
	stateOutside samplerState = iota
	stateWarming
	stateFastForward
)

// warmTol is the warming-period IPC stability tolerance: a region's warming
// ends once consecutive units agree within 10 % (§IV-B2).
const warmTol = 0.10

// LaunchSample is the outcome of simulating one launch under homogeneous
// region sampling.
type LaunchSample struct {
	// Result is the raw simulation result of the non-skipped portion.
	Result *gpusim.LaunchResult
	// TotalInsts is the launch's full warp-instruction count (from the
	// profile), including skipped blocks.
	TotalInsts int64
	// SimulatedInsts is what actually ran.
	SimulatedInsts int64
	// SkippedInsts is TotalInsts - SimulatedInsts.
	SkippedInsts int64
	// PredictedCycles is the predicted full-launch duration: simulated
	// cycles plus each fast-forwarded region's skipped instructions divided
	// by the region's sampled IPC (Table IV).
	PredictedCycles float64
	// RegionIPC maps region ID -> IPC recorded at the end of the region's
	// warming period (only regions that reached fast-forwarding appear).
	RegionIPC map[int]float64
	// SkippedByRegion maps region ID -> skipped warp instructions.
	SkippedByRegion map[int]int64
	// WarmUnits counts sampling units spent warming (diagnostics for the
	// Fig. 13 discussion of long warming periods).
	WarmUnits int
}

// PredictedIPC returns the launch's predicted whole-GPU IPC.
func (ls *LaunchSample) PredictedIPC() float64 {
	if ls.PredictedCycles <= 0 {
		return 0
	}
	return float64(ls.TotalInsts) / ls.PredictedCycles
}

// regionSampler implements the entering / warming / fast-forwarding /
// exiting protocol over a simulation's recorded log (observe) and answers
// the one question the simulator asks (skipTB). Per-region state is dense,
// indexed by region ID: IDs are cluster IDs, below twice the epoch count.
type regionSampler struct {
	rt      *RegionTable
	profile *funcsim.LaunchProfile
	stable  int // consecutive stable comparisons required
	window  int // trend-check distance (0 = disabled)
	// windowRegion marks the regions large enough for the trend check
	// (>= WarmWindowMinRegion occupancy generations).
	windowRegion []bool

	state   samplerState
	current int // region being sampled
	// residentIn counts the live thread blocks of each region, at index
	// regionOf+1 (slot 0: blocks with no region). residentRegions is the
	// number of non-zero slots and residentSlotSum the sum of their indices,
	// so when exactly one region is resident the sum is its slot.
	residentIn      []int
	residentRegions int
	residentSlotSum int
	prevIPC         float64
	havePrev        bool
	stableCount     int
	history         []float64 // unit IPCs since entering the region

	warmed    []bool    // region reached fast-forwarding
	regionIPC []float64 // IPC at the end of the warming period, where warmed
	skipped   []int64   // fast-forwarded warp instructions
	warmUnits int

	// Read position in the observed log: TBOrder entries and Units consumed,
	// and the block whose retirement closes the next unit (-1 until the
	// first dispatch after a unit closed).
	seen, unit, specified int
}

func newRegionSampler(rt *RegionTable, lp *funcsim.LaunchProfile, opts Options) *regionSampler {
	var blocksIn []int // thread blocks per region ID
	for _, r := range rt.RegionOf {
		for r >= len(blocksIn) {
			blocksIn = append(blocksIn, 0)
		}
		if r >= 0 {
			blocksIn[r]++
		}
	}
	n := len(blocksIn)
	s := &regionSampler{
		rt:           rt,
		profile:      lp,
		stable:       max(opts.WarmStable, 1),
		window:       opts.WarmWindow,
		windowRegion: make([]bool, n),
		current:      -1,
		residentIn:   make([]int, n+1),
		warmed:       make([]bool, n),
		regionIPC:    make([]float64, n),
		skipped:      make([]int64, n),
		specified:    -1,
	}
	minBlocks := opts.WarmWindowMinRegion * max(rt.Occupancy, 1)
	for r, c := range blocksIn {
		s.windowRegion[r] = opts.WarmWindowMinRegion <= 0 || c >= minBlocks
	}
	return s
}

// regionOf is tb's region ID, or -1 when it has none (unknown block or
// negative ID).
func (s *regionSampler) regionOf(tb int) int {
	if tb < 0 || tb >= len(s.rt.RegionOf) || s.rt.RegionOf[tb] < 0 {
		return -1
	}
	return s.rt.RegionOf[tb]
}

// skipTB is the fast-forwarding decision: skip only while fast-forwarding
// and only blocks of the current region, whose instructions it books as
// skipped.
func (s *regionSampler) skipTB(tb int) bool {
	if s.state != stateFastForward {
		return false
	}
	if s.regionOf(tb) != s.current {
		// A block from a different region exits the region (§IV-B2
		// "Exiting"); it will be dispatched and simulated normally.
		s.exitRegion()
		return false
	}
	s.skipped[s.current] += s.profile.Block(tb).WarpInsts
	return true
}

func (s *regionSampler) onDispatch(tb int) {
	slot := s.regionOf(tb) + 1
	if s.residentIn[slot] == 0 {
		s.residentRegions++
		s.residentSlotSum += slot
	}
	s.residentIn[slot]++
	switch s.state {
	case stateOutside:
		s.maybeEnter()
	case stateWarming, stateFastForward:
		if slot-1 != s.current {
			s.exitRegion()
			s.maybeEnter()
		}
	}
}

func (s *regionSampler) onRetire(tb int) {
	slot := s.regionOf(tb) + 1
	s.residentIn[slot]--
	if s.residentIn[slot] == 0 {
		s.residentRegions--
		s.residentSlotSum -= slot
	}
	if s.state == stateOutside {
		s.maybeEnter()
		return
	}
	// Idle gap while warming: the last resident block just retired, so any
	// warming evidence (pairwise IPC, stability streak, trend history) was
	// measured before a dispatch gap and must not let units after the gap
	// satisfy the stability check against pre-gap cache state. Drop the
	// evidence but keep the state — a retirement is logged before the
	// replacement dispatch, so this window is often transient, and the unit
	// closing at this retirement must still count as a warming unit.
	if s.state == stateWarming && s.residentRegions == 0 {
		s.havePrev = false
		s.stableCount = 0
		s.history = s.history[:0]
	}
}

// maybeEnter checks the entering condition: all concurrently running
// thread blocks belong to the same homogeneous region.
func (s *regionSampler) maybeEnter() {
	if s.residentRegions != 1 {
		return
	}
	r := s.residentSlotSum - 1
	if r < 0 {
		return
	}
	s.current = r
	if s.warmed[r] {
		// The cluster's IPC was sampled in an earlier run of this region
		// ID; fast-forward immediately (the paper reuses cluster IDs as
		// region IDs for exactly this amortisation).
		s.state = stateFastForward
		return
	}
	s.state = stateWarming
	s.havePrev = false
	s.stableCount = 0
	s.history = s.history[:0]
}

func (s *regionSampler) exitRegion() {
	s.state = stateOutside
	s.current = -1
	s.havePrev = false
	s.stableCount = 0
	s.history = s.history[:0]
}

// onUnitClose drives the warming period: when two consecutive sampling
// units inside the region agree within the tolerance, the cache state is
// considered stable and fast-forwarding begins, predicting the region's
// IPC as the last warming unit's IPC.
func (s *regionSampler) onUnitClose(u gpusim.UnitStats) {
	if s.state != stateWarming {
		return
	}
	// Only units whose specified block belongs to the current region count
	// as warming units for it.
	if s.regionOf(u.SpecifiedTB) != s.current {
		return
	}
	ipc := u.IPC()
	s.warmUnits++
	s.history = append(s.history, ipc)
	if s.havePrev && s.prevIPC > 0 {
		diff := ipc - s.prevIPC
		if diff < 0 {
			diff = -diff
		}
		if diff/s.prevIPC < warmTol {
			s.stableCount++
			if s.stableCount >= s.stable && s.trendStable(ipc) {
				s.state = stateFastForward
				s.warmed[s.current] = true
				s.regionIPC[s.current] = ipc
				return
			}
		} else {
			s.stableCount = 0
		}
	}
	s.prevIPC = ipc
	s.havePrev = true
}

// trendStable applies the WarmWindow drift check: the current unit must be
// within warmTol/4 of the unit `window` positions earlier. With the window
// disabled — globally or for this (short) region — it is always satisfied.
func (s *regionSampler) trendStable(ipc float64) bool {
	if s.window <= 0 || !s.windowRegion[s.current] {
		return true
	}
	n := len(s.history)
	if n <= s.window {
		return false // not enough history inside this region yet
	}
	ref := s.history[n-1-s.window]
	if ref <= 0 {
		return false
	}
	diff := ipc - ref
	if diff < 0 {
		diff = -diff
	}
	return diff/ref < warmTol/4
}

// observe feeds the sampler the events of res's log it has not seen, up to
// TBOrder[upTo]: onDispatch for a dispatch entry; onRetire for a
// retirement, then onUnitClose with the next of res.Units when the retired
// block is that unit's specified one (the first dispatched since the
// previous unit closed). It reports false when a unit does not close where
// the order says, which a log the engine recorded never does.
func (s *regionSampler) observe(res *gpusim.LaunchResult, upTo int) bool {
	for ; s.seen < upTo; s.seen++ {
		e := res.TBOrder[s.seen]
		if e >= 0 {
			s.onDispatch(int(e))
			if s.specified < 0 {
				s.specified = int(e)
			}
			continue
		}
		tb := int(^e)
		s.onRetire(tb)
		if tb == s.specified {
			if s.unit == len(res.Units) || res.Units[s.unit].SpecifiedTB != tb {
				return false
			}
			s.onUnitClose(res.Units[s.unit])
			s.unit++
			s.specified = -1
		}
	}
	return true
}

// skipLive is the simulator's SkipTB: catch up on the log, then decide.
func (s *regionSampler) skipLive(tb int, sofar *gpusim.LaunchResult) bool {
	s.observe(sofar, len(sofar.TBOrder))
	return s.skipTB(tb)
}

// replayReference feeds a fresh sampler from ref — a complete,
// nothing-skipped serial simulation of the same launch on the same
// simulator — exactly as a simulation would: before each dispatch entry of
// ref.TBOrder it observes the log up to that entry and asks skipTB, and at
// the end it observes the rest. The sampler's decisions cannot change a run
// until skipTB first returns true, so a sampler that never asks to skip ends
// in the state a simulation would have left it in, and that simulation's
// result is ref. It returns nil — simulate — at the first skip, and for a
// ref it cannot vouch for: none, no recorded order (a decoded or
// parallel-engine result), aborted, blocks skipped, a block count other than
// the profile's, an order that is not every block dispatched ascending and
// retired once, or units that do not close where the order says.
func replayReference(rt *RegionTable, lp *funcsim.LaunchProfile, ref *gpusim.LaunchResult, opts Options) *regionSampler {
	n := lp.NumBlocks()
	if ref == nil || ref.Aborted || ref.SkippedTBs != 0 || ref.SimulatedTBs != n || len(ref.TBOrder) != 2*n {
		return nil
	}
	rs := newRegionSampler(rt, lp, opts)
	retired := make([]bool, n)
	next := 0
	for i, e := range ref.TBOrder {
		if e >= 0 {
			if int(e) != next || next >= n || !rs.observe(ref, i) || rs.skipTB(next) {
				return nil
			}
			next++
			continue
		}
		tb := int(^e)
		if tb >= next || retired[tb] {
			return nil
		}
		retired[tb] = true
	}
	if !rs.observe(ref, len(ref.TBOrder)) || rs.unit != len(ref.Units) {
		return nil
	}
	return rs
}

// SampleLaunch simulates launch l with homogeneous region sampling using
// the given region table, returning the sampled result and prediction.
// The region table's occupancy should equal the simulator configuration's
// system occupancy for the launch's kernel (Retarget handles this).
//
// ref, when non-nil, is the full simulation of l on sim (read-only). If
// region sampling fast-forwards nothing on this launch, the sampled
// simulation would repeat ref instruction for instruction, so the sample is
// assembled from ref instead (see replayReference) and its Result is ref
// itself — which is how a caller tells. Every field equals what simulating
// returns, except that Result carries ref's FixedUnits.
func SampleLaunch(sim *gpusim.Simulator, l *kernel.Launch, lp *funcsim.LaunchProfile,
	rt *RegionTable, ref *gpusim.LaunchResult, opts Options) *LaunchSample {

	rs, res := replayReference(rt, lp, ref, opts), ref
	if rs == nil {
		rs = newRegionSampler(rt, lp, opts)
		res = sim.RunLaunch(l, gpusim.RunOptions{SkipTB: rs.skipLive, Metrics: opts.Metrics, Ctx: opts.Ctx})
		rs.observe(res, len(res.TBOrder))
	}

	ls := &LaunchSample{
		Result:          res,
		TotalInsts:      lp.TotalWarpInsts(),
		SimulatedInsts:  res.SimulatedWarpInsts,
		RegionIPC:       map[int]float64{},
		SkippedByRegion: map[int]int64{},
		WarmUnits:       rs.warmUnits,
	}
	ls.SkippedInsts = ls.TotalInsts - ls.SimulatedInsts

	// Table IV: predicted launch cycles = simulated cycles plus the
	// fast-forwarded instructions at each region's sampled IPC, summed in
	// ascending region ID (float addition is order dependent). A block is
	// skipped only while fast-forwarding, which only a warmed region with a
	// positive IPC enters.
	pred := float64(res.Cycles)
	for r, skipped := range rs.skipped {
		if rs.warmed[r] {
			ls.RegionIPC[r] = rs.regionIPC[r]
		}
		if skipped == 0 {
			continue
		}
		ls.SkippedByRegion[r] = skipped
		pred += float64(skipped) / rs.regionIPC[r]
	}
	ls.PredictedCycles = pred
	return ls
}
