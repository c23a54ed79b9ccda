// Package sampling provides the vocabulary every sampling technique in the
// evaluation shares: the full run (AppRun), the Estimate with the metric
// definitions of Fig. 9 and Fig. 10, Eq. 1's per-phase prediction over fixed
// units (PhaseEstimate) and the Fig. 10/11 accounting (Account). The unit
// selections priced under it live with their strategies: Random and
// Systematic in internal/sampler, Ideal-Simpoint in internal/simpoint.
//
// All techniques predict the application's total simulated cycles from a
// subset of the work; reporting then derives IPC and error. We use the
// whole-GPU IPC (instructions per elapsed cycle summed over the
// application's launches) as the prediction target: with the paper's per-SM
// formulation the two differ only by SM load imbalance, and the relative
// error of a cycles prediction is identical under both.
package sampling

import (
	"slices"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/stats"
)

// AppRun aggregates the full (reference) simulation of an application:
// one LaunchResult per kernel launch. A cancelled reference run may leave
// nil entries (launches never started) and set Aborted; the aggregate
// accessors skip nil launches so partial runs can still be inspected, but
// an aborted run's totals cover only the simulated prefix.
type AppRun struct {
	// Launches is read-only to consumers: launches with identical simulation
	// input share one LaunchResult (experiments.FullAppCtx).
	Launches []*gpusim.LaunchResult
	// Aborted reports that the reference simulation was cut short by a
	// cancelled context: some launches may be nil or individually flagged
	// Aborted.
	Aborted bool
}

// TotalInsts returns the warp instructions simulated across all launches.
func (a *AppRun) TotalInsts() int64 {
	var n int64
	for _, l := range a.Launches {
		if l != nil {
			n += l.SimulatedWarpInsts
		}
	}
	return n
}

// TotalCycles returns the summed launch durations.
func (a *AppRun) TotalCycles() int64 {
	var c int64
	for _, l := range a.Launches {
		if l != nil {
			c += l.Cycles
		}
	}
	return c
}

// IPC returns the whole-GPU application IPC.
func (a *AppRun) IPC() float64 {
	c := a.TotalCycles()
	if c == 0 {
		return 0
	}
	return float64(a.TotalInsts()) / float64(c)
}

// OverallIPC returns the Fig. 9 per-SM formulation aggregated over the
// application: for each SM, its total instructions divided by its total
// cycles, summed over SMs.
func (a *AppRun) OverallIPC() float64 {
	numSMs := 0
	for _, l := range a.Launches {
		if l != nil && len(l.SMs) > numSMs {
			numSMs = len(l.SMs)
		}
	}
	var total float64
	for sm := 0; sm < numSMs; sm++ {
		var insts, cycles int64
		for _, l := range a.Launches {
			if l != nil && sm < len(l.SMs) {
				insts += l.SMs[sm].WarpInsts
				cycles += l.SMs[sm].Cycles
			}
		}
		if cycles > 0 {
			total += float64(insts) / float64(cycles)
		}
	}
	return total
}

// AllFixedUnits concatenates every launch's fixed-size sampling units,
// remembering which launch each came from.
func (a *AppRun) AllFixedUnits() ([]gpusim.FixedUnit, []int) {
	var units []gpusim.FixedUnit
	var launchOf []int
	for li, l := range a.Launches {
		if l == nil {
			continue
		}
		for _, u := range l.FixedUnits {
			units = append(units, u)
			launchOf = append(launchOf, li)
		}
	}
	return units, launchOf
}

// Estimate is the outcome of one sampling technique on one application.
type Estimate struct {
	Technique string
	// PredictedCycles is the predicted total application cycles.
	PredictedCycles float64
	// PredictedIPC is the whole-GPU IPC implied by the prediction.
	PredictedIPC float64
	// SampleSize is the fraction of warp instructions actually simulated
	// (the Fig. 10 metric).
	SampleSize float64
	// SkippedInterInsts / SkippedIntraInsts attribute the skipped
	// instructions to inter-launch vs intra-launch sampling (Fig. 11).
	SkippedInterInsts int64
	SkippedIntraInsts int64
}

// Error returns the relative sampling error against the full run
// (|predicted - full| / full on IPC, equivalently on cycles).
func (e Estimate) Error(full *AppRun) float64 {
	return stats.RelErr(e.PredictedIPC, full.IPC())
}

// InterFraction returns the share of total skipped instructions
// attributable to inter-launch sampling (Fig. 11's breakdown).
func (e Estimate) InterFraction() float64 {
	t := e.SkippedInterInsts + e.SkippedIntraInsts
	if t == 0 {
		return 0
	}
	return float64(e.SkippedInterInsts) / float64(t)
}

// Account is the one Fig. 10/11 accounting rule of the unit-based
// estimators. Given a prediction of predCycles total cycles made from the
// selected fixed units (selected[i] is unit i of full.AllFixedUnits()), it
// fills PredictedIPC, the Fig. 10 sample size (the selected units' share of
// the run's instructions) and the Fig. 11 attribution of every unselected
// unit: inter-launch when no unit of its launch is selected, intra-launch
// otherwise. Launches sharing one *LaunchResult count as separate launches.
//
// Degenerate inputs have one rule: a prediction that is not positive (as
// from an empty run or an empty selection) or a run without instructions
// yields the zero Estimate, with only Technique set.
func Account(technique string, full *AppRun, selected []bool, predCycles float64) Estimate {
	est := Estimate{Technique: technique}
	totalInsts := full.TotalInsts()
	if !(predCycles > 0) || totalInsts == 0 {
		return est
	}
	var selInsts int64
	i := 0
	for _, l := range full.Launches {
		if l == nil {
			continue
		}
		sel := selected[i : i+len(l.FixedUnits)]
		i += len(l.FixedUnits)
		sampled := slices.Contains(sel, true)
		for j, u := range l.FixedUnits {
			switch {
			case sel[j]:
				selInsts += u.WarpInsts
			case sampled:
				est.SkippedIntraInsts += u.WarpInsts
			default:
				est.SkippedInterInsts += u.WarpInsts
			}
		}
	}
	est.PredictedCycles = predCycles
	est.PredictedIPC = float64(totalInsts) / predCycles
	est.SampleSize = float64(selInsts) / float64(totalInsts)
	return est
}

// PhaseEstimate is Eq. 1 over the fixed units: a phase's cycles are its
// instructions times the CPI of its selected units, and the prediction sums
// the phases in ascending id (float addition is not associative, so the
// order is part of the result) before Account finishes it. phase[i] is the
// phase of unit i of full.AllFixedUnits(), with ids counted from 0. A phase
// whose selected units carry no instructions adds no cycles.
func PhaseEstimate(technique string, full *AppRun, phase []int, selected []bool) Estimate {
	units, _ := full.AllFixedUnits()
	n := 0
	for _, p := range phase {
		n = max(n, p+1)
	}
	sums := make([]struct{ insts, selInsts, selCycles int64 }, n)
	for i, u := range units {
		s := &sums[phase[i]]
		s.insts += u.WarpInsts
		if selected[i] {
			s.selInsts += u.WarpInsts
			s.selCycles += u.Cycles
		}
	}
	var predCycles float64
	for _, s := range sums {
		if s.selInsts > 0 {
			predCycles += float64(s.selCycles) / float64(s.selInsts) * float64(s.insts)
		}
	}
	return Account(technique, full, selected, predCycles)
}
