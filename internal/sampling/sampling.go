// Package sampling provides the abstractions shared by every sampling
// technique in the evaluation — the metric definitions of Fig. 9 and
// Fig. 10 — plus the Random baseline (§V-A).
//
// All techniques predict the application's total simulated cycles from a
// subset of the work; reporting then derives IPC and error. We use the
// whole-GPU IPC (instructions per elapsed cycle summed over the
// application's launches) as the prediction target: with the paper's per-SM
// formulation the two differ only by SM load imbalance, and the relative
// error of a cycles prediction is identical under both.
package sampling

import (
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

// Random implements the random-sampling baseline: collect the IPC of every
// fixed-size sampling unit during a full simulation and randomly select
// frac of them (§V-A uses one-million-instruction units and frac = 0.10).
// The unselected units' cycles are predicted from the selected units' mean
// CPI.
func Random(full *AppRun, frac float64, seed uint64) Estimate {
	units, launchOf := full.AllFixedUnits()
	est := Estimate{Technique: "Random"}
	if len(units) == 0 {
		return est
	}
	rng := stats.NewRNG(seed)
	k := int(float64(len(units))*frac + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(units) {
		k = len(units)
	}
	perm := rng.Perm(len(units))
	selected := make(map[int]bool, k)
	for _, i := range perm[:k] {
		selected[i] = true
	}

	var selInsts, selCycles int64
	launchSelected := map[int]bool{}
	for i, u := range units {
		if selected[i] {
			selInsts += u.WarpInsts
			selCycles += u.Cycles
			launchSelected[launchOf[i]] = true
		}
	}
	cpi := float64(selCycles) / float64(selInsts)

	totalInsts := full.TotalInsts()
	est.PredictedCycles = cpi * float64(totalInsts)
	est.PredictedIPC = float64(totalInsts) / est.PredictedCycles
	est.SampleSize = float64(selInsts) / float64(totalInsts)
	for i, u := range units {
		if selected[i] {
			continue
		}
		if launchSelected[launchOf[i]] {
			est.SkippedIntraInsts += u.WarpInsts
		} else {
			est.SkippedInterInsts += u.WarpInsts
		}
	}
	return est
}

// Systematic implements systematic sampling (§VI related work): starting
// from a random offset, every k-th fixed-size unit is simulated, where k =
// round(1/frac). The paper discusses it as the main alternative to
// profiling-based sampling and notes its weakness: "most instructions may
// be unnecessarily sampled for regular kernels" because the period ignores
// program structure.
func Systematic(full *AppRun, frac float64, seed uint64) Estimate {
	units, launchOf := full.AllFixedUnits()
	est := Estimate{Technique: "Systematic"}
	if len(units) == 0 || frac <= 0 {
		return est
	}
	period := int(1/frac + 0.5)
	if period < 1 {
		period = 1
	}
	start := int(stats.NewRNG(seed).Uint64() % uint64(period))

	var selInsts, selCycles int64
	selected := map[int]bool{}
	launchSelected := map[int]bool{}
	for i := start; i < len(units); i += period {
		selected[i] = true
		selInsts += units[i].WarpInsts
		selCycles += units[i].Cycles
		launchSelected[launchOf[i]] = true
	}
	if selInsts == 0 {
		return est
	}
	cpi := float64(selCycles) / float64(selInsts)
	totalInsts := full.TotalInsts()
	est.PredictedCycles = cpi * float64(totalInsts)
	est.PredictedIPC = float64(totalInsts) / est.PredictedCycles
	est.SampleSize = float64(selInsts) / float64(totalInsts)
	for i, u := range units {
		if selected[i] {
			continue
		}
		if launchSelected[launchOf[i]] {
			est.SkippedIntraInsts += u.WarpInsts
		} else {
			est.SkippedInterInsts += u.WarpInsts
		}
	}
	return est
}
