package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// sampleBothWays samples l without and with its own full simulation as the
// reference and fails unless the two samples agree on every LaunchSample
// field and on everything in Result but the reference's fixed units. It
// reports whether the reference was replayed and how many blocks the
// simulated sample fast-forwarded.
func sampleBothWays(t *testing.T, name string, sim *gpusim.Simulator, l *kernel.Launch, ref *gpusim.LaunchResult) (replayed bool, skippedTBs int) {
	t.Helper()
	cfg, opts := sim.Config(), DefaultOptions()
	lp := funcsim.ProfileLaunch(l)
	rt := IdentifyRegions(lp, cfg.Limits.SystemOccupancy(l.Kernel, cfg.NumSMs), opts.SigmaIntra, opts.VarFactor)
	want := SampleLaunch(sim, l, lp, rt, nil, opts)
	got := SampleLaunch(sim, l, lp, rt, ref, opts)
	replayed = got.Result == ref

	g, w := *got, *want
	gr, wr := *g.Result, *w.Result
	g.Result, w.Result = nil, nil
	gr.FixedUnits, wr.FixedUnits = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s (replayed=%v): sample with a reference differs:\n got %+v\nwant %+v", name, replayed, g, w)
	}
	if !reflect.DeepEqual(gr, wr) {
		t.Errorf("%s (replayed=%v): sample with a reference has a different Result", name, replayed)
	}
	return replayed, want.Result.SkippedTBs
}

// TestSampleLaunchReferenceDifferential: for every representative launch of
// the twelve benchmarks at two scales and two seeds, and for randomised
// launches, sampling with the launch's own full simulation as reference
// returns what sampling without one returns — replayed exactly when nothing
// is fast-forwarded. Both branches must have been taken.
func TestSampleLaunchReferenceDifferential(t *testing.T) {
	var replays, fallbacks int
	count := func(name string, sim *gpusim.Simulator, l *kernel.Launch) {
		ref := sim.RunLaunch(l, gpusim.RunOptions{FixedUnitInsts: 2000})
		replayed, skippedTBs := sampleBothWays(t, name, sim, l, ref)
		if replayed != (skippedTBs == 0) {
			t.Errorf("%s: replayed=%v though region sampling fast-forwards %d blocks", name, replayed, skippedTBs)
		}
		if replayed {
			replays++
		} else {
			fallbacks++
		}
	}

	sim := gpusim.MustNew(gpusim.DefaultConfig())
	for _, scale := range []float64{0.02, 0.05} {
		for _, seed := range []uint64{1, 2} {
			for _, spec := range workloads.All() {
				app := spec.Build(workloads.Config{Scale: scale, Seed: seed})
				inter := InterLaunch(funcsim.ProfileApp(app), DefaultOptions().SigmaInter)
				for _, rep := range inter.RepLaunches() {
					count(spec.Name, sim, app.Launches[rep])
				}
			}
		}
	}
	benchReplays, benchFallbacks := replays, fallbacks

	// Randomised launches: 1-6 phases of random compute/memory weight, so some
	// are one long region (fast-forwarded) and some change phase faster than
	// a region can warm (replayed). Two in three are short, of one or two
	// phases, on a machine that holds 1-6 blocks, where unit closes, the last resident's
	// retirement and the launch's tail coincide most often — the cases in
	// which the order of the logged events decides the sampler's state.
	k := phasedKernel()
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 120; i++ {
		cfg, n, maxPhases := testConfig(), 1+rng.Intn(300), 6
		if i%3 != 0 {
			cfg.NumSMs, cfg.Limits.MaxBlocks, n, maxPhases = 1+rng.Intn(2), 1+rng.Intn(3), 1+rng.Intn(40), 2
		}
		phases := make([][2]int, 1+rng.Intn(maxPhases))
		for p := range phases {
			phases[p] = [2]int{1 + rng.Intn(16), rng.Intn(10)}
		}
		count("random", gpusim.MustNew(cfg), launchWithPhases(k, n, phases))
	}
	t.Logf("benchmarks: %d replayed, %d simulated; random: %d replayed, %d simulated",
		benchReplays, benchFallbacks, replays-benchReplays, fallbacks-benchFallbacks)
	if benchReplays == 0 || benchFallbacks == 0 || replays == benchReplays || fallbacks == benchFallbacks {
		t.Error("the replay and the fall-back branch must both be taken, on the benchmarks and on the random launches")
	}
}

// replayableLaunch is a launch on which region sampling fast-forwards
// nothing (its blocks alternate between two phases, so no region is wider
// than a block), with its full simulation.
func replayableLaunch(t *testing.T, sim *gpusim.Simulator, n int) (*kernel.Launch, *gpusim.LaunchResult) {
	t.Helper()
	params := make([]kernel.TBParams, n)
	for i := range params {
		params[i] = kernel.TBParams{Trips: []int{16, 1}, ActiveFrac: 1, Seed: uint64(i + 1)}
		if i%2 == 1 {
			params[i].Trips = []int{1, 10}
		}
	}
	l := kernel.NewLaunch(phasedKernel(), 0, params)
	ref := sim.RunLaunch(l, gpusim.RunOptions{})
	if replayed, _ := sampleBothWays(t, "replayable", sim, l, ref); !replayed {
		t.Fatal("the alternating-phase launch is not replayed; the guard table proves nothing")
	}
	return l, ref
}

// TestSampleLaunchReferenceGuards: a reference the replay cannot vouch for
// must be refused, and the sample must still be the simulated one.
func TestSampleLaunchReferenceGuards(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	l, good := replayableLaunch(t, sim, 60)
	_, other := replayableLaunch(t, sim, 58)

	edit := func(f func(r *gpusim.LaunchResult)) *gpusim.LaunchResult {
		r := *good
		r.TBOrder = append([]int32(nil), good.TBOrder...)
		r.Units = append([]gpusim.UnitStats(nil), good.Units...)
		f(&r)
		return &r
	}
	var decoded gpusim.LaunchResult
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.TBOrder != nil {
		t.Fatal("the block order was serialised")
	}
	last := len(good.TBOrder) - 1
	guards := []struct {
		name string
		ref  *gpusim.LaunchResult
	}{
		{"no order (JSON round trip)", &decoded},
		{"aborted", edit(func(r *gpusim.LaunchResult) { r.Aborted = true })},
		{"another block count", other},
		{"skipped blocks", edit(func(r *gpusim.LaunchResult) { r.SkippedTBs = 1 })},
		{"truncated order", edit(func(r *gpusim.LaunchResult) { r.TBOrder = r.TBOrder[:last] })},
		{"surplus unit", edit(func(r *gpusim.LaunchResult) { r.Units = append(r.Units, r.Units[0]) })},
		{"missing unit", edit(func(r *gpusim.LaunchResult) { r.Units = r.Units[:len(r.Units)-1] })},
		{"unit of another block", edit(func(r *gpusim.LaunchResult) { r.Units[1].SpecifiedTB++ })},
		{"retired twice", edit(func(r *gpusim.LaunchResult) { r.TBOrder[last] = r.TBOrder[last-1] })},
		{"retired before dispatched", edit(func(r *gpusim.LaunchResult) { r.TBOrder[0], r.TBOrder[last] = r.TBOrder[last], r.TBOrder[0] })},
		{"dispatch out of order", edit(func(r *gpusim.LaunchResult) { r.TBOrder[0], r.TBOrder[1] = r.TBOrder[1], r.TBOrder[0] })},
		{"block beyond the launch", edit(func(r *gpusim.LaunchResult) { r.TBOrder[last] = math.MinInt32 })},
	}
	for _, g := range guards {
		if replayed, _ := sampleBothWays(t, g.name, sim, l, g.ref); replayed {
			t.Errorf("%s: the reference was replayed", g.name)
		}
	}
}

// TestRunWithReferenceMatchesRun: the pipeline's Result is the same value
// with and without the reference run, the reference decides only how many
// representatives were simulated, and core.launches_replayed says how many
// were not.
func TestRunWithReferenceMatchesRun(t *testing.T) {
	sim := gpusim.MustNew(gpusim.DefaultConfig())
	for name, wantReplayed := range map[string]bool{"bfs": true, "black": false} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		app := spec.Build(workloads.Config{Scale: 0.02, Seed: 4})
		prof := ProfileApp(app)
		full := &sampling.AppRun{}
		for _, l := range app.Launches {
			full.Launches = append(full.Launches, sim.RunLaunch(l, gpusim.RunOptions{}))
		}
		want, err := Run(sim, prof, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mc := metrics.New()
		opts := DefaultOptions()
		opts.Metrics = mc
		got, err := RunWithReference(sim, prof, full, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Estimate, want.Estimate) || !reflect.DeepEqual(got.Tables, want.Tables) {
			t.Errorf("%s: estimate with a reference differs: got %+v want %+v", name, got.Estimate, want.Estimate)
		}
		replayed := 0
		for rep, s := range got.Samples {
			if s.Result == full.Launches[rep] {
				replayed++
			}
		}
		if n := int(mc.Count(metrics.CoreLaunchesReplayed)); n != replayed || (n > 0) != wantReplayed {
			t.Errorf("%s: core.launches_replayed = %d, %d samples hold the reference's result, replays expected: %v",
				name, n, replayed, wantReplayed)
		}
		if sims := int(mc.Count(metrics.SimLaunches)); sims != len(got.Samples)-replayed {
			t.Errorf("%s: sim.launches = %d, want the %d representatives that were simulated", name, sims, len(got.Samples)-replayed)
		}
	}
}

// TestSkippedRegionsHaveWarmedIPC: a block is skipped only while
// fast-forwarding, which only a region warmed to a positive IPC enters, so
// in every sample — each representative of the twelve benchmarks and
// randomised phased launches — every region in SkippedByRegion has
// RegionIPC[r] > 0 and the prediction is finite. SampleLaunch divides by
// that IPC with no fallback.
func TestSkippedRegionsHaveWarmedIPC(t *testing.T) {
	var samples, skipping int
	check := func(name string, sim *gpusim.Simulator, l *kernel.Launch) {
		cfg, opts := sim.Config(), DefaultOptions()
		lp := funcsim.ProfileLaunch(l)
		rt := IdentifyRegions(lp, cfg.Limits.SystemOccupancy(l.Kernel, cfg.NumSMs), opts.SigmaIntra, opts.VarFactor)
		ls := SampleLaunch(sim, l, lp, rt, nil, opts)
		samples++
		if len(ls.SkippedByRegion) > 0 {
			skipping++
		}
		for r, n := range ls.SkippedByRegion {
			if ipc, ok := ls.RegionIPC[r]; !ok || !(ipc > 0) || n <= 0 {
				t.Errorf("%s: region %d skipped %d instructions with warmed IPC %v (recorded %v)", name, r, n, ipc, ok)
			}
		}
		if p := ls.PredictedCycles; math.IsInf(p, 0) || math.IsNaN(p) || p < float64(ls.Result.Cycles) {
			t.Errorf("%s: predicted %v cycles for a run of %d", name, p, ls.Result.Cycles)
		}
	}

	sim := gpusim.MustNew(gpusim.DefaultConfig())
	for _, spec := range workloads.All() {
		app := spec.Build(workloads.Config{Scale: 0.02, Seed: 1})
		inter := InterLaunch(funcsim.ProfileApp(app), DefaultOptions().SigmaInter)
		for _, rep := range inter.RepLaunches() {
			check(spec.Name, sim, app.Launches[rep])
		}
	}
	k := phasedKernel()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		cfg := testConfig()
		cfg.NumSMs, cfg.Limits.MaxBlocks = 1+rng.Intn(2), 1+rng.Intn(6)
		phases := make([][2]int, 1+rng.Intn(6))
		for p := range phases {
			phases[p] = [2]int{1 + rng.Intn(16), rng.Intn(10)}
		}
		check("random", gpusim.MustNew(cfg), launchWithPhases(k, 1+rng.Intn(300), phases))
	}
	t.Logf("%d of %d samples fast-forwarded", skipping, samples)
	if skipping == 0 {
		t.Error("no sample fast-forwarded anything; the property proves nothing")
	}
}
