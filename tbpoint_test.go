package tbpoint_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tbpoint"
	"tbpoint/internal/experiments"
)

func TestFacadeEndToEnd(t *testing.T) {
	app := tbpoint.MustBenchmark("cfd", 0.02)
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 4
	sim := tbpoint.MustNewSimulator(cfg)
	prof := tbpoint.Profile(app)
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.PredictedIPC <= 0 {
		t.Error("no prediction")
	}
	if res.Estimate.SampleSize <= 0 || res.Estimate.SampleSize > 1 {
		t.Errorf("sample size %v", res.Estimate.SampleSize)
	}

	full := tbpoint.FullSimulation(sim, app, 1000)
	if e := res.Estimate.Error(full); e > 0.2 {
		t.Errorf("TBPoint error %.1f%% on homogeneous cfd", e*100)
	}
	rnd := tbpoint.RandomBaseline(full, 0.1, 1)
	sp := tbpoint.SimPointBaseline(full)
	if rnd.PredictedIPC <= 0 || sp.PredictedIPC <= 0 {
		t.Error("baselines predicted nothing")
	}
}

// TestFullSimulationIsTheHarnessReference pins the facade's reference run to
// the harness's (one loop, fanned out over launches) and both to simulating
// the launches one after another on the caller's goroutine.
func TestFullSimulationIsTheHarnessReference(t *testing.T) {
	app := tbpoint.MustBenchmark("kmeans", 0.02)
	if len(app.Launches) < 2 {
		t.Fatalf("need a multi-launch app, kmeans has %d", len(app.Launches))
	}
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	const unit = 2000
	full := tbpoint.FullSimulation(sim, app, unit)
	if !reflect.DeepEqual(full, experiments.FullApp(sim, app, unit)) {
		t.Error("FullSimulation differs from experiments.FullApp")
	}
	for i, l := range app.Launches {
		seq := sim.RunLaunch(l, tbpoint.RunOptions{FixedUnitInsts: unit})
		if !reflect.DeepEqual(full.Launches[i], seq) {
			t.Errorf("launch %d differs from a sequential RunLaunch", i)
		}
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	names := tbpoint.Benchmarks()
	if len(names) != 12 {
		t.Fatalf("Benchmarks() = %v", names)
	}
	if _, err := tbpoint.Benchmark("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFacadeMarkov(t *testing.T) {
	ipc := tbpoint.PredictIPC(0.1, []float64{200, 200, 200, 200})
	if ipc <= 0 || ipc > 1 {
		t.Errorf("PredictIPC = %v", ipc)
	}
	mc := tbpoint.IPCVariation(0.1, 200, 4, 1000, 1)
	if mc.Within10 < 0.95 {
		t.Errorf("Lemma 4.1 violated: %v", mc.Within10)
	}
}

func TestFacadeRetarget(t *testing.T) {
	app := tbpoint.MustBenchmark("stream", 0.05)
	prof := tbpoint.Profile(app)
	simA := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig().WithOccupancy(16, 4))
	resA, err := tbpoint.Run(simA, prof, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	simB := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig().WithOccupancy(48, 8))
	resB, err := tbpoint.Retarget(simB, prof, resA.Inter, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resB.Estimate.PredictedIPC <= 0 {
		t.Error("retarget predicted nothing")
	}
}

func TestFacadeSystematic(t *testing.T) {
	app := tbpoint.MustBenchmark("stream", 0.05)
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 2
	sim := tbpoint.MustNewSimulator(cfg)
	full := tbpoint.FullSimulation(sim, app, 1000)
	est := tbpoint.SystematicBaseline(full, 0.1, 3)
	if est.PredictedIPC <= 0 {
		t.Error("systematic baseline predicted nothing")
	}
	if e := est.Error(full); e > 0.3 {
		t.Errorf("systematic error %.1f%% on homogeneous stream", e*100)
	}
}

func TestFacadePersistence(t *testing.T) {
	app := tbpoint.MustBenchmark("hotspot", 0.1)
	prof := tbpoint.Profile(app)

	var pbuf bytes.Buffer
	if err := tbpoint.SaveProfile(&pbuf, prof); err != nil {
		t.Fatal(err)
	}
	back, err := tbpoint.LoadProfile(&pbuf, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Profiles) != len(prof.Profiles) {
		t.Fatal("profile shape lost")
	}

	rt := tbpoint.IdentifyRegions(prof.Profiles[0], 56, 0.2, 0.3)
	var rbuf bytes.Buffer
	if err := tbpoint.WriteRegionTable(&rbuf, rt); err != nil {
		t.Fatal(err)
	}
	rt2, err := tbpoint.ReadRegionTable(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.NumRegions != rt.NumRegions {
		t.Error("region table mangled")
	}

	// Mismatched app rejected.
	var pbuf2 bytes.Buffer
	if err := tbpoint.SaveProfile(&pbuf2, prof); err != nil {
		t.Fatal(err)
	}
	other := tbpoint.MustBenchmark("stream", 0.05)
	if _, err := tbpoint.LoadProfile(&pbuf2, other); err == nil {
		t.Error("profile for a different app accepted")
	}
}

// A profile saved for another build of the same app has as many launches but
// not the same launches: the load must fail and name the first launch that
// differs, whether in thread blocks or in basic-block counts.
func TestFacadeLoadProfileRejectsOtherBuild(t *testing.T) {
	small, large := tbpoint.MustBenchmark("bfs", 0.05), tbpoint.MustBenchmark("bfs", 0.2)
	if len(small.Launches) != len(large.Launches) || small.Launches[0].NumBlocks() == large.Launches[0].NumBlocks() {
		t.Fatal("setup: want equal launch counts and different launch 0 sizes across scales")
	}
	var buf bytes.Buffer
	if err := tbpoint.SaveProfile(&buf, tbpoint.Profile(small)); err != nil {
		t.Fatal(err)
	}
	_, err := tbpoint.LoadProfile(&buf, large)
	if err == nil || !strings.Contains(err.Error(), "launch 0 has") || !strings.Contains(err.Error(), "thread blocks") {
		t.Errorf("profile from another scale: err = %v, want launch 0's thread blocks named", err)
	}

	prof := tbpoint.Profile(small)
	short := *prof.Profiles[1]
	short.BlockCounts = short.BlockCounts[:len(short.BlockCounts)-1]
	prof.Profiles[1] = &short
	buf.Reset()
	if err := tbpoint.SaveProfile(&buf, prof); err != nil {
		t.Fatal(err)
	}
	_, err = tbpoint.LoadProfile(&buf, small)
	if err == nil || !strings.Contains(err.Error(), "launch 1 has") || !strings.Contains(err.Error(), "basic") {
		t.Errorf("profile with a short basic-block count list: err = %v, want launch 1's counts named", err)
	}
}
