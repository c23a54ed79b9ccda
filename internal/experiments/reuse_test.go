package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// TestFullAppReuseMatchesPerLaunchLoop is the differential test for launch
// reuse: on all twelve benchmarks the reference run is deep-equal to
// simulating every launch, one after another, with its own collector, and
// its counters and distributions are those collectors merged — apart from
// exp.launches_reused, which is pinned per benchmark. stream is the
// near-miss: 217 launches that differ only in their seeds, which its gather
// reads.
func TestFullAppReuseMatchesPerLaunchLoop(t *testing.T) {
	reused := map[string]uint64{"cfd": 99, "kmeans": 28, "conv": 14, "lbm": 19, "spmv": 49}
	sim := gpusim.MustNew(gpusim.DefaultConfig())
	for _, spec := range workloads.All() {
		app := spec.Build(workloads.Config{Scale: 0.01, Seed: 5})
		unit := fastOpts().UnitSize(app.TotalWarpInsts())

		want := &sampling.AppRun{}
		wantMC := metrics.New()
		for _, l := range app.Launches {
			lmc := metrics.New()
			want.Launches = append(want.Launches, sim.RunLaunch(l, gpusim.RunOptions{
				FixedUnitInsts: unit, Metrics: lmc,
			}))
			wantMC.Merge(lmc)
		}

		mc := metrics.New()
		got := FullAppMetrics(sim, app, unit, mc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reference run differs from the per-launch loop", spec.Name)
		}
		// Launches that share a result share its one recorded block order.
		orders := map[*int32]bool{}
		for i, l := range got.Launches {
			if len(l.TBOrder) != 2*app.Launches[i].NumBlocks() {
				t.Fatalf("%s launch %d: order of %d events for %d blocks", spec.Name, i, len(l.TBOrder), app.Launches[i].NumBlocks())
			}
			orders[&l.TBOrder[0]] = true
		}
		if shared := uint64(len(got.Launches) - len(orders)); shared != reused[spec.Name] {
			t.Errorf("%s: %d launches share an earlier launch's block order, want %d", spec.Name, shared, reused[spec.Name])
		}
		snap, wantSnap := mc.Snapshot(), wantMC.Snapshot()
		if n := snap.Counters[metrics.ExpLaunchesReused.Name()]; n != reused[spec.Name] {
			t.Errorf("%s: %d of %d launches reused, want %d", spec.Name, n, len(app.Launches), reused[spec.Name])
		}
		delete(snap.Counters, metrics.ExpLaunchesReused.Name())
		if !reflect.DeepEqual(snap.Counters, wantSnap.Counters) || !reflect.DeepEqual(snap.Dists, wantSnap.Dists) {
			t.Errorf("%s: counters differ from the per-launch loop's merged collectors:\n got %+v\nwant %+v",
				spec.Name, snap, wantSnap)
		}
	}
}

// reuseKernel is a loop over one coalesced and one Random load, so a
// launch's streams read its trips, its active fractions and its seeds.
func reuseKernel() *kernel.Kernel {
	prog := isa.NewBuilder("reuse").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Load(4, 1, 128), isa.Load(8, 2, 0).AsIrregular(), isa.Branch()).
		EndBlock(isa.Store(1, 3, 128)).
		Build()
	return &kernel.Kernel{Name: "reuse", Program: prog, ThreadsPerBlock: 64}
}

func reuseLaunch(k *kernel.Kernel, af float64) *kernel.Launch {
	params := make([]kernel.TBParams, 40)
	for tb := range params {
		params[tb] = kernel.TBParams{Trips: []int{6}, ActiveFrac: af, Seed: uint64(tb) + 1}
	}
	return kernel.NewLaunch(k, 0, params)
}

// TestFullAppReuseDecidedByComparison: two launches that differ only in
// active fraction share a bucket (launchKey covers kernel, block count and
// trips) and must still be two simulations with two results; a third launch
// equal to the first shares the first's result.
func TestFullAppReuseDecidedByComparison(t *testing.T) {
	k := reuseKernel()
	app := &kernel.App{Name: "collide", Launches: []*kernel.Launch{
		reuseLaunch(k, 1), reuseLaunch(k, 0.5), reuseLaunch(k, 1),
	}}
	if keyOf(app.Launches[0]) != keyOf(app.Launches[1]) {
		t.Fatal("the two unequal launches do not share a bucket; the test proves nothing")
	}
	mc := metrics.New()
	run := FullAppMetrics(gpusim.MustNew(gpusim.DefaultConfig()), app, 500, mc)
	if run.Launches[0] == run.Launches[1] || reflect.DeepEqual(run.Launches[0], run.Launches[1]) {
		t.Error("launches with different active fractions were given one result")
	}
	if run.Launches[2] != run.Launches[0] {
		t.Error("a launch equal to the first was simulated again")
	}
	if n := mc.Count(metrics.ExpLaunchesReused); n != 1 {
		t.Errorf("exp.launches_reused = %d, want 1", n)
	}
	if n := mc.Count(metrics.SimLaunches); n != 3 {
		t.Errorf("sim.launches = %d, want all 3 launches accounted", n)
	}
}

// doneNotErr is a context that tells the simulator to abort (Done is closed)
// while the fan-out still claims every launch (Err is nil): each simulated
// launch comes back Aborted at its first poll.
type doneNotErr struct{ context.Context }

func (doneNotErr) Done() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}

// TestFullAppReuseKeepsAbortsAborted: a reused launch takes whatever its
// representative ended as — aborted, or nil if never started — so a cut-short
// run can never look complete, and fullReference reports the cancellation.
func TestFullAppReuseKeepsAbortsAborted(t *testing.T) {
	spec, err := workloads.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	app := spec.Build(workloads.Config{Scale: 0.02, Seed: 3})
	sim := gpusim.MustNew(gpusim.DefaultConfig())

	run := FullAppCtx(doneNotErr{context.Background()}, sim, app, 2000, nil)
	if !run.Aborted {
		t.Error("run with an aborted representative is not flagged Aborted")
	}
	for i, l := range run.Launches {
		if l == nil || !l.Aborted {
			t.Fatalf("launch %d of an aborted group is %+v, want an aborted result", i, l)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run = FullAppCtx(ctx, sim, app, 2000, nil)
	if !run.Aborted {
		t.Error("run that never started is not flagged Aborted")
	}
	for i, l := range run.Launches {
		if l != nil {
			t.Fatalf("launch %d of a never-started group has a result", i)
		}
	}

	for _, c := range []context.Context{doneNotErr{context.Background()}, ctx} {
		o := fastOpts()
		o.Ctx = c
		if full, _, err := o.fullReference(nil, sim, app, 2000, nil); full != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("fullReference on a cut-short run returned (%v, %v), want context.Canceled", full, err)
		}
	}
}

// TestSamplersLeaveSharedRunUntouched pins the read-only contract reuse
// rests on: after every registered strategy has estimated from a reference
// run whose launches share results, the run — block order included — deep-equals
// a copy taken before.
func TestSamplersLeaveSharedRunUntouched(t *testing.T) {
	spec, err := workloads.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	app := spec.Build(workloads.Config{Scale: opts.Scale, Seed: opts.Seed})
	sim := gpusim.MustNew(gpusim.DefaultConfig())
	full := FullApp(sim, app, opts.UnitSize(app.TotalWarpInsts()))
	if full.Launches[1] != full.Launches[0] {
		t.Fatal("kmeans launches 0 and 1 do not share a result; the test proves nothing")
	}
	data, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var before sampling.AppRun
	if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}
	// The recorded block order is not serialised; TBPoint replays it, so the
	// contract covers it too and the copy takes a clone of it.
	for i, l := range full.Launches {
		if before.Launches[i].TBOrder != nil {
			t.Fatalf("launch %d: the block order survived a JSON round trip", i)
		}
		before.Launches[i].TBOrder = append([]int32(nil), l.TBOrder...)
	}
	if !reflect.DeepEqual(full, &before) {
		t.Fatal("JSON round trip plus the block order is not a faithful copy of the run")
	}

	set, err := sampler.Resolve(sampler.Names())
	if err != nil {
		t.Fatal(err)
	}
	r := &BenchResult{Samplers: map[string]sampler.Outcome{}}
	if err := opts.estimate(set, sim, app, full, nil, nil, r); err != nil {
		t.Fatal(err)
	}
	if len(r.Samplers) != len(set) {
		t.Fatalf("%d of %d strategies ran", len(r.Samplers), len(set))
	}
	if !reflect.DeepEqual(full, &before) {
		t.Error("a strategy wrote to the reference run it was handed")
	}
}

// TestAccuracyCellSimulatesNoLaunchTwice: in a cell that has just simulated
// its reference run, TBPoint takes every representative it fast-forwards
// nothing on from that run — stream's one, counted in core.launches_replayed,
// reported on the progress line, and absent from sim.launches. A cell handed
// the stored reference instead (decoded, so without the block order, which is
// never persisted) simulates the representative and produces the same bytes.
func TestAccuracyCellSimulatesNoLaunchTwice(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	liveMC := metrics.New()
	opts := subcellOpts(t, nil, liveMC)
	opts.Samplers = []string{sampler.NameTBPoint}
	opts.Verbose, opts.Out = true, &log
	live, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if reps, replayed := liveMC.Count(metrics.CoreRepLaunches), liveMC.Count(metrics.CoreLaunchesReplayed); reps != 1 || replayed != 1 {
		t.Errorf("live reference: %d of %d representatives replayed, want 1 of 1", replayed, reps)
	}
	launches := uint64(len(spec.Build(workloads.Config{Scale: opts.Scale, Seed: opts.Seed}).Launches))
	if n := liveMC.Count(metrics.SimLaunches); n != launches {
		t.Errorf("live reference: sim.launches = %d, want the reference run's %d and none for TBPoint", n, launches)
	}
	if want := "# stream   tbpoint: replayed 1 of 1 representatives\n"; !strings.Contains(log.String(), want) {
		t.Errorf("progress output lacks %q:\n%s", want, log.String())
	}

	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish := subcellOpts(t, store, nil)
	publish.Samplers = []string{sampler.NameRandom}
	if _, err := RunBenchmark(spec, gpusim.DefaultConfig(), publish); err != nil {
		t.Fatal(err)
	}
	storedMC := metrics.New()
	opts = subcellOpts(t, store, storedMC)
	opts.Samplers = []string{sampler.NameTBPoint}
	stored, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, replayed, sims := storedMC.Count(metrics.SubcellHits), storedMC.Count(metrics.CoreLaunchesReplayed), storedMC.Count(metrics.SimLaunches); hits != 1 || replayed != 0 || sims != 1 {
		t.Errorf("stored reference: subcell.hits=%d core.launches_replayed=%d sim.launches=%d, want 1, 0 and 1", hits, replayed, sims)
	}
	if !bytes.Equal(benchJSON(t, stored), benchJSON(t, live)) {
		t.Error("TBPoint on the stored reference differs from TBPoint on the live one")
	}
}
