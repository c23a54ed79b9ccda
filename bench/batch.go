package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"tbpoint"
	"tbpoint/internal/core"
	"tbpoint/internal/experiments"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// batch is the shape the four one-shot workloads share: a list of
// benchmarks, one operation per benchmark, run one after the other on the
// serial worker budget (experiments.Parallelism = 1) so that the layers
// under test, not the fan-out, set the time.
type batch struct {
	kind    batchKind
	benches []string
	size    sizing
	sim     *gpusim.Simulator
	// apps are fullref-parsm's inputs, built during set-up: its timed
	// region is the engine alone.
	apps map[string]*kernel.App
}

type batchKind int

const (
	kindAccuracy batchKind = iota
	kindEstimate
	kindParsm
)

func newAccuracy(benches []string, s sizing) workload {
	return &batch{kind: kindAccuracy, benches: benches, size: s}
}

func newEstimate(s sizing) workload {
	return &batch{kind: kindEstimate, benches: workloads.Names(), size: s}
}

func newParsm(s sizing) workload {
	return &batch{kind: kindParsm, benches: parsmBenchmarks, size: s}
}

// estimate is one strategy's prediction, in the form the checks need.
type estimate struct {
	ipc, size, err float64
	phase2Units    int
}

// batchOut is the output of one batch operation. Which fields are set
// depends on the workload; the zero value of the others is never read.
type batchOut struct {
	// samplers holds every strategy's estimate (sampled-estimate: tbpoint
	// alone, with no reference to take an error against).
	samplers map[string]estimate
	// accuracy-*: the reference IPC, failed grid cells, and the two calls'
	// own times.
	fullIPC  float64
	cellErrs int
	runS     float64 // RunTargets
	writeS   float64 // WriteResultsFile
	bytes    int64
	// sampled-estimate: the shape of the clustering.
	clusters, regions int
	// Conservation: the warp instructions and thread blocks a layer covered
	// (funcsim's profile on sampled-estimate, gpusim's full simulation
	// elsewhere) against what the application holds.
	covered                string // which layer; "" when the pass ran neither
	warpInsts, tbs         int64
	wantWarpInsts, wantTBs int64
	cycles                 int64 // full simulations only
	// probe holds the traced operation's counters and probe values, summed
	// over operations by layers().
	probe map[string]float64
}

func (w *batch) scale(b string) float64 {
	switch w.kind {
	case kindAccuracy:
		return w.size.AccuracyScale
	case kindEstimate:
		return w.size.EstimateScale
	}
	return w.size.ParsmScale[b]
}

func build(b string, scale float64, seed uint64) (*kernel.App, error) {
	spec, err := workloads.ByName(b)
	if err != nil {
		return nil, err
	}
	return spec.Build(workloads.Config{Scale: scale, Seed: seed}), nil
}

// unitSize is the fixed sampling-unit size experiments.RunBenchmark derives
// from its options (that method is unexported; the byte-identity check of
// the traced pass proves the two agree).
func unitSize(opts experiments.Options, totalInsts int64) int64 {
	u := totalInsts / int64(opts.UnitDivisor)
	if u < opts.MinUnitInsts {
		u = opts.MinUnitInsts
	}
	if u > opts.MaxUnitInsts {
		u = opts.MaxUnitInsts
	}
	return u
}

func (w *batch) accuracyOptions(e *env, b string, scale float64) experiments.Options {
	opts := experiments.DefaultOptions(scale)
	opts.Seed = e.seed
	opts.Benchmarks = []string{b}
	opts.Samplers = []string{"all"}
	return opts
}

var accuracySpec = experiments.RunSpec{Targets: []string{"accuracy"}}

func (w *batch) setup(e *env) error {
	experiments.Parallelism = 1
	w.sim = gpusim.MustNew(gpusim.DefaultConfig())
	if err := os.MkdirAll(filepath.Join(e.workdir, "results"), 0o755); err != nil {
		return err
	}
	if w.kind == kindParsm {
		w.apps = map[string]*kernel.App{}
		for _, b := range w.benches {
			app, err := build(b, w.scale(b), e.seed)
			if err != nil {
				return err
			}
			w.apps[b] = app
		}
	}
	// Warm-up: the same operations at a small scale, so that lazy set-up
	// and a cold heap are not charged to the first timed operation.
	for _, b := range w.benches {
		if _, err := w.runOp(e, b, w.size.WarmupScale, true); err != nil {
			return fmt.Errorf("warm-up %s: %w", b, err)
		}
	}
	return nil
}

func (w *batch) teardown(e *env) {
	w.apps, w.sim = nil, nil
	os.RemoveAll(filepath.Join(e.workdir, "results"))
}

func (w *batch) pass(e *env, tr *tracer) (*passResult, error) {
	pr := &passResult{}
	var endRoot func()
	if tr != nil {
		pr.root, endRoot = tr.begin(0, "pass", "")
	}
	for _, b := range w.benches {
		var o op
		if tr == nil {
			st := time.Now()
			out, err := w.runOp(e, b, w.scale(b), false)
			o = op{id: b, seconds: time.Since(st).Seconds(), err: err, out: out}
		} else {
			o = w.tracedOp(e, b, tr, pr.root)
		}
		pr.ops = append(pr.ops, o)
		// Operations run back to back; summing them leaves out the probes
		// that follow each traced operation.
		pr.wall += o.seconds
	}
	if tr != nil {
		endRoot()
	}
	return pr, nil
}

// runOp is one operation on the end-to-end path.
func (w *batch) runOp(e *env, b string, scale float64, warmup bool) (*batchOut, error) {
	out := &batchOut{}
	switch w.kind {
	case kindAccuracy:
		st := time.Now()
		bundle, err := experiments.RunTargets(w.accuracyOptions(e, b, scale), accuracySpec, nil)
		out.runS = time.Since(st).Seconds()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(e.workdir, "results", b+".json")
		st = time.Now()
		if err := experiments.WriteResultsFile(path, bundle); err != nil {
			return nil, err
		}
		out.writeS = time.Since(st).Seconds()
		if fi, err := os.Stat(path); err == nil {
			out.bytes = fi.Size()
		}
		return out, fillAccuracy(out, bundle)
	case kindEstimate:
		app, err := build(b, scale, e.seed)
		if err != nil {
			return nil, err
		}
		prof := tbpoint.Profile(app)
		res, err := tbpoint.Run(w.sim, prof, tbpoint.DefaultOptions())
		if err != nil {
			return nil, err
		}
		fillEstimate(out, app, prof, res)
		return out, nil
	default:
		app := w.apps[b]
		if warmup {
			var err error
			if app, err = build(b, scale, e.seed); err != nil {
				return nil, err
			}
		}
		unit := unitSize(experiments.DefaultOptions(scale), app.TotalWarpInsts())
		run := experiments.FullAppParallel(w.sim, app, unit, w.size.ParsmWorkers, 0)
		fillRun(out, app, run)
		return out, nil
	}
}

func fillAccuracy(out *batchOut, bundle *experiments.Results) error {
	out.cellErrs = len(bundle.Errors)
	if len(bundle.Accuracy) != 1 {
		return fmt.Errorf("bundle has %d accuracy results, want 1 (%d cell errors)", len(bundle.Accuracy), len(bundle.Errors))
	}
	r := bundle.Accuracy[0]
	out.fullIPC = r.FullIPC
	out.samplers = map[string]estimate{}
	for _, name := range sampler.Names() {
		if o, ok := r.Outcome(name); ok {
			out.samplers[name] = estimate{o.Estimate.PredictedIPC, o.Estimate.SampleSize, o.Err, o.Phase2Units}
		}
	}
	return nil
}

func fillEstimate(out *batchOut, app *kernel.App, prof *core.AppProfile, res *core.Result) {
	out.samplers = map[string]estimate{
		sampler.NameTBPoint: {ipc: res.Estimate.PredictedIPC, size: res.Estimate.SampleSize},
	}
	out.clusters = res.Inter.NumClusters
	for _, rt := range res.Tables {
		out.regions += rt.NumRegions
	}
	out.covered = "funcsim profile"
	out.wantTBs, out.wantWarpInsts = int64(app.TotalBlocks()), app.TotalWarpInsts()
	for _, lp := range prof.Profiles {
		out.tbs += int64(lp.NumBlocks())
		out.warpInsts += lp.TotalWarpInsts()
	}
}

// fillRun records what a full simulation issued next to what the
// application holds.
func fillRun(out *batchOut, app *kernel.App, run *sampling.AppRun) {
	out.covered = "gpusim"
	out.wantTBs, out.wantWarpInsts = int64(app.TotalBlocks()), app.TotalWarpInsts()
	out.cycles, out.warpInsts, out.tbs = run.TotalCycles(), run.TotalInsts(), 0
	for _, l := range run.Launches {
		if l != nil {
			out.tbs += int64(l.SimulatedTBs)
		}
	}
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// strategies are the estimates an operation of this workload must deliver.
func (w *batch) strategies() []string {
	switch w.kind {
	case kindAccuracy:
		return sampler.Names()
	case kindEstimate:
		return []string{sampler.NameTBPoint}
	}
	return nil
}

func (w *batch) check(e *env, pr *passResult, c *checker) map[string]float64 {
	facts := map[string]float64{}
	for _, o := range pr.ops {
		if o.err != nil {
			c.fail(o.id, "%v", o.err)
			continue
		}
		out := o.out.(*batchOut)
		for _, name := range w.strategies() {
			est, ok := out.samplers[name]
			if !ok {
				c.fail(o.id, "no estimate from strategy %s", name)
				continue
			}
			if !finitePositive(est.ipc) {
				c.fail(o.id, "%s predicted IPC %v is not finite and positive", name, est.ipc)
			}
			if !(est.size > 0 && est.size <= 1) {
				c.fail(o.id, "%s sample size %v is outside (0, 1]", name, est.size)
			}
			if math.IsNaN(est.err) || math.IsInf(est.err, 0) || est.err < 0 {
				c.fail(o.id, "%s error %v is not finite", name, est.err)
			}
			facts[o.id+"."+name+".ipc"] = est.ipc
			facts[o.id+"."+name+".size"] = est.size
		}
		switch w.kind {
		case kindAccuracy:
			if out.cellErrs > 0 {
				c.fail(o.id, "%d grid cells failed", out.cellErrs)
			}
			if !finitePositive(out.fullIPC) {
				c.fail(o.id, "full-reference IPC %v is not finite and positive", out.fullIPC)
			}
			facts[o.id+".full_ipc"] = out.fullIPC
		case kindEstimate:
			facts[o.id+".clusters"] = float64(out.clusters)
			facts[o.id+".regions"] = float64(out.regions)
		case kindParsm:
			facts[o.id+".cycles"] = float64(out.cycles)
			facts[o.id+".warp_insts"] = float64(out.warpInsts)
		}
		// Conservation ties the layers to each other: the profiler counts,
		// and the timing simulator issues, exactly the warp instructions and
		// thread blocks the application holds.
		if out.covered != "" && (out.warpInsts != out.wantWarpInsts || out.tbs != out.wantTBs) {
			c.fail(o.id, "%s covered %d warp insts in %d TBs, the application holds %d in %d",
				out.covered, out.warpInsts, out.tbs, out.wantWarpInsts, out.wantTBs)
		}
	}
	return facts
}

// reference is empty: a batch workload's outputs have no second path to be
// recomputed through; the traced pass (step by step, same statistics) and the
// golden files are their reference.
func (w *batch) reference(*env, *passResult, *checker, bool) {}

func (w *batch) accuracy(pr *passResult) map[string]float64 {
	var tbpErr, tbpSize, stratErr []float64
	for _, o := range pr.ops {
		out, ok := o.out.(*batchOut)
		if !ok || o.err != nil {
			continue
		}
		if tbp, ok := out.samplers[sampler.NameTBPoint]; ok {
			tbpSize = append(tbpSize, tbp.size)
		}
		if w.kind == kindAccuracy {
			tbpErr = append(tbpErr, out.samplers[sampler.NameTBPoint].err)
			stratErr = append(stratErr, out.samplers[sampler.NameStratified].err)
		}
	}
	return map[string]float64{
		"tbpoint_err_geomean_pct":    geomeanPct(tbpErr),
		"tbpoint_sample_geomean_pct": geomeanPct(tbpSize),
		"stratified_err_geomean_pct": geomeanPct(stratErr),
	}
}
