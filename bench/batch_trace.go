package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tbpoint/internal/cluster"
	"tbpoint/internal/core"
	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/kernel"
	imetrics "tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/simpoint"
)

// tracedOp re-executes one operation step by step, one span around each call
// into a layer, then runs the layer probes that need the operation's
// intermediate values. The operation's time is its span's: the probes hang
// off a "probe" span outside the pass and are never attributed to it.
func (w *batch) tracedOp(e *env, b string, tr *tracer, root int) op {
	st := &tracedState{b: b, scale: w.scale(b), out: &batchOut{probe: map[string]float64{}}}
	start := time.Now()
	opSpan, endOp := tr.begin(root, "op", b)
	err := w.steps(e, st, tr, opSpan)
	endOp()
	o := op{id: b, seconds: time.Since(start).Seconds(), err: err, out: st.out}
	if err == nil {
		probe, endProbe := tr.begin(0, "probe", b)
		o.err = w.probes(st, tr, probe)
		endProbe()
	}
	return o
}

// tracedState carries one traced operation's intermediate values from its
// steps to its probes.
type tracedState struct {
	b     string
	scale float64
	out   *batchOut
	app   *kernel.App
	prof  *core.AppProfile
	full  *sampling.AppRun
	unit  int64
}

// steps is the traced twin of runOp: the same work through the layers'
// own entry points.
func (w *batch) steps(e *env, st *tracedState, tr *tracer, opSpan int) error {
	b, out := st.b, st.out
	var err error
	if w.kind == kindParsm {
		st.app = w.apps[b]
	} else {
		tr.call(opSpan, "workloads.build", b, func() { st.app, err = build(b, st.scale, e.seed) })
		if err != nil {
			return err
		}
		tr.call(opSpan, "funcsim.profile", b, func() {
			st.prof = &core.AppProfile{App: st.app, Profiles: funcsim.ProfileApp(st.app)}
		})
	}
	switch w.kind {
	case kindAccuracy:
		opts := w.accuracyOptions(e, b, st.scale)
		st.unit = unitSize(opts, st.app.TotalWarpInsts())
		mc := imetrics.New()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		tr.call(opSpan, "gpusim.fullref", b, func() { st.full = experiments.FullAppMetrics(w.sim, st.app, st.unit, mc) })
		runtime.ReadMemStats(&ms1)
		fillRun(out, st.app, st.full)
		out.fullIPC = st.full.IPC()
		for k, v := range mc.Snapshot().Counters {
			out.probe[k] = float64(v)
		}
		out.probe["alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

		// The inputs experiments.RunBenchmark hands every strategy.
		tb := core.DefaultOptions()
		in := sampler.Input{
			Sim: w.sim, Prof: st.prof, Full: st.full, TBPoint: tb,
			Params: sampler.Params{Frac: opts.RandomFrac, Seed: opts.Seed, Sigma: tb.SigmaInter},
		}
		out.samplers = map[string]estimate{}
		for _, name := range sampler.Names() {
			s, _ := sampler.Get(name)
			var o sampler.Outcome
			tr.call(opSpan, "sampler."+name, b, func() { o, err = s.Estimate(in) })
			if err != nil {
				return fmt.Errorf("sampler %s: %w", name, err)
			}
			out.samplers[name] = estimate{o.Estimate.PredictedIPC, o.Estimate.SampleSize, o.Estimate.Error(st.full), o.Phase2Units}
		}
	case kindEstimate:
		var res *core.Result
		tr.call(opSpan, "core.run", b, func() { res, err = core.Run(w.sim, st.prof, core.DefaultOptions()) })
		if err != nil {
			return err
		}
		fillEstimate(out, st.app, st.prof, res)
	case kindParsm:
		st.unit = unitSize(experiments.DefaultOptions(st.scale), st.app.TotalWarpInsts())
		out.probe["parsm2_s"] = tr.call(opSpan, "gpusim.parsm2", b, func() {
			st.full = experiments.FullAppParallel(w.sim, st.app, st.unit, w.size.ParsmWorkers, 0)
		})
		fillRun(out, st.app, st.full)
	}
	return nil
}

// probes times the calls an operation's layers make internally, on the
// operation's own intermediate values.
func (w *batch) probes(st *tracedState, tr *tracer, probe int) error {
	b, aux := st.b, st.out.probe
	opt := core.DefaultOptions()
	if st.prof != nil {
		aux["tbs"] = float64(st.app.TotalBlocks())
		var inter *core.InterResult
		tr.call(probe, "probe.core.inter", b, func() { inter = core.InterLaunch(st.prof.Profiles, opt.SigmaInter) })
		cfg := w.sim.Config()
		tr.call(probe, "probe.core.regions", b, func() {
			for _, rep := range inter.RepLaunches() {
				occ := cfg.Limits.SystemOccupancy(st.app.Launches[rep].Kernel, cfg.NumSMs)
				core.IdentifyRegions(st.prof.Profiles[rep], occ, opt.SigmaIntra, opt.VarFactor)
			}
		})
		tr.call(probe, "probe.cluster.hier", b, func() {
			cluster.Hierarchical(core.InterFeatures(st.prof.Profiles)).CutThreshold(opt.SigmaInter)
		})
	}
	switch w.kind {
	case kindAccuracy:
		// What the tbpoint strategy does inside its Estimate, so that its
		// cost splits into clustering, regions and sampled simulation.
		var res *core.Result
		var err error
		tr.call(probe, "probe.core.run", b, func() { res, err = core.Run(w.sim, st.prof, opt) })
		if err != nil {
			return err
		}
		aux["clusters"] = float64(res.Inter.NumClusters)
		for _, rt := range res.Tables {
			aux["regions"] += float64(rt.NumRegions)
		}
		// What Ideal-Simpoint does inside its Estimate.
		points := bbvPoints(st.full)
		so := simpoint.DefaultOptions()
		tr.call(probe, "probe.cluster.kmeans_bic", b, func() { cluster.KMeansBIC(points, so.MaxK, so.BICFrac, so.Seed) })
		// The same reference run with the collector off: the difference is
		// what internal/metrics costs when enabled.
		tr.call(probe, "probe.gpusim.fullref_nometrics", b, func() { experiments.FullApp(w.sim, st.app, st.unit) })
	case kindParsm:
		var serial *sampling.AppRun
		aux["serial_s"] = tr.call(probe, "probe.gpusim.serial", b, func() { serial = experiments.FullAppParallel(w.sim, st.app, st.unit, 0, 0) })
		aux["serial_cycles"] = float64(serial.TotalCycles())
		if serial.TotalInsts() != st.full.TotalInsts() {
			return fmt.Errorf("parallel engine issued %d warp instructions, serial %d", st.full.TotalInsts(), serial.TotalInsts())
		}
	}
	return nil
}

// bbvPoints are the full run's fixed units as normalised basic-block
// vectors, the input Ideal-Simpoint clusters.
func bbvPoints(full *sampling.AppRun) [][]float64 {
	units, _ := full.AllFixedUnits()
	dim := 1
	for _, u := range units {
		if len(u.BBV) > dim {
			dim = len(u.BBV)
		}
	}
	points := make([][]float64, len(units))
	for i, u := range units {
		p := make([]float64, dim)
		var total float64
		for _, c := range u.BBV {
			total += float64(c)
		}
		for j, c := range u.BBV {
			if total > 0 {
				p[j] = float64(c) / total
			}
		}
		points[i] = p
	}
	return points
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (w *batch) layers(e *env, untraced, traced *passResult, tr *tracer, c *checker) map[string]float64 {
	m := map[string]float64{}
	self := layerSelf(tr.spans, traced.root)
	var attributed float64
	for name, s := range self {
		if name != "op" { // an op span's self time is the glue between layer calls
			attributed += s
		}
	}
	m["attribution_gap_pct"] = 100 * ratio(math.Abs(attributed-untraced.wall), untraced.wall)
	m["workloads.build_s"] = self["workloads.build"]
	m["funcsim.profile_s"] = self["funcsim.profile"]
	m["gpusim.fullref_s"] = self["gpusim.fullref"]
	m["gpusim.parsm2_s"] = self["gpusim.parsm2"]
	for _, name := range sampler.Names() {
		m["sampler."+name+"_s"] = self["sampler."+name]
	}

	// Probe spans and per-operation counters, summed over the operations.
	probe := map[string]float64{}
	for _, s := range tr.spans {
		if name, ok := strings.CutPrefix(s.Name, "probe."); ok {
			probe[name] += s.End - s.Start
		}
	}
	sums := map[string]float64{}
	var sizes []float64
	for _, o := range traced.ops {
		out, ok := o.out.(*batchOut)
		if !ok {
			continue
		}
		for k, v := range out.probe {
			sums[k] += v
		}
		m["sampler.stratified.phase2_units"] += float64(out.samplers[sampler.NameStratified].phase2Units)
		if tbp, ok := out.samplers[sampler.NameTBPoint]; ok {
			sizes = append(sizes, tbp.size)
		}
		switch w.kind {
		case kindEstimate:
			sums["clusters"] += float64(out.clusters)
			sums["regions"] += float64(out.regions)
		case kindParsm:
			sums["par_cycles"] += float64(out.cycles)
			sums["par_warp_insts"] += float64(out.warpInsts)
			// Serial seconds over 2-worker seconds, same launches.
			m["gpusim.parsm2.scaling."+o.id] = ratio(out.probe["serial_s"], out.probe["parsm2_s"])
		}
	}
	m["core.inter_s"] = probe["core.inter"]
	m["core.regions_s"] = probe["core.regions"]
	m["core.run_s"] = self["core.run"] + probe["core.run"]
	m["core.sampled_sim_s"] = math.Max(0, m["core.run_s"]-m["core.inter_s"]-m["core.regions_s"])
	m["cluster.hier_s"] = probe["cluster.hier"]
	m["cluster.kmeans_bic_s"] = probe["cluster.kmeans_bic"]
	m["workloads.tbs"] = sums["tbs"]
	m["funcsim.tbs_per_s"] = ratio(sums["tbs"], m["funcsim.profile_s"])
	m["core.clusters"], m["core.regions"] = sums["clusters"], sums["regions"]
	m["core.sample_pct"] = geomeanPct(sizes)

	switch w.kind {
	case kindAccuracy:
		m["gpusim.warp_insts"] = sums["sim.warp_insts"]
		m["gpusim.cycles"] = sums["sim.cycles"]
		m["gpusim.dram_accesses"] = sums["mem.dram_accesses"]
		m["gpusim.l1_miss_ratio"] = ratio(sums["mem.l1_misses"], sums["mem.l1_hits"]+sums["mem.l1_misses"])
		m["gpusim.stall_visit_ratio"] = ratio(sums["sim.stall_visits"], sums["sim.sm_visits"])
		m["gpusim.alloc_mb"] = sums["alloc_mb"]
		m["gpusim.fullref.mwi_per_s"] = ratio(sums["sim.warp_insts"]/1e6, m["gpusim.fullref_s"])
		m["metrics.enabled_overhead_pct"] = 100 * (ratio(m["gpusim.fullref_s"], probe["gpusim.fullref_nometrics"]) - 1)
		w.experimentsProbes(e, untraced, attributed, m, c)
	case kindParsm:
		m["gpusim.warp_insts"], m["gpusim.cycles"] = sums["par_warp_insts"], sums["par_cycles"]
		m["gpusim.parsm2.mwi_per_s"] = ratio(sums["par_warp_insts"]/1e6, m["gpusim.parsm2_s"])
		m["gpusim.parsm2.cycle_drift_pct"] = 100 * ratio(math.Abs(sums["par_cycles"]-sums["serial_cycles"]), sums["serial_cycles"])
	}
	return m
}

// experimentsProbes measures the harness around the layers: the RunTargets
// calls of the untraced pass and what the layer spans leave unattributed,
// the bundle write, the same call resumed from a filled store, and what the
// par fan-out buys on this host.
func (w *batch) experimentsProbes(e *env, untraced *passResult, attributed float64, m map[string]float64, c *checker) {
	for _, o := range untraced.ops {
		if out, ok := o.out.(*batchOut); ok {
			m["experiments.run_targets_s"] += out.runS
			m["experiments.results_write_s"] += out.writeS
			m["experiments.results_bytes"] += float64(out.bytes)
		}
	}
	m["experiments.unattributed_s"] = m["experiments.run_targets_s"] - attributed

	// One call over the whole list, as cmd/experiments makes it.
	opts := experiments.DefaultOptions(w.size.AccuracyScale)
	opts.Seed = e.seed
	opts.Benchmarks = w.benches
	opts.Samplers = []string{"all"}
	c.attempt("probe")
	timed := func(o experiments.Options) float64 {
		st := time.Now()
		if _, err := experiments.RunTargets(o, accuracySpec, nil); err != nil {
			c.fail("probe", "RunTargets probe: %v", err)
		}
		return time.Since(st).Seconds()
	}

	store, err := durable.Open(filepath.Join(e.workdir, "warm-store"))
	if err != nil {
		c.fail("probe", "opening the warm store: %v", err)
		return
	}
	defer os.RemoveAll(store.Dir())
	filled := opts
	filled.Checkpoint, filled.Subcell = store, true
	timed(filled)
	filled.Resume = true
	m["experiments.warm_run_targets_s"] = timed(filled)

	par.ResetStats()
	experiments.Parallelism = 0
	fanned := timed(opts)
	experiments.Parallelism = 1
	pc := imetrics.New()
	par.StatsInto(pc)
	snap := pc.Snapshot().Counters
	m["par.fanout_scaling"] = ratio(m["experiments.run_targets_s"], fanned)
	m["par.extra_workers"] = float64(snap["par.extra_workers"])
	m["par.acquire_denied"] = float64(snap["par.acquire_denied"])
}
