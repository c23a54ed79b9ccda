// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) against the synthetic benchmark suite: Table I, Table VI,
// Fig. 5 (model variation), Fig. 8 (kernel types), Fig. 9 (accuracy),
// Fig. 10 (sample size), Fig. 11 (savings breakdown), and Fig. 12/13
// (hardware sensitivity).
//
// Absolute numbers differ from the paper — the substrate is a from-scratch
// simulator and synthetic workloads — but the harness reports the same
// quantities in the same format so the qualitative shape (who wins, by how
// much, where the outliers are) can be compared directly; see
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"tbpoint/internal/core"
	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/stats"
	"tbpoint/internal/trace"
	"tbpoint/internal/workloads"
)

// Options configure a harness run.
type Options struct {
	// Scale is the workload scale factor (1.0 = Table VI size).
	Scale float64
	// Seed perturbs workload construction and the Random baseline.
	Seed uint64
	// Benchmarks restricts the run to the named benchmarks (nil = all 12).
	Benchmarks []string
	// RandomFrac is the Random baseline's sampling fraction (paper: 0.10).
	RandomFrac float64
	// UnitDivisor sets the fixed sampling-unit size to roughly
	// totalInsts/UnitDivisor (clamped); the paper's absolute 1M-instruction
	// units assume multi-billion-instruction kernels, so the unit count is
	// what must be preserved across scales.
	UnitDivisor int
	// MinUnitInsts / MaxUnitInsts clamp the unit size.
	MinUnitInsts int64
	MaxUnitInsts int64
	// TBPoint overrides the TBPoint options (nil = core.DefaultOptions),
	// for threshold sweeps and ablations.
	TBPoint *core.Options
	// Samplers selects the estimation strategies each benchmark runs, by
	// registry name (internal/sampler); empty selects sampler.DefaultSet.
	// Results, report columns and the Pareto section are sized from the
	// selection. Each strategy's outcome is stored under its own key, so a
	// cell composed from the store holds exactly the selected strategies.
	Samplers []string
	// Ctx, when non-nil, makes the harness cancellable end to end: grids
	// stop claiming new cells, in-flight simulations abort at their next
	// sampling-unit boundary, and the Run* functions return Ctx's error.
	// The CLIs wire their -timeout flag (and SIGINT) here. A nil or
	// never-cancelled Ctx leaves every run bit-identical.
	Ctx context.Context
	// Checkpoint, when non-nil, stores what every benchmark cell is made of
	// as soon as it is computed, each at its own key (see subcell): the full
	// reference run, its two-IPC header, and every strategy's outcome. With
	// Resume a cell — accuracy, sensitivity or ablation — is composed from
	// those entries and computes only what is missing, so a crashed run
	// resumes and a repeated one does no work; the motivation study reads
	// the accuracy cell's reference run. Never changes results. A failed
	// write is fatal to the run.
	Checkpoint *durable.Store
	Resume     bool
	// Subcell is ignored: the store is on whenever Checkpoint is set. It is
	// kept only because bench/ still assigns it.
	Subcell bool
	// Retry is ignored: every grid cell runs exactly once. It is kept only
	// because bench/ still assigns it.
	Retry RetryPolicy
	// Verbose emits progress lines to Out as benchmarks complete.
	Verbose bool
	// Out receives report text (required by the Print* helpers).
	Out io.Writer
	// Metrics, when non-nil, accumulates the harness's observability data:
	// per-phase wall time (experiments.build, experiments.full_ref, one
	// sampler.<name> phase per estimation strategy, plus the core.* phases)
	// and every simulation's counters. Each benchmark records into a
	// private collector that is merged into this one when the benchmark
	// finishes, so parallel grids stay race-free.
	Metrics *metrics.Collector
}

// RetryPolicy is the type of the ignored Options.Retry, kept only because
// bench/ still assigns it.
type RetryPolicy struct {
	Attempts int
	Seed     uint64
}

// DefaultOptions returns paper-faithful settings at the given scale.
func DefaultOptions(scale float64) Options {
	return Options{
		Scale:        scale,
		RandomFrac:   0.10,
		UnitDivisor:  400,
		MinUnitInsts: 2000,
		MaxUnitInsts: 1 << 20, // the paper's one-million-instruction units
	}
}

func (o Options) specs() ([]*workloads.Spec, error) {
	if len(o.Benchmarks) == 0 {
		return workloads.All(), nil
	}
	var out []*workloads.Spec
	for _, name := range o.Benchmarks {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// UnitSize is the fixed sampling-unit size for an application of totalInsts
// warp instructions: totalInsts/UnitDivisor clamped to [MinUnitInsts,
// MaxUnitInsts]. Every reference run — harness cells, cmd/tbpoint, the
// golden counters — sizes its units here, at DefaultOptions unless a sweep
// says otherwise.
func (o Options) UnitSize(totalInsts int64) int64 {
	div, lo, hi := o.unitRule()
	u := totalInsts / div
	if u < lo {
		u = lo
	}
	if hi > 0 && u > hi {
		u = hi
	}
	if u < 1 {
		u = 1
	}
	return u
}

// unitRule is UnitSize's rule in normal form: a divisor below 1 is the
// default 400 and a maximum of 0 or less is none (0). With the benchmark,
// scale and seed it determines every unit size, so store keys carry the rule
// and a cell whose entries all hit never builds its workload to derive one.
func (o Options) unitRule() (div, lo, hi int64) {
	div, lo, hi = int64(o.UnitDivisor), o.MinUnitInsts, o.MaxUnitInsts
	if div < 1 {
		div = 400
	}
	if hi < 0 {
		hi = 0
	}
	return div, lo, hi
}

// buildApp builds spec's workload at o's scale and seed and sizes its
// sampling units, timed as the experiments.build phase.
func (o Options) buildApp(spec *workloads.Spec, mc *metrics.Collector) (*kernel.App, int64) {
	defer mc.StartPhase("experiments.build").Stop()
	app := spec.Build(workloads.Config{Scale: o.Scale, Seed: o.Seed})
	return app, o.UnitSize(app.TotalWarpInsts())
}

func (o Options) tbpointOptions() core.Options {
	tb := core.DefaultOptions()
	if o.TBPoint != nil {
		tb = *o.TBPoint
	}
	return tb
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Verbose && o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

// FullApp simulates every launch of app under sim, collecting fixed units
// (and BBVs) of the given size.
func FullApp(sim *gpusim.Simulator, app *kernel.App, unitInsts int64) *sampling.AppRun {
	return FullAppCtx(nil, sim, app, unitInsts, nil)
}

// FullAppParallel is FullApp with each launch simulated by gpusim's
// epoch-synchronized parallel event loop (workers > 1); quantum < 1 selects
// gpusim.DefaultQuantum. workers <= 1 is exactly FullApp.
func FullAppParallel(sim *gpusim.Simulator, app *kernel.App, unitInsts int64, workers int, quantum int64) *sampling.AppRun {
	run, _ := fullApp(nil, sim, app, unitInsts, nil, workers, quantum)
	return run
}

// FullAppMetrics is FullApp with the run's simulator counters and wall time
// (phase experiments.full_ref) recorded into mc. Each simulated launch
// records into a private collector; afterwards every launch, in launch
// order, merges the collector of the simulation that stands for it, so
// counter totals describe the whole reference run and do not depend on
// worker interleaving. A nil mc behaves exactly like FullApp.
func FullAppMetrics(sim *gpusim.Simulator, app *kernel.App, unitInsts int64, mc *metrics.Collector) *sampling.AppRun {
	return FullAppCtx(nil, sim, app, unitInsts, mc)
}

// FullAppCtx is the cancellable FullAppMetrics, and the one reference-run
// loop every caller outside gpusim goes through (the harness cells, the root
// facade, cmd/tbpoint, the golden-counter tests): a cancelled ctx stops
// claiming new launches and aborts in-flight ones at their next
// sampling-unit boundary, returning a partial AppRun flagged Aborted (with
// nil entries for launches never started). A nil ctx behaves exactly like
// FullAppMetrics. A launch whose simulation panics re-raises the worker's
// *par.PanicError on the caller's goroutine.
//
// Launches whose simulation input is identical (trace.SameInput) are
// simulated once: the later ones share the earliest one's *LaunchResult,
// which callers must therefore treat as read-only.
func FullAppCtx(ctx context.Context, sim *gpusim.Simulator, app *kernel.App, unitInsts int64, mc *metrics.Collector) *sampling.AppRun {
	run, _ := fullApp(ctx, sim, app, unitInsts, mc, 0, 0)
	return run
}

// launchKey buckets the launches trace.SameInput can call equal. It covers
// only what every equal pair shares whatever the program reads — kernel,
// block count, trip counts — so launches that differ in active fraction or
// seed collide, and equality is always decided by SameInput, never by key.
type launchKey struct {
	kernel *kernel.Kernel
	blocks int
	trips  uint64 // FNV-1a over every block's trip counts, in block order
}

func keyOf(l *kernel.Launch) launchKey {
	h := uint64(14695981039346656037)
	for _, s := range l.ShapeOf {
		for _, t := range l.Shapes[s].Trips {
			h = (h ^ uint64(t)) * 1099511628211
		}
	}
	return launchKey{l.Kernel, l.NumBlocks(), h}
}

// fullApp is FullAppCtx plus the engine choice: workers > 1 selects gpusim's
// epoch-parallel engine (FullAppParallel is the only caller that does). It
// also returns how many launches it handed to the simulator.
func fullApp(ctx context.Context, sim *gpusim.Simulator, app *kernel.App, unitInsts int64, mc *metrics.Collector, workers int, quantum int64) (*sampling.AppRun, int) {
	par.SetLimit(Parallelism)
	defer mc.StartPhase("experiments.full_ref").Stop()
	// Iterative applications re-launch identical work, the simulator restarts
	// its caches, MSHRs and DRAM per launch and is deterministic, so a launch
	// equal to an earlier one has that launch's result: rep[i] is the
	// earliest launch equal to launch i, and only the launches that are
	// their own representative are simulated. The grouping lives for this
	// call; nothing is dereferenced that SameInput has not checked, so a
	// broken launch still fails inside RunLaunch, on a worker.
	rep := make([]int, len(app.Launches))
	var distinct []int
	buckets := make(map[launchKey][]int)
	for i, l := range app.Launches {
		rep[i] = i
		key := keyOf(l)
		for _, j := range buckets[key] {
			if trace.SameInput(app.Launches[j], l) {
				rep[i] = j
				break
			}
		}
		if rep[i] == i {
			buckets[key] = append(buckets[key], i)
			distinct = append(distinct, i)
		}
	}
	mcs := make([]*metrics.Collector, len(app.Launches))
	if mc != nil {
		for _, i := range distinct {
			mcs[i] = metrics.New()
		}
	}
	// The distinct launches are independent simulations of the same machine
	// configuration, so they fan out over the shared worker budget; results
	// land at their launch index, making the run identical to a sequential
	// one (each RunLaunch is deterministic and shares no mutable state).
	run := &sampling.AppRun{Launches: make([]*gpusim.LaunchResult, len(app.Launches))}
	err := par.ForEachCtx(ctx, len(distinct), func(d int) error {
		i := distinct[d]
		run.Launches[i] = sim.RunLaunch(app.Launches[i], gpusim.RunOptions{
			FixedUnitInsts: unitInsts,
			Ctx:            ctx,
			Metrics:        mcs[i],
			Workers:        workers,
			Quantum:        quantum,
		})
		return nil
	})
	// The tasks return no error, so err is either ctx's (the nil entries
	// below flag the run Aborted) or a recovered simulator panic, which
	// must not pass for an abort.
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	// Every launch, in launch order, takes its representative's result — an
	// aborted or never-started representative leaves its whole group so — and
	// merges that simulation's collector again, so the counters describe the
	// reference run's content, not the work done for it.
	for i, r := range rep {
		run.Launches[i] = run.Launches[r]
		mc.Merge(mcs[r])
		if l := run.Launches[i]; l == nil || l.Aborted {
			run.Aborted = true
		}
	}
	mc.AtomicAdd(metrics.ExpLaunchesReused, uint64(len(rep)-len(distinct)))
	return run, len(distinct)
}

// BenchResult is one benchmark's accuracy outcome under one configuration
// (the data behind Fig. 9, 10 and 11).
type BenchResult struct {
	Name string
	Type workloads.Type

	// FullIPC is the reference whole-GPU IPC; FullOverallIPC the Fig. 9
	// per-SM formulation.
	FullIPC        float64
	FullOverallIPC float64

	// Samplers maps strategy registry name -> full outcome (estimate,
	// error, 95% CI, stratified accounting) for every selected strategy.
	// Reports order their columns by the registry, not by this map.
	Samplers map[string]sampler.Outcome `json:"samplers"`
}

// Outcome returns the named strategy's outcome; the boolean reports whether
// the strategy ran for this result at all.
func (r *BenchResult) Outcome(name string) (sampler.Outcome, bool) {
	o, ok := r.Samplers[name]
	return o, ok
}

// samplerNames is the canonical form of the run's strategy selection
// (the default trio when Options.Samplers is empty). An invalid selection
// is passed through raw here — it fails with a proper error when the set
// is resolved in RunBenchmark — so key hashing stays total.
func (o Options) samplerNames() []string {
	names, err := sampler.Normalize(o.Samplers)
	if err != nil {
		return append([]string(nil), o.Samplers...)
	}
	return names
}

// samplerParams derives the shared strategy knobs from the harness
// options: the Random fraction doubles as the unit budget of every
// budget-driven strategy, and the stratified strata follow the TBPoint
// inter-launch sigma so threshold sweeps move both.
func (o Options) samplerParams() sampler.Params {
	return sampler.Params{
		Frac:  o.RandomFrac,
		Seed:  o.Seed,
		Sigma: o.tbpointOptions().SigmaInter,
	}
}

// RunBenchmark executes the full §V-B comparison for one benchmark under
// the given simulator configuration: every selected estimation strategy
// (internal/sampler) against the same full reference simulation.
func RunBenchmark(spec *workloads.Spec, cfg gpusim.Config, opts Options) (*BenchResult, error) {
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	names, err := sampler.Normalize(opts.Samplers)
	if err != nil {
		return nil, err
	}
	set, err := sampler.Resolve(names)
	if err != nil {
		return nil, err
	}
	sim, err := gpusim.New(cfg)
	if err != nil {
		return nil, err
	}
	// The benchmark records into a private collector merged into
	// opts.Metrics at the end, so a parallel grid of RunBenchmark calls
	// never writes the caller's collector concurrently. A verbose run
	// collects too: its progress lines report what the benchmark counted.
	var mc *metrics.Collector
	if opts.Metrics != nil || opts.Verbose {
		mc = metrics.New()
		defer opts.Metrics.Merge(mc)
	}
	r := &BenchResult{
		Name:     spec.Name,
		Type:     spec.Type,
		Samplers: make(map[string]sampler.Outcome, len(set)),
	}

	// The cell is composed from the sub-cell cache (see subcell): reference
	// header, then each selected outcome. Without a store sc is nil, nothing
	// hits and everything below runs. Only a cell that misses something
	// builds its workload.
	sc := opts.subcell(spec.Name, cfg)
	var hdr refHeader
	haveHdr := sc.load("refhdr", "", &hdr)
	var missing []sampler.Sampler
	for _, s := range set {
		if out, ok := sc.loadOutcome(s.Name, mc); ok {
			r.Samplers[s.Name] = out
		} else {
			missing = append(missing, s)
		}
	}
	if haveHdr && len(missing) == 0 {
		mc.AtomicAdd(metrics.SubcellHits, 1)
	} else {
		app, unit := opts.buildApp(spec, mc)
		full, simulated, err := opts.fullReference(sc, sim, app, unit, mc)
		if err != nil {
			return nil, err
		}
		if !haveHdr {
			hdr = refHeader{FullIPC: full.IPC(), FullOverallIPC: full.OverallIPC()}
			if err := sc.publish("refhdr", "", hdr); err != nil {
				return nil, err
			}
		}
		if err := opts.estimate(missing, sim, app, full, sc, mc, r); err != nil {
			return nil, err
		}
		// Composed wholly from the store, a cell is not executed.
		if simulated || len(missing) > 0 {
			mc.Inc(metrics.ExpCellsExecuted)
		}
	}
	r.FullIPC, r.FullOverallIPC = hdr.FullIPC, hdr.FullOverallIPC
	// Err is derived from the header on every path, so a composed result and
	// a computed one are the same bytes.
	for _, s := range set {
		out := r.Samplers[s.Name]
		out.Err = stats.RelErr(out.Estimate.PredictedIPC, r.FullIPC)
		r.Samplers[s.Name] = out
	}
	return r, nil
}

// estimate runs the given strategies against full, records their outcomes
// in r and publishes each to sc.
func (o Options) estimate(set []sampler.Sampler, sim *gpusim.Simulator, app *kernel.App,
	full *sampling.AppRun, sc *subcell, mc *metrics.Collector, r *BenchResult) error {
	if len(set) == 0 {
		return nil
	}
	tbopts := o.tbpointOptions()
	tbopts.Metrics = mc
	tbopts.Ctx = o.Ctx
	in := sampler.Input{
		Sim:     sim,
		Prof:    core.ProfileAppMetrics(app, mc),
		Full:    full,
		Params:  o.samplerParams(),
		TBPoint: tbopts,
	}
	for _, s := range set {
		sw := mc.StartPhase("sampler." + s.Name)
		out, err := s.Estimate(in)
		sw.Stop()
		if err != nil {
			return err
		}
		if s.Name == sampler.NameTBPoint {
			o.progress("# %-8s tbpoint: replayed %d of %d representatives", app.Name,
				mc.Count(metrics.CoreLaunchesReplayed), mc.Count(metrics.CoreRepLaunches))
		}
		mc.Inc(metrics.SamplerEstimates)
		mc.Add(metrics.SamplerStrata, uint64(out.Strata))
		mc.Add(metrics.SamplerPilotUnits, uint64(out.PilotUnits))
		mc.Add(metrics.SamplerPhase2Units, uint64(out.Phase2Units))
		if err := sc.publish("outcome", s.Name, out); err != nil {
			return err
		}
		r.Samplers[s.Name] = out
	}
	return nil
}
