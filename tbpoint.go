// Package tbpoint is a from-scratch Go reproduction of "TBPoint: Reducing
// Simulation Time for Large-Scale GPGPU Kernels" (Huang, Nai, Kim, Lee —
// IPDPS 2014): a profiling-based sampling infrastructure that cuts
// cycle-level GPGPU simulation time by simulating only representative
// kernel launches (inter-launch sampling) and only representative thread
// blocks within them (intra-launch sampling via homogeneous regions).
//
// The package is a facade over the implementation packages:
//
//   - the kernel IR and execution model (internal/isa, internal/kernel),
//   - the trace substrate (internal/trace),
//   - the functional profiler, a GPUOcelot substitute (internal/funcsim),
//   - the cycle-level timing simulator, a Macsim substitute
//     (internal/gpusim),
//   - clustering (internal/cluster) and the Markov-chain IPC-variation
//     model (internal/markov),
//   - TBPoint itself (internal/core), the shared estimate vocabulary
//     (internal/sampling) and the table of estimation strategies the
//     evaluation compares: Random, Systematic, Ideal-Simpoint, TBPoint and
//     two-phase stratified sampling (internal/sampler, internal/simpoint),
//   - the 12 synthetic Table VI benchmark models (internal/workloads) and
//     the evaluation harness (internal/experiments).
//
// Quick start:
//
//	app := tbpoint.MustBenchmark("cfd", 0.1)        // synthetic cfd at 10% scale
//	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
//	prof := tbpoint.Profile(app)                    // one-time, HW independent
//	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
//	// res.Estimate.PredictedIPC, res.Estimate.SampleSize, ...
package tbpoint

import (
	"context"
	"fmt"
	"io"

	"tbpoint/internal/core"
	"tbpoint/internal/experiments"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/markov"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/simpoint"
	"tbpoint/internal/workloads"
)

// Core TBPoint types.
type (
	// Options are TBPoint's tuning parameters (§V-A defaults via
	// DefaultOptions).
	Options = core.Options
	// Result is the outcome of a full TBPoint run.
	Result = core.Result
	// AppProfile is an application plus its one-time functional profile.
	AppProfile = core.AppProfile
	// InterResult is the inter-launch clustering outcome.
	InterResult = core.InterResult
	// RegionTable is the homogeneous region table (Table III).
	RegionTable = core.RegionTable
	// LaunchSample is one launch's homogeneous-region-sampled simulation.
	LaunchSample = core.LaunchSample
	// Epoch is an occupancy-sized group of consecutive thread blocks.
	Epoch = core.Epoch
)

// Execution model types.
type (
	// App is an application: a sequence of kernel launches.
	App = kernel.App
	// Launch is one kernel launch; build one with NewLaunch.
	Launch = kernel.Launch
	// Kernel is a static kernel description.
	Kernel = kernel.Kernel
	// TBParams are per-thread-block dynamic parameters.
	TBParams = kernel.TBParams
	// SMLimits bound per-SM occupancy.
	SMLimits = kernel.SMLimits
	// Dim3 is a CUDA-style grid dimension.
	Dim3 = kernel.Dim3
)

// NewLaunch returns launch idx of kernel k with one thread block per entry
// of params. The launch stores each distinct (Trips, ActiveFrac) once and
// keeps the Trips slices it is handed, so they must not be written to
// afterwards; Launch.Params(tb) reads a block's parameters back (its Trips
// is shared by every block of that shape: read-only).
func NewLaunch(k *Kernel, idx int, params []TBParams) *Launch {
	return kernel.NewLaunch(k, idx, params)
}

// Simulator types.
type (
	// Simulator is the cycle-level GPU timing simulator.
	Simulator = gpusim.Simulator
	// SimConfig configures the simulator (Table V defaults via
	// DefaultSimConfig).
	SimConfig = gpusim.Config
	// LaunchResult is a launch simulation outcome.
	LaunchResult = gpusim.LaunchResult
	// RunOptions configure one launch simulation; its SkipTB is the one
	// question the simulator asks while it runs.
	RunOptions = gpusim.RunOptions
)

// DefaultQuantum is the epoch length (in cycles) the parallel event loop
// (RunOptions.Workers > 1) uses when RunOptions.Quantum is zero.
const DefaultQuantum = gpusim.DefaultQuantum

// Observability types (see internal/metrics).
type (
	// Collector accumulates counters, distributions and phase timings; a
	// nil *Collector disables collection everywhere it is accepted.
	Collector = metrics.Collector
	// MetricsSnapshot is a collector's reportable state.
	MetricsSnapshot = metrics.Snapshot
)

// NewCollector returns an enabled metrics collector. Pass it via
// Options.Metrics, RunOptions.Metrics, ProfileMetrics or
// FullSimulationCtx, then render Snapshot() with WriteJSON/WriteText.
func NewCollector() *Collector { return metrics.New() }

// Profiling and baseline types.
type (
	// LaunchProfile is a launch's functional profile: one counter row per
	// distinct thread block, read per block with Block; read-only.
	LaunchProfile = funcsim.LaunchProfile
	// Estimate is a sampling technique's prediction.
	Estimate = sampling.Estimate
	// AppRun aggregates a full reference simulation.
	AppRun = sampling.AppRun
	// MarkovParams parameterise the §IV-A warp model.
	MarkovParams = markov.Params
	// MonteCarloResult summarises a Fig. 5 style variation study.
	MonteCarloResult = markov.MonteCarloResult
)

// DefaultOptions returns the paper's TBPoint configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultSimConfig returns the Table V simulator configuration.
func DefaultSimConfig() SimConfig { return gpusim.DefaultConfig() }

// NewSimulator constructs a simulator after validating cfg.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return gpusim.New(cfg) }

// MustNewSimulator is NewSimulator for known-good configurations.
func MustNewSimulator(cfg SimConfig) *Simulator { return gpusim.MustNew(cfg) }

// Profile performs the one-time, hardware-independent functional profiling
// of an application (the GPUOcelot step).
func Profile(app *App) *AppProfile { return core.ProfileApp(app) }

// ProfileMetrics is Profile with the pass's wall time recorded as the
// core.profile phase of mc (nil mc behaves exactly like Profile).
func ProfileMetrics(app *App, mc *Collector) *AppProfile {
	return core.ProfileAppMetrics(app, mc)
}

// Run executes the full TBPoint pipeline: inter-launch clustering,
// homogeneous region identification at the simulator's occupancy, sampled
// simulation of the representative launches, and the Table IV prediction.
func Run(sim *Simulator, prof *AppProfile, opts Options) (*Result, error) {
	return core.Run(sim, prof, opts)
}

// Retarget re-runs TBPoint for a different hardware configuration reusing
// the one-time profile and an existing inter-launch clustering (§V-C).
func Retarget(sim *Simulator, prof *AppProfile, inter *InterResult, opts Options) (*Result, error) {
	return core.Retarget(sim, prof, inter, opts)
}

// InterLaunch performs inter-launch sampling alone (Eq. 2 features +
// hierarchical clustering at threshold sigma).
func InterLaunch(prof *AppProfile, sigma float64) *InterResult {
	return core.InterLaunch(prof.Profiles, sigma)
}

// IdentifyRegions performs homogeneous region identification alone
// (§IV-B1) at the given system occupancy.
func IdentifyRegions(lp *LaunchProfile, occupancy int, sigmaIntra, varFactor float64) *RegionTable {
	return core.IdentifyRegions(lp, occupancy, sigmaIntra, varFactor)
}

// Benchmarks returns the names of the 12 built-in Table VI benchmark
// models in the paper's order.
func Benchmarks() []string { return workloads.Names() }

// Benchmark builds a named synthetic benchmark at the given scale
// (1.0 = the paper's Table VI size).
func Benchmark(name string, scale float64) (*App, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(workloads.Config{Scale: scale}), nil
}

// MustBenchmark is Benchmark for known-good names.
func MustBenchmark(name string, scale float64) *App {
	app, err := Benchmark(name, scale)
	if err != nil {
		panic(err)
	}
	return app
}

// FullSimulation runs the reference (unsampled) simulation of every launch
// of app, optionally collecting fixed-size sampling units of unitInsts warp
// instructions with basic block vectors — the input the Random and
// Ideal-Simpoint baselines need. Launches are independent, so they fan out
// over the harness's worker budget; the result is identical to simulating
// them in order. Launches with identical simulation input are simulated once
// and share one *LaunchResult, so treat the results as read-only.
func FullSimulation(sim *Simulator, app *App, unitInsts int64) *AppRun {
	return experiments.FullApp(sim, app, unitInsts)
}

// FullSimulationCtx is FullSimulation with cancellation and observability:
// once ctx is cancelled no further launches start and in-flight ones abort
// at their next sampling-unit boundary, returning a partial AppRun flagged
// Aborted (launches never started stay nil); a non-nil mc receives every
// launch's simulator counters, merged in launch order, and the total wall
// time as the experiments.full_ref phase. A nil or never-cancelled ctx and
// a nil mc behave exactly like FullSimulation, bit for bit.
func FullSimulationCtx(ctx context.Context, sim *Simulator, app *App, unitInsts int64, mc *Collector) *AppRun {
	return experiments.FullAppCtx(ctx, sim, app, unitInsts, mc)
}

// RandomBaseline applies the random-sampling baseline (§V-A) to a full
// simulation: select frac of the fixed-size units at random.
func RandomBaseline(full *AppRun, frac float64, seed uint64) Estimate {
	est, _ := sampler.Random(full, frac, seed)
	return est
}

// SimPointBaseline applies the Ideal-Simpoint baseline (§V-A) to a full
// simulation whose units carry BBVs.
func SimPointBaseline(full *AppRun) Estimate {
	return simpoint.Run(full, simpoint.DefaultOptions()).Estimate
}

// WriteRegionTable serialises a homogeneous region table in the paper's
// Table III row format (region ID, start/end thread block IDs).
func WriteRegionTable(w io.Writer, rt *RegionTable) error {
	return core.WriteRegionTable(w, rt)
}

// ReadRegionTable loads a Table III file written by WriteRegionTable.
func ReadRegionTable(r io.Reader) (*RegionTable, error) {
	return core.ReadRegionTable(r)
}

// SaveProfile persists an application's one-time functional profile so
// later sessions (and other hardware configurations) can reuse it without
// re-profiling.
func SaveProfile(w io.Writer, prof *AppProfile) error {
	return core.WriteProfiles(w, prof.App.Name, prof.Profiles)
}

// LoadProfile restores a saved profile for app (the launches themselves
// are rebuilt from the workload definition; only the profiled counters are
// stored).
func LoadProfile(r io.Reader, app *App) (*AppProfile, error) {
	profiles, err := core.ReadProfiles(r, app.Name)
	if err != nil {
		return nil, err
	}
	return checkProfile(profiles, app)
}

// SaveProfileFile persists a profile to path atomically, wrapped in the
// checksummed durable envelope (see internal/durable): a crash mid-save
// never tears the file, and later corruption is detected on load.
func SaveProfileFile(path string, prof *AppProfile) error {
	return core.WriteProfilesFile(path, prof.App.Name, prof.Profiles)
}

// LoadProfileFile restores a profile saved by SaveProfileFile, verifying
// the envelope's length and checksum before trusting any counter.
func LoadProfileFile(path string, app *App) (*AppProfile, error) {
	profiles, err := core.ReadProfilesFile(path, app.Name)
	if err != nil {
		return nil, err
	}
	return checkProfile(profiles, app)
}

// checkProfile rejects a profile of another build of app (say, another
// scale): each launch's block and basic-block counts must match app's.
func checkProfile(profiles []*funcsim.LaunchProfile, app *App) (*AppProfile, error) {
	if len(profiles) != len(app.Launches) {
		return nil, fmt.Errorf("tbpoint: profile has %d launches, app has %d",
			len(profiles), len(app.Launches))
	}
	for i, lp := range profiles {
		l := app.Launches[i]
		if lp.NumBlocks() != l.NumBlocks() {
			return nil, fmt.Errorf("tbpoint: profile launch %d has %d thread blocks, app launch has %d",
				i, lp.NumBlocks(), l.NumBlocks())
		}
		if n := len(l.Kernel.Program.Blocks); len(lp.BlockCounts) != n {
			return nil, fmt.Errorf("tbpoint: profile launch %d has %d basic-block counts, kernel %s has %d basic blocks",
				i, len(lp.BlockCounts), l.Kernel.Name, n)
		}
	}
	return &AppProfile{App: app, Profiles: profiles}, nil
}

// SystematicBaseline applies systematic sampling (§VI related work) to a
// full simulation: every k-th fixed-size unit from a random start, with
// k = round(1/frac).
func SystematicBaseline(full *AppRun, frac float64, seed uint64) Estimate {
	return sampler.Systematic(full, frac, seed)
}

// PredictIPC evaluates the §IV-A Markov-chain model for a homogeneous
// interval with stall probability p and the given per-warp mean stall
// latencies, in closed form.
func PredictIPC(p float64, stallCycles []float64) float64 {
	return markov.IPCProduct(markov.Params{P: p, M: stallCycles})
}

// IPCVariation runs the Lemma 4.1 Monte-Carlo study: n warps with mean
// stall latency meanM and stall probability p, over the given number of
// samples.
func IPCVariation(p, meanM float64, n, samples int, seed uint64) *MonteCarloResult {
	return markov.MonteCarlo(p, meanM, n, samples, seed, false)
}
