package main

// sizing holds every scale constant of the benchmark. fullSize is frozen:
// the numbers later issues cite were measured with it. tinySize exists only
// so that bench_test.go can run every workload in seconds.
type sizing struct {
	// AccuracyScale is the workload scale of accuracy-compute and
	// accuracy-memory.
	AccuracyScale float64
	// EstimateScale is the workload scale of sampled-estimate, the paper's
	// "large-scale kernel" regime.
	EstimateScale float64
	// ParsmScale is the per-benchmark scale of fullref-parsm.
	ParsmScale map[string]float64
	// ParsmWorkers is the worker count of the epoch-parallel engine.
	ParsmWorkers int
	// WarmupScale is the scale of the warm-up pass the batch workloads run
	// during set-up.
	WarmupScale float64

	// ServeScale and ServeBenchmarks shape every served job.
	ServeScale      float64
	ServeBenchmarks []string
	// ServeColdJobs is the number of distinct jobs serve-cold drains.
	ServeColdJobs int
	// ServeColdCacheBytes is serve-cold's artifact-cache budget, small
	// enough that the pass evicts.
	ServeColdCacheBytes int64
	// ServeWarmSeeds is the number of base jobs serve-warm prefills; the
	// timed region drains ServeWarmSeeds x len(warmSamplerSets) jobs.
	ServeWarmSeeds int
	// Clients is the number of closed-loop HTTP clients (tenants) and
	// Dispatchers the number of dispatcher goroutines of the daemon.
	Clients, Dispatchers int
	// OracleSample is how many served bundles an untraced run compares
	// byte for byte with a one-shot run (a traced run compares them all).
	OracleSample int

	// MinRounds is the least number of rounds (set-up + timed pass) a run
	// makes, so that setup_s and wall_s are medians.
	MinRounds int
	// StoreProbeOps is the number of puts and gets per payload size of the
	// durable.Store probe.
	StoreProbeOps int
}

var fullSize = sizing{
	AccuracyScale:       0.125,
	EstimateScale:       8,
	ParsmScale:          map[string]float64{"black": 0.5, "lbm": 0.125},
	ParsmWorkers:        2,
	WarmupScale:         0.01,
	ServeScale:          0.03,
	ServeBenchmarks:     []string{"cfd", "spmv", "black", "bfs"},
	ServeColdJobs:       24,
	ServeColdCacheBytes: 2 << 20,
	ServeWarmSeeds:      8,
	Clients:             2,
	Dispatchers:         2,
	OracleSample:        6,
	MinRounds:           3,
	StoreProbeOps:       32,
}

var tinySize = sizing{
	AccuracyScale:       0.01,
	EstimateScale:       0.05,
	ParsmScale:          map[string]float64{"black": 0.02, "lbm": 0.01},
	ParsmWorkers:        2,
	WarmupScale:         0.01,
	ServeScale:          0.01,
	ServeBenchmarks:     []string{"cfd", "bfs"},
	ServeColdJobs:       6,
	ServeColdCacheBytes: 96 << 10,
	ServeWarmSeeds:      2,
	Clients:             2,
	Dispatchers:         2,
	OracleSample:        2,
	MinRounds:           1,
	StoreProbeOps:       4,
}

// Benchmark lists of the batch workloads.
var (
	// computeBenchmarks issue at most 0.3 DRAM accesses per warp
	// instruction: gpusim's issue, scheduler and wake code does the work.
	computeBenchmarks = []string{"cfd", "kmeans", "hotspot", "black", "conv"}
	// memoryBenchmarks miss L1 almost always and issue 0.5 to 2.2 DRAM
	// accesses per warp instruction; they include the paper's irregular
	// Type-I kernels, where region sampling still simulates 40-70%.
	memoryBenchmarks = []string{"bfs", "sssp", "mst", "mri", "spmv", "lbm", "stream"}
	// parsmBenchmarks are the two cases the parallel engine's scaling was
	// argued on: one compute-bound, one memory-bound.
	parsmBenchmarks = []string{"black", "lbm"}
)

// coldSamplerSets cycle over serve-cold's jobs: the default trio (legacy
// bundle shape), every registered strategy, and a two-strategy set.
var coldSamplerSets = [][]string{nil, {"all"}, {"tbpoint", "stratified"}}

// warmSamplerSets are serve-warm's eight non-default selections. Each
// contains tbpoint, so every warm job still runs the sampled simulation, and
// none equals the prefilled default trio, so every cell key misses while
// every sub-cell key hits.
var warmSamplerSets = [][]string{
	{"all"},
	{"tbpoint"},
	{"tbpoint", "stratified"},
	{"simpoint", "tbpoint"},
	{"random", "tbpoint"},
	{"systematic", "tbpoint"},
	{"systematic", "tbpoint", "stratified"},
	{"random", "systematic", "tbpoint"},
}

// workloadDef names a workload and says why it exists; BENCHMARK.json
// carries the same two fields and bench_test.go keeps them in step.
type workloadDef struct {
	Name string
	Why  string
	make func(sizing) workload
}

var workloadDefs = []workloadDef{
	{"accuracy-compute", "reproducer's accuracy grid on compute-bound kernels: gpusim issue/scheduler code carries the time, the memory system little",
		func(s sizing) workload { return newAccuracy(computeBenchmarks, s) }},
	{"accuracy-memory", "same grid on memory-bound and irregular kernels: gpusim memSystem/DRAM and core region sampling carry the time",
		func(s sizing) workload { return newAccuracy(memoryBenchmarks, s) }},
	{"sampled-estimate", "what a TBPoint user waits for at large scale: build, funcsim profile, cluster, sampled simulation; no full reference runs at all",
		func(s sizing) workload { return newEstimate(s) }},
	{"fullref-parsm", "the same gpusim model through the epoch-parallel engine with 2 workers, so the second engine has a baseline of its own",
		func(s sizing) workload { return newParsm(s) }},
	{"serve-cold", "distinct jobs through tbpointd with every cache lookup missing: full simulation under par fan-out plus durable puts and LRU eviction",
		func(s sizing) workload { return newServe(false, s) }},
	{"serve-warm", "cell keys miss but sub-cell keys hit: no full simulation, so latency is durable gets, artifact decode, samplers and server overhead",
		func(s sizing) workload { return newServe(true, s) }},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

func newWorkload(name string, s sizing) (workload, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d.make(s), true
		}
	}
	return nil, false
}

// metricDef describes one reported metric. Layer and Moves are filled for
// per-layer metrics only: which package the number belongs to and which
// end-to-end metric, on which workload, it is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
}

// endToEndMetrics are gated: every workload reports every one of them with
// tracing off. Every bound is the contract's maximum: on the 2-core shared
// sandbox this was sized on, ten runs of one commit spread by up to 9 %
// (14 % on the tail), and a bound should be three times that (README.md has
// the table). A quieter host could afford tighter ones.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "op_latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_latency_tail_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerMetrics are reported by the traced run only and are not gated. A
// workload that never calls a layer reports 0 for it: the layer did no work.
var perLayerMetrics = []metricDef{
	{Name: "workloads.build_s", Unit: "s", Better: "lower", Layer: "workloads", Moves: "wall_s@sampled-estimate"},
	{Name: "workloads.tbs", Unit: "count", Better: "lower", Layer: "workloads", Moves: "none (input size)"},
	{Name: "funcsim.profile_s", Unit: "s", Better: "lower", Layer: "funcsim", Moves: "wall_s@sampled-estimate"},
	{Name: "funcsim.tbs_per_s", Unit: "1/s", Better: "higher", Layer: "funcsim", Moves: "wall_s@sampled-estimate"},
	{Name: "cluster.hier_s", Unit: "s", Better: "lower", Layer: "cluster", Moves: "wall_s@sampled-estimate"},
	{Name: "cluster.kmeans_bic_s", Unit: "s", Better: "lower", Layer: "cluster", Moves: "op_latency_p50_s@serve-warm"},
	{Name: "core.inter_s", Unit: "s", Better: "lower", Layer: "core", Moves: "wall_s@sampled-estimate"},
	{Name: "core.regions_s", Unit: "s", Better: "lower", Layer: "core", Moves: "wall_s@sampled-estimate"},
	{Name: "core.run_s", Unit: "s", Better: "lower", Layer: "core", Moves: "wall_s@sampled-estimate, wall_s@accuracy-memory"},
	{Name: "core.sampled_sim_s", Unit: "s", Better: "lower", Layer: "core", Moves: "wall_s@sampled-estimate, op_latency_p50_s@serve-warm"},
	{Name: "core.clusters", Unit: "count", Better: "lower", Layer: "core", Moves: "none (exact-repeat)"},
	{Name: "core.regions", Unit: "count", Better: "lower", Layer: "core", Moves: "none (exact-repeat)"},
	{Name: "core.sample_pct", Unit: "%", Better: "lower", Layer: "core", Moves: "core.sampled_sim_s"},
	{Name: "gpusim.fullref_s", Unit: "s", Better: "lower", Layer: "gpusim", Moves: "wall_s@accuracy-*, op_latency_*@serve-cold"},
	{Name: "gpusim.fullref.mwi_per_s", Unit: "Mwi/s", Better: "higher", Layer: "gpusim", Moves: "wall_s@accuracy-*"},
	{Name: "gpusim.warp_insts", Unit: "count", Better: "lower", Layer: "gpusim", Moves: "none (exact-repeat)"},
	{Name: "gpusim.cycles", Unit: "count", Better: "lower", Layer: "gpusim", Moves: "none (exact-repeat)"},
	{Name: "gpusim.dram_accesses", Unit: "count", Better: "lower", Layer: "gpusim", Moves: "none (exact-repeat)"},
	{Name: "gpusim.l1_miss_ratio", Unit: "ratio", Better: "lower", Layer: "gpusim", Moves: "none (exact-repeat)"},
	{Name: "gpusim.stall_visit_ratio", Unit: "ratio", Better: "lower", Layer: "gpusim", Moves: "wall_s@accuracy-compute"},
	{Name: "gpusim.alloc_mb", Unit: "MB", Better: "lower", Layer: "gpusim", Moves: "peak_rss_mb"},
	{Name: "gpusim.parsm2_s", Unit: "s", Better: "lower", Layer: "gpusim", Moves: "wall_s@fullref-parsm"},
	{Name: "gpusim.parsm2.mwi_per_s", Unit: "Mwi/s", Better: "higher", Layer: "gpusim", Moves: "wall_s@fullref-parsm"},
	{Name: "gpusim.parsm2.scaling.black", Unit: "ratio", Better: "higher", Layer: "gpusim", Moves: "wall_s@fullref-parsm"},
	{Name: "gpusim.parsm2.scaling.lbm", Unit: "ratio", Better: "higher", Layer: "gpusim", Moves: "wall_s@fullref-parsm"},
	{Name: "gpusim.parsm2.cycle_drift_pct", Unit: "%", Better: "lower", Layer: "gpusim", Moves: "none (exact-repeat)"},
	{Name: "sampler.random_s", Unit: "s", Better: "lower", Layer: "sampler", Moves: "op_latency_p50_s@serve-warm"},
	{Name: "sampler.systematic_s", Unit: "s", Better: "lower", Layer: "sampler", Moves: "op_latency_p50_s@serve-warm"},
	{Name: "sampler.simpoint_s", Unit: "s", Better: "lower", Layer: "simpoint", Moves: "op_latency_p50_s@serve-warm"},
	{Name: "sampler.tbpoint_s", Unit: "s", Better: "lower", Layer: "sampler", Moves: "op_latency_p50_s@serve-warm, wall_s@accuracy-memory"},
	{Name: "sampler.stratified_s", Unit: "s", Better: "lower", Layer: "sampler", Moves: "op_latency_p50_s@serve-warm"},
	{Name: "sampler.stratified.phase2_units", Unit: "count", Better: "lower", Layer: "sampler", Moves: "none (exact-repeat)"},
	{Name: "experiments.run_targets_s", Unit: "s", Better: "lower", Layer: "experiments", Moves: "wall_s@accuracy-*"},
	{Name: "experiments.unattributed_s", Unit: "s", Better: "lower", Layer: "experiments", Moves: "wall_s@accuracy-*"},
	{Name: "experiments.results_write_s", Unit: "s", Better: "lower", Layer: "experiments", Moves: "wall_s@accuracy-*, op_latency_*@serve-*"},
	{Name: "experiments.results_bytes", Unit: "count", Better: "lower", Layer: "experiments", Moves: "experiments.results_write_s"},
	{Name: "experiments.warm_run_targets_s", Unit: "s", Better: "lower", Layer: "experiments", Moves: "op_latency_p50_s@serve-warm"},
	{Name: "par.fanout_scaling", Unit: "ratio", Better: "higher", Layer: "par", Moves: "op_latency_*@serve-cold"},
	{Name: "par.extra_workers", Unit: "count", Better: "higher", Layer: "par", Moves: "par.fanout_scaling"},
	{Name: "par.acquire_denied", Unit: "count", Better: "lower", Layer: "par", Moves: "par.fanout_scaling"},
	{Name: "durable.put_p50_us", Unit: "us", Better: "lower", Layer: "durable", Moves: "op_latency_*@serve-cold"},
	{Name: "durable.get_p50_us", Unit: "us", Better: "lower", Layer: "durable", Moves: "op_latency_*@serve-warm"},
	{Name: "durable.put_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "durable", Moves: "op_latency_*@serve-cold"},
	{Name: "durable.reload_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "durable", Moves: "setup_s@serve-* (daemon restart)"},
	{Name: "durable.evictions", Unit: "count", Better: "lower", Layer: "durable", Moves: "op_latency_*@serve-cold"},
	{Name: "durable.cache_mb", Unit: "MB", Better: "lower", Layer: "durable", Moves: "peak_rss_mb@serve-*"},
	{Name: "server.submit_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-warm"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-*"},
	{Name: "server.run_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-*"},
	{Name: "server.finish_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-warm"},
	{Name: "server.notify_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-warm"},
	{Name: "server.result_fetch_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-warm"},
	{Name: "server.hit_roundtrip_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_latency_*@serve-warm"},
	{Name: "server.cell_hit_ratio", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op_latency_*@serve-*"},
	{Name: "server.subcell_hit_ratio", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op_latency_*@serve-warm"},
	{Name: "server.admission_rejects", Unit: "count", Better: "lower", Layer: "server", Moves: "failed operations"},
	{Name: "server.client_wait_overshoot_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "none (client.Wait is not on the measured path)"},
	{Name: "metrics.enabled_overhead_pct", Unit: "%", Better: "lower", Layer: "metrics", Moves: "none when disabled"},
	{Name: "attribution_gap_pct", Unit: "%", Better: "lower", Layer: "bench", Moves: "none (quality of the trace)"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Moves: "none (quality of the trace)"},
	{Name: "tbpoint_err_geomean_pct", Unit: "%", Better: "lower", Layer: "accuracy", Moves: "none (exact-repeat per seed)"},
	{Name: "tbpoint_sample_geomean_pct", Unit: "%", Better: "lower", Layer: "accuracy", Moves: "none (exact-repeat per seed)"},
	{Name: "stratified_err_geomean_pct", Unit: "%", Better: "lower", Layer: "accuracy", Moves: "none (exact-repeat per seed)"},
}

// exactLayerMetrics are the traced-run statistics that must repeat exactly
// for a seed; the golden files pin them next to the end-to-end results.
var exactLayerMetrics = []string{
	"gpusim.warp_insts", "gpusim.cycles", "gpusim.dram_accesses",
	"core.clusters", "core.regions", "sampler.stratified.phase2_units",
}
