// Package metrics is the simulator's observability layer: a
// zero-allocation counter/distribution/phase-timer registry that the hot
// layers (internal/gpusim, internal/core, internal/par, the experiment
// harness) write into when a run is instrumented, and that costs almost
// nothing when it is not.
//
// The design is deliberately flat: every counter and distribution is a
// compile-time ID into a fixed array inside a Collector, so an increment is
// one array store and registration never allocates. There is no string
// lookup on any hot path; names exist only at reporting time.
//
// # Disabled collectors
//
// A nil *Collector is the disabled collector. Every method is nil-safe and
// degrades to a single predictable branch, so instrumented code passes the
// collector down unconditionally and never guards call sites itself. The
// contract is that a disabled collector costs <5% on the simulator's
// event-loop hot path (BenchmarkRunLaunchEventLoop runs it disabled); what
// an enabled one costs is bench/'s metrics.enabled_overhead_pct row.
//
// # Concurrency
//
// A Collector is a single-writer structure: one goroutine owns it and
// increments without synchronisation. Parallel work (launch fan-out,
// representative simulations, benchmark grids) gives each worker its own
// Collector and merges them afterwards — Merge locks the *destination*, so
// concurrent merges into one aggregate are safe, and merge order does not
// matter (counters add, distributions combine, phases accumulate by name).
// For genuinely shared counters (the internal/par worker stats) AtomicAdd
// provides race-safe increments.
//
// An aggregate collector — one that only ever receives Merge, AtomicAdd and
// phase timings — may additionally be observed while the run is live:
// Snapshot and Count use atomic reads (and Merge atomic writes), which is
// what lets the job server stream per-phase progress from a running job's
// collector. The single-writer rule still applies to Inc/Add/Observe: a
// collector being written on a hot path must not be snapshotted
// concurrently.
//
// # Determinism
//
// Counters and distributions observed from a deterministic simulation are
// themselves deterministic — they are pinned by the golden-metrics gate
// (internal/gpusim's TestGoldenCounters). Phase timings are wall-clock and
// are excluded from golden comparison.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic uint64 counter.
type Counter int

// The counter set. Grouped by layer; the string names (see counterNames)
// use a "group.name" convention so reports sort into sections.
const (
	// Simulator event loop (internal/gpusim).
	SimLaunches     Counter = iota // launches simulated, or reused inside a reference run
	SimCycles                      // elapsed cycles, summed over launches
	SimWarpInsts                   // warp instructions issued
	SimSMVisits                    // SM visits by the event loop
	SimStallVisits                 // visits that found no ready warp
	SimIssueALU                    // issued: ALU/SFU/shared-mem classes
	SimIssueMem                    // issued: global loads/stores
	SimIssueBar                    // issued: barriers
	SimIssueExit                   // issued: EXIT
	SimTimeJumps                   // idle jumps to the next recorded wake
	SimJumpedCycles                // cycles skipped by those jumps
	SimEpochs                      // parallel-mode epochs executed
	SimDeferredReqs                // parallel-mode L1 misses deferred to a barrier

	// Thread-block and warp scheduling (internal/gpusim).
	SchedWakePushes // warp wake-heap pushes
	SchedTBDispatch // thread blocks dispatched
	SchedTBSkips    // thread blocks fast-forwarded by sampling

	// Memory system (internal/gpusim).
	MemL1Hits
	MemL1Misses
	MemL2Hits
	MemL2Misses
	MemMSHRMerges
	MemMSHRPrunes
	MemWritebacks
	MemDRAMAccesses
	MemDRAMRowHits
	MemDRAMQueued // DRAM accesses that waited behind a busy bank

	// TBPoint pipeline (internal/core).
	CoreLaunches
	CoreClusters
	CoreRepLaunches
	CoreRegions
	CoreWarmUnits
	CoreSimulatedInsts
	CoreSkippedInsts
	// Representative launches on which region sampling fast-forwarded nothing
	// and whose sample was therefore taken from the caller's reference run
	// instead of a second simulation; the rest of core.rep_launches simulated.
	CoreLaunchesReplayed

	// Shared worker budget (internal/par).
	ParLoops
	ParTasks
	ParExtraWorkers
	ParAcquireDenied

	// Experiment-grid durability (internal/experiments): how each grid
	// cell was satisfied. Executed + resumed + failed accounts for every
	// cell of a completed grid, which is how the crash-recovery suite
	// proves a resumed run re-executed nothing.
	ExpCellsExecuted   // cells actually simulated to completion
	ExpCellsResumed    // cells restored from the checkpoint journal
	ExpCellsFailed     // cells that exhausted retries into a CellError
	ExpCellRetries     // retry attempts beyond each cell's first
	ExpCheckpointsSave // successful checkpoint journal writes
	// Reference-run launches not simulated because an earlier launch of the
	// run had identical simulation input (trace.SameInput); their sim.*,
	// sched.* and mem.* content is still counted, from that launch.
	ExpLaunchesReused

	// Sub-cell artifact cache (internal/experiments): each benchmark's full
	// reference run is keyed by its own result-determining option hash and
	// shared through the same durable store as the cell checkpoints, so two
	// jobs whose grids overlap without being cell-identical still reuse the
	// dominant simulation. One hit or miss is counted per cell: whether its
	// reference came from the store (header or artifact) or was simulated.
	// Outcome hits/misses count the per-strategy outcome lookups of the same
	// cache, one per selected strategy per cell.
	SubcellHits
	SubcellMisses
	OutcomeHits
	OutcomeMisses

	// Job server (internal/server). Cache hits/misses count grid cells a
	// job satisfied from / published into the shared artifact cache, so a
	// second client requesting an overlapping grid shows up as hits.
	// Subcell and outcome hits/misses aggregate the per-job sub-cell lookups
	// the same way, and evictions counts entries the bounded cache dropped
	// to stay under its byte budget.
	// The supervision counters (jobs_panicked/stuck/quarantined,
	// admission_rejects, dispatcher_restarts) observe the containment
	// layer: a panicking job is recovered and its dispatcher slot
	// restarted, a wedged job is cancelled by the stuck watchdog, a
	// crash-looping job is quarantined at journal replay, and an
	// over-limit submission is rejected with 429 rather than queued.
	ServerJobsSubmitted
	ServerJobsDone
	ServerJobsFailed
	ServerJobsCancelled
	ServerJobsRequeued    // non-terminal jobs re-queued when the daemon restarted
	ServerJobsPanicked    // jobs terminally failed by a recovered panic
	ServerJobsStuck       // jobs terminally failed by the stuck watchdog
	ServerJobsQuarantined // jobs dead-lettered by the requeue cap at replay
	ServerAdmissionRejects
	ServerDispatcherRestarts // dispatcher slots restarted after a contained panic
	ServerCacheHits
	ServerCacheMisses
	ServerSubcellHits
	ServerSubcellMisses
	ServerOutcomeHits
	ServerOutcomeMisses
	ServerCacheEvictions

	// Estimation-strategy subsystem (internal/sampler, recorded by the
	// experiments harness): how many strategy estimates ran per benchmark
	// cell, and the stratified backend's two-phase unit accounting.
	SamplerEstimates   // strategy estimates computed
	SamplerStrata      // strata across stratified estimates
	SamplerPilotUnits  // stratified pilot-phase units sampled
	SamplerPhase2Units // stratified Neyman-allocated phase-two units

	NumCounters
)

var counterNames = [NumCounters]string{
	SimLaunches:     "sim.launches",
	SimCycles:       "sim.cycles",
	SimWarpInsts:    "sim.warp_insts",
	SimSMVisits:     "sim.sm_visits",
	SimStallVisits:  "sim.stall_visits",
	SimIssueALU:     "sim.issue_alu",
	SimIssueMem:     "sim.issue_mem",
	SimIssueBar:     "sim.issue_bar",
	SimIssueExit:    "sim.issue_exit",
	SimTimeJumps:    "sim.time_jumps",
	SimJumpedCycles: "sim.jumped_cycles",
	SimEpochs:       "sim.epochs",
	SimDeferredReqs: "sim.deferred_reqs",

	SchedWakePushes: "sched.wake_pushes",
	SchedTBDispatch: "sched.tb_dispatch",
	SchedTBSkips:    "sched.tb_skips",

	MemL1Hits:       "mem.l1_hits",
	MemL1Misses:     "mem.l1_misses",
	MemL2Hits:       "mem.l2_hits",
	MemL2Misses:     "mem.l2_misses",
	MemMSHRMerges:   "mem.mshr_merges",
	MemMSHRPrunes:   "mem.mshr_prunes",
	MemWritebacks:   "mem.writebacks",
	MemDRAMAccesses: "mem.dram_accesses",
	MemDRAMRowHits:  "mem.dram_row_hits",
	MemDRAMQueued:   "mem.dram_queued",

	CoreLaunches:         "core.launches",
	CoreClusters:         "core.clusters",
	CoreRepLaunches:      "core.rep_launches",
	CoreRegions:          "core.regions",
	CoreWarmUnits:        "core.warm_units",
	CoreSimulatedInsts:   "core.simulated_insts",
	CoreSkippedInsts:     "core.skipped_insts",
	CoreLaunchesReplayed: "core.launches_replayed",

	ParLoops:         "par.loops",
	ParTasks:         "par.tasks",
	ParExtraWorkers:  "par.extra_workers",
	ParAcquireDenied: "par.acquire_denied",

	ExpCellsExecuted:   "exp.cells_executed",
	ExpCellsResumed:    "exp.cells_resumed",
	ExpCellsFailed:     "exp.cells_failed",
	ExpCellRetries:     "exp.cell_retries",
	ExpCheckpointsSave: "exp.checkpoint_writes",
	ExpLaunchesReused:  "exp.launches_reused",

	SubcellHits:   "subcell.hits",
	SubcellMisses: "subcell.misses",
	OutcomeHits:   "outcome.hits",
	OutcomeMisses: "outcome.misses",

	ServerJobsSubmitted:      "server.jobs_submitted",
	ServerJobsDone:           "server.jobs_done",
	ServerJobsFailed:         "server.jobs_failed",
	ServerJobsCancelled:      "server.jobs_cancelled",
	ServerJobsRequeued:       "server.jobs_requeued",
	ServerJobsPanicked:       "server.jobs_panicked",
	ServerJobsStuck:          "server.jobs_stuck",
	ServerJobsQuarantined:    "server.jobs_quarantined",
	ServerAdmissionRejects:   "server.admission_rejects",
	ServerDispatcherRestarts: "server.dispatcher_restarts",
	ServerCacheHits:          "server.cache_hits",
	ServerCacheMisses:        "server.cache_misses",
	ServerSubcellHits:        "server.subcell_hits",
	ServerSubcellMisses:      "server.subcell_misses",
	ServerOutcomeHits:        "server.outcome_hits",
	ServerOutcomeMisses:      "server.outcome_misses",
	ServerCacheEvictions:     "server.cache_evictions",

	SamplerEstimates:   "sampler.estimates",
	SamplerStrata:      "sampler.strata",
	SamplerPilotUnits:  "sampler.pilot_units",
	SamplerPhase2Units: "sampler.phase2_units",
}

// Name returns the counter's report name ("group.name").
func (c Counter) Name() string { return counterNames[c] }

// Dist identifies one distribution: count/sum/min/max of observed values.
type Dist int

const (
	DistMSHROccupancy  Dist = iota // live MSHR entries, observed per access
	DistDRAMQueueWait              // cycles a DRAM access waited, per access
	DistSMWarpInsts                // per-SM issued instructions, per launch
	DistSMActiveCycles             // per-SM last-issue cycle, per launch

	NumDists
)

var distNames = [NumDists]string{
	DistMSHROccupancy:  "mem.mshr_occupancy",
	DistDRAMQueueWait:  "mem.dram_queue_wait",
	DistSMWarpInsts:    "sim.sm_warp_insts",
	DistSMActiveCycles: "sim.sm_active_cycles",
}

// Name returns the distribution's report name.
func (d Dist) Name() string { return distNames[d] }

type dist struct {
	count, sum uint64
	min, max   uint64
}

type phase struct {
	name  string
	nanos int64
	count int64
}

// Collector accumulates counters, distributions and phase timings for one
// instrumented run (or an aggregation of runs, via Merge). The zero value
// is NOT ready for use; call New. A nil *Collector is the disabled
// collector: every method is a no-op.
type Collector struct {
	c [NumCounters]uint64
	d [NumDists]dist

	mu       sync.Mutex // guards phases and Merge destinations
	phases   []phase    // in first-start order
	phaseIdx map[string]int
}

// New returns an empty, enabled collector.
func New() *Collector {
	return &Collector{phaseIdx: make(map[string]int)}
}

// Inc adds one to the counter.
func (c *Collector) Inc(id Counter) {
	if c != nil {
		c.c[id]++
	}
}

// Add adds n to the counter.
func (c *Collector) Add(id Counter, n uint64) {
	if c != nil {
		c.c[id] += n
	}
}

// AtomicAdd adds n with a race-safe atomic add, for counters shared by
// concurrently running goroutines (the internal/par worker stats).
func (c *Collector) AtomicAdd(id Counter, n uint64) {
	if c != nil {
		atomic.AddUint64(&c.c[id], n)
	}
}

// Count returns the counter's current value (0 on a nil collector). The
// read is atomic, so an aggregate collector may be inspected while workers
// AtomicAdd into it.
func (c *Collector) Count(id Counter) uint64 {
	if c == nil {
		return 0
	}
	return atomic.LoadUint64(&c.c[id])
}

// Observe records one sample of a distribution.
func (c *Collector) Observe(id Dist, v uint64) {
	if c == nil {
		return
	}
	d := &c.d[id]
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
}

// AddPhase accumulates elapsed wall time under the named phase.
func (c *Collector) AddPhase(name string, elapsed time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	i, ok := c.phaseIdx[name]
	if !ok {
		i = len(c.phases)
		c.phases = append(c.phases, phase{name: name})
		c.phaseIdx[name] = i
	}
	c.phases[i].nanos += int64(elapsed)
	c.phases[i].count++
	c.mu.Unlock()
}

// Stopwatch is a started phase timer; Stop records the elapsed time. The
// zero Stopwatch (from a nil collector) is a no-op.
type Stopwatch struct {
	c     *Collector
	name  string
	start time.Time
}

// StartPhase starts timing the named phase.
func (c *Collector) StartPhase(name string) Stopwatch {
	if c == nil {
		return Stopwatch{}
	}
	return Stopwatch{c: c, name: name, start: time.Now()}
}

// Stop records the elapsed time under the stopwatch's phase.
func (s Stopwatch) Stop() {
	if s.c != nil {
		s.c.AddPhase(s.name, time.Since(s.start))
	}
}

// Merge folds src into c: counters add, distributions combine, phase times
// accumulate by name. The destination is locked, so concurrent workers may
// merge their private collectors into one aggregate; src must not be
// written to concurrently. Merge order never changes the result. A nil
// destination or source is a no-op.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Atomic adds (not plain +=) because AtomicAdd writers do not take the
	// mutex: an aggregate receiving Merge from one worker and AtomicAdd
	// from another must stay race-free.
	for i := range src.c {
		if v := src.c[i]; v != 0 {
			atomic.AddUint64(&c.c[i], v)
		}
	}
	for i := range src.d {
		sd := &src.d[i]
		if sd.count == 0 {
			continue
		}
		d := &c.d[i]
		if d.count == 0 || sd.min < d.min {
			d.min = sd.min
		}
		if sd.max > d.max {
			d.max = sd.max
		}
		d.count += sd.count
		d.sum += sd.sum
	}
	for _, p := range src.phases {
		i, ok := c.phaseIdx[p.name]
		if !ok {
			i = len(c.phases)
			c.phases = append(c.phases, phase{name: p.name})
			c.phaseIdx[p.name] = i
		}
		c.phases[i].nanos += p.nanos
		c.phases[i].count += p.count
	}
}

// DistSnapshot is the reportable state of one distribution. Mean is
// derived at rendering time; the snapshot itself holds only exact integers
// so golden comparisons are bit-exact.
type DistSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
}

// Mean returns the distribution's mean observed value.
func (d DistSnapshot) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// PhaseSnapshot is the reportable state of one phase timer.
type PhaseSnapshot struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Snapshot is the machine-readable state of a collector: the payload of
// -metrics-json. Zero-valued counters and unobserved distributions are
// omitted. Counters and Dists are deterministic for deterministic
// simulations; Phases are wall-clock and must be excluded from golden
// comparison.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Dists    map[string]DistSnapshot `json:"dists,omitempty"`
	Phases   []PhaseSnapshot         `json:"phases,omitempty"`
}

// Snapshot captures the collector's current state. Safe to call while
// other goroutines Merge or AtomicAdd into c — a live job's aggregate can
// be observed mid-run. Phases are sorted by name so concurrent completion
// order cannot leak into the output.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.c {
		if v := atomic.LoadUint64(&c.c[i]); v != 0 {
			s.Counters[Counter(i).Name()] = v
		}
	}
	for i, d := range c.d {
		if d.count != 0 {
			if s.Dists == nil {
				s.Dists = map[string]DistSnapshot{}
			}
			s.Dists[Dist(i).Name()] = DistSnapshot{Count: d.count, Sum: d.sum, Min: d.min, Max: d.max}
		}
	}
	for _, p := range c.phases {
		s.Phases = append(s.Phases, PhaseSnapshot{
			Name: p.name, Seconds: float64(p.nanos) / 1e9, Count: p.count,
		})
	}
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Name < s.Phases[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys are sorted by
// encoding/json, so the output is deterministic up to phase wall times).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot decodes a Snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

// WriteText renders the snapshot as a human-readable summary: counters
// grouped by prefix, distributions with derived means, phases with shares
// of the total timed wall clock.
func (s Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintln(w, "counters:")
		group := ""
		for _, n := range names {
			if g := strings.SplitN(n, ".", 2)[0]; g != group {
				group = g
				fmt.Fprintf(w, "  [%s]\n", group)
			}
			fmt.Fprintf(w, "    %-24s %d\n", n, s.Counters[n])
		}
	}
	if len(s.Dists) > 0 {
		dnames := make([]string, 0, len(s.Dists))
		for n := range s.Dists {
			dnames = append(dnames, n)
		}
		sort.Strings(dnames)
		fmt.Fprintln(w, "distributions:")
		for _, n := range dnames {
			d := s.Dists[n]
			fmt.Fprintf(w, "    %-24s count %-10d mean %-12.2f min %-8d max %d\n",
				n, d.Count, d.Mean(), d.Min, d.Max)
		}
	}
	if len(s.Phases) > 0 {
		var total float64
		for _, p := range s.Phases {
			total += p.Seconds
		}
		fmt.Fprintln(w, "phases:")
		for _, p := range s.Phases {
			share := 0.0
			if total > 0 {
				share = p.Seconds / total * 100
			}
			fmt.Fprintf(w, "    %-24s %10.3fs %5.1f%%  (x%d)\n", p.Name, p.Seconds, share, p.Count)
		}
	}
}
