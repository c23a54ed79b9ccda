// Package server is TBPoint's simulation-as-a-service layer: a job server
// that accepts experiment-grid jobs over HTTP, queues them in one FIFO,
// runs them in submission order on the shared worker budget, caches
// shareable artifacts across jobs, and survives restarts.
//
// The decomposition follows the driver/dispatcher split of production GPU
// simulators (mgpusim's client → driver → command processor → dispatcher
// chain): the Driver owns job lifecycle — submission, the queue, per-job
// deadlines, cancellation, durable state, and the memory of past work —
// while Dispatchers own simulator execution: each dispatcher goroutine
// takes one job at a time and runs it through the shared
// experiments.RunTargets engine, whose grid cells fan out over the
// internal/par worker budget.
//
// Two durable stores (internal/durable) back the server:
//
//   - the job journal records every job's spec and state transition, so a
//     killed daemon re-queues its unfinished jobs on restart;
//   - the artifact cache holds what grid cells are composed from under the
//     keys the -checkpoint-dir CLI flow uses, so a second job requesting an
//     overlapping grid composes its cells byte-identically instead of
//     re-simulating them.
package server

import (
	"encoding/json"
	"fmt"
	"time"

	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "1h30m") and unmarshals from either a string or integer
// nanoseconds — so job specs stay curl-friendly.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		dur, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("server: bad duration %q: %v", s, err)
		}
		*d = Duration(dur)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("server: duration must be a string like \"30s\" or integer nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// JobSpec is a submitted job: which targets to run and under which options.
// The fields mirror the cmd/experiments flags — a job with the same spec as
// a one-shot CLI invocation produces a byte-identical results bundle.
type JobSpec struct {
	// Targets names the experiment targets (accuracy, sensitivity, fig9,
	// all, ...); validated at submission via
	// experiments.ExpandTargets.
	Targets []string `json:"targets"`
	// Scale is the workload scale factor (0 selects 1.0, the CLI default).
	Scale float64 `json:"scale,omitempty"`
	// Seed perturbs workload construction and the Random baseline.
	Seed uint64 `json:"seed,omitempty"`
	// Benchmarks restricts the run to the named benchmarks (nil = all 12).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Samplers selects the estimation strategies by registry name
	// (internal/sampler; "default"/"all" expand). Nil selects the default
	// random/simpoint/tbpoint trio. Validated and canonicalized at
	// submission.
	Samplers []string `json:"samplers,omitempty"`
	// Samples is the fig5 Monte-Carlo sample count (0 = 10000).
	Samples int `json:"samples,omitempty"`
	// CellDeadline bounds each grid cell's wall time (0 = no limit).
	CellDeadline Duration `json:"cell_deadline,omitempty"`
	// Deadline bounds the whole job's wall time, mapped onto the run's
	// context: a blown deadline aborts in-flight cells at their next
	// boundary and fails the job (0 = no limit).
	Deadline Duration `json:"deadline,omitempty"`
	// NoCache makes the job compute every cell fresh instead of composing
	// it from the artifact cache. What it computes is still published to
	// the cache for later jobs.
	NoCache bool `json:"no_cache,omitempty"`
	// Client is an accepted, ignored label: jobs run in submission order
	// whoever sent them. It stays so that senders still setting it are not
	// refused as carrying an unknown field.
	Client string `json:"client,omitempty"`
}

// Validate normalizes defaults in place and rejects specs that could never
// run. It is called at submission so a bad job fails the HTTP request, not
// the dispatcher.
func (s *JobSpec) Validate() error {
	if _, err := experiments.ExpandTargets(s.Targets); err != nil {
		return err
	}
	if s.Scale < 0 {
		return fmt.Errorf("server: negative scale %g", s.Scale)
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	for _, name := range s.Benchmarks {
		if _, err := workloads.ByName(name); err != nil {
			return err
		}
	}
	if s.Samples < 0 {
		return fmt.Errorf("server: negative samples %d", s.Samples)
	}
	if len(s.Samplers) > 0 {
		// Canonicalize at the HTTP boundary: unknown strategies fail the
		// submission, and the stored spec (hence the artifact-cache keys)
		// uses the canonical order.
		names, err := sampler.Normalize(s.Samplers)
		if err != nil {
			return err
		}
		s.Samplers = names
	}
	if s.Deadline < 0 || s.CellDeadline < 0 {
		return fmt.Errorf("server: negative deadline")
	}
	if len(s.Client) > 64 {
		return fmt.Errorf("server: client name longer than 64 bytes")
	}
	return nil
}

// options builds the experiments.Options a dispatcher runs this spec under.
// Everything here must match what cmd/experiments derives from the
// equivalent flags — that is the byte-identity contract.
func (s JobSpec) options() experiments.Options {
	opts := experiments.DefaultOptions(s.Scale)
	opts.Seed = s.Seed
	opts.Benchmarks = s.Benchmarks
	opts.Samplers = s.Samplers
	opts.CellDeadline = time.Duration(s.CellDeadline)
	return opts
}

// runSpec is the RunTargets half of the spec.
func (s JobSpec) runSpec() experiments.RunSpec {
	return experiments.RunSpec{Targets: s.Targets, Samples: s.Samples}
}

// JobState is a job's lifecycle state.
type JobState string

// The lifecycle states: Submit queues a job, a dispatcher runs it, and it
// ends done, failed or cancelled; a restart re-queues unfinished jobs, except
// that one found running across more than MaxRequeues restarts is
// quarantined. lifecycle.go holds the full transition table.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
	// StateQuarantined is the dead-letter terminal state: never dispatched
	// again, history kept for post-mortem (GET /jobs?state=quarantined,
	// tbpointctl list -state quarantined).
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateQuarantined
}

// The JobFailure.Kind vocabulary; JobStatus.FailureKind derives it for display.
const (
	FailureError       = "error"
	FailurePanic       = "panic"
	FailureStuck       = "stuck"
	FailureQuarantined = "quarantined"
)

// JobFailure is the structured failure record attached to a terminally
// failed (or quarantined) job: what class of failure it was, and — for a
// contained panic — the panic value and captured stack.
type JobFailure struct {
	// Kind classifies the failure: error | panic | stuck | quarantined.
	Kind string `json:"kind"`
	// Panic is the recovered panic value's string form (Kind "panic").
	Panic string `json:"panic,omitempty"`
	// Stack is the goroutine stack captured at recovery (Kind "panic").
	Stack string `json:"stack,omitempty"`
}

// JobStatus is the wire representation of one job, returned by the status
// and list endpoints and streamed by the events endpoint — and, with Phases
// nil, the job's journal record: everything but Phases survives a restart.
type JobStatus struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	Spec        JobSpec    `json:"spec"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Error is the failure reason for StateFailed (and the cancellation
	// cause for StateCancelled, when one was recorded).
	Error string `json:"error,omitempty"`
	// Failure classifies a failed/quarantined job (error|panic|stuck|
	// quarantined) and carries the contained panic's value and stack.
	Failure *JobFailure `json:"failure,omitempty"`
	// Requeues counts daemon restarts this job survived before running.
	Requeues int `json:"requeues,omitempty"`
	// RunRequeues counts the restarts that found this job *running* — the
	// daemon died while it held a dispatcher: the crash-loop signal the
	// quarantine policy acts on.
	RunRequeues int `json:"run_requeues,omitempty"`
	// CacheMisses counts the cells the job computed something for
	// (exp.cells_executed); a job composed wholly from the cache reports 0.
	// CacheHits is always 0 (no cell is stored whole); bench/ reads it.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// SubcellHits / SubcellMisses count, per cell, whether its full
	// reference came from the sub-cell cache (header or artifact) or had to
	// be simulated — these hit whenever the workload matches, e.g. two jobs
	// over the same workload with different sampler sets. OutcomeHits /
	// OutcomeMisses count the per-strategy outcome lookups of those cells:
	// a miss is one strategy estimated (and published) by this job.
	SubcellHits   uint64 `json:"subcell_hits,omitempty"`
	SubcellMisses uint64 `json:"subcell_misses,omitempty"`
	OutcomeHits   uint64 `json:"outcome_hits,omitempty"`
	OutcomeMisses uint64 `json:"outcome_misses,omitempty"`
	// CellsFailed counts cells that degraded to CellError entries.
	CellsFailed uint64 `json:"cells_failed,omitempty"`
	// Aborted mirrors the results bundle's aborted flag.
	Aborted bool `json:"aborted,omitempty"`
	// WallSeconds is the job's execution wall time (live while running).
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Phases is the live per-phase progress snapshot while the job runs
	// (target.*, core.*, experiments.* wall times), and the final phase
	// breakdown once it is terminal.
	Phases []metrics.PhaseSnapshot `json:"phases,omitempty"`
}

// FailureKind is the parseable failure classification for status lines:
// empty for jobs that did not fail, otherwise error|panic|stuck|quarantined.
func (st JobStatus) FailureKind() string {
	if st.Failure != nil {
		return st.Failure.Kind
	}
	switch st.State {
	case StateFailed:
		return FailureError
	case StateQuarantined:
		return FailureQuarantined
	}
	return ""
}
