package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/metrics"
)

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("server: no such job")

// ErrShutdown reports an operation on a closed driver.
var ErrShutdown = errors.New("server: driver is shut down")

// ErrOverloaded reports an admission-control rejection: the queue bound
// (global or per-client) is reached and the submission was refused rather
// than accepted into an unbounded backlog. The HTTP layer maps it to
// 429 + Retry-After; the client retries it inside its backoff.
var ErrOverloaded = errors.New("server: job queue is full")

// OverloadError carries the admission-rejection details: which bound was
// hit and how long the submitter should wait before retrying. It wraps
// ErrOverloaded.
type OverloadError struct {
	// Scope is "global" or the client name whose per-client bound was hit.
	Scope string
	// Queued and Limit are the bound's observed occupancy and cap.
	Queued, Limit int
	// RetryAfter is the server's backoff hint (the Retry-After header).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: job queue is full (%s: %d queued >= limit %d), retry after %s",
		e.Scope, e.Queued, e.Limit, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// DefaultMaxRequeues is the poison-job quarantine cap: a job observed
// running across more than this many daemon deaths is dead-lettered at
// replay instead of requeued.
const DefaultMaxRequeues = 3

// admissionRetryAfter is the backoff hint attached to 429 rejections.
const admissionRetryAfter = time.Second

// jobKeyPrefix namespaces job records inside the journal store.
const jobKeyPrefix = "job/"

// Config configures a Driver.
type Config struct {
	// StateDir holds the server's durable state: the job journal
	// (StateDir/jobs), the artifact cache (StateDir/cache) and completed
	// results bundles (StateDir/results). Required.
	StateDir string
	// Dispatchers is the number of dispatcher goroutines — the maximum
	// number of jobs running concurrently (0 selects 2). Each running job's
	// grid cells additionally fan out over the shared internal/par budget.
	Dispatchers int
	// Paused makes the driver accept and journal jobs without dispatching
	// any; a later restart without Paused drains the queue. (Operationally:
	// drain-and-upgrade. In CI: the deterministic queue-restart case.)
	// SetPaused flips the mode at runtime.
	Paused bool
	// MaxRequeues is the poison-job quarantine cap: a job whose journal
	// record shows it was *running* across more than MaxRequeues daemon
	// deaths is moved to StateQuarantined at replay instead of requeued
	// (0 selects DefaultMaxRequeues; negative disables quarantine).
	MaxRequeues int
	// StuckAfter arms the stuck-job watchdog: a running job whose
	// progress fingerprint (per-phase timings + counters of its live
	// collector) has not changed for at least this long has its run
	// context cancelled with ErrStuck and fails terminally as stuck,
	// freeing the dispatcher. The watchdog samples every StuckAfter/4 (but
	// no more often than every 10ms), so a stuck job is detected within
	// StuckAfter plus one sample. 0 (the default) disables the watchdog.
	StuckAfter time.Duration
	// MaxQueued bounds the number of queued jobs across all clients:
	// submissions past it are rejected with ErrOverloaded (HTTP 429 +
	// Retry-After) instead of growing the backlog without bound. 0 keeps
	// the queue unbounded. Running jobs do not count against the bound.
	MaxQueued int
	// MaxQueuedPerClient bounds each tenant's own queue the same way, so
	// one client cannot consume the whole global budget. 0 = unbounded.
	MaxQueuedPerClient int
	// CacheMaxBytes bounds the artifact cache's on-disk footprint: writes
	// over the budget evict least-recently-used entries (counted as
	// server.cache_evictions). Evicted cells and artifacts recompute on
	// their next use — the bound trades work, never correctness. 0 keeps
	// the cache unbounded.
	CacheMaxBytes int64
	// Metrics receives the server-wide counters (server.jobs_*,
	// server.cache_hits/misses, server.subcell_hits/misses,
	// server.cache_evictions). Nil disables them.
	Metrics *metrics.Collector
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...interface{})
}

// Job is the driver's in-memory view of one job: the journaled record plus
// live-only state (the collector, the cancel func, the report buffer).
type Job struct {
	rec        JobStatus // what the journal holds; only applyLocked changes its State
	mc         *metrics.Collector
	cancel     context.CancelCauseFunc // aborts the run: nil cause for a user cancel, ErrStuck from the watchdog
	userCancel bool
	report     *syncBuffer
	done       chan struct{} // closed when the job reaches a terminal state
	progress   progressMark  // the watchdog's last fingerprint observation
}

// Driver owns job lifecycle: submission, validation, the fair-share queue,
// per-job deadlines and cancellation, durable journaling, and restart
// recovery. Execution itself belongs to the dispatchers (dispatcher.go).
type Driver struct {
	cfg        Config
	mc         *metrics.Collector
	journal    *durable.Store // job records
	cache      *durable.Store // artifact cache shared by all jobs
	resultsDir string

	ctx    context.Context // dies at Close; parent of every job context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond // wakes idle dispatchers on submit/close
	jobs   map[string]*Job
	order  []string  // all known job IDs, submission order
	sched  *drrSched // queued job IDs, per-client DRR (see sched.go)
	nextID int
	paused bool // runtime dispatch gate, seeded from Config.Paused
	closed bool
	wg     sync.WaitGroup
	// evictionsSeen is the cache eviction count already rolled into the
	// server-wide counter (the store counts monotonically, the driver
	// publishes deltas).
	evictionsSeen int64
}

// Open loads (or creates) the server state under cfg.StateDir, replays the
// journal — a job a killed daemon left queued or running is queued again,
// and resumes from the artifact cache rather than re-simulating — and
// starts the dispatchers.
func Open(cfg Config) (*Driver, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("server: Config.StateDir is required")
	}
	journal, err := durable.Open(filepath.Join(cfg.StateDir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("server: opening job journal: %w", err)
	}
	cache, err := durable.Open(filepath.Join(cfg.StateDir, "cache"))
	if err != nil {
		return nil, fmt.Errorf("server: opening artifact cache: %w", err)
	}
	resultsDir := filepath.Join(cfg.StateDir, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	d := &Driver{
		cfg:        cfg,
		mc:         cfg.Metrics,
		journal:    journal,
		cache:      cache,
		resultsDir: resultsDir,
		jobs:       map[string]*Job{},
		sched:      newDRRSched(),
		paused:     cfg.Paused,
	}
	d.cond = sync.NewCond(&d.mu)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	if q := journal.Quarantined() + cache.Quarantined(); q > 0 {
		d.logf("quarantined %d corrupted state file(s) in %s", q, cfg.StateDir)
	}
	if cfg.CacheMaxBytes > 0 {
		// Bound the cache now: a directory inherited from an unbounded (or
		// larger-budget) daemon is trimmed before any job runs, and the
		// startup evictions are published like any others.
		cache.SetMaxBytes(cfg.CacheMaxBytes)
		d.syncCacheMetricsLocked()
	}

	maxRequeues := cfg.MaxRequeues
	if maxRequeues == 0 {
		maxRequeues = DefaultMaxRequeues
	}
	// Replay the journal. Keys() is sorted and IDs are zero-padded, so
	// unfinished jobs re-enter the queue in submission order.
	for _, key := range journal.Keys() {
		id, ok := strings.CutPrefix(key, jobKeyPrefix)
		if !ok {
			continue
		}
		data, _ := journal.Get(key)
		var rec JobStatus
		if json.Unmarshal(data, &rec) != nil || rec.ID != id || !slices.Contains(jobStates, rec.State) {
			d.logf("ignoring malformed job record %q", key)
			continue
		}
		job := &Job{rec: rec, done: make(chan struct{})}
		d.jobs[id] = job
		d.order = append(d.order, id)
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > d.nextID {
			d.nextID = n
		}
		if rec.State.Terminal() {
			close(job.done)
			continue
		}
		ev, detail := replayEvent(rec, maxRequeues)
		if err := d.applyLocked(job, ev, detail); err != nil {
			return nil, err
		}
	}

	n := cfg.Dispatchers
	if n <= 0 {
		n = 2
	}
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.dispatcherLoop()
	}
	if cfg.StuckAfter > 0 {
		d.wg.Add(1)
		go d.watchdogLoop()
	}
	return d, nil
}

func (d *Driver) logf(format string, args ...interface{}) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// persistLocked journals the job's record, for applyLocked. Callers hold d.mu.
func (d *Driver) persistLocked(j *Job) error {
	data, err := json.Marshal(j.rec)
	if err != nil {
		return err
	}
	return d.journal.Put(jobKeyPrefix+j.rec.ID, data)
}

// Submit validates, journals and enqueues a job; a journal that cannot be
// written fails the submission. A submission past the queue bounds
// (Config.MaxQueued / MaxQueuedPerClient) is rejected with an *OverloadError
// instead of queued: under overload the server sheds load at admission,
// where the client can back off, rather than inside an unbounded backlog.
func (d *Driver) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return JobStatus{}, ErrShutdown
	}
	if d.cfg.MaxQueued > 0 && d.sched.len() >= d.cfg.MaxQueued {
		d.mc.AtomicAdd(metrics.ServerAdmissionRejects, 1)
		return JobStatus{}, &OverloadError{
			Scope: "global", Queued: d.sched.len(),
			Limit: d.cfg.MaxQueued, RetryAfter: admissionRetryAfter,
		}
	}
	if n := d.sched.clientLen(spec.clientKey()); d.cfg.MaxQueuedPerClient > 0 && n >= d.cfg.MaxQueuedPerClient {
		d.mc.AtomicAdd(metrics.ServerAdmissionRejects, 1)
		return JobStatus{}, &OverloadError{
			Scope: spec.clientKey(), Queued: n,
			Limit: d.cfg.MaxQueuedPerClient, RetryAfter: admissionRetryAfter,
		}
	}
	id := fmt.Sprintf("j%06d", d.nextID+1)
	job := &Job{
		rec:  JobStatus{ID: id, Spec: spec, SubmittedAt: time.Now().UTC()},
		done: make(chan struct{}),
	}
	if err := d.applyLocked(job, evSubmit, ""); err != nil {
		return JobStatus{}, fmt.Errorf("server: journaling job: %w", err)
	}
	d.nextID++
	d.jobs[id] = job
	d.order = append(d.order, id)
	d.cond.Broadcast()
	return job.rec, nil
}

// Cancel cancels a job: a queued job terminates immediately, a running job
// has its context cancelled and terminates when in-flight cells reach their
// next boundary. Cancelling a terminal job is a no-op (its status is
// returned unchanged).
func (d *Driver) Cancel(id string) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if j.rec.State == StateRunning {
		j.userCancel = true // the aborted run names evCancel
		j.cancel(nil)
	} else {
		_ = d.applyLocked(j, evCancel, "") // a terminal job rejects the event: nothing to cancel
	}
	return d.statusLocked(j), nil
}

// statusLocked builds the wire status, attaching live progress for running
// jobs (wall clock, per-phase snapshot, cache counters so far). Callers
// hold d.mu.
func (d *Driver) statusLocked(j *Job) JobStatus {
	st := j.rec
	if j.mc != nil {
		if st.State == StateRunning {
			st.WallSeconds = time.Since(*st.StartedAt).Seconds()
			st.readCounters(j.mc)
		}
		st.Phases = j.mc.Snapshot().Phases
	}
	return st
}

// readCounters copies the job collector's cache accounting into the status
// (the one place the cell, sub-cell and outcome counters are read).
func (st *JobStatus) readCounters(mc *metrics.Collector) {
	st.CacheHits = mc.Count(metrics.ExpCellsResumed)
	st.CacheMisses = mc.Count(metrics.ExpCellsExecuted)
	st.SubcellHits = mc.Count(metrics.SubcellHits)
	st.SubcellMisses = mc.Count(metrics.SubcellMisses)
	st.OutcomeHits = mc.Count(metrics.OutcomeHits)
	st.OutcomeMisses = mc.Count(metrics.OutcomeMisses)
	st.CellsFailed = mc.Count(metrics.ExpCellsFailed)
}

// Status returns one job's status.
func (d *Driver) Status(id string) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return d.statusLocked(j), nil
}

// Jobs lists every known job in submission order (history survives
// restarts — the driver remembers past work).
func (d *Driver) Jobs() []JobStatus {
	return d.JobsInState("")
}

// JobsInState lists the jobs currently in the given state, in submission
// order (the empty state matches everything) — the engine behind
// GET /jobs?state=... and `tbpointctl list -state`.
func (d *Driver) JobsInState(state JobState) []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		if j := d.jobs[id]; state == "" || j.rec.State == state {
			out = append(out, d.statusLocked(j))
		}
	}
	return out
}

// SetPaused flips the dispatch gate at runtime: paused, the driver keeps
// accepting and journaling jobs but dispatches none; unpausing wakes the
// dispatchers onto whatever queued up meanwhile.
func (d *Driver) SetPaused(p bool) {
	d.mu.Lock()
	d.paused = p
	d.mu.Unlock()
	d.cond.Broadcast()
}

// Ready reports whether the server should receive new traffic — the
// /readyz verdict, distinct from liveness: a paused, draining, or
// queue-saturated daemon is alive (healthz 200) but not ready (readyz
// 503), so load balancers stop routing to it before requests start
// bouncing off admission control.
func (d *Driver) Ready() (bool, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.closed:
		return false, "draining"
	case d.paused:
		return false, "paused"
	case d.cfg.MaxQueued > 0 && d.sched.len() >= d.cfg.MaxQueued:
		return false, fmt.Sprintf("queue full (%d/%d)", d.sched.len(), d.cfg.MaxQueued)
	}
	return true, ""
}

// Done exposes the job's completion channel (closed at terminal state) for
// event streaming.
func (d *Driver) Done(id string) (<-chan struct{}, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.done, nil
}

// resultPath is where a completed job's results bundle lives.
func (d *Driver) resultPath(id string) string {
	return filepath.Join(d.resultsDir, id+".json")
}

// Result returns the raw enveloped results.json bytes of a done job —
// byte-identical to what `experiments -json` writes for the same spec.
func (d *Driver) Result(id string) ([]byte, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	state := j.rec.State
	d.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("server: job %s is %s, results exist only for %s jobs", id, state, StateDone)
	}
	return os.ReadFile(d.resultPath(id))
}

// Report returns the job's captured report/progress text (empty for jobs
// run by an earlier process).
func (d *Driver) Report(id string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return "", ErrNotFound
	}
	if j.report == nil {
		return "", nil
	}
	return j.report.String(), nil
}

// syncCacheMetricsLocked folds cache evictions that happened since the last
// sync into the server-wide counter. Callers hold d.mu (or, in Open, have
// exclusive access).
func (d *Driver) syncCacheMetricsLocked() {
	if ev := d.cache.Evictions(); ev > d.evictionsSeen {
		d.mc.AtomicAdd(metrics.ServerCacheEvictions, uint64(ev-d.evictionsSeen))
		d.evictionsSeen = ev
	}
}

// Metrics snapshots the server-wide collector.
func (d *Driver) Metrics() metrics.Snapshot {
	d.mu.Lock()
	d.syncCacheMetricsLocked()
	d.mu.Unlock()
	return d.mc.Snapshot()
}

// Cache is the artifact cache store, for tbpointd's crash hook
// (durable.Store.ArmCrashHook); arm it while the driver is still paused.
func (d *Driver) Cache() *durable.Store { return d.cache }

// CacheSizeBytes reports the artifact cache's accounted on-disk footprint.
func (d *Driver) CacheSizeBytes() int64 { return d.cache.SizeBytes() }

// Close shuts the driver down: running jobs are aborted and re-queued in
// the journal (a graceful stop leaves what a crash would: unfinished work is
// never dropped) and Close blocks until every dispatcher has exited.
func (d *Driver) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cancel()
	d.cond.Broadcast()
	d.wg.Wait()
	return nil
}

// syncBuffer is a concurrency-safe, bounded report buffer: grid cells
// print progress from worker goroutines, and the HTTP layer reads while a
// job runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// reportLimit bounds a job's captured report text.
const reportLimit = 1 << 20

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < reportLimit {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
