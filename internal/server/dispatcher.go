package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
)

// dispatcherLoop is one dispatcher slot: it owns at most one simulator run
// at a time, pulling queued jobs from the driver until shutdown. Several
// dispatchers run concurrent jobs; their grid cells all share the
// internal/par worker budget, so adding dispatchers trades per-job latency
// for queue throughput without oversubscribing the machine.
//
// The slot is supervised: a panic that unwinds out of a job's run is
// recovered by runContained — the job fails terminally with its panic and
// stack recorded — and the slot itself is restarted with a fresh goroutine
// (server.dispatcher_restarts), so a panicking job costs the daemon one
// goroutine stack, never a dispatcher.
func (d *Driver) dispatcherLoop(i int) {
	defer d.wg.Done()
	for {
		j := d.nextJob()
		if j == nil {
			return
		}
		d.logf("dispatcher %d picked up job %s", i, j.rec.ID)
		if !d.runContained(i, j) {
			// The run panicked. The deferred recovery already failed the
			// job; restart the slot on a clean stack so whatever state the
			// unwound frames left behind cannot leak into the next job.
			d.mu.Lock()
			if !d.closed {
				d.wg.Add(1)
				go d.dispatcherLoop(i)
			}
			d.mu.Unlock()
			return
		}
	}
}

// runContained runs one job under the panic-containment contract: a panic
// anywhere in the run path is recovered, recorded as a structured
// JobFailure{panic, stack} on the job record, and turned into the terminal
// failed(panic) verdict; ok reports whether the slot is still clean.
func (d *Driver) runContained(i int, j *Job) (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ok = false
		stack := string(debug.Stack())
		d.mc.AtomicAdd(metrics.ServerJobsPanicked, 1)
		d.mc.AtomicAdd(metrics.ServerDispatcherRestarts, 1)
		d.logf("dispatcher %d: job %s panicked: %v", i, j.rec.ID, r)
		d.mu.Lock()
		defer d.mu.Unlock()
		j.cancel = nil
		j.cancelCause = nil
		if j.rec.State.Terminal() {
			// The panic escaped after the verdict (e.g. inside a journal
			// write); the job's outcome stands, only the slot restarts.
			return
		}
		j.rec.Failure = &JobFailure{Kind: FailurePanic, Panic: fmt.Sprint(r), Stack: stack}
		d.finishLocked(j, StateFailed, fmt.Sprintf("panic: %v", r))
	}()
	d.runJob(j)
	return true
}

// nextJob blocks until a queued job is available (skipping jobs cancelled
// while queued) or the driver closes, in which case it returns nil.
func (d *Driver) nextJob() *Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return nil
		}
		if !d.paused {
			// Drain the scheduler past jobs cancelled while queued without
			// waiting in between: a cancelled entry at the head must not
			// absorb the wakeup meant for a live job behind it, and every
			// wake re-checks closed/paused from the top so a pause flipped
			// mid-drain parks the dispatcher instead of spinning.
			for d.sched.len() > 0 {
				id, ok := d.sched.pop()
				if !ok {
					break
				}
				if j := d.jobs[id]; j != nil && j.rec.State == StateQueued {
					return j
				}
			}
		}
		d.cond.Wait()
	}
}

// runJob executes one job through the shared experiments engine. The
// dispatcher's contract:
//
//   - the run's context is a child of the driver's, with the job deadline
//     layered on, so both Cancel and Close abort it at the next cell
//     boundary; the stuck watchdog cancels the same context with the
//     ErrStuck cause, which is what distinguishes failed(stuck) from a
//     user cancel or a shutdown requeue;
//   - the artifact cache is attached as the run's checkpoint store with
//     Resume on (unless the spec opts out), so cells another job already
//     computed are resumed, not re-simulated;
//   - the job runs under its own collector — never the server's — so the
//     results bundle stays byte-identical to the one-shot CLI (which also
//     runs one collector per process), and live status snapshots observe
//     only this job's phases;
//   - a job aborted because the daemon is shutting down is re-queued in the
//     journal, not failed: the next process picks it up.
func (d *Driver) runJob(j *Job) {
	spec := j.rec.Spec
	// The run context layers the job deadline onto the driver's lifetime.
	// WithCancelCause lets the watchdog leave its verdict on the context;
	// both cancel funcs must be retired — overwriting the first with the
	// timeout's would leak its context until daemon shutdown.
	runCtx, cancelRun := context.WithCancelCause(d.ctx)
	var cancel context.CancelFunc = func() { cancelRun(nil) }
	ctx := context.Context(runCtx)
	if spec.Deadline > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(runCtx, time.Duration(spec.Deadline))
		cancel = func() {
			cancelDeadline()
			cancelRun(nil)
		}
	}
	defer cancel()
	jmc := metrics.New()
	report := &syncBuffer{}

	d.mu.Lock()
	if j.rec.State != StateQueued { // raced with Cancel
		d.mu.Unlock()
		return
	}
	j.rec.State = StateRunning
	j.rec.StartedAt = time.Now().UTC()
	j.cancel = cancel
	j.cancelCause = cancelRun
	j.mc = jmc
	j.report = report
	j.started = time.Now()
	j.progress = progressMark{} // fresh watchdog window for this run
	if err := d.persistLocked(j); err != nil {
		d.logf("journaling %s -> running failed: %v", j.rec.ID, err)
	}
	d.mu.Unlock()

	// The chaos seam (Config.Chaos only): deterministic job-level faults
	// for the supervision suites. A panic here unwinds into runContained;
	// a wedge parks until some supervisor (watchdog, cancel, shutdown)
	// cancels the run context; a crash fires the driver's Crash injector
	// (os.Exit under tbpointd — the quarantine proof's real process death).
	if d.cfg.Chaos {
		switch spec.Fault {
		case FaultPanic:
			panic(fmt.Sprintf("chaos: injected panic in job %s", j.rec.ID))
		case FaultStuck:
			<-ctx.Done()
		case FaultCrash:
			d.crashInj.Fire()
		}
	}

	opts := spec.options()
	opts.Ctx = ctx
	opts.Metrics = jmc
	opts.Checkpoint = d.cache
	opts.Resume = !spec.NoCache
	opts.Subcell = true
	opts.Verbose = true
	opts.Out = report

	start := time.Now()
	bundle, runErr := experiments.RunTargets(opts, spec.runSpec(), report)
	wall := time.Since(start)

	// Cache accounting: cells satisfied from the shared artifact cache vs
	// computed (and published) fresh, plus the finer sub-cell artifact
	// lookups that hit across overlapping-but-non-identical jobs. Feed the
	// per-job numbers into the server-wide counters /metrics exposes.
	hits := jmc.Count(metrics.ExpCellsResumed)
	misses := jmc.Count(metrics.ExpCellsExecuted)
	subHits := jmc.Count(metrics.SubcellHits)
	subMisses := jmc.Count(metrics.SubcellMisses)
	outHits := jmc.Count(metrics.OutcomeHits)
	outMisses := jmc.Count(metrics.OutcomeMisses)
	d.mc.AtomicAdd(metrics.ServerCacheHits, hits)
	d.mc.AtomicAdd(metrics.ServerCacheMisses, misses)
	d.mc.AtomicAdd(metrics.ServerSubcellHits, subHits)
	d.mc.AtomicAdd(metrics.ServerSubcellMisses, subMisses)
	d.mc.AtomicAdd(metrics.ServerOutcomeHits, outHits)
	d.mc.AtomicAdd(metrics.ServerOutcomeMisses, outMisses)

	// Persist the results bundle before the state flips to done: a client
	// that observes "done" must be able to fetch the result. The bundle is
	// written exactly as cmd/experiments -json writes it (same envelope, no
	// server-side additions) — that is the byte-identity contract.
	var persistErr error
	if runErr == nil && !bundle.Aborted {
		persistErr = experiments.WriteResultsFile(d.resultPath(j.rec.ID), bundle)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncCacheMetricsLocked()
	j.cancel = nil
	j.cancelCause = nil
	j.rec.WallSeconds = wall.Seconds()
	j.rec.CacheHits = hits
	j.rec.CacheMisses = misses
	j.rec.SubcellHits = subHits
	j.rec.SubcellMisses = subMisses
	j.rec.OutcomeHits = outHits
	j.rec.OutcomeMisses = outMisses
	j.rec.CellsFailed = jmc.Count(metrics.ExpCellsFailed)
	j.rec.Aborted = bundle.Aborted
	switch {
	case runErr != nil:
		d.finishLocked(j, StateFailed, runErr.Error())
	case bundle.Aborted && j.userCancel:
		d.finishLocked(j, StateCancelled, "cancelled")
	case bundle.Aborted && errors.Is(context.Cause(runCtx), ErrStuck):
		// The watchdog's verdict: the run was cancelled for making no
		// progress. Terminal — a wedged job re-queued would wedge again.
		j.rec.Failure = &JobFailure{Kind: FailureStuck}
		d.mc.AtomicAdd(metrics.ServerJobsStuck, 1)
		d.finishLocked(j, StateFailed, ErrStuck.Error())
	case bundle.Aborted && d.closed:
		// Daemon shutdown, not a verdict on the job: back to the queue for
		// the next process. Cells completed before the abort are in the
		// artifact cache, so the re-run resumes instead of recomputing.
		j.rec.State = StateQueued
		j.rec.StartedAt = time.Time{}
		j.rec.Aborted = false
		if err := d.persistLocked(j); err != nil {
			d.logf("journaling %s requeue failed: %v", j.rec.ID, err)
		}
		d.logf("job %s requeued for next process (shutdown)", j.rec.ID)
	case bundle.Aborted && ctx.Err() == context.DeadlineExceeded:
		d.finishLocked(j, StateFailed, "job deadline exceeded")
	case bundle.Aborted:
		d.finishLocked(j, StateFailed, "run aborted")
	case persistErr != nil:
		d.finishLocked(j, StateFailed, "persisting results: "+persistErr.Error())
	default:
		d.finishLocked(j, StateDone, "")
	}
}
