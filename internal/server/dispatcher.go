package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
)

// dispatcherLoop is one dispatcher slot: it owns at most one simulator run
// at a time, pulling queued jobs from the driver until shutdown. Several
// dispatchers run concurrent jobs; their grid cells all share the
// internal/par worker budget, so adding dispatchers trades per-job latency
// for queue throughput without oversubscribing the machine.
func (d *Driver) dispatcherLoop() {
	defer d.wg.Done()
	for j := d.nextJob(); j != nil; j = d.nextJob() {
		if !d.runContained(j) {
			// The run panicked and the recovery already failed the job.
			// Restart the slot on a clean stack (server.dispatcher_restarts):
			// a panicking job costs one goroutine stack, never a dispatcher.
			d.mu.Lock()
			if !d.closed {
				d.wg.Add(1)
				go d.dispatcherLoop()
			}
			d.mu.Unlock()
			return
		}
	}
}

// runContained runs one job under the panic-containment contract: a panic
// anywhere in the run path is recovered and named to the lifecycle, which
// fails the job with a JobFailure{panic, stack}; ok reports whether the slot
// is still clean.
func (d *Driver) runContained(j *Job) (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ok = false
		d.mc.AtomicAdd(metrics.ServerDispatcherRestarts, 1)
		d.logf("job %s: the run panicked: %v", j.rec.ID, r)
		d.mu.Lock()
		defer d.mu.Unlock()
		j.cancel = nil
		// A panic that escaped after the verdict (inside a journal write,
		// say) is rejected: the job's outcome stands, only the slot restarts.
		_ = d.applyLocked(j, evPanic, fmt.Sprint(r))
	}()
	d.runJob(j)
	return true
}

// nextJob blocks until the scheduler releases a job or the driver closes
// (nil). A job cancelled between its release and its dispatch is rejected
// by the table, and the loop comes straight back, re-checking closed and
// paused, so it never absorbs the wakeup meant for a live job behind it.
func (d *Driver) nextJob() *Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.closed {
		if !d.paused {
			if id, ok := d.sched.pop(); ok {
				return d.jobs[id]
			}
		}
		d.cond.Wait()
	}
	return nil
}

// runJob executes one job through the shared experiments engine. The
// dispatcher's contract:
//
//   - the run's context is a child of the driver's, with the job deadline
//     layered on, so Cancel, Close and the stuck watchdog (cause ErrStuck)
//     all abort it at the next cell boundary, and the run then names which;
//   - the artifact cache is attached as the run's checkpoint store with
//     Resume on (unless the spec opts out), so cells another job already
//     computed are resumed, not re-simulated;
//   - the job runs under its own collector — never the server's — so the
//     results bundle stays byte-identical to the one-shot CLI (which also
//     runs one collector per process), and live status snapshots observe
//     only this job's phases.
func (d *Driver) runJob(j *Job) {
	spec := j.rec.Spec
	runCtx, cancelRun := context.WithCancelCause(d.ctx)
	defer cancelRun(nil)
	ctx := context.Context(runCtx)
	if spec.Deadline > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(runCtx, time.Duration(spec.Deadline))
		defer cancelDeadline()
	}
	jmc := metrics.New()
	report := &syncBuffer{}

	// The lock is released by defer: a panic in the dispatch's journal write
	// unwinds into runContained, whose recovery takes the lock again.
	dispatched := func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.applyLocked(j, evDispatch, "") != nil { // rejected: Cancel won the race for this job
			return false
		}
		j.cancel = cancelRun
		j.mc = jmc
		j.report = report
		j.progress = progressMark{} // fresh watchdog window for this run
		return true
	}()
	if !dispatched {
		return
	}

	opts := spec.options()
	opts.Ctx = ctx
	opts.Metrics = jmc
	opts.Checkpoint = d.cache
	opts.Resume = !spec.NoCache
	opts.Verbose = true
	opts.Out = report

	start := time.Now()
	bundle, runErr := experiments.RunTargets(opts, spec.runSpec(), report)
	wall := time.Since(start)

	// Persist the results bundle before the state flips to done: a client
	// that observes "done" must be able to fetch the result. The bundle is
	// written exactly as cmd/experiments -json writes it (same envelope, no
	// server-side additions) — that is the byte-identity contract.
	if runErr == nil && !bundle.Aborted {
		if err := experiments.WriteResultsFile(d.resultPath(j.rec.ID), bundle); err != nil {
			runErr = fmt.Errorf("persisting results: %w", err)
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncCacheMetricsLocked()
	j.cancel = nil
	j.rec.WallSeconds = wall.Seconds()
	j.rec.Aborted = bundle.Aborted
	j.rec.readCounters(jmc) // and on into the server-wide counters /metrics exposes
	d.mc.AtomicAdd(metrics.ServerCacheMisses, j.rec.CacheMisses)
	d.mc.AtomicAdd(metrics.ServerSubcellHits, j.rec.SubcellHits)
	d.mc.AtomicAdd(metrics.ServerSubcellMisses, j.rec.SubcellMisses)
	d.mc.AtomicAdd(metrics.ServerOutcomeHits, j.rec.OutcomeHits)
	d.mc.AtomicAdd(metrics.ServerOutcomeMisses, j.rec.OutcomeMisses)

	// Name what happened; the lifecycle table decides what it means. An
	// aborted run is claimed by whoever cancelled it, in this order.
	ev, detail := evFinishOK, ""
	switch {
	case runErr != nil:
		ev, detail = evFinishError, runErr.Error()
	case !bundle.Aborted:
	case j.userCancel:
		ev = evCancel
	case errors.Is(context.Cause(runCtx), ErrStuck):
		ev = evStuck
	case d.closed:
		ev = evShutdown
	case ctx.Err() == context.DeadlineExceeded:
		ev = evDeadline
	default:
		ev = evAborted
	}
	_ = d.applyLocked(j, ev, detail) // a running job rejects none of these
}
