package server

import (
	"context"
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

// nextJob blocks until it can pop the queue's head or the driver closes
// (nil). A job cancelled between its pop and its dispatch is rejected
// by the table, and the loop comes straight back, re-checking closed and
// paused, so it never absorbs the wakeup meant for a live job behind it.
func (d *Driver) nextJob() *Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.closed {
		if !d.paused && len(d.queue) > 0 {
			id := d.queue[0]
			d.queue = d.queue[1:]
			return d.jobs[id]
		}
		d.cond.Wait()
	}
	return nil
}

// runJob executes one job through the shared experiments engine. The
// dispatcher's contract:
//
//   - the run's context is a child of the driver's, with the job deadline
//     layered on, so Cancel, Close and the deadline all abort it at the
//     next cell boundary, and the run then names which;
//   - the artifact cache is attached as the run's checkpoint store with
//     Resume on (unless the spec opts out), so cells another job already
//     computed are resumed, not re-simulated;
//   - the job runs under its own collector — never the server's — so the
//     results bundle stays byte-identical to the one-shot CLI (which also
//     runs one collector per process), and live status snapshots observe
//     only this job's phases.
func (d *Driver) runJob(j *Job) {
	spec := j.rec.Spec
	ctx, cancelRun := context.WithCancel(d.ctx)
	defer cancelRun()
	if spec.Deadline > 0 { // the deadline's context is the run's: Cancel cancels it
		ctx, cancelRun = context.WithTimeout(ctx, time.Duration(spec.Deadline))
		defer cancelRun()
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
	j.rec.readCounters(jmc)
	// The server-wide collector sums the jobs' store events under their own IDs.
	for _, c := range []metrics.Counter{metrics.ExpCellsExecuted, metrics.SubcellHits,
		metrics.SubcellMisses, metrics.OutcomeHits, metrics.OutcomeMisses} {
		d.mc.AtomicAdd(c, jmc.Count(c))
	}

	// Name what happened; the lifecycle table decides what it means. An
	// aborted run is claimed by whoever cancelled it, in this order.
	ev, detail := evFinishOK, ""
	switch {
	case runErr != nil:
		ev, detail = evFinishError, runErr.Error()
	case !bundle.Aborted:
	case j.userCancel:
		ev = evCancel
	case d.closed:
		ev = evShutdown
	case ctx.Err() == context.DeadlineExceeded:
		ev = evDeadline
	default:
		ev = evAborted
	}
	_ = d.applyLocked(j, ev, detail) // a running job rejects none of these
}
