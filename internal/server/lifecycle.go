package server

// This file is the whole job lifecycle. next is the transition table —
// states x events, pure: no lock, no clock, no I/O — and applyLocked is its
// only interpreter: nowhere else is a job's State assigned, its record
// journaled, a server.jobs_* counter bumped, a done channel closed or a job
// pushed onto the queue. Open's replay, Submit, Cancel, the dispatchers and
// the panic recovery only name events. DESIGN.md §9 prints the table.

import (
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"tbpoint/internal/metrics"
)

// event is something that happens to a job.
type event int

const (
	evSubmit               event = iota // a validated spec is admitted (the job has no state yet)
	evDispatch                          // a dispatcher takes the job off the queue
	evFinishOK                          // the run completed and its results file is written
	evFinishError                       // the run, or writing its results, returned an error
	evPanic                             // a panic unwound out of the run
	evDeadline                          // the run aborted: the job deadline passed
	evAborted                           // the run aborted and no supervisor claims it
	evCancel                            // the user cancelled (a running job's aborted run names it)
	evShutdown                          // the run aborted because the driver is closing
	evReplayQueued                      // Open found the journal record queued
	evReplayRunning                     // ... running, within the requeue cap
	evReplayRunningOverCap              // ... running once more than the cap allows
	numEvents
)

func (e event) String() string {
	return [numEvents]string{"submit", "dispatch", "finish-ok", "finish-error", "panic", "deadline",
		"aborted", "cancel", "shutdown", "replay-queued", "replay-running", "replay-running-over-cap"}[e]
}

// stateNone is the state of a job that has not been submitted yet.
const stateNone JobState = ""

// jobStates is the state vocabulary; GET /jobs?state= accepts exactly these.
var jobStates = []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateQuarantined}

// transition is one table cell: where the job goes, how its record changes
// and what the interpreter must do about it. StartedAt, FinishedAt and
// close(done) follow from the target state alone (see applyLocked).
type transition struct {
	to                  JobState // stateNone: the pair is rejected, errText naming why
	requeue, runRequeue int      // restarts survived / survived while running, to add
	failure             string   // JobFailure.Kind to record
	errText             string   // Error to record; the event's detail is appended
	fatal               bool     // a failed journal write fails the caller; otherwise it is logged
	push                bool     // append to the FIFO queue
	pull                bool     // drop from the queue: the job leaves it undispatched
	count               ctrs     // server.jobs_* counters to bump
}

type ctrs []metrics.Counter

// table holds the defined transitions. The journal write is fatal where
// losing it would lose the job: without it a submission is not accepted and
// a daemon does not start. Shutdown is no verdict, so the next process picks
// the job up and this one does not push it; every crash loop passes through
// replay.
var table = map[JobState]map[event]transition{
	stateNone: {
		evSubmit: {to: StateQueued, fatal: true, push: true, count: ctrs{metrics.ServerJobsSubmitted}},
	},
	StateQueued: {
		evDispatch:     {to: StateRunning},
		evCancel:       {to: StateCancelled, errText: "cancelled while queued", pull: true, count: ctrs{metrics.ServerJobsCancelled}},
		evReplayQueued: {to: StateQueued, requeue: 1, fatal: true, push: true, count: ctrs{metrics.ServerJobsRequeued}},
	},
	StateRunning: {
		evFinishOK:             {to: StateDone, count: ctrs{metrics.ServerJobsDone}},
		evFinishError:          {to: StateFailed, failure: FailureError, count: ctrs{metrics.ServerJobsFailed}},
		evPanic:                {to: StateFailed, failure: FailurePanic, errText: "panic: ", count: ctrs{metrics.ServerJobsFailed, metrics.ServerJobsPanicked}},
		evDeadline:             {to: StateFailed, failure: FailureError, errText: "job deadline exceeded", count: ctrs{metrics.ServerJobsFailed}},
		evAborted:              {to: StateFailed, failure: FailureError, errText: "run aborted", count: ctrs{metrics.ServerJobsFailed}},
		evCancel:               {to: StateCancelled, errText: "cancelled", count: ctrs{metrics.ServerJobsCancelled}},
		evShutdown:             {to: StateQueued},
		evReplayRunning:        {to: StateQueued, requeue: 1, runRequeue: 1, fatal: true, push: true, count: ctrs{metrics.ServerJobsRequeued}},
		evReplayRunningOverCap: {to: StateQuarantined, requeue: 1, runRequeue: 1, fatal: true, failure: FailureQuarantined, errText: "quarantined: ", count: ctrs{metrics.ServerJobsQuarantined}},
	},
}

// next is the lifecycle: every (state, event) pair is a transition from the
// table or a named rejection. Terminal states are stable — a late cancel is
// a no-op — and a panic escaping after the run named its event (a verdict,
// or the shutdown requeue) neither changes nor counts the job.
func next(s JobState, e event) transition {
	if t, ok := table[s][e]; ok {
		return t
	}
	switch {
	case s == stateNone:
		return transition{errText: "no such job"}
	case s.Terminal():
		return transition{errText: "the job is already " + string(s)}
	}
	return transition{errText: "not possible while " + string(s)}
}

// replayEvent names what journal replay found for an unfinished record. Only
// restarts that found the job running count toward the cap — requeues of
// merely queued jobs are the daemon's doing, not the job's.
func replayEvent(rec JobStatus, maxRequeues int) (event, string) {
	if rec.State != StateRunning {
		return evReplayQueued, ""
	}
	if died := rec.RunRequeues + 1; maxRequeues >= 0 && died > maxRequeues {
		return evReplayRunningOverCap, fmt.Sprintf("daemon died under this job %d times (cap %d)", died, maxRequeues)
	}
	return evReplayRunning, ""
}

// applyLocked is the interpreter: it looks (j's state, e) up, edits the
// record and carries out the effects. It returns an error for a rejected
// event (nothing happened) and for a failed journal write the table marks
// fatal (the caller drops the job or fails startup). Callers hold d.mu.
func (d *Driver) applyLocked(j *Job, e event, detail string) error {
	rec, from, now := &j.rec, j.rec.State, time.Now().UTC()
	t := next(from, e)
	if t.to == stateNone {
		return fmt.Errorf("server: job %s (%s) rejects %s: %s", rec.ID, from, e, t.errText)
	}
	rec.State = t.to
	switch {
	case t.to == StateRunning:
		rec.StartedAt = &now
	case t.to.Terminal():
		rec.FinishedAt = &now
	}
	if t.to == StateQueued || t.to == StateQuarantined { // no run in progress, none to report
		rec.StartedAt, rec.Aborted = nil, false
	}
	rec.Requeues, rec.RunRequeues = rec.Requeues+t.requeue, rec.RunRequeues+t.runRequeue
	if text := t.errText + detail; text != "" {
		rec.Error = text
	}
	if t.failure != "" {
		rec.Failure = &JobFailure{Kind: t.failure}
	}
	if t.failure == FailurePanic {
		// Called from the recovering deferred function: the panic's stack.
		rec.Failure.Panic, rec.Failure.Stack = detail, string(debug.Stack())
	}
	if err := d.persistLocked(j); err != nil {
		if t.fatal {
			return err
		}
		// Losing the write degrades restart recovery (the job re-runs from
		// the artifact cache), which beats failing a finished run.
		d.logf("journaling %s %s->%s failed: %v", rec.ID, from, t.to, err)
	}
	for _, c := range t.count {
		d.mc.AtomicAdd(c, 1)
	}
	d.logf("job %s: %s->%s (%s) error=%q", rec.ID, from, t.to, e, t.errText+detail)
	if t.push {
		d.queue = append(d.queue, rec.ID)
	}
	if t.pull {
		d.queue = slices.DeleteFunc(d.queue, func(id string) bool { return id == rec.ID })
	}
	if t.to.Terminal() {
		close(j.done)
	}
	return nil
}
