package server

// The lifecycle checked at its own layer: the table exhaustively, the
// interpreter's journal/counter contract on a real Driver, and old journals.
// The random-sequence check against the real Driver is model_test.go.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/faultcheck"
	"tbpoint/internal/metrics"
)

// lifecycleGrid spells out every (state, event) pair: the target state's
// initial (Q R D F C, X for quarantined) or '.' for a rejection. Columns are
// the events in declaration order. A state or event added without a row or
// column here fails TestLifecycleTable.
var lifecycleGrid = map[JobState]string{
	//                submit dispatch ok err panic stuck deadline aborted cancel shutdown replay: queued running over-cap
	stateNone:        "Q............",
	StateQueued:      ".R......C.Q..",
	StateRunning:     "..DFFFFFCQ.QX",
	StateDone:        ".............",
	StateFailed:      ".............",
	StateCancelled:   ".............",
	StateQuarantined: ".............",
}

var gridStates = map[byte]JobState{'Q': StateQueued, 'R': StateRunning, 'D': StateDone,
	'F': StateFailed, 'C': StateCancelled, 'X': StateQuarantined, '.': stateNone}

// TestLifecycleTable: every pair is a defined transition or a named
// rejection, and each defined transition has exactly the journal policy,
// counters and record edits DESIGN §9 states.
func TestLifecycleTable(t *testing.T) {
	if len(lifecycleGrid) != len(jobStates)+1 {
		t.Fatalf("grid has %d rows for %d states + stateNone", len(lifecycleGrid), len(jobStates))
	}
	defined := 0
	for _, s := range append([]JobState{stateNone}, jobStates...) {
		row, ok := lifecycleGrid[s]
		if !ok || len(row) != int(numEvents) {
			t.Fatalf("state %q: grid row %q, want %d columns", s, row, numEvents)
		}
		if s.Terminal() != (s != stateNone && !strings.ContainsAny(row, "QRDFCX")) {
			t.Errorf("state %q: Terminal() = %v disagrees with its row %q", s, s.Terminal(), row)
		}
		for e := event(0); e < numEvents; e++ {
			got, want := next(s, e), gridStates[row[e]]
			if got.to != want {
				t.Errorf("next(%q, %s) -> %q, want %q", s, e, got.to, want)
				continue
			}
			if want == stateNone {
				if got.errText == "" || !reflect.DeepEqual(got, transition{errText: got.errText}) {
					t.Errorf("next(%q, %s) = %+v, want a named rejection with no edits or effects", s, e, got)
				}
				continue
			}
			defined++
			replay := e >= evReplayQueued
			if wantFatal := e == evSubmit || replay; got.fatal != wantFatal {
				t.Errorf("next(%q, %s): fatal journal write = %v, want %v (fatal on submit and replay only)", s, e, got.fatal, wantFatal)
			}
			if wantPush := want == StateQueued && e != evShutdown; got.push != wantPush {
				t.Errorf("next(%q, %s): push = %v, want %v", s, e, got.push, wantPush)
			}
			if wantPull := s == StateQueued && want.Terminal(); got.pull != wantPull {
				t.Errorf("next(%q, %s): pull = %v, want %v (only a job leaving the queue undispatched)", s, e, got.pull, wantPull)
			}
			if b2i := map[bool]int{true: 1}; got.requeue != b2i[replay] || got.runRequeue != b2i[replay && s == StateRunning] {
				t.Errorf("next(%q, %s): requeue %d run %d", s, e, got.requeue, got.runRequeue)
			}
			if (want == StateFailed || want == StateQuarantined) != (got.failure != "") {
				t.Errorf("next(%q, %s) -> %s with failure kind %q", s, e, want, got.failure)
			}
		}
	}
	for s, row := range table {
		for e := range row {
			if lifecycleGrid[s][e] == '.' {
				t.Errorf("table[%q][%s] is a row the grid rejects", s, e)
			}
		}
	}
	if defined != 14 {
		t.Errorf("%d defined transitions, want 14", defined)
	}

	// What each transition counts and records, by name.
	for _, c := range []struct {
		s       JobState
		e       event
		count   []metrics.Counter
		failure string
		errText string
	}{
		{stateNone, evSubmit, ctrs{metrics.ServerJobsSubmitted}, "", ""},
		{StateQueued, evDispatch, nil, "", ""},
		{StateQueued, evCancel, ctrs{metrics.ServerJobsCancelled}, "", "cancelled while queued"},
		{StateQueued, evReplayQueued, ctrs{metrics.ServerJobsRequeued}, "", ""},
		{StateRunning, evFinishOK, ctrs{metrics.ServerJobsDone}, "", ""},
		{StateRunning, evFinishError, ctrs{metrics.ServerJobsFailed}, FailureError, ""},
		{StateRunning, evPanic, ctrs{metrics.ServerJobsFailed, metrics.ServerJobsPanicked}, FailurePanic, "panic: "},
		{StateRunning, evStuck, ctrs{metrics.ServerJobsFailed, metrics.ServerJobsStuck}, FailureStuck, ErrStuck.Error()},
		{StateRunning, evDeadline, ctrs{metrics.ServerJobsFailed}, FailureError, "job deadline exceeded"},
		{StateRunning, evAborted, ctrs{metrics.ServerJobsFailed}, FailureError, "run aborted"},
		{StateRunning, evCancel, ctrs{metrics.ServerJobsCancelled}, "", "cancelled"},
		{StateRunning, evShutdown, nil, "", ""},
		{StateRunning, evReplayRunning, ctrs{metrics.ServerJobsRequeued}, "", ""},
		{StateRunning, evReplayRunningOverCap, ctrs{metrics.ServerJobsQuarantined}, FailureQuarantined, "quarantined: "},
	} {
		got := next(c.s, c.e)
		if !slices.Equal(got.count, c.count) || got.failure != c.failure || got.errText != c.errText {
			t.Errorf("next(%q, %s) counts %v failure %q error %q, want %v %q %q",
				c.s, c.e, got.count, got.failure, got.errText, c.count, c.failure, c.errText)
		}
	}

	// The satellite bug as a row: a panic escaping after the verdict is
	// rejected by name and counts nothing — jobs_panicked comes from the
	// ->failed(panic) transition only.
	for _, s := range []JobState{StateQueued, StateDone, StateFailed, StateCancelled, StateQuarantined} {
		if got := next(s, evPanic); got.to != stateNone || got.count != nil || !strings.Contains(got.errText, string(s)) {
			t.Errorf("next(%q, panic) = %+v, want a rejection naming the state", s, got)
		}
	}
}

// TestLifecycleReplayEvent pins the quarantine cap where it is decided: a
// record found running for the cap'th time is requeued, for the cap+1'th
// quarantined; found queued it is requeued however often that happened.
func TestLifecycleReplayEvent(t *testing.T) {
	for _, c := range []struct {
		state       JobState
		runRequeues int
		cap         int
		want        event
	}{
		{StateQueued, 0, 3, evReplayQueued},
		{StateQueued, 99, 3, evReplayQueued},
		{StateRunning, 0, 3, evReplayRunning},
		{StateRunning, 2, 3, evReplayRunning},
		{StateRunning, 3, 3, evReplayRunningOverCap},
		{StateRunning, 0, 0, evReplayRunningOverCap}, // Open maps Config 0 to the default before this
		{StateRunning, 99, -1, evReplayRunning},
	} {
		got, detail := replayEvent(JobStatus{State: c.state, RunRequeues: c.runRequeues}, c.cap)
		if got != c.want || (got == evReplayRunningOverCap) != (detail != "") {
			t.Errorf("replayEvent(%s, run_requeues %d, cap %d) = %s (%q), want %s",
				c.state, c.runRequeues, c.cap, got, detail, c.want)
		}
	}
}

// cheapSpec is a job with no simulation in it (the hardware table): the
// lifecycle tests run dozens of them per second.
func cheapSpec() JobSpec {
	return JobSpec{Targets: []string{"table6"}, Scale: 0.01, Benchmarks: []string{"stream"}}
}

func waitTerminal(t *testing.T, d *Driver, id string) JobStatus {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		st, err := d.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
	}
}

// TestLifecycleCleanJobJournalsThreeTimes: submit, running, terminal — a
// clean job costs exactly three journal writes (they are on the served
// path's latency), and its status body keeps the parent commit's key set.
func TestLifecycleCleanJobJournalsThreeTimes(t *testing.T) {
	d, err := Open(Config{StateDir: t.TempDir(), Dispatchers: 1, Metrics: metrics.New(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, err := d.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, d, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if n := d.journal.Writes(); n != 3 {
		t.Errorf("clean job made %d journal writes, want 3", n)
	}
	body, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"cache_hits", "cache_misses", "finished_at", "id", "phases", "spec", "started_at", "state", "submitted_at", "wall_seconds"}
	if !slices.Equal(got, want) {
		t.Errorf("done job's status keys %v, want %v", got, want)
	}
}

// TestLifecyclePanicAfterVerdictKeepsOutcome: a panic escaping from the
// terminal journal write restarts the dispatcher slot but neither changes
// nor counts the finished job (the parent counted it in jobs_panicked).
func TestLifecyclePanicAfterVerdictKeepsOutcome(t *testing.T) {
	mc := metrics.New()
	d, err := Open(Config{StateDir: t.TempDir(), Dispatchers: 1, Metrics: mc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.mu.Lock()
	d.journal.Fault = faultcheck.OnNth(3, faultcheck.Panic) // submit, running, then the verdict's write
	d.mu.Unlock()
	st, err := d.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, d, st.ID); final.State != StateDone || final.Failure != nil {
		t.Fatalf("job finished %s failure %+v, want done", final.State, final.Failure)
	}
	d.mu.Lock()
	d.journal.Fault = nil // fired, or never will: no later write may meet it
	d.mu.Unlock()
	// The one slot serves the next job only once it has been restarted.
	st2, err := d.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, d, st2.ID); final.State != StateDone {
		t.Fatalf("job after the restart finished %s", final.State)
	}
	if n := mc.Count(metrics.ServerDispatcherRestarts); n != 1 {
		t.Errorf("server.dispatcher_restarts = %d, want 1", n)
	}
	if n := mc.Count(metrics.ServerJobsPanicked); n != 0 {
		t.Errorf("server.jobs_panicked = %d for a job that is done, want 0", n)
	}
}

// panicRig is a one-dispatcher driver whose dispatch-time journal write
// panics once. within runs f under a timeout, because a lock still held by
// the panicking dispatcher wedges Status and Close; run submits a cheap job
// and waits, through within, for its terminal status.
type panicRig struct {
	d      *Driver
	mc     *metrics.Collector
	within func(what string, f func())
	run    func() JobStatus
}

func newPanicRig(t *testing.T) panicRig {
	t.Helper()
	mc := metrics.New()
	d, err := Open(Config{StateDir: t.TempDir(), Dispatchers: 1, Metrics: mc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not return: the driver is wedged", what)
		}
	}
	run := func() (st JobStatus) {
		t.Helper()
		var err error
		within("a job's Submit and wait", func() {
			if st, err = d.Submit(cheapSpec()); err != nil {
				return
			}
			for !st.State.Terminal() {
				time.Sleep(time.Millisecond)
				st, err = d.Status(st.ID)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	d.mu.Lock()
	d.journal.Fault = faultcheck.OnNth(2, faultcheck.Panic) // submit, then the dispatch's write
	d.mu.Unlock()
	return panicRig{d: d, mc: mc, within: within, run: run}
}

// TestLifecyclePanicInDispatchWriteFailsJob: a panic escaping from the
// dispatch's journal write fails the job as a panic and restarts the slot,
// and the driver stays usable.
func TestLifecyclePanicInDispatchWriteFailsJob(t *testing.T) {
	r := newPanicRig(t)
	if final := r.run(); final.State != StateFailed || final.Failure == nil || final.Failure.Kind != FailurePanic {
		t.Fatalf("job finished %s failure %+v, want failed as %s", final.State, final.Failure, FailurePanic)
	}
	if n := r.mc.Count(metrics.ServerDispatcherRestarts); n != 1 {
		t.Errorf("server.dispatcher_restarts = %d, want 1", n)
	}
	if final := r.run(); final.State != StateDone {
		t.Fatalf("job on the restarted slot finished %s (%s)", final.State, final.Error)
	}
	r.within("Close", func() { r.d.Close() })
}

// TestPanicContainment: a job that panics inside the dispatcher is recovered
// as a structured failure carrying the panic value and the recovering stack,
// counted once in jobs_panicked, and the daemon stays live and ready. One
// bad job costs one job, never the daemon.
func TestPanicContainment(t *testing.T) {
	r := newPanicRig(t)
	defer r.within("Close", func() { r.d.Close() })
	final := r.run()
	if final.FailureKind() != FailurePanic {
		t.Fatalf("job finished %s failure %+v, want failed as %s", final.State, final.Failure, FailurePanic)
	}
	if !strings.Contains(final.Failure.Panic, "injected panic") || !strings.Contains(final.Failure.Stack, "runContained") {
		t.Errorf("failure = %+v, want the recovered panic value and the recovering stack", final.Failure)
	}
	if n := r.mc.Count(metrics.ServerJobsPanicked); n != 1 {
		t.Errorf("server.jobs_panicked = %d, want 1", n)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		r.within(probe, func() {
			w := httptest.NewRecorder()
			r.d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, probe, nil))
			if w.Code != http.StatusOK {
				t.Errorf("GET %s after the panic = %d, want 200", probe, w.Code)
			}
		})
	}
}

// parentJournal is four records exactly as the parent commit's separate
// journal-record type marshalled them (times as values, zero counters
// omitted), the first still carrying the event-loop fields retired before that
// and the second the chaos "fault" field retired since.
var parentJournal = map[string]string{
	"j000001": `{"id":"j000001","spec":{"targets":["accuracy"],"scale":0.02,"seed":7,"benchmarks":["stream"],"retries":1,"parallel_sm":2,"quantum":128,"max_divergence":0.1},"state":"done","submitted_at":"2026-01-02T03:04:05.000000006Z","started_at":"2026-01-02T03:04:06Z","finished_at":"2026-01-02T03:04:07.5Z","requeues":1,"cache_misses":1,"subcell_misses":1,"outcome_misses":3,"wall_seconds":1.25}`,
	"j000002": `{"id":"j000002","spec":{"targets":["accuracy"],"scale":1,"retries":1,"client":"b","fault":"panic"},"state":"failed","submitted_at":"2026-01-02T03:05:00Z","started_at":"2026-01-02T03:05:01Z","finished_at":"2026-01-02T03:05:02Z","error":"panic: boom","failure":{"kind":"panic","panic":"boom","stack":"goroutine 7 [running]:"}}`,
	"j000003": `{"id":"j000003","spec":{"targets":["table6"],"scale":0.01,"retries":1,"client":"b","priority":2},"state":"queued","submitted_at":"2026-01-02T03:06:00Z","requeues":2}`,
	"j000004": `{"id":"j000004","spec":{"targets":["table6"],"scale":0.01,"retries":1,"deadline":"1m30s"},"state":"running","submitted_at":"2026-01-02T03:07:00Z","started_at":"2026-01-02T03:07:01Z","requeues":1,"run_requeues":1}`,
}

// TestLifecycleReplaysParentJournal: a journal written in the parent's
// record format replays unchanged now that the record is the JobStatus —
// finished jobs serve the same status, unfinished ones are requeued. A
// retired spec field (the event-loop knobs, the chaos "fault") is dropped
// on decode.
func TestLifecycleReplaysParentJournal(t *testing.T) {
	dir := t.TempDir()
	journal, err := durable.Open(dir + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	for id, rec := range parentJournal {
		if err := journal.Put(jobKeyPrefix+id, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 2; round++ { // the second Open reads what the first re-journaled
		d, err := Open(Config{StateDir: dir, Paused: true, Metrics: metrics.New(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		jobs := d.Jobs()
		d.Close()
		if len(jobs) != 4 {
			t.Fatalf("round %d: replayed %d jobs, want 4", round, len(jobs))
		}
		done, failed, queued, crashed := jobs[0], jobs[1], jobs[2], jobs[3]
		at := func(s string) time.Time {
			v, err := time.Parse(time.RFC3339Nano, s)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		if done.State != StateDone || done.Spec.Seed != 7 || done.Spec.Benchmarks[0] != "stream" ||
			!done.SubmittedAt.Equal(at("2026-01-02T03:04:05.000000006Z")) || !done.StartedAt.Equal(at("2026-01-02T03:04:06Z")) ||
			!done.FinishedAt.Equal(at("2026-01-02T03:04:07.5Z")) || done.Requeues != 1 || done.CacheHits != 0 ||
			done.CacheMisses != 1 || done.SubcellMisses != 1 || done.OutcomeMisses != 3 || done.WallSeconds != 1.25 {
			t.Errorf("round %d: done job replayed as %+v", round, done)
		}
		if failed.State != StateFailed || failed.Error != "panic: boom" || failed.FailureKind() != FailurePanic ||
			failed.Failure.Panic != "boom" || failed.Failure.Stack != "goroutine 7 [running]:" || failed.Spec.Client != "b" {
			t.Errorf("round %d: failed job replayed as %+v", round, failed)
		}
		if queued.State != StateQueued || queued.Requeues != 2+round || queued.RunRequeues != 0 ||
			queued.Spec.Client != "b" || queued.Spec.Priority != 2 || queued.StartedAt != nil {
			t.Errorf("round %d: queued job replayed as %+v", round, queued)
		}
		if crashed.State != StateQueued || crashed.Requeues != 1+round || crashed.RunRequeues != 2 ||
			crashed.StartedAt != nil || crashed.Spec.Deadline != Duration(90*time.Second) {
			t.Errorf("round %d: job found running replayed as %+v", round, crashed)
		}
	}
}
