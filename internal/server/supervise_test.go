package server

// White-box tests for the supervision layer: the poison-job quarantine at
// journal replay, the wedge the lifecycle model parks jobs in, and the
// daemon's own failures answered as 500. The quarantine tests forge "daemon
// died mid-run" journal states (os.Exit cannot run inside a test process);
// the 500s need a failing journal and a lost results file.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"tbpoint/internal/faultcheck"
	"tbpoint/internal/metrics"
)

func superviseSpec() JobSpec {
	return JobSpec{Targets: []string{"accuracy"}, Scale: 0.02, Seed: 7, Benchmarks: []string{"stream"}}
}

// crashCycle emulates one daemon death mid-run: flip the job's journal
// record to running (as a dispatcher would have persisted before the
// crash), then close the driver. The next Open replays a journal that says
// "the daemon died while this job ran".
func crashCycle(t *testing.T, d *Driver, id string) {
	t.Helper()
	d.mu.Lock()
	j := d.jobs[id]
	j.rec.State = StateRunning
	if err := d.persistLocked(j); err != nil {
		d.mu.Unlock()
		t.Fatal(err)
	}
	d.mu.Unlock()
	d.Close()
}

// TestQuarantineAfterCrashLoop: a job observed running across more than
// MaxRequeues daemon deaths is dead-lettered at replay — never offered
// another dispatcher — while its full history survives for post-mortem.
func TestQuarantineAfterCrashLoop(t *testing.T) {
	dir := t.TempDir()
	mc := metrics.New()
	// Paused: the test plays the crashing dispatcher by hand.
	cfg := Config{StateDir: dir, Paused: true, Metrics: mc, Logf: t.Logf}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Submit(superviseSpec())
	if err != nil {
		t.Fatal(err)
	}

	// DefaultMaxRequeues crash replays keep requeueing; one more quarantines.
	for i := 0; i < DefaultMaxRequeues; i++ {
		crashCycle(t, d, st.ID)
		if d, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		got, _ := d.Status(st.ID)
		if got.State != StateQueued {
			t.Fatalf("after %d crash replays: state = %s, want queued", i+1, got.State)
		}
	}
	crashCycle(t, d, st.ID)
	if d, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	got, err := d.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQuarantined {
		t.Fatalf("state = %s (error %q), want quarantined", got.State, got.Error)
	}
	if got.FailureKind() != FailureQuarantined {
		t.Errorf("failure kind = %q, want %q", got.FailureKind(), FailureQuarantined)
	}
	if want := DefaultMaxRequeues + 1; got.RunRequeues != want {
		t.Errorf("run_requeues = %d, want %d", got.RunRequeues, want)
	}
	if !strings.Contains(got.Error, "quarantined") {
		t.Errorf("error = %q, want a quarantine explanation", got.Error)
	}
	if n := mc.Count(metrics.ServerJobsQuarantined); n != 1 {
		t.Errorf("server.jobs_quarantined = %d, want 1", n)
	}
	if q := d.JobsInState(StateQuarantined); len(q) != 1 || q[0].ID != st.ID {
		t.Errorf("JobsInState(quarantined) = %+v, want exactly %s", q, st.ID)
	}
	// Dead-lettered means dead: nothing queued, nothing schedulable.
	d.mu.Lock()
	pending := len(d.queue)
	d.mu.Unlock()
	if pending != 0 {
		t.Errorf("queue holds %d jobs, want 0 — quarantined jobs must never be dispatched", pending)
	}

	// Replay is deterministic and terminal states are stable: another
	// restart neither revives the job nor double-counts it.
	d.Close()
	if d, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, _ = d.Status(st.ID)
	if got.State != StateQuarantined {
		t.Fatalf("after extra restart: state = %s, want quarantined", got.State)
	}
	if n := mc.Count(metrics.ServerJobsQuarantined); n != 1 {
		t.Errorf("server.jobs_quarantined after extra restart = %d, want still 1", n)
	}
}

// TestQuarantineSparesQueuedBystander pins the policy's core distinction:
// a crash-looping sibling must not drag merely-queued jobs into the
// dead-letter queue. Only requeues observed while the job was RUNNING
// count toward its cap.
func TestQuarantineSparesQueuedBystander(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Paused: true, Metrics: metrics.New(), Logf: t.Logf}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	poison, err := d.Submit(superviseSpec())
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := d.Submit(superviseSpec())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i <= DefaultMaxRequeues; i++ {
		crashCycle(t, d, poison.ID)
		if d, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
	}
	defer d.Close()

	p, _ := d.Status(poison.ID)
	b, _ := d.Status(bystander.ID)
	if p.State != StateQuarantined {
		t.Fatalf("poison job state = %s, want quarantined", p.State)
	}
	if b.State != StateQueued {
		t.Fatalf("bystander state = %s, want queued — it never held a dispatcher", b.State)
	}
	if b.RunRequeues != 0 {
		t.Errorf("bystander run_requeues = %d, want 0", b.RunRequeues)
	}
	if want := DefaultMaxRequeues + 1; b.Requeues != want {
		t.Errorf("bystander requeues = %d, want %d (it did survive every restart)", b.Requeues, want)
	}
}

// cacheWedge is a durable.WriteFault for a driver's artifact cache: the
// first cache write (and any made while it waits) parks until release is
// called or the driver closes; later writes pass. The job making that write
// stays running — a wedged job.
type cacheWedge struct {
	parked, released chan struct{}
	closed           <-chan struct{}
	first, free      sync.Once
}

// wedgeCache arms d's cache with a fresh wedge. The store reads its Fault
// unlocked, so arm it before any job can write: before the submission, or
// while the driver is paused.
func wedgeCache(d *Driver) *cacheWedge {
	w := &cacheWedge{parked: make(chan struct{}), released: make(chan struct{}), closed: d.ctx.Done()}
	d.cache.Fault = w
	return w
}

func (w *cacheWedge) Fire() error {
	w.first.Do(func() {
		close(w.parked)
		select {
		case <-w.released:
		case <-w.closed:
		}
	})
	return nil
}

func (w *cacheWedge) release() { w.free.Do(func() { close(w.released) }) }

// holding reports whether a write is parked in the wedge right now.
func (w *cacheWedge) holding() bool {
	select {
	case <-w.parked:
	default:
		return false
	}
	select {
	case <-w.released:
		return false
	case <-w.closed:
		return false
	default:
		return true
	}
}

// wedgeSpec is the cheapest job that writes to the artifact cache — its
// first write is the full reference run it has just simulated — and NoCache
// makes it write again however warm the cache is.
func wedgeSpec() JobSpec {
	return JobSpec{Targets: []string{"accuracy"}, Scale: 0.001, Benchmarks: []string{"hotspot"}, NoCache: true}
}

// TestServerFaultsAnswer500: a failure that is the daemon's — a submission
// whose journal write fails, a done job whose results file is gone — is
// answered 500, not a 400 that blames the request.
func TestServerFaultsAnswer500(t *testing.T) {
	d, err := Open(Config{StateDir: t.TempDir(), Dispatchers: 1, Metrics: metrics.New(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	serve := func(method, path, body string) (int, string) {
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Code, w.Body.String()
	}

	st, err := d.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, d, st.ID); final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if code, _ := serve(http.MethodGet, "/jobs/"+st.ID+"/result", ""); code != http.StatusOK {
		t.Fatalf("GET result of a done job = %d, want 200", code)
	}
	if err := os.Remove(d.resultPath(st.ID)); err != nil {
		t.Fatal(err)
	}
	if code, body := serve(http.MethodGet, "/jobs/"+st.ID+"/result", ""); code != http.StatusInternalServerError {
		t.Errorf("GET result whose file is gone = %d %s, want 500", code, body)
	}

	d.mu.Lock()
	d.journal.Fault = faultcheck.Always(faultcheck.Error)
	d.mu.Unlock()
	code, body := serve(http.MethodPost, "/jobs", `{"targets":["table6"],"scale":0.01}`)
	if code != http.StatusInternalServerError || !strings.Contains(body, "journaling job") {
		t.Errorf("POST /jobs with a failing journal = %d %s, want 500 naming the journal write", code, body)
	}
	if jobs := d.Jobs(); len(jobs) != 1 {
		t.Errorf("%d jobs known after the failed submission, want 1", len(jobs))
	}
}
