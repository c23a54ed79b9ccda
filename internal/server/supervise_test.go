package server

// White-box tests for the supervision layer: the poison-job quarantine at
// journal replay and the stuck-job watchdog's staleness logic. Both need
// internals — the quarantine tests forge "daemon died mid-run" journal
// states (os.Exit cannot run inside a test process), and the watchdog tests
// wedge a job through the artifact cache's durable.WriteFault and drive
// checkStuck against a fake clock.

import (
	"strings"
	"sync"
	"testing"
	"time"

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
	pending := d.sched.len()
	d.mu.Unlock()
	if pending != 0 {
		t.Errorf("scheduler holds %d jobs, want 0 — quarantined jobs must never be dispatched", pending)
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
// stays running with a frozen progress fingerprint (a phase only counts
// once it stops) — a wedged job.
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

// awaitParked waits until a job's write is parked in the wedge.
func (w *cacheWedge) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-w.parked:
	case <-time.After(20 * time.Second):
		t.Fatal("no job ever wrote to the artifact cache")
	}
}

// wedgeSpec is the cheapest job that writes to the artifact cache — its
// first write is the full reference run it has just simulated — and NoCache
// makes it write again however warm the cache is.
func wedgeSpec() JobSpec {
	return JobSpec{Targets: []string{"accuracy"}, Scale: 0.001, Benchmarks: []string{"hotspot"}, NoCache: true}
}

// watchdogAfter is the tests' stuck-after window: the real watchdog ticks
// every watchdogAfter/4 and so never runs; the tests are the clock.
const watchdogAfter = 3 * time.Hour

// TestWatchdogFakeClock drives checkStuck directly with a controlled clock:
// a job wedged in its first cache write, whose progress fingerprint never
// moves, is cancelled with the ErrStuck cause once — and exactly once —
// after StuckAfter elapses, and terminally fails as stuck.
func TestWatchdogFakeClock(t *testing.T) {
	mc := metrics.New()
	d, err := Open(Config{StateDir: t.TempDir(), Dispatchers: 1, StuckAfter: watchdogAfter, Metrics: mc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := wedgeCache(d)
	st, err := d.Submit(wedgeSpec())
	if err != nil {
		t.Fatal(err)
	}
	w.awaitParked(t)

	t0 := time.Now()
	if stuck := d.checkStuck(t0); len(stuck) != 0 {
		t.Fatalf("first pass cancelled %v, want none (it only records the mark)", stuck)
	}
	if stuck := d.checkStuck(t0.Add(watchdogAfter - time.Millisecond)); len(stuck) != 0 {
		t.Fatalf("pass inside the window cancelled %v, want none", stuck)
	}
	stuck := d.checkStuck(t0.Add(watchdogAfter))
	if len(stuck) != 1 || stuck[0] != st.ID {
		t.Fatalf("stale pass cancelled %v, want exactly [%s]", stuck, st.ID)
	}
	// The job is still parked; the next pass starts a new window instead of
	// cancelling it again.
	if stuck := d.checkStuck(t0.Add(watchdogAfter + time.Millisecond)); len(stuck) != 0 {
		t.Fatalf("pass after the cancel cancelled %v again", stuck)
	}

	w.release()
	final := waitTerminal(t, d, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s (error %q), want failed", final.State, final.Error)
	}
	if final.FailureKind() != FailureStuck {
		t.Errorf("failure kind = %q, want %q", final.FailureKind(), FailureStuck)
	}
	if !strings.Contains(final.Error, "no progress") {
		t.Errorf("error = %q, want the watchdog's verdict text", final.Error)
	}
	if n := mc.Count(metrics.ServerJobsStuck); n != 1 {
		t.Errorf("server.jobs_stuck = %d, want 1", n)
	}
}

// TestWatchdogIgnoresProgressingJobs: a fingerprint that moves between
// passes resets the staleness window — real progress is never punished.
func TestWatchdogIgnoresProgressingJobs(t *testing.T) {
	d, err := Open(Config{StateDir: t.TempDir(), Dispatchers: 1, StuckAfter: watchdogAfter, Metrics: metrics.New(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := wedgeCache(d)
	st, err := d.Submit(wedgeSpec())
	if err != nil {
		t.Fatal(err)
	}
	w.awaitParked(t)

	t0 := time.Now()
	d.checkStuck(t0)
	// Simulate observable progress: bump the job's live collector between
	// passes. The fingerprint moves, so the mark resets.
	d.mu.Lock()
	d.jobs[st.ID].mc.AtomicAdd(metrics.ExpCellsExecuted, 1)
	d.mu.Unlock()
	if stuck := d.checkStuck(t0.Add(watchdogAfter + time.Millisecond)); len(stuck) != 0 {
		t.Fatalf("progressing job cancelled as stuck: %v", stuck)
	}
	// Only once the *new* fingerprint goes stale for the full window does
	// the watchdog fire.
	if stuck := d.checkStuck(t0.Add(2 * watchdogAfter)); len(stuck) != 0 {
		t.Fatalf("window not yet elapsed since progress, yet cancelled: %v", stuck)
	}
	if stuck := d.checkStuck(t0.Add(2*watchdogAfter + time.Millisecond)); len(stuck) != 1 {
		t.Fatalf("stale-after-progress pass cancelled %v, want exactly one", stuck)
	}
	w.release()
	if final := waitTerminal(t, d, st.ID); final.FailureKind() != FailureStuck {
		t.Fatalf("job finished %s (%q), want failed as stuck", final.State, final.Error)
	}
}
