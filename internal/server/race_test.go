package server

import (
	"os"
	"testing"

	"tbpoint/internal/metrics"
)

// TestCancelAtDispatchPickup pins the cancel-vs-pickup race at its worst
// interleaving, deterministically: the dispatcher has popped the job off
// the queue (it is no longer queued anywhere) but has not yet flipped
// it to running when Cancel lands. The dispatcher's state re-check must win
// — the job terminates StateCancelled with zero cells executed and no
// results file, rather than running to completion after the user was told
// it was cancelled.
func TestCancelAtDispatchPickup(t *testing.T) {
	mc := metrics.New()
	// Paused: no live dispatchers — this test plays the dispatcher by hand
	// to control the interleaving.
	d, err := Open(Config{StateDir: t.TempDir(), Paused: true, Metrics: mc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, err := d.Submit(JobSpec{Targets: []string{"accuracy"}, Scale: 0.02, Benchmarks: []string{"stream"}})
	if err != nil {
		t.Fatal(err)
	}

	// Step 1: the dispatcher pops the job (exactly nextJob's critical
	// section).
	d.mu.Lock()
	id := d.queue[0]
	d.queue = d.queue[1:]
	j := d.jobs[id]
	d.mu.Unlock()
	if id != st.ID || j == nil {
		t.Fatalf("pop = %q, want job %s", id, st.ID)
	}

	// Step 2: the cancel lands between pop and runJob.
	got, err := d.Cancel(id)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancel = %v (%v), want cancelled", got.State, err)
	}

	// Step 3: the dispatcher proceeds; runJob must notice and back off.
	d.runJob(j)

	final, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("job state after raced runJob = %s, want cancelled", final.State)
	}
	if final.CacheMisses != 0 || final.SubcellMisses != 0 {
		t.Fatalf("cancelled job did work: %+v", final)
	}
	if _, err := os.Stat(d.resultPath(id)); !os.IsNotExist(err) {
		t.Fatalf("cancelled job left a results file (stat err %v)", err)
	}
	if n := mc.Count(metrics.ServerJobsCancelled); n != 1 {
		t.Fatalf("server.jobs_cancelled = %d, want 1", n)
	}
}
