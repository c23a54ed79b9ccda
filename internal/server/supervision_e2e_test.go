package server_test

// End-to-end supervision tests over real HTTP: a paused daemon admits every
// job while /readyz says it is not ready, and the dispatcher's cancelled-job
// skip under pause/unpause flips. Panic containment is TestPanicContainment,
// in-package, where the panic is armed on the journal.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

// TestAdmissionControl: a paused daemon admits every valid POST /jobs with
// 202 and queues it — nothing bounds the queue — while /readyz answers 503
// with a reason and /healthz 200: the probes answer different questions.
// Unpausing makes it ready.
func TestAdmissionControl(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Dispatchers: 1, Paused: true, Logf: t.Logf})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Post(srv.URL+"/jobs", "application/json",
			strings.NewReader(`{"targets":["accuracy"],"scale":0.02,"benchmarks":["stream"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs %d to a paused daemon = HTTP %d, want 202", i+1, resp.StatusCode)
		}
	}
	if n := len(d.JobsInState(server.StateQueued)); n != 5 {
		t.Fatalf("%d jobs queued, want 5", n)
	}

	for _, probe := range []struct {
		path string
		want int
	}{{"/healthz", http.StatusOK}, {"/readyz", http.StatusServiceUnavailable}} {
		resp, err := http.Get(srv.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("GET %s on a paused daemon = HTTP %d, want %d", probe.path, resp.StatusCode, probe.want)
		}
	}
	c := client.New(srv.URL)
	ctx := context.Background()
	if ready, reason := c.Ready(ctx); ready || reason != "paused" {
		t.Fatalf("readyz while paused = (%v, %q), want not ready, \"paused\"", ready, reason)
	}

	// Unpausing makes the daemon ready at once; the backlog is cancelled so
	// the test does not wait for it.
	for _, st := range d.Jobs() {
		if _, err := c.Cancel(ctx, st.ID); err != nil {
			t.Fatalf("cancel %s: %v", st.ID, err)
		}
	}
	d.SetPaused(false)
	if ready, reason := c.Ready(ctx); !ready {
		t.Fatalf("readyz after unpausing = not ready (%q), want ready", reason)
	}
}

// TestPausedCancelSkip is the regression test for the dispatcher's queue
// drain: a job cancelled while queued, with pause flips around it, must
// not absorb the wakeup meant for the live job behind it — unpausing runs
// the survivor to done while the cancelled head stays cancelled.
func TestPausedCancelSkip(t *testing.T) {
	d := openDriver(t, server.Config{
		StateDir: t.TempDir(), Dispatchers: 1, Paused: true,
		Metrics: metrics.New(), Logf: t.Logf,
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	doomed, err := c.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Cancel(ctx, doomed.ID); err != nil || st.State != server.StateCancelled {
		t.Fatalf("cancel queued job = (%+v, %v), want cancelled", st, err)
	}
	// Flip the gate a few times with the cancelled job at the queue head;
	// the dispatcher must park cleanly each time, not spin or wedge.
	d.SetPaused(false)
	d.SetPaused(true)
	d.SetPaused(false)

	final, err := c.Wait(ctx, live.ID, 0)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("live job finished %s (error %q), want done", final.State, final.Error)
	}
	got, err := c.Status(ctx, doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.StateCancelled {
		t.Fatalf("cancelled job resurrected as %s", got.State)
	}
}
