package server_test

// End-to-end supervision tests over real HTTP: admission control (429 +
// Retry-After past the queue bound, /readyz flips) and the dispatcher's
// cancelled-job skip under pause/unpause flips. Panic containment is
// TestPanicContainment, in-package, where the panic is armed on the journal.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

// TestAdmissionControl: past the queue bound the daemon rejects with
// 429 + Retry-After instead of queueing without bound, counts the
// rejections, and /readyz tells load balancers to back off before
// requests start bouncing.
func TestAdmissionControl(t *testing.T) {
	mc := metrics.New()
	// Paused: jobs queue and stay queued, so the bound is deterministic.
	d := openDriver(t, server.Config{
		StateDir: t.TempDir(), Dispatchers: 1, Paused: true,
		MaxQueued: 2, Metrics: mc, Logf: t.Logf,
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := d.Submit(smallSpec()); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The bound is reached: the driver rejects with ErrOverloaded.
	if _, err := d.Submit(smallSpec()); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("over-bound submit err = %v, want ErrOverloaded", err)
	}
	// Over HTTP the rejection is 429 + Retry-After.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		bytes.NewReader([]byte(`{"targets":["accuracy"],"scale":0.02,"benchmarks":["stream"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound POST /jobs = HTTP %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra <= 0 {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", resp.Header.Get("Retry-After"))
	}
	if n := mc.Count(metrics.ServerAdmissionRejects); n != 2 {
		t.Errorf("server.admission_rejects = %d, want 2", n)
	}

	// Not ready while paused (and saturated); liveness stays green — the
	// probes answer different questions.
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	if ready, reason := c.Ready(ctx); ready || reason == "" {
		t.Fatalf("readyz while paused = (%v, %q), want not ready with a reason", ready, reason)
	}

	// Drain: cancelling the backlog frees its slots at once, even while
	// paused — a new job fits again — and readiness recovers on unpause.
	for _, st := range d.Jobs() {
		if _, err := c.Cancel(ctx, st.ID); err != nil {
			t.Fatalf("cancel %s: %v", st.ID, err)
		}
	}
	st, err := d.Submit(smallSpec())
	if err != nil {
		t.Fatalf("submit after cancelling the backlog: %v", err)
	}
	if _, err := d.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	d.SetPaused(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ready, _ := c.Ready(ctx); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready after draining the queue")
		}
		time.Sleep(5 * time.Millisecond)
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

	final, err := c.Wait(ctx, live.ID, 50*time.Millisecond)
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
