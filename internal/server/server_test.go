package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

// smallSpec is the cheap job every end-to-end test submits: one benchmark's
// accuracy grid at 2% scale.
func smallSpec() server.JobSpec {
	return server.JobSpec{
		Targets:    []string{"accuracy"},
		Scale:      0.02,
		Seed:       7,
		Benchmarks: []string{"stream"},
	}
}

// referenceResults runs the same spec through the one-shot engine, exactly
// as cmd/experiments would, and returns the results.json bytes.
func referenceResults(t *testing.T) []byte {
	t.Helper()
	opts := experiments.DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"stream"}
	opts.Retry = experiments.RetryPolicy{Attempts: 1, Seed: 7}
	bundle, err := experiments.RunTargets(opts, experiments.RunSpec{Targets: []string{"accuracy"}}, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := experiments.WriteResultsFile(path, bundle); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func openDriver(t testing.TB, cfg server.Config) *server.Driver {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	d, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestServerEndToEnd drives the whole service path over real HTTP: submit,
// stream events, wait, download the result — which must be byte-identical
// to the one-shot CLI engine's output — then submit the same grid again and
// watch the artifact cache satisfy it without recomputation.
func TestServerEndToEnd(t *testing.T) {
	mc := metrics.New()
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Dispatchers: 1, Metrics: mc, Logf: t.Logf})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	st, err := c.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" || st.State != server.StateQueued {
		t.Fatalf("submitted status = %+v", st)
	}

	// Stream events concurrently with the run; the last event must carry
	// the terminal state.
	eventsDone := make(chan error, 1)
	var lastEvent server.JobStatus
	go func() {
		eventsDone <- c.Events(ctx, st.ID, func(ev server.JobStatus) error {
			lastEvent = ev
			return nil
		})
	}()

	final, err := c.Wait(ctx, st.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.CacheMisses == 0 || final.CacheHits != 0 {
		t.Errorf("first job hits=%d misses=%d, want fresh compute", final.CacheHits, final.CacheMisses)
	}
	if final.WallSeconds <= 0 {
		t.Error("done job has no wall time")
	}
	if len(final.Phases) == 0 {
		t.Error("done job has no phase breakdown")
	}
	if err := <-eventsDone; err != nil {
		t.Fatalf("events: %v", err)
	}
	if !lastEvent.State.Terminal() {
		t.Errorf("last streamed event is %s, want terminal", lastEvent.State)
	}

	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if want := referenceResults(t); !bytes.Equal(got, want) {
		t.Errorf("served results.json differs from one-shot engine output (%d vs %d bytes)", len(got), len(want))
	}

	report, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if !strings.Contains(report, "stream") {
		t.Errorf("report text missing benchmark name:\n%s", report)
	}

	// Second identical job: every grid cell must come from the artifact
	// cache, and the bytes must still match.
	st2, err := c.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Wait(ctx, st2.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != server.StateDone {
		t.Fatalf("second job finished %s (error %q)", final2.State, final2.Error)
	}
	if final2.CacheHits == 0 || final2.CacheMisses != 0 {
		t.Errorf("second job hits=%d misses=%d, want pure cache", final2.CacheHits, final2.CacheMisses)
	}
	got2, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, got2) {
		t.Error("cached job's results.json differs from the computed job's")
	}

	if n := mc.Count(metrics.ServerCacheHits); n == 0 {
		t.Error("server.cache_hits counter is zero after a cache-served job")
	}
	if n := mc.Count(metrics.ServerJobsDone); n != 2 {
		t.Errorf("server.jobs_done = %d, want 2", n)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != st.ID || jobs[1].ID != st2.ID {
		t.Errorf("job list = %+v, want both jobs in submission order", jobs)
	}
}

// TestRestartRequeuesJobs pins the durability contract: a job queued by a
// paused daemon survives that process's death and runs to completion in the
// next one, with the restart recorded.
func TestRestartRequeuesJobs(t *testing.T) {
	dir := t.TempDir()
	d1 := openDriver(t, server.Config{StateDir: dir, Dispatchers: 1, Paused: true, Logf: t.Logf})
	st, err := d1.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The paused driver must not have started it.
	got, err := d1.Status(st.ID)
	if err != nil || got.State != server.StateQueued {
		t.Fatalf("paused driver job state = %v err = %v, want queued", got.State, err)
	}
	d1.Close() // stands in for the process dying; the journal is the contract

	mc := metrics.New()
	d2 := openDriver(t, server.Config{StateDir: dir, Dispatchers: 1, Metrics: mc, Logf: t.Logf})
	done, err := d2.Done(st.ID)
	if err != nil {
		t.Fatalf("restarted driver forgot job %s: %v", st.ID, err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		t.Fatal("requeued job never finished")
	}
	final, err := d2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("requeued job finished %s (error %q)", final.State, final.Error)
	}
	if final.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", final.Requeues)
	}
	if n := mc.Count(metrics.ServerJobsRequeued); n != 1 {
		t.Errorf("server.jobs_requeued = %d, want 1", n)
	}
	if _, err := d2.Result(st.ID); err != nil {
		t.Errorf("result after restart: %v", err)
	}
}

// TestCancelQueuedJob: cancelling while queued terminates immediately,
// without a dispatcher ever touching the job.
func TestCancelQueuedJob(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Paused: true, Logf: t.Logf})
	st, err := d.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.StateCancelled {
		t.Fatalf("cancelled job state = %s", got.State)
	}
	done, _ := d.Done(st.ID)
	select {
	case <-done:
	default:
		t.Error("cancelled job's done channel not closed")
	}
	// Cancelling again is a no-op, not an error.
	if again, err := d.Cancel(st.ID); err != nil || again.State != server.StateCancelled {
		t.Errorf("re-cancel: state=%v err=%v", again.State, err)
	}
}

// TestJobDeadline: an already-blown deadline aborts the run before any cell
// executes and fails the job with the deadline verdict — the per-job
// deadline is plumbed as the run's context, not checked out-of-band.
func TestJobDeadline(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Dispatchers: 1, Logf: t.Logf})
	spec := smallSpec()
	spec.Deadline = server.Duration(time.Nanosecond)
	st, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := d.Done(st.ID)
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("deadline job never finished")
	}
	final, _ := d.Status(st.ID)
	if final.State != server.StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("deadline job = %s (%q), want failed with deadline error", final.State, final.Error)
	}
	if final.CacheMisses != 0 {
		t.Errorf("deadline job executed %d cells, want 0", final.CacheMisses)
	}
}

// TestSubmitValidation: invalid specs fail at the HTTP boundary with 400s,
// unknown jobs 404, results of unfinished jobs refuse politely.
func TestSubmitValidation(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Paused: true, Logf: t.Logf})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	cases := []server.JobSpec{
		{Targets: []string{"bogus"}},
		{},
		{Targets: []string{"accuracy"}, Scale: -1},
		{Targets: []string{"accuracy"}, Retries: -2},
		{Targets: []string{"accuracy"}, Samplers: []string{"nope"}},
		{Targets: []string{"accuracy"}, Benchmarks: []string{"nosuch"}},
		{Targets: []string{"accuracy"}, Benchmarks: []string{"stream", ""}},
		{Targets: []string{"fig5"}, Samples: -3},
	}
	for _, spec := range cases {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("spec %+v accepted, want rejection", spec)
		} else if !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("spec %+v: %v, want HTTP 400", spec, err)
		}
	}

	// The retired event-loop fields are unknown fields now: a client still
	// sending them is told so instead of silently getting a serial run.
	for _, field := range []string{`"parallel_sm":2`, `"quantum":128`, `"max_divergence":0.1`} {
		body := `{"targets":["accuracy"],` + field + `}`
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	// The state filter's vocabulary is the lifecycle's: a typo is told so,
	// with the known states, instead of answering an empty list.
	if _, err := c.JobsInState(ctx, "quarantned"); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("GET /jobs?state=quarantned: %v, want HTTP 400 naming the known states", err)
	}
	if jobs, err := c.JobsInState(ctx, server.StateQuarantined); err != nil || len(jobs) != 0 {
		t.Errorf("GET /jobs?state=quarantined: %v, %v, want an empty list", jobs, err)
	}

	if _, err := c.Status(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Errorf("unknown job status: %v, want HTTP 404", err)
	}
	st, err := c.Submit(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("result of queued job: %v, want HTTP 400", err)
	}
}

// postJobs posts a raw body to /jobs and returns the status code and body.
func postJobs(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestSubmitBodyBounded: POST /jobs reads at most 1 MiB, so an endless body
// is refused with a 400 instead of being buffered.
func TestSubmitBodyBounded(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Paused: true, Logf: t.Logf})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	// A spec whose client name is padded past the bound.
	body := strings.NewReader(`{"targets":["accuracy"],"client":"` + strings.Repeat("0", 2<<20) + `"}`)
	if code, msg := postJobs(t, srv.URL, body); code != http.StatusBadRequest || !strings.Contains(msg, "too large") {
		t.Fatalf("2 MiB body: HTTP %d %s, want 400 naming the size", code, msg)
	}
	if len(d.Jobs()) != 0 {
		t.Fatal("the oversized submission was journaled")
	}
}

// TestSubmitRejectsTrailingData: the body is one spec object; anything but
// whitespace after it is a 400, not silently ignored.
func TestSubmitRejectsTrailingData(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Paused: true, Logf: t.Logf})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	const spec = `{"targets":["accuracy"],"scale":0.02,"benchmarks":["stream"]}`
	for _, tail := range []string{" trailing", spec, "]", "{"} {
		if code, msg := postJobs(t, srv.URL, strings.NewReader(spec+tail)); code != http.StatusBadRequest {
			t.Errorf("spec + %q: HTTP %d %s, want 400", tail, code, msg)
		}
	}
	if code, msg := postJobs(t, srv.URL, strings.NewReader(spec+" \n")); code != http.StatusAccepted {
		t.Fatalf("spec + whitespace: HTTP %d %s, want 202", code, msg)
	}
	if n := len(d.Jobs()); n != 1 {
		t.Fatalf("%d jobs journaled, want only the clean one", n)
	}
}

// TestDefaultsNormalized: submission normalizes the zero-value spec fields
// the same way the CLI flag defaults do.
func TestDefaultsNormalized(t *testing.T) {
	d := openDriver(t, server.Config{StateDir: t.TempDir(), Paused: true, Logf: t.Logf})
	st, err := d.Submit(server.JobSpec{Targets: []string{"accuracy"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Scale != 1.0 || st.Spec.Retries != 1 {
		t.Errorf("normalized spec = %+v, want scale 1.0 retries 1", st.Spec)
	}

	// Sampler lists are canonicalized at the boundary too, so equivalent
	// selections hash to the same grid cells.
	spec := smallSpec()
	spec.Samplers = []string{"TBPoint", "random", "simpoint", "random"}
	st2, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(st2.Spec.Samplers, ","); got != "random,simpoint,tbpoint" {
		t.Errorf("samplers normalized to %q, want canonical order", got)
	}
}
