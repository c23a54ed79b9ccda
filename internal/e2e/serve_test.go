package e2e

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/server"
)

// ranFullReference reports whether the job simulated a full reference run.
func ranFullReference(st server.JobStatus) bool {
	for _, p := range st.Phases {
		if p.Name == "experiments.full_ref" {
			return true
		}
	}
	return false
}

// TestKilledDaemonRestartRunsJournaledJob is the durability contract over
// real process death: a -paused daemon journals a job without running it and
// is killed -9; the restarted daemon runs the job it never saw submitted,
// and what it serves is the one-shot CLI's results.json byte for byte. An
// identical second job is then served from the artifact cache, and SIGTERM
// shuts the daemon down cleanly.
func TestKilledDaemonRestartRunsJournaledJob(t *testing.T) {
	ctx := testContext(t)
	state := filepath.Join(t.TempDir(), "state")
	want := oneShot(t, "-bench", "stream,black,hotspot")
	spec := streamJob()
	spec.Benchmarks = []string{"stream", "black", "hotspot"}

	paused := startDaemon(t, "serve", state, "-paused")
	job := paused.submit(ctx, spec)
	if st, err := paused.c.Status(ctx, job); err != nil || st.State != server.StateQueued {
		t.Fatalf("paused daemon did not hold the job queued: %+v (%v)", st, err)
	}
	paused.kill()

	d := startDaemon(t, "serve", state)
	if first := d.finish(ctx, job, server.StateDone); first.Requeues != 1 {
		t.Fatalf("job survived the restart with requeues=%d, want 1", first.Requeues)
	}
	if served, err := d.c.Result(ctx, job); err != nil || !bytes.Equal(served, want) {
		artifact("served.json", served)
		t.Fatalf("served results.json differs from the one-shot CLI output (%v)", err)
	}

	// The served run took stream's one representative from the reference run
	// it had just simulated, and says so in the job's report.
	if report, err := d.c.Report(ctx, job); err != nil || !strings.Contains(report, "stream   tbpoint: replayed 1 of 1 representatives") {
		t.Errorf("served job's report does not show the reference replay (%v):\n%s", err, report)
	}

	// Counters and phases, not wall time, say the second job was composed
	// from what the first one computed.
	again := d.submit(ctx, spec)
	cached := d.finish(ctx, again, server.StateDone)
	if cached.CacheMisses != 0 || cached.SubcellHits != 3 || cached.SubcellMisses != 0 || ranFullReference(cached) {
		t.Fatalf("second job was not served from the artifact cache: %+v", cached)
	}
	if got, err := d.c.Result(ctx, again); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cache-served results.json differs from the one-shot output (%v)", err)
	}
	if n := d.counter(metrics.ServerSubcellHits); n != 3 {
		t.Errorf("server.subcell_hits = %d on /metrics, want 3", n)
	}

	d.cmd.Process.Signal(syscall.SIGTERM)
	waitFor(t, "the daemon to exit on SIGTERM", d.dead)
	if code := d.cmd.ProcessState.ExitCode(); code != 0 || !strings.Contains(d.log(), "stopped") {
		t.Fatalf("daemon did not shut down cleanly (exit %d):\n%s", code, d.log())
	}
}

// TestAdmissionBackoffThroughRealClient: -max-queued reaches server.Config,
// and a tbpointctl submit launched against the full queue of a -paused
// daemon keeps retrying through the 429s until room appears.
func TestAdmissionBackoffThroughRealClient(t *testing.T) {
	ctx := testContext(t)
	d := startDaemon(t, "serve_admission", filepath.Join(t.TempDir(), "state"), "-paused", "-max-queued", "2")
	blockers := []string{d.submit(ctx, streamJob()), d.submit(ctx, streamJob())}

	retried := make(chan result, 1)
	go func() { retried <- d.ctl("submit", "-scale", "0.02", "-seed", "7", "-bench", "stream", "accuracy") }()
	waitFor(t, "the backing-off tbpointctl submit to take a 429", func() bool {
		return d.counter(metrics.ServerAdmissionRejects) > 0
	})
	select {
	case r := <-retried:
		t.Fatalf("backing-off submit returned (exit %d) while the queue was full:\n%s%s", r.code, r.stdout, r.stderr)
	default:
	}
	if _, err := d.c.Cancel(ctx, blockers[0]); err != nil {
		t.Fatal(err)
	}
	r := <-retried
	if r.code != 0 {
		t.Fatalf("backing-off submit never got accepted (exit %d):\n%s", r.code, r.stderr)
	}
	if st, err := d.c.Status(ctx, strings.TrimSpace(r.stdout)); err != nil || st.State != server.StateQueued {
		t.Fatalf("accepted submission is %+v (%v), want queued behind the paused gate", st, err)
	}
}

// TestCrashLoopQuarantinesAfterFourDeaths: the store's crash hook
// (TBPOINT_CRASH_AFTER_CHECKPOINTS, here one write past a cell's worth)
// makes tbpointd os.Exit(3) at that artifact-cache write of every boot. A
// no_cache poison job needs two cells' worth of writes on every pickup, so
// each boot dies under it; each restart replays the journal, finds the job
// was running when the daemon died, and requeues it — until the requeue cap
// (default 3) is exceeded and the fifth boot dead-letters it instead. That
// daemon stays up and runs the bystander queued behind, which needs at most
// one cell's worth of writes.
func TestCrashLoopQuarantinesAfterFourDeaths(t *testing.T) {
	ctx := testContext(t)
	state := filepath.Join(t.TempDir(), "state")
	perCell := 2 + len(sampler.DefaultSet()) // reference, header, outcomes
	crashHook := []string{fmt.Sprintf("%s=%d", durable.CrashHookEnv, perCell+1)}

	// Seed the journal on a paused daemon: poison first (head of the single
	// dispatcher's queue), bystander behind. Killing it here requeues both
	// as merely queued, which never counts against the cap.
	seed := startDaemon(t, "serve_quarantine", state, "-paused")
	spec := streamJob()
	spec.Benchmarks, spec.NoCache = []string{"stream", "black"}, true
	poison := seed.submit(ctx, spec)
	bystander := seed.submit(ctx, streamJob())
	seed.kill()

	var d *daemon
	deaths := 0
	for quarantined := false; !quarantined; {
		if deaths > 6 {
			t.Fatalf("poison job still not quarantined after %d daemon deaths:\n%s", deaths, d.log())
		}
		// The daemon may die under the poison job before it even listens.
		d = bootDaemon(t, "serve_quarantine", state, crashHook, "-dispatchers", "1")
		waitFor(t, "the poison job to kill the daemon or be quarantined", func() bool {
			if d.dead() {
				return true
			}
			st, err := d.c.Status(ctx, poison)
			quarantined = err == nil && st.State == server.StateQuarantined
			return quarantined
		})
		if !quarantined {
			deaths++
			if code := d.cmd.ProcessState.ExitCode(); code != 3 || !strings.Contains(d.log(), "injected crash") {
				t.Fatalf("daemon death %d was exit %d, not the injected crash (3):\n%s", deaths, code, d.log())
			}
		}
	}
	if deaths != 4 {
		t.Fatalf("quarantine fired after %d daemon deaths, want exactly 4 (cap 3)", deaths)
	}

	st, err := d.c.Status(ctx, poison)
	if err != nil || st.FailureKind() != server.FailureQuarantined || st.RunRequeues != 4 {
		t.Fatalf("dead-letter record wrong: %+v (%v)", st, err)
	}
	d.finish(ctx, bystander, server.StateDone)
	dead, err := d.c.JobsInState(ctx, server.StateQuarantined)
	if err != nil || len(dead) != 1 || dead[0].ID != poison {
		t.Fatalf("dead-letter list = %+v (%v), want exactly %s", dead, err, poison)
	}
	if n := d.counter(metrics.ServerJobsQuarantined); n != 1 {
		t.Errorf("server.jobs_quarantined = %d, want 1", n)
	}
}

// TestBoundedCacheStillComposesIdenticalBytes: -cache-max-bytes reaches the
// artifact cache of a real daemon (entries are evicted, the directory stays
// under budget), and a job that overlaps an earlier one without being
// identical — same workload, wider sampler set — is composed from the
// surviving sub-cell artifacts into exactly the one-shot CLI's bytes.
func TestBoundedCacheStillComposesIdenticalBytes(t *testing.T) {
	ctx := testContext(t)
	state := filepath.Join(t.TempDir(), "state")
	storeBytes := func(dir string) int64 {
		t.Helper()
		store, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store.SizeBytes()
	}

	// The one-shot run doubles as the yardstick: its store is what one job
	// weighs, and the budget holds two and a half of those.
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	want := oneShot(t, "-bench", "stream", "-samplers", "all", "-checkpoint-dir", ckpt)
	budget := storeBytes(ckpt) * 5 / 2
	// What is compared below is a real N-way bundle: every registered
	// strategy's outcome, the stratified CI and pilot accounting, a frontier.
	_, payload, err := durable.ReadEnvelope(want)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := experiments.ReadResults(bytes.NewReader(payload))
	if err != nil || len(bundle.Accuracy) != 1 || len(bundle.Pareto) == 0 {
		t.Fatalf("-samplers all bundle: %v, %+v", err, bundle)
	}
	strat := bundle.Accuracy[0].Samplers[sampler.NameStratified]
	if n := len(bundle.Accuracy[0].Samplers); n != len(sampler.Names()) || strat.CIHalf <= 0 || strat.PilotUnits == 0 {
		t.Fatalf("-samplers all bundle has %d outcomes, stratified %+v", n, strat)
	}
	d := startDaemon(t, "serveload", state, "-dispatchers", "1", "-cache-max-bytes", strconv.FormatInt(budget, 10))

	var jobs []string
	for _, tenant := range []struct {
		client string
		seed   uint64
	}{{"flood", 101}, {"flood", 102}, {"small", 7}} {
		spec := streamJob()
		spec.Client, spec.Seed = tenant.client, tenant.seed
		jobs = append(jobs, d.submit(ctx, spec))
	}
	for _, id := range jobs {
		d.finish(ctx, id, server.StateDone)
	}
	if n := d.counter(metrics.ServerCacheEvictions); n == 0 {
		t.Errorf("three jobs under a %d-byte budget evicted nothing", budget)
	}
	if onDisk := storeBytes(filepath.Join(state, "cache")); onDisk > budget {
		t.Errorf("cache directory holds %d bytes, over the %d-byte budget", onDisk, budget)
	}

	// The newest job (small, seed 7) survived the evictions. The wider job
	// misses its cell, finds the reference and the default trio's outcomes,
	// and estimates only the two strategies `all` adds.
	spec := streamJob()
	spec.Client, spec.Samplers = "other", []string{"all"}
	wider := d.submit(ctx, spec)
	st := d.finish(ctx, wider, server.StateDone)
	if st.CacheHits != 0 || st.SubcellHits == 0 || st.OutcomeHits != 3 || st.OutcomeMisses != 2 || ranFullReference(st) {
		t.Fatalf("wider job was not composed from the sub-cell cache: %+v", st)
	}
	if got, err := d.c.Result(ctx, wider); err != nil || !bytes.Equal(got, want) {
		artifact("serveload_warm.json", got)
		t.Fatalf("composed job's results.json differs from the one-shot output (%v)", err)
	}
}

// TestDaemonRefusesNegativeSettings: tbpointd exits before serving when a
// flag that sets a count, byte budget or duration is negative, naming the
// setting, instead of running it as the default or unbounded.
func TestDaemonRefusesNegativeSettings(t *testing.T) {
	for _, c := range []struct{ flag, value, field string }{
		{"-dispatchers", "-1", "Dispatchers"},
		{"-cache-max-bytes", "-1", "CacheMaxBytes"},
		{"-max-queued", "-1", "MaxQueued"},
		{"-max-queued-client", "-1", "MaxQueuedPerClient"},
		{"-stuck-after", "-1s", "StuckAfter"},
	} {
		d := bootDaemon(t, "serve_negative", filepath.Join(t.TempDir(), "state"), nil, c.flag, c.value)
		if !d.dead() {
			t.Errorf("tbpointd %s %s is serving", c.flag, c.value)
			continue
		}
		if code := d.cmd.ProcessState.ExitCode(); code == 0 || !strings.Contains(d.log(), c.field) {
			t.Errorf("tbpointd %s %s exited %d, want non-zero naming %s:\n%s", c.flag, c.value, code, c.field, d.log())
		}
	}
}
