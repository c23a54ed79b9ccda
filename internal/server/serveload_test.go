package server_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

// refResults runs a spec-equivalent one-shot job through the experiments
// engine, as cmd/experiments would, and returns the results.json bytes.
func refResults(t *testing.T, seed uint64, samplers []string) []byte {
	t.Helper()
	opts := experiments.DefaultOptions(0.02)
	opts.Seed = seed
	opts.Benchmarks = []string{"stream"}
	opts.Samplers = samplers
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

// diskBytes stats a store directory: the bytes of every file in it but
// the damaged ones kept aside (*.corrupt), which the budget does not bound.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".corrupt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestServeLoadBoundedCache is the concurrent-client load test: two
// clients submit distinct jobs at once, all over real HTTP, and a
// byte-budgeted daemon with one dispatcher runs them. It asserts at once:
//
//   - one queue: the jobs finish in ID (submission) order, whatever client
//     label each carries;
//   - bounded cache: the artifact directory stays under -cache-max-bytes,
//     with evictions counted, while every job still completes;
//   - correctness under load: results remain byte-identical to the
//     one-shot engine, eviction and contention notwithstanding.
//
// Submissions land on a paused daemon which is then restarted (the restart
// path is the deterministic way to have the full queue in place before the
// dispatcher starts), so the test also re-covers requeue recovery.
func TestServeLoadBoundedCache(t *testing.T) {
	dir := t.TempDir()
	const budget = 256 << 10 // one job publishes ~180KB of artifacts, so 4 distinct jobs must evict

	// Phase 1: two clients submit concurrently to a paused daemon.
	d1 := openDriver(t, server.Config{StateDir: dir, Paused: true, Logf: t.Logf})
	srv1 := httptest.NewServer(d1.Handler())
	c1 := client.New(srv1.URL)
	ctx := context.Background()

	var mu sync.Mutex
	var floodIDs []string
	var smallID string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the flood client: several distinct-seed jobs
		defer wg.Done()
		for seed := uint64(100); seed < 104; seed++ {
			spec := smallSpec()
			spec.Seed = seed
			spec.Client = "flood"
			st, err := c1.Submit(ctx, spec)
			if err != nil {
				t.Errorf("flood submit: %v", err)
				return
			}
			mu.Lock()
			floodIDs = append(floodIDs, st.ID)
			mu.Unlock()
		}
	}()
	go func() { // the small client: one job
		defer wg.Done()
		spec := smallSpec()
		spec.Client = "small"
		st, err := c1.Submit(ctx, spec)
		if err != nil {
			t.Errorf("small submit: %v", err)
			return
		}
		mu.Lock()
		smallID = st.ID
		mu.Unlock()
	}()
	wg.Wait()
	srv1.Close()
	d1.Close()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: restart unpaused with the byte budget; one dispatcher makes
	// the dispatch order observable. All clients wait concurrently.
	mc := metrics.New()
	d2 := openDriver(t, server.Config{
		StateDir: dir, Dispatchers: 1, CacheMaxBytes: budget, Metrics: mc, Logf: t.Logf,
	})
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	c2 := client.New(srv2.URL)

	finals := map[string]server.JobStatus{}
	ids := append(append([]string{}, floodIDs...), smallID)
	wg.Add(len(ids))
	for _, id := range ids {
		go func(id string) {
			defer wg.Done()
			st, err := c2.Wait(ctx, id, 0)
			if err != nil {
				t.Errorf("wait %s: %v", id, err)
				return
			}
			mu.Lock()
			finals[id] = st
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for id, st := range finals {
		if st.State != server.StateDone {
			t.Fatalf("job %s finished %s (error %q)", id, st.State, st.Error)
		}
	}

	// One queue: with one dispatcher, each job finishes after every job
	// with a smaller ID.
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if prev, cur := finals[ids[i-1]], finals[ids[i]]; !cur.FinishedAt.After(*prev.FinishedAt) {
			t.Errorf("job %s finished at %v, not after job %s at %v", cur.ID, cur.FinishedAt, prev.ID, prev.FinishedAt)
		}
	}

	// Bounded cache: the budget forced evictions and the directory respects
	// the bound (accounted and on disk).
	d2.Metrics() // fold the final eviction delta into the counter
	if n := mc.Count(metrics.ServerCacheEvictions); n == 0 {
		t.Error("server.cache_evictions = 0, want evictions under the byte budget")
	}
	if got := d2.CacheSizeBytes(); got > budget {
		t.Errorf("accounted cache size %d exceeds budget %d", got, budget)
	}
	if got := diskBytes(t, filepath.Join(dir, "cache")); got > budget {
		t.Errorf("on-disk cache %d bytes exceeds budget %d", got, budget)
	}

	// Correctness under load: spot-check both clients' results against the
	// one-shot engine.
	smallGot, err := c2.Result(ctx, smallID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(smallGot, refResults(t, 7, nil)) {
		t.Error("small client's results.json differs from one-shot engine output")
	}
	floodGot, err := c2.Result(ctx, floodIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(floodGot, refResults(t, 100, nil)) {
		t.Error("flood client's results.json differs from one-shot engine output")
	}
}

// journalRecords counts the records in stateDir's job journal, one a line.
func journalRecords(t *testing.T, stateDir string) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(stateDir, "jobs", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// dirEntries counts the entries of dir.
func dirEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestSubcellReuseAcrossJobs pins the sub-cell cache contract end-to-end:
// a second job over the same workload but a different sampler set reuses
// the full reference and the base job's three outcomes, estimating only the
// two strategies that are new — less wall time than the same spec computed
// cold, byte-identical results. A third job whose strategies have all been
// estimated by then composes its cells without computing or writing
// anything.
func TestSubcellReuseAcrossJobs(t *testing.T) {
	mc := metrics.New()
	stateDir := t.TempDir()
	d := openDriver(t, server.Config{StateDir: stateDir, Dispatchers: 1, Metrics: mc, Logf: t.Logf})

	submitWait := func(spec server.JobSpec) server.JobStatus {
		t.Helper()
		st, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done, _ := d.Done(st.ID)
		select {
		case <-done:
		case <-time.After(5 * time.Minute):
			t.Fatalf("job %s never finished", st.ID)
		}
		final, err := d.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone {
			t.Fatalf("job %s finished %s (error %q)", st.ID, final.State, final.Error)
		}
		return final
	}

	// Job A seeds the artifact cache.
	a := submitWait(smallSpec())
	if a.SubcellHits != 0 || a.SubcellMisses == 0 {
		t.Fatalf("cold job subcell hits=%d misses=%d, want fresh compute", a.SubcellHits, a.SubcellMisses)
	}

	// Job B: same workload, wider sampler set — overlapping but not
	// identical. The sub-cell artifacts hit.
	specB := smallSpec()
	specB.Client = "other-tenant"
	specB.Samplers = []string{"all"}
	b := submitWait(specB)
	if b.SubcellHits == 0 {
		t.Fatal("job B recorded no subcell hits — full reference not reused")
	}
	if b.SubcellMisses != 0 {
		t.Fatalf("job B missed %d artifacts, want full reuse", b.SubcellMisses)
	}
	benches := uint64(len(specB.Benchmarks))
	if b.OutcomeHits != 3*benches || b.OutcomeMisses != 2*benches {
		t.Fatalf("job B outcome hits=%d misses=%d, want %d (the base trio) and %d (systematic, stratified)",
			b.OutcomeHits, b.OutcomeMisses, 3*benches, 2*benches)
	}
	for _, p := range b.Phases {
		if p.Name == "sampler.tbpoint" || p.Name == "experiments.full_ref" {
			t.Fatalf("job B ran phase %s; it was job A's work to reuse", p.Name)
		}
	}

	// Job D: a subset of what A and B estimated — composed from the store.
	specD := smallSpec()
	specD.Samplers = []string{"tbpoint", "stratified"}
	writes := d.Cache().Writes()
	appends, results := journalRecords(t, stateDir), dirEntries(t, filepath.Join(stateDir, "results"))
	dj := submitWait(specD)
	if dj.CacheMisses != 0 || dj.SubcellHits != benches || dj.SubcellMisses != 0 ||
		dj.OutcomeHits != 2*benches || dj.OutcomeMisses != 0 {
		t.Fatalf("job D cells computed=%d subcell hits=%d misses=%d outcome hits=%d misses=%d, want 0, %d, 0, %d, 0",
			dj.CacheMisses, dj.SubcellHits, dj.SubcellMisses, dj.OutcomeHits, dj.OutcomeMisses, benches, 2*benches)
	}
	if n := d.Cache().Writes() - writes; n != 0 {
		t.Fatalf("job D wrote %d cache entries, want none", n)
	}
	// The durable work of a warm job is exactly three journal appends
	// (queued, running, done) and its results file; the journal is one log.
	if n := journalRecords(t, stateDir) - appends; n != 3 {
		t.Errorf("job D appended %d journal records, want 3", n)
	}
	if n := dirEntries(t, filepath.Join(stateDir, "results")) - results; n != 1 {
		t.Errorf("job D wrote %d results files, want 1", n)
	}
	if n := dirEntries(t, filepath.Join(stateDir, "jobs")); n != 1 {
		t.Errorf("%s holds %d entries, want only the journal log", filepath.Join(stateDir, "jobs"), n)
	}
	for _, p := range dj.Phases {
		if strings.HasPrefix(p.Name, "sampler.") || p.Name == "experiments.full_ref" || p.Name == "experiments.build" {
			t.Fatalf("job D ran phase %s, want a pure composition", p.Name)
		}
	}
	resD, err := d.Result(dj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := refResults(t, 7, specD.Samplers); !bytes.Equal(resD, want) {
		t.Error("composed results.json differs from one-shot engine output")
	}

	// Job C: job B's spec computed cold (NoCache bypasses all reuse) — the
	// honest baseline for both the wall-time and the byte-identity claims.
	specC := specB
	specC.Client = "cold-tenant"
	specC.NoCache = true
	c := submitWait(specC)
	if c.SubcellHits != 0 || c.OutcomeHits != 0 || c.SubcellMisses != benches || c.OutcomeMisses != 5*benches {
		t.Fatalf("NoCache job: subcell hits=%d misses=%d, outcome hits=%d misses=%d; want every lookup a miss",
			c.SubcellHits, c.SubcellMisses, c.OutcomeHits, c.OutcomeMisses)
	}
	if b.WallSeconds >= c.WallSeconds {
		t.Errorf("warm job took %.3fs, cold %.3fs — artifact reuse saved no time",
			b.WallSeconds, c.WallSeconds)
	}

	resB, err := d.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := d.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resB, resC) {
		t.Error("artifact-reusing job's results differ from cold compute")
	}
	if want := refResults(t, 7, b.Spec.Samplers); !bytes.Equal(resB, want) {
		t.Error("served results.json differs from one-shot engine output")
	}

	if n := mc.Count(metrics.SubcellHits); n == 0 {
		t.Error("subcell.hits counter is zero after artifact reuse")
	}
	if hits, misses := mc.Count(metrics.OutcomeHits), mc.Count(metrics.OutcomeMisses); hits != 5*benches || misses != 10*benches {
		t.Errorf("outcome.hits=%d outcome.misses=%d, want %d and %d (A misses 3, B hits 3 misses 2, D hits 2, C misses 5)",
			hits, misses, 5*benches, 10*benches)
	}
}
