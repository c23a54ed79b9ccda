package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/workloads"
)

// subcellOpts is a small accuracy configuration with the sub-cell artifact
// cache enabled on the given store.
func subcellOpts(t *testing.T, store *durable.Store, mc *metrics.Collector) Options {
	t.Helper()
	opts := DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"stream"}
	opts.Checkpoint = store
	opts.Subcell = true
	opts.Resume = true
	opts.Metrics = mc
	return opts
}

func benchJSON(t *testing.T, r *BenchResult) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSubcellCacheByteIdenticalReuse is the sub-cell cache's core contract:
// a warm run over the same workload serves the full reference — the one
// cached artifact — from the store (one hit, no miss, no experiments.full_ref
// phase, no full-ref simulation) and still produces a byte-identical
// BenchResult — both to its own cold run and to a run with no cache at all.
func TestSubcellCacheByteIdenticalReuse(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	plain := subcellOpts(t, nil, nil)
	plain.Subcell = false
	base, err := RunBenchmark(spec, gpusim.DefaultConfig(), plain)
	if err != nil {
		t.Fatal(err)
	}

	coldMC := metrics.New()
	cold, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, coldMC))
	if err != nil {
		t.Fatal(err)
	}
	if hits := coldMC.Count(metrics.SubcellHits); hits != 0 {
		t.Fatalf("cold run had %d subcell hits", hits)
	}
	if misses := coldMC.Count(metrics.SubcellMisses); misses != 1 {
		t.Fatalf("cold run recorded %d subcell misses, want 1 (the full reference)", misses)
	}
	if !hasPhase(coldMC, "experiments.full_ref") {
		t.Fatal("cold run has no experiments.full_ref phase")
	}

	warmMC := metrics.New()
	warm, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, warmMC))
	if err != nil {
		t.Fatal(err)
	}
	if hits := warmMC.Count(metrics.SubcellHits); hits != 1 {
		t.Fatalf("warm run recorded %d subcell hits, want 1 (the full reference)", hits)
	}
	if misses := warmMC.Count(metrics.SubcellMisses); misses != 0 {
		t.Fatalf("warm run missed %d artifacts", misses)
	}
	if hasPhase(warmMC, "experiments.full_ref") {
		t.Fatal("warm run still ran the experiments.full_ref phase")
	}
	// The warm run must not have simulated the full reference: its only
	// simulator work is the TBPoint representatives.
	if launches := warmMC.Count(metrics.SimLaunches); launches >= coldMC.Count(metrics.SimLaunches) {
		t.Fatalf("warm run simulated %d launches, cold %d — full ref not reused",
			launches, coldMC.Count(metrics.SimLaunches))
	}

	baseJSON, coldJSON, warmJSON := benchJSON(t, base), benchJSON(t, cold), benchJSON(t, warm)
	if !bytes.Equal(coldJSON, baseJSON) {
		t.Error("cold cached run differs from uncached run")
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Error("warm cached run differs from cold run")
	}

	// The one artifact lives under the subcell/ namespace of the shared
	// store; RunBenchmark journals no cell, so it is the only key.
	keys := store.Keys()
	if len(keys) != 1 || !strings.HasPrefix(keys[0], "subcell/v1/fullref/stream/") {
		t.Fatalf("store keys = %v, want exactly one subcell/v1/fullref/stream/ artifact", keys)
	}
}

func hasPhase(mc *metrics.Collector, name string) bool {
	for _, p := range mc.Snapshot().Phases {
		if p.Name == name {
			return true
		}
	}
	return false
}

// TestSubcellDisabledPublishesNothing pins the opt-in: a checkpointing run
// without Subcell must not write artifact keys (the crash-injection CI
// cases count checkpoint writes).
func TestSubcellDisabledPublishesNothing(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := subcellOpts(t, store, nil)
	opts.Subcell = false
	if _, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts); err != nil {
		t.Fatal(err)
	}
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, "subcell/") {
			t.Fatalf("subcell key %s published with Subcell off", k)
		}
	}
}
