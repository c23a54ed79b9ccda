package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/faultcheck"
	"tbpoint/internal/metrics"
)

// openStore is durable.Open with test plumbing.
func openStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	s, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodeResults renders a bundle exactly as cmd/experiments writes
// results.json, for byte-level comparison between runs.
func encodeResults(t *testing.T, r *Results) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	if err := WriteResultsFile(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosCrashResumeAccuracyGrid is the kill-and-resume acceptance test:
// a grid whose store fails at a sub-cell write of its second cell must stop
// with that fault, never as a CellError, and a resume over what the store
// kept must produce a results bundle byte-identical to an uninterrupted run
// while computing only what was lost.
func TestChaosCrashResumeAccuracyGrid(t *testing.T) {
	old := Parallelism
	Parallelism = 1 // sequential: cell order = benchmark order
	defer func() { Parallelism = old }()

	benches := []string{"stream", "black", "hotspot"}

	// Uninterrupted golden run.
	golden := fastOpts()
	golden.Benchmarks = benches
	goldenResults, goldenErrs, err := RunAccuracy(golden)
	if err != nil || len(goldenErrs) != 0 {
		t.Fatalf("golden run: err %v, cell errors %+v", err, goldenErrs)
	}
	goldenJSON := encodeResults(t, &Results{Scale: golden.Scale, Seed: golden.Seed, Accuracy: goldenResults})

	t.Run("attempts=1", func(t *testing.T) { // one attempt per cell, the only mode
		// Crashed run: the write after the second cell's full reference
		// (its reference header) faults. The grid still finishes the
		// cells it has started or not yet claimed, as it does on any
		// error, so only the second cell's header and outcomes are lost.
		dir := t.TempDir()
		store := openStore(t, dir)
		store.Fault = faultcheck.OnNth(perCell+2, faultcheck.Error)
		crashed := fastOpts()
		crashed.Benchmarks = benches
		crashed.Checkpoint = store
		_, cellErrs, err := RunAccuracy(crashed)
		if !errors.Is(err, faultcheck.ErrInjected) {
			t.Fatalf("crashed run: err = %v, want the injected store fault", err)
		}
		if len(cellErrs) != 0 {
			t.Fatalf("a store fault degraded to cell errors: %+v", cellErrs)
		}
		if store.Writes() != 2*perCell+1 {
			t.Fatalf("crashed run stored %d entries, want %d", store.Writes(), 2*perCell+1)
		}

		// Resume: a fresh process opens the store; the first and third
		// cells compose wholly, and the second decodes its reference and
		// estimates its strategies again.
		store2 := openStore(t, dir)
		if store2.Len() != int(2*perCell+1) || store2.Quarantined() != 0 {
			t.Fatalf("reopened store: len %d quarantined %d, want %d 0", store2.Len(), store2.Quarantined(), 2*perCell+1)
		}
		mc := metrics.New()
		resumeOpts := fastOpts()
		resumeOpts.Benchmarks = benches
		resumeOpts.Checkpoint = store2
		resumeOpts.Resume = true
		resumeOpts.Metrics = mc
		resumedResults, resumedErrs, err := RunAccuracy(resumeOpts)
		if err != nil || len(resumedErrs) != 0 {
			t.Fatalf("resumed run: err %v, cell errors %+v", err, resumedErrs)
		}
		if got := mc.Count(metrics.ExpCellsExecuted); got != 1 {
			t.Errorf("exp.cells_executed = %d, want 1 (composed cells must not re-run)", got)
		}
		if got := mc.Count(metrics.SamplerEstimates); got != uint64(perCell-2) {
			t.Errorf("sampler.estimates = %d, want %d (the lost cell's strategies)", got, perCell-2)
		}
		if got := mc.Count(metrics.SubcellHits); got != 3 {
			t.Errorf("subcell.hits = %d, want 3", got)
		}
		if got := phaseCount(mc, "experiments.full_ref"); got != 0 {
			t.Errorf("resume simulated %d reference runs; every one was stored", got)
		}
		if store2.Len() != int(3*perCell) {
			t.Errorf("store holds %d entries after resume, want %d", store2.Len(), 3*perCell)
		}
		resumedJSON := encodeResults(t, &Results{Scale: resumeOpts.Scale, Seed: resumeOpts.Seed, Accuracy: resumedResults})
		if !bytes.Equal(goldenJSON, resumedJSON) {
			t.Errorf("resumed results.json differs from the uninterrupted run:\n--- golden\n%s\n--- resumed\n%s",
				goldenJSON, resumedJSON)
		}
	})
}

// TestChaosSensitivityResumeSkipsFinishedGrid stores a full sensitivity
// grid, then resumes it: every cell must be composed from the store with
// zero simulation work and no write, bit-identical.
func TestChaosSensitivityResumeSkipsFinishedGrid(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	dir := t.TempDir()
	first := fastOpts()
	first.Benchmarks = []string{"stream"}
	first.Checkpoint = openStore(t, dir)
	firstResults, firstErrs, err := RunSensitivity(first)
	if err != nil || len(firstErrs) != 0 {
		t.Fatalf("first run: err %v, cell errors %+v", err, firstErrs)
	}
	if want := len(HWConfigs()); len(firstResults) != want {
		t.Fatalf("first run produced %d results, want %d", len(firstResults), want)
	}

	mc := metrics.New()
	second := fastOpts()
	second.Benchmarks = []string{"stream"}
	second.Checkpoint = openStore(t, dir)
	second.Resume = true
	second.Metrics = mc
	secondResults, secondErrs, err := RunSensitivity(second)
	if err != nil || len(secondErrs) != 0 {
		t.Fatalf("resumed run: err %v, cell errors %+v", err, secondErrs)
	}
	if got := mc.Count(metrics.SubcellHits); got != uint64(len(HWConfigs())) {
		t.Errorf("subcell.hits = %d, want %d", got, len(HWConfigs()))
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 0 {
		t.Errorf("exp.cells_executed = %d, want 0 on a fully resumed grid", got)
	}
	assertComposed(t, "fully resumed grid", mc)
	if n := second.Checkpoint.Writes(); n != 0 {
		t.Errorf("fully resumed grid wrote %d store entries", n)
	}

	a := encodeResults(t, &Results{Scale: first.Scale, Seed: first.Seed, Sensitivity: firstResults})
	b := encodeResults(t, &Results{Scale: second.Scale, Seed: second.Seed, Sensitivity: secondResults})
	if !bytes.Equal(a, b) {
		t.Error("fully resumed sensitivity grid is not bit-identical to the original run")
	}
}

// TestChaosCorruptCheckpointQuarantinedAndRecomputed damages one stored
// entry on disk, black's TBPoint outcome: the resumed run must quarantine it
// (never trust it), compose stream wholly, estimate only black's TBPoint
// again on its stored reference, and still match the golden results.
func TestChaosCorruptCheckpointQuarantinedAndRecomputed(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	benches := []string{"stream", "black"}
	dir := t.TempDir()
	first := fastOpts()
	first.Benchmarks = benches
	first.Checkpoint = openStore(t, dir)
	goldenResults, _, err := RunAccuracy(first)
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != int(2*perCell) {
		t.Fatalf("checkpoint files: %v, %v (want %d)", files, err, 2*perCell)
	}
	var damaged int
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte("/outcome/black/")) || !bytes.Contains(data, []byte(`/tbpoint"`)) {
			continue
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged != 1 {
		t.Fatalf("found %d files holding black's TBPoint outcome, want 1", damaged)
	}

	store := openStore(t, dir)
	if store.Quarantined() != 1 || store.Len() != int(2*perCell-1) {
		t.Fatalf("quarantined %d len %d, want 1 %d", store.Quarantined(), store.Len(), 2*perCell-1)
	}
	mc := metrics.New()
	resume := fastOpts()
	resume.Benchmarks = benches
	resume.Checkpoint = store
	resume.Resume = true
	resume.Metrics = mc
	results, cellErrs, err := RunAccuracy(resume)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("resumed run: err %v, cell errors %+v", err, cellErrs)
	}
	for _, c := range []struct {
		id   metrics.Counter
		want uint64
	}{
		{metrics.ExpCellsExecuted, 1},
		{metrics.SubcellHits, 2}, // stream composed, black's reference decoded
		{metrics.OutcomeMisses, 1},
		{metrics.SamplerEstimates, 1},
	} {
		if n := mc.Count(c.id); n != c.want {
			t.Errorf("%s = %d, want %d", c.id.Name(), n, c.want)
		}
	}
	if n := phaseCount(mc, "experiments.full_ref"); n != 0 {
		t.Errorf("resume simulated %d reference runs; both were stored", n)
	}
	a := encodeResults(t, &Results{Scale: first.Scale, Seed: first.Seed, Accuracy: goldenResults})
	b := encodeResults(t, &Results{Scale: resume.Scale, Seed: resume.Seed, Accuracy: results})
	if !bytes.Equal(a, b) {
		t.Error("recomputed-after-quarantine results differ from the golden run")
	}
}

// TestChaosCellDeadlineDegradesNotCancels gives every cell an impossible
// deadline while the grid itself has no context: blown deadlines must
// degrade to CellErrors, never masquerade as grid cancellation.
func TestChaosCellDeadlineDegradesNotCancels(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black"}
	opts.CellDeadline = time.Nanosecond
	results, cellErrs, err := RunAccuracy(opts)
	if err != nil {
		t.Fatalf("blown cell deadlines must not abort the grid: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("%d cells beat a 1ns deadline", len(results))
	}
	if len(cellErrs) != len(opts.Benchmarks) {
		t.Fatalf("got %d cell errors, want %d", len(cellErrs), len(opts.Benchmarks))
	}
	for _, ce := range cellErrs {
		if !strings.Contains(ce.Err, "deadline") {
			t.Errorf("cell %s error %q does not name the deadline", ce.Cell, ce.Err)
		}
	}
}

// TestChaosStaleCheckpointIgnoredOnOptionChange reruns a stored grid with a
// different seed: every key misses, so nothing stale is composed.
func TestChaosStaleCheckpointIgnoredOnOptionChange(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	dir := t.TempDir()
	first := fastOpts()
	first.Benchmarks = []string{"stream"}
	first.Checkpoint = openStore(t, dir)
	if _, _, err := RunAccuracy(first); err != nil {
		t.Fatal(err)
	}

	mc := metrics.New()
	second := fastOpts()
	second.Benchmarks = []string{"stream"}
	second.Seed = first.Seed + 1
	second.Checkpoint = openStore(t, dir)
	second.Resume = true
	second.Metrics = mc
	if _, _, err := RunAccuracy(second); err != nil {
		t.Fatal(err)
	}
	if hits := mc.Count(metrics.SubcellHits) + mc.Count(metrics.OutcomeHits); hits != 0 {
		t.Errorf("%d store hits, want 0: a changed seed must miss every entry", hits)
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 1 {
		t.Errorf("exp.cells_executed = %d, want 1", got)
	}
	if got := phaseCount(mc, "experiments.full_ref"); got != 1 {
		t.Errorf("%d reference runs simulated, want 1", got)
	}
}

// TestResultsFileDamageDetected pins the typed-error contract for
// results.json itself: flips surface as ErrCorrupt, cuts as ErrTruncated,
// and neither ever half-parses.
func TestResultsFileDamageDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	in := &Results{
		Scale: 0.02, Seed: 7,
		Errors: []CellError{{Grid: "accuracy", Cell: "black", Err: "boom", TotalDuration: 2}},
	}
	if err := WriteResultsFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResultsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seed != 7 || len(out.Errors) != 1 || out.Errors[0] != in.Errors[0] {
		t.Fatalf("round trip lost data: %+v", out)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResultsFile(path); !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, durable.ErrTruncated) {
		t.Errorf("corrupted results file: err = %v, want typed corruption", err)
	}

	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResultsFile(path); !errors.Is(err, durable.ErrTruncated) {
		t.Errorf("truncated results file: err = %v, want ErrTruncated", err)
	}
}

// TestResultsFileOldKindRejected: an intact results.json written before the
// schema change (envelope kind "results", fixed Random/SimPoint/TBPoint
// fields) fails the envelope's kind check instead of loading as results
// whose every strategy column would render "-".
func TestResultsFileOldKindRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	old, err := os.ReadFile(filepath.Join("testdata", "results_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteEnvelopeFile(path, "results", old); err != nil {
		t.Fatal(err)
	}
	res, err := ReadResultsFile(path)
	if err == nil {
		t.Fatalf("old-schema results file loaded: %+v", res.Accuracy[0])
	}
	if !strings.Contains(err.Error(), `"results"`) || !strings.Contains(err.Error(), resultsKind) {
		t.Errorf("error %q does not name the kind mismatch", err)
	}
}
