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
// a grid whose checkpoint journal dies at the second write (so exactly the
// other cells are durable), resumed with -resume semantics, must produce a
// results bundle byte-identical to an uninterrupted run while re-executing
// only the cell whose checkpoint was lost.
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

	// Crashed run: the journal's second write faults, so cells 0 and 2 are
	// durable and cell 1 is lost. Journal failures are grid-fatal by
	// design, mirroring a process crash at that write.
	dir := t.TempDir()
	store := openStore(t, dir)
	store.Fault = faultcheck.OnNth(2, faultcheck.Error)
	crashed := fastOpts()
	crashed.Benchmarks = benches
	crashed.Checkpoint = store
	if _, _, err := RunAccuracy(crashed); !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("crashed run: err = %v, want the injected journal fault", err)
	}
	if store.Writes() != 2 {
		t.Fatalf("crashed run journaled %d cells, want 2", store.Writes())
	}

	// Resume: a fresh process opens the journal, replays the two durable
	// cells, and simulates only the lost one.
	store2 := openStore(t, dir)
	if store2.Len() != 2 || store2.Quarantined() != 0 {
		t.Fatalf("reopened journal: len %d quarantined %d, want 2 0", store2.Len(), store2.Quarantined())
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

	if got := mc.Count(metrics.ExpCellsResumed); got != 2 {
		t.Errorf("exp.cells_resumed = %d, want 2", got)
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 1 {
		t.Errorf("exp.cells_executed = %d, want 1 (completed cells must not re-run)", got)
	}
	if got := mc.Count(metrics.ExpCheckpointsSave); got != 1 {
		t.Errorf("exp.checkpoint_writes = %d, want 1 (only the recomputed cell)", got)
	}
	if store2.Len() != 3 {
		t.Errorf("journal holds %d cells after resume, want 3", store2.Len())
	}

	goldenJSON := encodeResults(t, &Results{Scale: golden.Scale, Seed: golden.Seed, Accuracy: goldenResults})
	resumedJSON := encodeResults(t, &Results{Scale: resumeOpts.Scale, Seed: resumeOpts.Seed, Accuracy: resumedResults})
	if !bytes.Equal(goldenJSON, resumedJSON) {
		t.Errorf("resumed results.json differs from the uninterrupted run:\n--- golden\n%s\n--- resumed\n%s",
			goldenJSON, resumedJSON)
	}
}

// TestChaosSensitivityResumeSkipsFinishedGrid journals a full sensitivity
// grid, then resumes it: every cell must come back from the journal with
// zero simulation work, bit-identical.
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
	if got := mc.Count(metrics.ExpCellsResumed); got != uint64(len(HWConfigs())) {
		t.Errorf("exp.cells_resumed = %d, want %d", got, len(HWConfigs()))
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 0 {
		t.Errorf("exp.cells_executed = %d, want 0 on a fully resumed grid", got)
	}

	a := encodeResults(t, &Results{Scale: first.Scale, Seed: first.Seed, Sensitivity: firstResults})
	b := encodeResults(t, &Results{Scale: second.Scale, Seed: second.Seed, Sensitivity: secondResults})
	if !bytes.Equal(a, b) {
		t.Error("fully resumed sensitivity grid is not bit-identical to the original run")
	}
}

// TestChaosCorruptCheckpointQuarantinedAndRecomputed damages one journaled
// cell on disk: the resumed run must quarantine it (never trust it), resume
// the intact cell, recompute the damaged one, and still match the golden
// results.
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
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint files: %v, %v (want 2)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	store := openStore(t, dir)
	if store.Quarantined() != 1 || store.Len() != 1 {
		t.Fatalf("quarantined %d len %d, want 1 1", store.Quarantined(), store.Len())
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
	if mc.Count(metrics.ExpCellsResumed) != 1 || mc.Count(metrics.ExpCellsExecuted) != 1 {
		t.Errorf("resumed %d executed %d, want 1 1",
			mc.Count(metrics.ExpCellsResumed), mc.Count(metrics.ExpCellsExecuted))
	}
	a := encodeResults(t, &Results{Scale: first.Scale, Seed: first.Seed, Accuracy: goldenResults})
	b := encodeResults(t, &Results{Scale: resume.Scale, Seed: resume.Seed, Accuracy: results})
	if !bytes.Equal(a, b) {
		t.Error("recomputed-after-quarantine results differ from the golden run")
	}
}

// TestChaosRetryTransientCellRecovers injects a one-shot error into the
// first cell: with two attempts allowed the cell must recover on retry and
// the grid finish clean, with the retry visible only in the metrics.
func TestChaosRetryTransientCellRecovers(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	mc := metrics.New()
	opts := fastOpts()
	opts.Retry = RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	opts.Metrics = mc
	results, cellErrs, err := faultyAccuracyGrid(opts, []string{"stream", "black"}, 0, faultcheck.OnNth(1, faultcheck.Error))
	if err != nil {
		t.Fatal(err)
	}
	if len(cellErrs) != 0 {
		t.Fatalf("transient fault leaked into cell errors: %+v", cellErrs)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if got := mc.Count(metrics.ExpCellRetries); got != 1 {
		t.Errorf("exp.cell_retries = %d, want 1", got)
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 2 {
		t.Errorf("exp.cells_executed = %d, want 2", got)
	}
}

// TestChaosRetryExhaustionRecordsMetadata makes a cell fail every attempt:
// the CellError must carry the attempt count, the final backoff, and the
// cell's total wall time so results.json tells the whole story.
func TestChaosRetryExhaustionRecordsMetadata(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	mc := metrics.New()
	opts := fastOpts()
	opts.Retry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 7}
	opts.Metrics = mc
	results, cellErrs, err := faultyAccuracyGrid(opts, []string{"stream"}, 0, faultcheck.Always(faultcheck.Error))
	if err != nil {
		t.Fatalf("an exhausted cell must degrade, not abort the grid: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("failed cell produced %d results", len(results))
	}
	if len(cellErrs) != 1 {
		t.Fatalf("got %d cell errors, want 1: %+v", len(cellErrs), cellErrs)
	}
	ce := cellErrs[0]
	if ce.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", ce.Attempts)
	}
	if ce.LastDelay <= 0 {
		t.Errorf("LastDelay = %v, want > 0 after retries", ce.LastDelay)
	}
	if ce.TotalDuration <= 0 {
		t.Errorf("TotalDuration = %v, want > 0", ce.TotalDuration)
	}
	if !strings.Contains(ce.Err, faultcheck.ErrInjected.Error()) {
		t.Errorf("cell error %q does not carry the injected fault", ce.Err)
	}
	if got := mc.Count(metrics.ExpCellRetries); got != 2 {
		t.Errorf("exp.cell_retries = %d, want 2 (attempts beyond the first)", got)
	}
	if got := mc.Count(metrics.ExpCellsFailed); got != 1 {
		t.Errorf("exp.cells_failed = %d, want 1", got)
	}
}

// TestChaosRetryDelayIsDeterministic pins the reproducibility contract: the
// backoff for a given (seed, cell, attempt) never varies, and different
// cells decorrelate.
func TestChaosRetryDelayIsDeterministic(t *testing.T) {
	p := RetryPolicy{Attempts: 3, BaseDelay: 100 * time.Millisecond, Seed: 42}
	for cell := 0; cell < 4; cell++ {
		for attempt := 1; attempt <= 3; attempt++ {
			d1, d2 := p.delay(cell, attempt), p.delay(cell, attempt)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) varies: %v vs %v", cell, attempt, d1, d2)
			}
			base := p.BaseDelay << (attempt - 1)
			if d1 < base/2 || d1 > base {
				t.Errorf("delay(%d,%d) = %v outside [%v, %v]", cell, attempt, d1, base/2, base)
			}
		}
	}
	if p.delay(0, 1) == p.delay(1, 1) && p.delay(0, 2) == p.delay(1, 2) {
		t.Error("cells 0 and 1 share the whole backoff sequence; jitter is not decorrelating")
	}
	// The jitter is one stats.RNG (SplitMix64) draw; these values predate
	// that and pin CellError.LastDelay across the change of helper.
	q := RetryPolicy{BaseDelay: 80 * time.Millisecond, MaxDelay: time.Second, Seed: 7}
	for _, c := range []struct {
		cell, attempt int
		want          time.Duration
	}{{0, 1, 43740992}, {1, 1, 55871772}, {3, 2, 148329388}, {11, 3, 233292213}} {
		if got := q.delay(c.cell, c.attempt); got != c.want {
			t.Errorf("delay(%d,%d) = %d, want the recorded %d", c.cell, c.attempt, got, c.want)
		}
	}
	if got := (RetryPolicy{}).delay(5, 2); got != 142128953 {
		t.Errorf("zero-policy delay(5,2) = %d, want the recorded 142128953", got)
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

// TestChaosStaleCheckpointIgnoredOnOptionChange reruns a journaled grid with
// a different seed: every key misses, so nothing stale is resumed.
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
	if got := mc.Count(metrics.ExpCellsResumed); got != 0 {
		t.Errorf("exp.cells_resumed = %d, want 0: a changed seed must invalidate the journal", got)
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 1 {
		t.Errorf("exp.cells_executed = %d, want 1", got)
	}
}

// TestResultsFileDamageDetected pins the typed-error contract for
// results.json itself: flips surface as ErrCorrupt, cuts as ErrTruncated,
// and neither ever half-parses.
func TestResultsFileDamageDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	in := &Results{
		Scale: 0.02, Seed: 7,
		Errors: []CellError{{Grid: "accuracy", Cell: "black", Err: "boom", Attempts: 2}},
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

// TestChaosOldSchemaJournalIgnored resumes over a journal written before
// the per-strategy map became the only result shape: parentKey and its
// payload are what that build computed and stored for this exact cell. The
// schema marker in cellKey makes the lookup miss, so the cell is recomputed
// instead of being restored with no strategies in it.
func TestChaosOldSchemaJournalIgnored(t *testing.T) {
	const parentKey = "accuracy/stream/a3010712a8e4e23b"
	parentPayload, err := os.ReadFile(filepath.Join("testdata", "cell_v1_stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	store := openStore(t, t.TempDir())
	if err := store.Put(parentKey, parentPayload); err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	opts := DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"stream"}
	opts.Checkpoint = store
	opts.Resume = true
	opts.Metrics = mc
	if key := opts.cellKey("accuracy", "stream"); key == parentKey {
		t.Fatalf("cell key %s is the pre-change build's: its journal would be trusted", key)
	}
	results, cellErrs, err := RunAccuracy(opts)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("err=%v cellErrs=%v", err, cellErrs)
	}
	if got := mc.Count(metrics.ExpCellsResumed); got != 0 {
		t.Errorf("exp.cells_resumed = %d, want 0: an old-schema journal must not be restored", got)
	}
	if got := mc.Count(metrics.ExpCellsExecuted); got != 1 {
		t.Errorf("exp.cells_executed = %d, want 1", got)
	}
	if len(results) != 1 || len(results[0].Samplers) != 3 {
		t.Fatalf("recomputed cell carries no strategy outcomes: %+v", results)
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
