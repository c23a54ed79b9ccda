package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"tbpoint/internal/metrics"
)

func TestExpandTargets(t *testing.T) {
	want, err := ExpandTargets([]string{"fig9", "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"fig9", "fig12", "accuracy", "sensitivity"} {
		if !want[n] {
			t.Errorf("ExpandTargets(fig9,fig12): missing %q", n)
		}
	}
	want, err = ExpandTargets([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range allTargets {
		if !want[n] {
			t.Errorf("ExpandTargets(all): missing %q", n)
		}
	}
	if want["ablations"] {
		t.Error("ExpandTargets(all) must not include the opt-in ablations audit")
	}
}

func TestExpandTargetsUnknown(t *testing.T) {
	if _, err := ExpandTargets([]string{"accuracy", "bogus"}); err == nil {
		t.Fatal("unknown target accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error does not name the bad target: %v", err)
	}
	if _, err := ExpandTargets(nil); err == nil {
		t.Fatal("empty target list accepted")
	}
}

// TestRunTargetsMatchesGridRun pins the extraction: RunTargets("accuracy")
// must produce exactly the bundle a direct RunAccuracy call yields.
func TestRunTargetsMatchesGridRun(t *testing.T) {
	opts := DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"stream"}

	direct, cellErrs, err := RunAccuracy(opts)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("direct run: err=%v cellErrs=%v", err, cellErrs)
	}

	var report bytes.Buffer
	bundle, err := RunTargets(opts, RunSpec{Targets: []string{"accuracy"}}, &report)
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Aborted {
		t.Fatal("clean run reported aborted")
	}
	if len(bundle.Accuracy) != len(direct) {
		t.Fatalf("bundle has %d accuracy rows, direct run %d", len(bundle.Accuracy), len(direct))
	}
	for i := range direct {
		if !reflect.DeepEqual(bundle.Accuracy[i], direct[i]) {
			t.Errorf("row %d differs: %+v vs %+v", i, bundle.Accuracy[i], direct[i])
		}
	}
	if report.Len() == 0 {
		t.Error("no report text written")
	}
}

// TestRunTargetsCancelled: a dead context is not an error — the bundle
// comes back Aborted with no targets run, so partial outputs still flush.
func TestRunTargetsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions(0.02)
	opts.Benchmarks = []string{"stream"}
	opts.Ctx = ctx
	bundle, err := RunTargets(opts, RunSpec{Targets: []string{"accuracy"}}, nil)
	if err != nil {
		t.Fatalf("cancellation surfaced as error: %v", err)
	}
	if !bundle.Aborted {
		t.Fatal("cancelled run not flagged Aborted")
	}
	if len(bundle.Accuracy) != 0 {
		t.Fatal("cancelled run produced results")
	}
}

// TestRunTargetsFatalKeepsBundle: an unknown benchmark is a setup failure
// of the accuracy target, which must surface as a fatal error while the
// targets completed before it stay in the bundle (the observability
// contract).
func TestRunTargetsFatalKeepsBundle(t *testing.T) {
	opts := DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"nosuch"}
	bundle, err := RunTargets(opts, RunSpec{Targets: []string{"fig5", "accuracy"}, Samples: 100}, nil)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown benchmark: err = %v, want a fatal error naming it", err)
	}
	if len(bundle.Fig5) == 0 {
		t.Fatal("fatal run dropped the target completed before the failure")
	}
	if bundle.Aborted || len(bundle.Accuracy) != 0 {
		t.Fatalf("fatal run: aborted=%v, %d accuracy rows; want neither", bundle.Aborted, len(bundle.Accuracy))
	}
}

// TestRunTargetsStoreByteIdentical: every deterministic target over a store
// — cold, fully resumed, and composed from the entries a run with another
// strategy selection left — writes the bundle and report bytes of a run with
// no store, and the composed run simulates no reference: motivation,
// accuracy, sensitivity and ablations all find theirs stored.
func TestRunTargetsStoreByteIdentical(t *testing.T) {
	spec := RunSpec{
		Targets: []string{"table6", "fig5", "fig8", "motivation", "accuracy", "sensitivity", "ablations"},
		Samples: 200,
	}
	run := func(what string, mutate func(*Options)) ([]byte, string) {
		t.Helper()
		opts := DefaultOptions(0.02)
		opts.Seed = 7
		opts.Benchmarks = []string{"stream", "kmeans"}
		opts.Samplers = []string{"all"}
		mutate(&opts)
		var report bytes.Buffer
		bundle, err := RunTargets(opts, spec, &report)
		if err != nil || bundle.Aborted || len(bundle.Errors) != 0 {
			t.Fatalf("%s: err %v, aborted %v, cell errors %+v", what, err, bundle.Aborted, bundle.Errors)
		}
		return encodeResults(t, bundle), report.String()
	}
	wantJSON, wantText := run("plain", func(*Options) {})
	check := func(what string, mutate func(*Options)) {
		t.Helper()
		gotJSON, gotText := run(what, mutate)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: bundle differs from the run without a store", what)
		}
		if gotText != wantText {
			t.Errorf("%s: report text differs from the run without a store", what)
		}
	}

	store := openStore(t, t.TempDir())
	check("cold", func(o *Options) { o.Checkpoint, o.Subcell = store, true })
	check("resumed", func(o *Options) { o.Checkpoint, o.Subcell, o.Resume = store, true, true })

	// The default selection's cell keys differ from the N-way run's, so the
	// second run below resumes no cell and composes every one.
	store = openStore(t, t.TempDir())
	run("default selection", func(o *Options) { o.Checkpoint, o.Subcell, o.Samplers = store, true, nil })
	mc := metrics.New()
	check("composed", func(o *Options) {
		o.Checkpoint, o.Subcell, o.Resume, o.Metrics = store, true, true, mc
	})
	if n := mc.Count(metrics.ExpCellsResumed); n != 0 {
		t.Errorf("composed run resumed %d whole cells", n)
	}
	// One stored reference (or all-hit composition) per motivation benchmark,
	// accuracy cell, sensitivity cell and ablation cell: 2 + 2 + 2x4 + 12.
	if hits, misses := mc.Count(metrics.SubcellHits), mc.Count(metrics.SubcellMisses); hits != 24 || misses != 0 {
		t.Errorf("composed run: subcell hits=%d misses=%d, want 24 and 0", hits, misses)
	}
	if n := phaseCount(mc, "experiments.full_ref"); n != 0 {
		t.Errorf("composed run simulated %d reference runs; every one was stored", n)
	}
}

func TestClampScale(t *testing.T) {
	if got := clampScale(1.0, 0.05); got != 0.05 {
		t.Errorf("clampScale(1, .05) = %v", got)
	}
	if got := clampScale(0.01, 0.05); got != 0.01 {
		t.Errorf("clampScale(.01, .05) = %v", got)
	}
}
