package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
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

func TestClampScale(t *testing.T) {
	if got := clampScale(1.0, 0.05); got != 0.05 {
		t.Errorf("clampScale(1, .05) = %v", got)
	}
	if got := clampScale(0.01, 0.05); got != 0.01 {
		t.Errorf("clampScale(.01, .05) = %v", got)
	}
}
