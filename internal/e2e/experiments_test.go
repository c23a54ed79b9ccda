package e2e

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
)

// TestCrashThenResumeIsByteIdentical kills a real experiments process at a
// store write (the env hook makes it os.Exit(3) there), then proves a
// -resume simulates only the lost cells and that the resumed results.json
// equals an uninterrupted, store-less run byte for byte.
func TestCrashThenResumeIsByteIdentical(t *testing.T) {
	tmp := t.TempDir()
	ckpt := filepath.Join(tmp, "ckpt")
	grid := func(env []string, extra ...string) result {
		args := []string{"-par", "1", "-scale", "0.02", "-seed", "7", "-bench", "stream,black,hotspot", "-checkpoint-dir", ckpt}
		return run(env, "experiments", append(append(args, extra...), "accuracy")...)
	}
	golden := oneShot(t, "-bench", "stream,black,hotspot")

	// At -par 1 a cell's store writes are its full reference, the reference
	// header, one outcome per strategy, then the cell itself. Dying at the
	// second cell's own write leaves one journaled cell and, beside it,
	// everything the second cell is composed from.
	perCell := 2 + len(sampler.DefaultSet()) + 1
	crashed := filepath.Join(tmp, "crashed.json")
	r := grid([]string{fmt.Sprintf("TBPOINT_CRASH_AFTER_CHECKPOINTS=%d", 2*perCell)}, "-json", crashed)
	if r.code != 3 || !strings.Contains(r.stderr, "injected crash") {
		t.Fatalf("crash run exited %d, want 3 from the injected crash:\n%s", r.code, r.stderr)
	}
	if _, err := os.Stat(crashed); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the dead run left a results.json behind (stat: %v)", err)
	}
	store, err := durable.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cells, entries := experiments.JournaledCells(store), store.Len(); cells != 1 || entries != 2*perCell-1 {
		t.Fatalf("crash left %d cell(s) in %d store entries, want 1 in %d", cells, entries, 2*perCell-1)
	}

	metricsPath := filepath.Join(tmp, "metrics.json")
	keepOnFailure(t, metricsPath, "crash_recovery_metrics.json")
	if r := grid(nil, "-resume", "-metrics-json", metricsPath); r.code != 0 {
		t.Fatalf("resume exited %d:\n%s", r.code, r.stderr)
	}
	snap, err := metrics.ReadSnapshot(bytes.NewReader(readFile(t, metricsPath)))
	if err != nil {
		t.Fatal(err)
	}
	resumed, executed := snap.Counters[metrics.ExpCellsResumed.Name()], snap.Counters[metrics.ExpCellsExecuted.Name()]
	if resumed != 1 || executed != 2 {
		t.Fatalf("resume after the crash: %d cell(s) resumed, %d executed; want 1 and 2", resumed, executed)
	}

	resumedJSON := filepath.Join(tmp, "resumed.json")
	r = grid(nil, "-resume", "-json", resumedJSON)
	if r.code != 0 || !strings.Contains(r.stderr, "resumed 3 cell(s) from checkpoint, journaled 0 new") {
		t.Fatalf("fully resumed run (exit %d) still simulated cells:\n%s", r.code, r.stderr)
	}
	if !bytes.Equal(readFile(t, resumedJSON), golden) {
		t.Fatal("resumed results.json differs from the uninterrupted run")
	}
}

// TestFatalTargetErrorStillFlushesOutputs: a run stopped by a fatal target
// error (the accuracy target's setup failing on an unknown benchmark) must
// still write its partial results.json and its metrics JSON, whole, before
// exiting 1 — those files are how an aborted run is diagnosed.
func TestFatalTargetErrorStillFlushesOutputs(t *testing.T) {
	tmp := t.TempDir()
	results, metricsPath := filepath.Join(tmp, "aborted.json"), filepath.Join(tmp, "aborted_metrics.json")
	keepOnFailure(t, results, "aborted.json")
	keepOnFailure(t, metricsPath, "aborted_metrics.json")
	r := run(nil, "experiments", "-par", "1", "-scale", "0.02", "-seed", "7", "-bench", "nosuch",
		"-json", results, "-metrics-json", metricsPath, "accuracy")
	if r.code != 1 || !strings.Contains(r.stderr, `unknown benchmark "nosuch"`) {
		t.Fatalf("exit %d, want 1 on the unknown benchmark:\n%s", r.code, r.stderr)
	}
	if _, _, err := durable.ReadEnvelope(readFile(t, results)); err != nil {
		t.Errorf("fatally failed run's results.json: %v", err)
	}
	if _, err := metrics.ReadSnapshot(bytes.NewReader(readFile(t, metricsPath))); err != nil {
		t.Errorf("fatally failed run's metrics JSON: %v", err)
	}
}

// TestUnknownSamplerFailsBeforeSimulating: a bad -samplers name is a usage
// error, reported before any workload is built or reference simulated.
func TestUnknownSamplerFailsBeforeSimulating(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	r := run(nil, "experiments", "-scale", "0.02", "-bench", "stream", "-samplers", "bogus",
		"-v", "-metrics-json", metricsPath, "accuracy")
	if r.code == 0 || !strings.Contains(r.stderr, "bogus") {
		t.Fatalf("exit %d, want non-zero naming the sampler:\n%s", r.code, r.stderr)
	}
	// No run started: nothing was reported and no phase was ever recorded.
	if _, err := os.Stat(metricsPath); r.stdout != "" || strings.Contains(r.stderr, "experiments.full_ref") || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("work was done before the rejection (metrics stat: %v):\n%s%s", err, r.stdout, r.stderr)
	}
}

// TestNonPositiveScaleFailsBeforeSimulating: workloads.Spec.Build runs a
// scale <= 0 at Table VI size, so both commands refuse one as a usage error
// naming -scale before building anything.
func TestNonPositiveScaleFailsBeforeSimulating(t *testing.T) {
	for _, scale := range []string{"-1", "0"} {
		jsonPath := filepath.Join(t.TempDir(), "x.json")
		for _, r := range []result{
			run(nil, "experiments", "-scale", scale, "-bench", "stream,black", "-json", jsonPath, "table6"),
			run(nil, "tbpoint", "-scale", scale, "-bench", "stream"),
		} {
			if r.code == 0 || !strings.Contains(r.stderr, "-scale") {
				t.Fatalf("scale %s: exit %d, want non-zero naming -scale:\n%s", scale, r.code, r.stderr)
			}
			if r.stdout != "" {
				t.Fatalf("scale %s: output before the rejection:\n%s", scale, r.stdout)
			}
		}
		if _, err := os.Stat(jsonPath); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("scale %s: -json file written (stat: %v)", scale, err)
		}
	}
}
