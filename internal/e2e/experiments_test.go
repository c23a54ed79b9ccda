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
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
)

// TestCrashThenResumeIsByteIdentical kills a real experiments process at a
// store write (the env hook makes it os.Exit(3) there), then proves a
// -resume computes only what was lost, that a second -resume computes
// nothing, and that the resumed results.json equals an uninterrupted,
// store-less run byte for byte.
func TestCrashThenResumeIsByteIdentical(t *testing.T) {
	tmp := t.TempDir()
	ckpt := filepath.Join(tmp, "ckpt")
	grid := func(env []string, extra ...string) result {
		args := []string{"-par", "1", "-scale", "0.02", "-seed", "7", "-bench", "stream,black,hotspot", "-checkpoint-dir", ckpt}
		return run(env, "experiments", append(append(args, extra...), "accuracy")...)
	}
	golden := oneShot(t, "-bench", "stream,black,hotspot")

	// At -par 1 a cell's store writes are its full reference, the reference
	// header and one outcome per strategy. Dying at the second cell's header
	// leaves the first cell whole and, beside it, the second cell's
	// reference.
	perCell := 2 + len(sampler.DefaultSet())
	crashed := filepath.Join(tmp, "crashed.json")
	r := grid([]string{fmt.Sprintf("TBPOINT_CRASH_AFTER_CHECKPOINTS=%d", perCell+2)}, "-json", crashed)
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
	if n := store.Len(); n != perCell+1 {
		t.Fatalf("crash left %d store entries, want %d", n, perCell+1)
	}

	resume := func(name string) metrics.Snapshot {
		t.Helper()
		path := filepath.Join(tmp, name)
		keepOnFailure(t, path, name)
		if r := grid(nil, "-resume", "-metrics-json", path); r.code != 0 {
			t.Fatalf("resume exited %d:\n%s", r.code, r.stderr)
		}
		snap, err := metrics.ReadSnapshot(bytes.NewReader(readFile(t, path)))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	fullRefs := func(snap metrics.Snapshot) int64 {
		for _, p := range snap.Phases {
			if p.Name == "experiments.full_ref" {
				return p.Count
			}
		}
		return 0
	}
	// The first cell composes; the second decodes its reference and
	// estimates; the third simulates.
	snap := resume("crash_recovery_metrics.json")
	if executed, refs := snap.Counters[metrics.ExpCellsExecuted.Name()], fullRefs(snap); executed != 2 || refs != 1 {
		t.Fatalf("resume after the crash: %d cell(s) computed, %d reference(s) simulated; want 2 and 1", executed, refs)
	}
	snap = resume("full_resume_metrics.json")
	if executed, refs := snap.Counters[metrics.ExpCellsExecuted.Name()], fullRefs(snap); executed != 0 || refs != 0 {
		t.Fatalf("fully resumed run: %d cell(s) computed, %d reference(s) simulated; want 0 and 0", executed, refs)
	}

	resumedJSON := filepath.Join(tmp, "resumed.json")
	r = grid(nil, "-resume", "-json", resumedJSON)
	if r.code != 0 || !strings.Contains(r.stderr, "experiments: 0 cell(s) computed; references: 3 from the store, 0 simulated; outcomes: 9 from the store, 0 computed") {
		t.Fatalf("fully resumed run (exit %d) still computed:\n%s", r.code, r.stderr)
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
// scale <= 0 at Table VI size, and tbpointd reads a job's scale of 0 as 1.0,
// so every command refuses one as a usage error naming -scale before
// building anything or sending a request. tbpointctl points at a closed
// port: the refusal needs no daemon.
func TestNonPositiveScaleFailsBeforeSimulating(t *testing.T) {
	for _, scale := range []string{"-1", "0"} {
		jsonPath := filepath.Join(t.TempDir(), "x.json")
		for _, r := range []result{
			run(nil, "experiments", "-scale", scale, "-bench", "stream,black", "-json", jsonPath, "table6"),
			run(nil, "tbpoint", "-scale", scale, "-bench", "stream"),
			run(nil, "tbpointctl", "-addr", "http://127.0.0.1:1", "submit", "-scale", scale, "accuracy"),
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

// TestNegativeCacheBudgetFailsBeforeSimulating: a negative -cache-max-bytes,
// -cell-deadline, -timeout or -samples is a usage error naming the flag, not
// an unbounded store, no limit or the default; tbpointd answers the same
// values in a job spec with a 400.
func TestNegativeCacheBudgetFailsBeforeSimulating(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	experiments := func(args ...string) result {
		return run(nil, "experiments", append([]string{"-scale", "0.02", "-bench", "stream", "-checkpoint-dir", dir}, args...)...)
	}
	for _, c := range []struct {
		flag string
		r    result
	}{
		{"-cache-max-bytes", experiments("-cache-max-bytes", "-1", "accuracy")},
		{"-cell-deadline", experiments("-cell-deadline", "-1s", "accuracy")},
		{"-timeout", experiments("-timeout", "-1s", "accuracy")},
		{"-samples", experiments("-samples", "-1", "fig5")},
		{"-timeout", run(nil, "tbpoint", "-scale", "0.02", "-bench", "stream", "-timeout", "-1s")},
	} {
		if c.r.code == 0 || !strings.Contains(c.r.stderr, c.flag) {
			t.Fatalf("%s: exit %d, want non-zero naming the flag:\n%s", c.flag, c.r.code, c.r.stderr)
		}
		if c.r.stdout != "" {
			t.Fatalf("%s: output before the rejection:\n%s", c.flag, c.r.stdout)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the store directory was created (stat: %v)", err)
	}
}
