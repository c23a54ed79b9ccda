package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/faultcheck"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// faultAtWrite attaches a store to opts whose nth write fires fault. At
// Parallelism 1 a default-trio accuracy cell makes perCell writes in order,
// all inside the cell's run: its full reference, the reference header and
// one outcome per strategy — so a fault at write k*perCell+1 hits cell k+1.
func faultAtWrite(t *testing.T, opts *Options, n int64, mode faultcheck.Mode) {
	t.Helper()
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Fault = faultcheck.OnNth(n, mode)
	opts.Checkpoint = store
}

// perCell is the store writes of one default-trio accuracy cell.
var perCell = int64(2 + len(sampler.DefaultSet()))

// faultyAccuracyGrid is RunAccuracy's grid over benches, handed to runGrid
// with fault fired at the start of cell bad.
func faultyAccuracyGrid(opts Options, benches []string, bad int, fault *faultcheck.Injector) ([]*BenchResult, []CellError, error) {
	cells := make([]gridCell[*BenchResult], len(benches))
	for i, name := range benches {
		cells[i] = gridCell[*BenchResult]{
			name: name,
			run: func(o Options) (*BenchResult, error) {
				if i == bad {
					if err := fault.Fire(); err != nil {
						return nil, err
					}
				}
				return runByName(name, gpusim.DefaultConfig(), o)
			},
		}
	}
	return runGrid(opts, "accuracy", cells)
}

// cancelOnFirstWrite cancels a context the first time a cell's completion
// line is written to it (the per-reference-run "full reference: simulated N
// of M launches" lines pass through). Wired as opts.Out with Verbose on, it
// cancels the run deterministically at the moment the first grid cell reports
// completion.
type cancelOnFirstWrite struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnFirstWrite) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("full reference:")) {
		return len(p), nil
	}
	c.once.Do(c.cancel)
	return len(p), nil
}

// TestChaosCancelMidGridRun cancels a multi-benchmark accuracy grid the
// moment its first cell completes: the run must return within bounded time
// with the partial results produced before the cut-off, a cancellation
// error, and no leaked goroutines. Resuming from the run's store then
// finishes the grid the way an uninterrupted run would.
func TestChaosCancelMidGridRun(t *testing.T) {
	old := Parallelism
	Parallelism = 2
	defer func() { Parallelism = old }()

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black", "hotspot", "kmeans"}
	opts.Ctx = ctx
	opts.Verbose = true
	opts.Out = &cancelOnFirstWrite{cancel: cancel}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = store

	start := time.Now()
	results, cellErrs, err := RunAccuracy(opts)
	elapsed := time.Since(start)

	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned err = %v, want context.Canceled", err)
	}
	if len(results) == 0 {
		t.Error("no partial results: the cell that triggered the cancel should have survived")
	}
	if len(results) >= len(opts.Benchmarks) {
		t.Errorf("got %d results from a run cancelled after the first cell; want fewer than %d",
			len(results), len(opts.Benchmarks))
	}
	for _, r := range results {
		if r.FullIPC <= 0 {
			t.Errorf("partial result %s is not internally consistent: FullIPC %v", r.Name, r.FullIPC)
		}
	}
	// Cancellation is a teardown, not a cell fault: no CellError entries.
	if len(cellErrs) != 0 {
		t.Errorf("cancellation produced cell errors: %+v", cellErrs)
	}
	if elapsed > 30*time.Second {
		t.Errorf("cancelled run took %v; cancellation did not bound the runtime", elapsed)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after cancel", before, g)
	}

	// The run's deadline is the one wall-time bound; what a cell cut off by
	// it leaves is finished by a resume. The finished cells are composed,
	// only the others simulate, and the bundle is an uninterrupted run's
	// byte for byte, so a cancelled cell published nothing partial.
	mc := metrics.New()
	resume := fastOpts()
	resume.Benchmarks = opts.Benchmarks
	resume.Checkpoint, resume.Resume, resume.Metrics = store, true, mc
	resumed, cellErrs, err := RunAccuracy(resume)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("resumed run: err %v, cell errors %+v", err, cellErrs)
	}
	if n, want := mc.Count(metrics.ExpCellsExecuted), uint64(len(opts.Benchmarks)-len(results)); n != want {
		t.Errorf("resume executed %d cells, want %d (those the cancel cut off)", n, want)
	}
	whole := fastOpts()
	whole.Benchmarks = opts.Benchmarks
	uninterrupted, _, err := RunAccuracy(whole)
	if err != nil {
		t.Fatal(err)
	}
	a := encodeResults(t, &Results{Scale: whole.Scale, Seed: whole.Seed, Accuracy: uninterrupted})
	b := encodeResults(t, &Results{Scale: resume.Scale, Seed: resume.Seed, Accuracy: resumed})
	if !bytes.Equal(a, b) {
		t.Error("the resumed grid's bundle differs from an uninterrupted run's")
	}
}

// TestChaosPanicCellDegrades injects a panic into the second cell of a
// three-benchmark accuracy grid, at that cell's first store write (its full
// reference): the two healthy cells must still produce results and the
// faulty one must degrade to a CellError carrying the panic's stack.
func TestChaosPanicCellDegrades(t *testing.T) {
	old := Parallelism
	Parallelism = 1 // sequential: cell order = benchmark order, so cell 1 faults
	defer func() { Parallelism = old }()

	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black", "hotspot"}
	faultAtWrite(t, &opts, perCell+1, faultcheck.Panic)
	results, cellErrs, err := RunAccuracy(opts)
	if err != nil {
		t.Fatalf("grid with one faulty cell must still complete, got %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (grid of 3 with one faulty cell)", len(results))
	}
	if results[0].Name != "stream" || results[1].Name != "hotspot" {
		t.Errorf("healthy cells are %s, %s; want stream, hotspot", results[0].Name, results[1].Name)
	}
	if len(cellErrs) != 1 {
		t.Fatalf("got %d cell errors, want 1: %+v", len(cellErrs), cellErrs)
	}
	ce := cellErrs[0]
	if ce.Grid != "accuracy" || ce.Cell != "black" {
		t.Errorf("cell error attributed to %s/%s, want accuracy/black", ce.Grid, ce.Cell)
	}
	if !strings.Contains(ce.Err, "panicked") {
		t.Errorf("cell error %q does not identify the panic", ce.Err)
	}
	if ce.Stack == "" {
		t.Error("panic cell error carries no stack trace")
	}
}

// TestChaosLaunchPanicNamesThePanic: a launch whose simulation panics on a
// fan-out worker (here a nil Kernel, dereferenced inside RunLaunch) must
// reach the cell's CellError as that panic with the worker's stack — not as
// the "context canceled" an aborted reference run reports, and not from the
// launch grouping on the caller's goroutine. The broken launch replaces, in
// turn, kmeans launch 0 (the one launches 1-9 would reuse) and launch 1 (one
// that would have been reused): either way it is its own group and is
// simulated. RunAccuracy only builds registry benchmarks, so the test feeds
// the broken app to the path every cell takes: a runGrid cell around
// fullReference.
func TestChaosLaunchPanicNamesThePanic(t *testing.T) {
	spec, err := workloads.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	sim := gpusim.MustNew(gpusim.DefaultConfig())

	old := Parallelism
	defer func() { Parallelism = old }()
	for _, broken := range []int{0, 1} {
		app := spec.Build(workloads.Config{Scale: 0.02, Seed: 3})
		app.Launches[broken] = &kernel.Launch{Index: broken}
		for _, workers := range []int{1, 4} {
			Parallelism = workers
			_, cellErrs, err := runGrid(fastOpts(), "accuracy", []gridCell[*sampling.AppRun]{{
				name: app.Name,
				run: func(o Options) (*sampling.AppRun, error) {
					full, _, err := o.fullReference(nil, sim, app, 2000, nil)
					return full, err
				},
			}})
			if err != nil || len(cellErrs) != 1 {
				t.Fatalf("launch %d, workers=%d: a panicking launch gave err %v and cell errors %+v, want one cell error", broken, workers, err, cellErrs)
			}
			ce := cellErrs[0]
			if !strings.Contains(ce.Err, "panicked") || !strings.Contains(ce.Err, "nil pointer") {
				t.Errorf("launch %d, workers=%d: cell error %q does not name the launch's panic", broken, workers, ce.Err)
			}
			if !strings.Contains(ce.Stack, "RunLaunch") {
				t.Errorf("launch %d, workers=%d: cell error stack does not reach the panicking RunLaunch:\n%s", broken, workers, ce.Stack)
			}
		}
	}
}

// TestChaosErrorCellDegrades is the ordinary-error sibling: an error the
// first cell hits every time it runs becomes a stack-less CellError, after
// exactly one try, while the rest of the grid completes.
func TestChaosErrorCellDegrades(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	mc := metrics.New()
	opts := fastOpts()
	opts.Metrics = mc
	fault := faultcheck.Always(faultcheck.Error)
	results, cellErrs, err := faultyAccuracyGrid(opts, []string{"stream", "black"}, 0, fault)
	if err != nil {
		t.Fatalf("grid with one faulty cell must still complete, got %v", err)
	}
	if len(results) != 1 || results[0].Name != "black" {
		t.Fatalf("want exactly the black result, got %d results", len(results))
	}
	if len(cellErrs) != 1 {
		t.Fatalf("got %d cell errors, want 1", len(cellErrs))
	}
	if !strings.Contains(cellErrs[0].Err, faultcheck.ErrInjected.Error()) {
		t.Errorf("cell error %q does not carry the injected fault", cellErrs[0].Err)
	}
	if cellErrs[0].Stack != "" {
		t.Errorf("ordinary error grew a stack: %q", cellErrs[0].Stack)
	}
	if n := fault.Calls(); n != 1 {
		t.Errorf("the failing cell ran %d times, want 1", n)
	}
	if cellErrs[0].TotalDuration <= 0 {
		t.Errorf("TotalDuration = %v, want > 0", cellErrs[0].TotalDuration)
	}
	if got := mc.Count(metrics.ExpCellsFailed); got != 1 {
		t.Errorf("exp.cells_failed = %d, want 1", got)
	}
}

// TestChaosSensitivityPanicCell exercises the same isolation on the
// (benchmark x hardware-config) sensitivity grid: the first store write is
// the first cell's full reference.
func TestChaosSensitivityPanicCell(t *testing.T) {
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()

	opts := fastOpts()
	opts.Benchmarks = []string{"stream"}
	faultAtWrite(t, &opts, 1, faultcheck.Panic)
	results, cellErrs, err := RunSensitivity(opts)
	if err != nil {
		t.Fatalf("grid with one faulty cell must still complete, got %v", err)
	}
	want := len(HWConfigs()) - 1
	if len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	if len(cellErrs) != 1 {
		t.Fatalf("got %d cell errors, want 1: %+v", len(cellErrs), cellErrs)
	}
	if cellErrs[0].Grid != "sensitivity" || !strings.HasPrefix(cellErrs[0].Cell, "stream/") {
		t.Errorf("cell error attributed to %s/%s, want sensitivity/stream/<config>",
			cellErrs[0].Grid, cellErrs[0].Cell)
	}
	if cellErrs[0].Stack == "" {
		t.Error("panic cell error carries no stack trace")
	}
}

// TestChaosSensitivityCancelMidRun cancels the sensitivity grid after its
// first cell and checks the partial-results contract there too.
func TestChaosSensitivityCancelMidRun(t *testing.T) {
	old := Parallelism
	Parallelism = 2
	defer func() { Parallelism = old }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black"}
	opts.Ctx = ctx
	opts.Verbose = true
	opts.Out = &cancelOnFirstWrite{cancel: cancel}

	results, cellErrs, err := RunSensitivity(opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned err = %v, want context.Canceled", err)
	}
	total := 2 * len(HWConfigs())
	if len(results) == 0 || len(results) >= total {
		t.Errorf("got %d results, want partial coverage of the %d-cell grid", len(results), total)
	}
	if len(cellErrs) != 0 {
		t.Errorf("cancellation produced cell errors: %+v", cellErrs)
	}
}

// TestChaosMotivationCancelMidRun cancels the motivation grid after its
// first cell: the run stops with the context's error and keeps the cells
// that finished, as the other grids do.
func TestChaosMotivationCancelMidRun(t *testing.T) {
	old := Parallelism
	Parallelism = 2
	defer func() { Parallelism = old }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black", "kmeans"}
	opts.Ctx = ctx
	opts.Verbose = true
	opts.Out = &cancelOnFirstWrite{cancel: cancel}

	results, cellErrs, err := RunMotivation(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned err = %v, want context.Canceled", err)
	}
	if len(results) == 0 || len(results) >= len(opts.Benchmarks) {
		t.Errorf("got %d results, want partial coverage of the %d-cell grid", len(results), len(opts.Benchmarks))
	}
	if len(cellErrs) != 0 {
		t.Errorf("cancellation produced cell errors: %+v", cellErrs)
	}
}

// TestResultsJSONCarriesErrorsAndAborted pins the results.json schema for
// degraded runs: the errors section and the aborted marker round-trip.
func TestResultsJSONCarriesErrorsAndAborted(t *testing.T) {
	in := &Results{
		Scale:   0.02,
		Aborted: true,
		Errors: []CellError{
			{Grid: "accuracy", Cell: "black", Err: "boom", Stack: "goroutine 1 [running]:"},
		},
	}
	var buf strings.Builder
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"errors"`) || !strings.Contains(buf.String(), `"aborted"`) {
		t.Fatalf("serialised results missing errors/aborted sections:\n%s", buf.String())
	}
	out, err := ReadResults(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Aborted || len(out.Errors) != 1 || out.Errors[0] != in.Errors[0] {
		t.Fatalf("round trip lost degradation info: %+v", out)
	}
}
