// Package strategyerr holds the one harness test that must register a
// strategy of its own. The sampler registry is process-wide and has no
// removal, so the test lives in its own binary where the extra name cannot
// leak into the "all" selection of the experiments package's tests.
package strategyerr

import (
	"errors"
	"strings"
	"testing"

	"tbpoint/internal/experiments"
	"tbpoint/internal/sampler"
)

const failsAt = "W32S14"

var errStrategy = errors.New("strategyerr: injected estimator failure")

// flaky estimates like the Random baseline except at one hardware point,
// where it returns an error.
type flaky struct{ sampler.Sampler }

func (flaky) Name() string { return "flaky" }

func (f flaky) Estimate(in sampler.Input) (sampler.Outcome, error) {
	if in.Sim.Config().Name() == failsAt {
		return sampler.Outcome{}, errStrategy
	}
	return f.Sampler.Estimate(in)
}

// TestSensitivityStrategyErrorIsCellError: a strategy that returns an error
// inside a sensitivity cell fails that cell — a CellError naming it — rather
// than yielding a result with the strategy silently missing; the other
// configurations complete.
func TestSensitivityStrategyErrorIsCellError(t *testing.T) {
	random, ok := sampler.Get(sampler.NameRandom)
	if !ok {
		t.Fatal("no random sampler registered")
	}
	sampler.Register(flaky{random})

	opts := experiments.DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"stream"}
	opts.Samplers = []string{"flaky"}
	results, cellErrs, err := experiments.RunSensitivity(opts)
	if err != nil {
		t.Fatalf("grid with one failing cell must still complete, got %v", err)
	}
	if len(cellErrs) != 1 || cellErrs[0].Grid != "sensitivity" || cellErrs[0].Cell != "stream/"+failsAt ||
		!strings.Contains(cellErrs[0].Err, errStrategy.Error()) {
		t.Fatalf("cell errors = %+v, want exactly sensitivity stream/%s carrying the estimator's error", cellErrs, failsAt)
	}
	if want := len(experiments.HWConfigs()) - 1; len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	for _, r := range results {
		if _, ok := r.Samplers["flaky"]; !ok || r.Config.Name() == failsAt {
			t.Errorf("%s %s: outcomes %v, want the flaky strategy's at a healthy configuration", r.Bench, r.Config.Name(), r.Samplers)
		}
	}
}
