// Package sampler is the pluggable estimation-strategy subsystem: one table
// with a row per sampling technique the evaluation compares (Random,
// Systematic, Ideal-Simpoint, TBPoint, and the two-phase stratified
// estimator), which the harness, CLIs and job server select strategies
// from by name.
//
// The package sits above the concrete estimators — it imports
// internal/core, internal/simpoint and internal/sampling — and holds the
// unit selections of its own rows (Random, Systematic, Stratified), so
// adding a strategy never touches the pipeline packages, only this one.
//
// # Determinism rules
//
// Every registered sampler must be a pure function of its Input: the same
// simulator configuration, profile, full run and Params must produce the
// same Outcome, bit for bit, regardless of worker interleaving or host.
// Randomized strategies derive all randomness from Params.Seed via
// internal/stats RNGs (SplitMix64), never from global state or time. This
// is what lets experiment grids checkpoint/resume and the job server cache
// outcomes across processes: an outcome's key folds in the strategy's name
// and every Params-determining option, and a hit must be byte-identical to
// a recompute.
//
// # Default selection
//
// The default set (see DefaultSet) is the paper's Random/Ideal-Simpoint/
// TBPoint comparison. An empty selection normalizes to it, so selecting
// nothing and naming the trio explicitly are the same run: same store keys,
// same results, same report.
package sampler

import (
	"fmt"
	"strings"

	"tbpoint/internal/core"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampling"
)

// Registry names of the built-in samplers.
const (
	NameRandom     = "random"
	NameSystematic = "systematic"
	NameSimPoint   = "simpoint"
	NameTBPoint    = "tbpoint"
	NameStratified = "stratified"
)

// Params are the strategy-independent tuning knobs. Zero values select the
// documented defaults so a zero Params is the paper configuration. The
// stratified pilot size is the constant pilotUnits, not a knob.
type Params struct {
	// Frac is the target sampled fraction of fixed units for the
	// budget-driven strategies (random, systematic, stratified).
	// 0 selects 0.10, the paper's 10%.
	Frac float64
	// Seed is the base seed all randomized strategies derive their RNG
	// streams from. The random baseline uses Seed+0xbeef (the historical
	// harness offset); other strategies use their own offsets so selections
	// never correlate across strategies.
	Seed uint64
	// Sigma is the stratified backend's launch-clustering threshold
	// (0 selects 0.1, the paper's inter-launch sigma). Callers set it to
	// the TBPoint options' SigmaInter, so strata are TBPoint's clusters.
	Sigma float64
}

func (p Params) frac() float64 {
	if p.Frac <= 0 {
		return 0.10
	}
	return p.Frac
}

// Input is everything a sampler may consume for one application. All
// fields are read-only to the sampler; Full is always present, Sim/Prof
// are needed only by strategies that run their own simulations (TBPoint)
// or consume the functional profile (stratified strata).
type Input struct {
	// Sim is the simulator the full run was produced on.
	Sim *gpusim.Simulator
	// Prof is the application's one-time functional profile.
	Prof *core.AppProfile
	// Full is the reference simulation with fixed units (and BBVs).
	Full *sampling.AppRun
	// Params are the shared tuning knobs.
	Params Params
	// TBPoint configures the TBPoint strategy (including its metrics
	// collector and the context that cancels its simulations); other
	// strategies may read thresholds from it but never mutate it.
	TBPoint core.Options
}

// Outcome is one strategy's result on one application, with the sample-size
// accounting the reports need. Estimate carries the prediction itself;
// the remaining fields are strategy diagnostics (zero when a strategy does
// not provide them).
type Outcome struct {
	Estimate sampling.Estimate `json:"estimate"`
	// Err is the relative error against the full run, filled by the
	// harness (the sampler itself never sees what it is judged against).
	Err float64 `json:"err"`
	// CIHalf is the half-width of the strategy's 95% confidence interval
	// on PredictedIPC, when the strategy provides one (0 = none).
	CIHalf float64 `json:"ci95_half,omitempty"`
	// Strata / PilotUnits / Phase2Units are the stratified backend's
	// accounting: stratum count, pilot-phase units, and Neyman-allocated
	// phase-two units.
	Strata      int `json:"strata,omitempty"`
	PilotUnits  int `json:"pilot_units,omitempty"`
	Phase2Units int `json:"phase2_units,omitempty"`
}

// Sampler is one estimation strategy: a row of the registry.
type Sampler struct {
	// Name is the registry key ("random", "tbpoint", ...).
	Name string
	// Display is the report column title ("Random", "TBPoint", ...).
	Display string
	// Abbrev is the short label used in error/breakdown columns
	// ("Rand", "TBP", ...).
	Abbrev string
	// Breakdown reports whether the strategy attributes skipped
	// instructions to inter- vs intra-launch sampling (the Fig. 11 rows).
	Breakdown bool
	// Estimate produces the strategy's prediction for one application.
	Estimate func(in Input) (Outcome, error)
}

// Register adds a sampler to the registry. It panics on an empty or
// duplicate name — registration is programmer intent, not user input.
func Register(s Sampler) {
	if s.Name == "" {
		panic("sampler: Register with empty name")
	}
	if _, ok := Get(s.Name); ok {
		panic("sampler: duplicate registration of " + s.Name)
	}
	registry = append(registry, s)
}

// Get returns the named sampler.
func Get(name string) (Sampler, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Sampler{}, false
}

// Names returns every registered name in canonical order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// DefaultSet is the paper's comparison trio, what an empty selection runs.
func DefaultSet() []string {
	return []string{NameRandom, NameSimPoint, NameTBPoint}
}

// Normalize canonicalizes a user-supplied selection: names are trimmed and
// lower-cased, "default" expands to DefaultSet, "all" to every registered
// sampler, duplicates collapse, and the result is ordered canonically
// (registry order) so equal sets always compare and hash equal. An empty
// selection normalizes to DefaultSet; an unknown name is an error.
func Normalize(names []string) ([]string, error) {
	want := map[string]bool{}
	for _, raw := range names {
		name := strings.ToLower(strings.TrimSpace(raw))
		switch name {
		case "":
			continue
		case "default":
			for _, d := range DefaultSet() {
				want[d] = true
			}
			continue
		case "all":
			for _, d := range Names() {
				want[d] = true
			}
			continue
		}
		if _, ok := Get(name); !ok {
			return nil, fmt.Errorf("sampler: unknown sampler %q (known: %s)",
				raw, strings.Join(Names(), " "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return DefaultSet(), nil
	}
	var out []string
	for _, s := range registry {
		if want[s.Name] {
			out = append(out, s.Name)
		}
	}
	return out, nil
}

// ParseList is Normalize over a comma-separated flag value.
func ParseList(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return DefaultSet(), nil
	}
	return Normalize(strings.Split(csv, ","))
}

// Resolve maps normalized names to their samplers. Unknown names error
// (callers that already Normalized never hit it).
func Resolve(names []string) ([]Sampler, error) {
	out := make([]Sampler, 0, len(names))
	for _, n := range names {
		s, ok := Get(n)
		if !ok {
			return nil, fmt.Errorf("sampler: unknown sampler %q (known: %s)",
				n, strings.Join(Names(), " "))
		}
		out = append(out, s)
	}
	return out, nil
}
