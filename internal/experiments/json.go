package experiments

import (
	"bytes"
	"encoding/json"
	"io"

	"tbpoint/internal/durable"
	"tbpoint/internal/metrics"
)

// Results bundles everything a harness invocation produced, for machine
// consumption (plotting, regression tracking). Sections that did not run
// are nil and omitted.
type Results struct {
	Scale       float64            `json:"scale"`
	Seed        uint64             `json:"seed"`
	Table6      []Table6Row        `json:"table6,omitempty"`
	Table1      *Table1Result      `json:"table1,omitempty"`
	Fig5        []Fig5Result       `json:"fig5,omitempty"`
	Fig8        []Fig8Series       `json:"fig8,omitempty"`
	Motivation  []MotivationResult `json:"motivation,omitempty"`
	Ablations   []AblationResult   `json:"ablations,omitempty"`
	Accuracy    []*BenchResult     `json:"accuracy,omitempty"`
	Sensitivity []SensResult       `json:"sensitivity,omitempty"`
	// Pareto is the per-workload error-vs-speedup frontier over the
	// selected strategies (accuracy target).
	Pareto []ParetoEntry `json:"pareto,omitempty"`
	// Errors records grid cells that failed (error or panic) while the rest
	// of their grid completed; see CellError. Empty on a clean run.
	Errors []CellError `json:"errors,omitempty"`
	// Aborted marks a run cut short by -timeout or interrupt: the sections
	// present cover only the work finished before the cut-off.
	Aborted bool `json:"aborted,omitempty"`
	// Phases are the per-phase wall times of the run (profiling,
	// clustering, region sampling, prediction, full-reference simulation);
	// Metrics is the full counter snapshot. Both are present only when the
	// harness ran with metrics collection enabled.
	Phases  []metrics.PhaseSnapshot `json:"phases,omitempty"`
	Metrics *metrics.Snapshot       `json:"metrics,omitempty"`
}

// WriteJSON serialises the results with stable indentation.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadResults decodes a Results bundle (for tooling round trips).
func ReadResults(r io.Reader) (*Results, error) {
	var out Results
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// resultsKind is the durable-envelope kind of results files. The version
// names the bundle schema (v2: per-strategy outcomes live only in each
// result's samplers map), so a file written under another schema is
// rejected by the envelope's kind check instead of decoding into results
// with no strategies.
const resultsKind = "results/v2"

// WriteResultsFile writes the bundle to path atomically, wrapped in the
// durable envelope (versioned, CRC-checksummed; `jq .payload` recovers the
// plain bundle). A crash mid-write leaves the previous file intact, and a
// file damaged later is detected as such on load instead of being half
// parsed.
func WriteResultsFile(path string, r *Results) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return err
	}
	return durable.WriteEnvelopeFile(path, resultsKind, buf.Bytes())
}

// ReadResultsFile loads a bundle written by WriteResultsFile, verifying
// the envelope: damage surfaces as durable.ErrCorrupt/ErrTruncated.
func ReadResultsFile(path string) (*Results, error) {
	payload, err := durable.ReadEnvelopeFile(path, resultsKind)
	if err != nil {
		return nil, err
	}
	return ReadResults(bytes.NewReader(payload))
}
