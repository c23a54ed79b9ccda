// Command bench measures the whole tbpoint stack, end to end and layer by
// layer, from outside: it only times calls into the packages' public
// functions. See README.md in this directory.
//
// It has three modes:
//
//	bench -workload W -seed N -seconds S -trace 0|1
//	    one run of one workload in this process; the last line of standard
//	    output is the result object the driver reads. -trace 0 reports the
//	    end-to-end metrics, -trace 1 the per-layer ones.
//	bench [-seed N] [-workload W,...] [-repeats R] [-traced=false] [-out F]
//	    the suite: every workload -repeats times, each run in a fresh child
//	    process, then one traced run each; prints every metric by name with
//	    its unit, median and quartiles.
//	bench -compare old.json new.json
//	    verdict per (metric, workload) between two suite reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's run_seconds
// is the same number.
const defaultSeconds = 8

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, time.Now(), fullSize))
}

// realMain is main with its surroundings passed in; size is fullSize except
// in bench_test.go.
func realMain(args []string, stdout, stderr io.Writer, procStart time.Time, size sizing) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "", "workload name (suite: comma-separated subset; default all)")
		seed         = fs.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds      = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace        = fs.String("trace", "", "0 or 1: run -workload once in this process and print the result line")
		repeats      = fs.Int("repeats", 3, "suite: untraced runs per workload")
		traced       = fs.Bool("traced", true, "suite: also make the traced run for the per-layer metrics")
		out          = fs.String("out", "", "write the full report (run detail or suite report) as JSON")
		traceOut     = fs.String("trace-out", "", "write the traced run's spans as JSON")
		workdir      = fs.String("workdir", ".work", "scratch directory; must stay inside the checkout")
		updateGolden = fs.Bool("update-golden", false, "suite: rewrite golden/seed<N>.json from this run's statistics")
		compare      = fs.Bool("compare", false, "compare two suite reports: -compare old.json new.json")
		spec         = fs.String("spec", "../BENCHMARK.json", "BENCHMARK.json, for -compare's directions and bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The whole generator is this process, sized to the host: never more
	// threads than cores, and never more than the two this was sized with.
	runtime.GOMAXPROCS(hostProcs())
	// Leave no empty scratch directory behind (a no-op while another run or
	// the suite still has files in it).
	defer os.Remove(*workdir)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two suite reports: old.json new.json"))
		}
		worse, err := compareReports(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *trace != "":
		if *trace != "0" && *trace != "1" {
			return fail(fmt.Errorf("-trace must be 0 or 1, got %q", *trace))
		}
		d, err := runOne(runConfig{
			workload: *workloadFlag, seed: *seed, seconds: *seconds, traced: *trace == "1",
			workdir: *workdir, updateGolden: *updateGolden, keepSpans: *traceOut != "" || *out != "",
			size: size,
		}, procStart)
		if err != nil {
			return fail(err)
		}
		for _, f := range d.Failures {
			fmt.Fprintln(stderr, "FAILED", f)
		}
		if *traceOut != "" {
			if err := writeJSON(*traceOut, d.Spans); err != nil {
				return fail(err)
			}
		}
		if *out != "" {
			if err := writeJSON(*out, d); err != nil {
				return fail(err)
			}
		}
		line, err := json.Marshal(d.Result)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	default:
		names := workloadNames()
		if *workloadFlag != "" {
			names = strings.Split(*workloadFlag, ",")
		}
		rep, err := runSuite(suiteConfig{
			workloads: names, seed: *seed, seconds: *seconds, repeats: *repeats, traced: *traced,
			workdir: *workdir, updateGolden: *updateGolden, traceOut: *traceOut,
		}, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				return fail(err)
			}
		}
		for _, w := range rep.Workloads {
			if w.Failed > 0 {
				return 1
			}
		}
		return 0
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stat is one end-to-end metric over the suite's repeated runs.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	q1, med, q3 := quartiles(values)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// workloadReport is one workload's part of a suite report.
type workloadReport struct {
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	FailedFrac     float64                `json:"failed_frac"`
	Failures       []string               `json:"failures,omitempty"`
	TailPercentile int                    `json:"tail_percentile"`
	EndToEnd       map[string]stat        `json:"end_to_end"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	Accuracy       map[string]float64     `json:"accuracy,omitempty"`
}

// suiteReport is what -out writes and -compare reads.
type suiteReport struct {
	Host       hostInfo                   `json:"host"`
	Seed       uint64                     `json:"seed"`
	RunSeconds float64                    `json:"run_seconds"`
	Repeats    int                        `json:"repeats"`
	Sizing     sizing                     `json:"sizing"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type suiteConfig struct {
	workloads    []string
	seed         uint64
	seconds      float64
	repeats      int
	traced       bool
	workdir      string
	updateGolden bool
	traceOut     string
}

// runSuite runs each workload in fresh child processes (so that peak memory
// is per workload and per run), then one traced run each.
func runSuite(cfg suiteConfig, stdout, stderr io.Writer) (*suiteReport, error) {
	if cfg.updateGolden && !cfg.traced {
		return nil, fmt.Errorf("-update-golden needs the traced run (the golden pins its statistics too)")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	rep := &suiteReport{
		Host: hostFingerprint(cfg.workdir), Seed: cfg.seed, RunSeconds: cfg.seconds,
		Repeats: cfg.repeats, Sizing: fullSize, Workloads: map[string]*workloadReport{},
	}
	golden := map[string]map[string]float64{}
	var spans []span
	child := func(name string, traced bool) (*runDetail, error) {
		detail := filepath.Join(cfg.workdir, fmt.Sprintf("suite-%d.json", os.Getpid()))
		defer os.Remove(detail)
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", map[bool]string{false: "0", true: "1"}[traced], "-workdir", cfg.workdir, "-out", detail}
		if cfg.updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr // the result line on stdout is a subset of the detail file
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		data, err := os.ReadFile(detail)
		if err != nil {
			return nil, err
		}
		var d runDetail
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: reading run detail: %w", name, err)
		}
		return &d, nil
	}
	for _, name := range cfg.workloads {
		if _, ok := newWorkload(name, fullSize); !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
		}
		wr := &workloadReport{EndToEnd: map[string]stat{}}
		rep.Workloads[name] = wr
		values := map[string][]float64{}
		for r := 0; r < cfg.repeats; r++ {
			fmt.Fprintf(stderr, "# %s: run %d/%d\n", name, r+1, cfg.repeats)
			d, err := child(name, false)
			if err != nil {
				return nil, err
			}
			for _, m := range endToEndMetrics {
				values[m.Name] = append(values[m.Name], d.Result.Metrics[m.Name].Value)
			}
			wr.Attempted += d.Result.Attempted
			wr.Failed += d.Result.Failed
			wr.Failures = append(wr.Failures, d.Failures...)
			wr.TailPercentile, wr.Accuracy = d.TailPercentile, d.Accuracy
		}
		for _, m := range endToEndMetrics {
			wr.EndToEnd[m.Name] = newStat(m.Unit, values[m.Name])
		}
		if cfg.traced {
			fmt.Fprintf(stderr, "# %s: traced run\n", name)
			d, err := child(name, true)
			if err != nil {
				return nil, err
			}
			wr.PerLayer = d.Result.Metrics
			wr.Attempted += d.Result.Attempted
			wr.Failed += d.Result.Failed
			wr.Failures = append(wr.Failures, d.Failures...)
			golden[name] = d.Facts
			spans = append(spans, d.Spans...)
		}
		if wr.Attempted > 0 {
			wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
		}
		printWorkload(stdout, name, wr)
	}
	if cfg.traceOut != "" {
		if err := writeJSON(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}
	if cfg.updateGolden {
		// A subset run replaces only its own workloads.
		if old, ok := loadGolden(cfg.seed); ok {
			for name, facts := range old {
				if golden[name] == nil {
					golden[name] = facts
				}
			}
		}
		if err := writeGolden(cfg.seed, golden); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "# wrote %s\n", goldenPath(cfg.seed))
	}
	return rep, nil
}

// printWorkload prints every metric of one workload by name, with its unit.
func printWorkload(w io.Writer, name string, wr *workloadReport) {
	fmt.Fprintf(w, "\n== %s  (operations attempted %d, failed %d, failed_frac %.4f)\n", name, wr.Attempted, wr.Failed, wr.FailedFrac)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	fmt.Fprintf(w, "   %-36s %14s %14s %14s %3s  %s\n", "end-to-end metric", "median", "q1", "q3", "n", "unit")
	for _, m := range endToEndMetrics {
		s := wr.EndToEnd[m.Name]
		note := ""
		if m.Name == "op_latency_tail_s" {
			note = fmt.Sprintf("  (p%d)", wr.TailPercentile)
		}
		fmt.Fprintf(w, "   %-36s %14.6g %14.6g %14.6g %3d  %s%s\n", m.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit, note)
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "   %-36s %14s  %-8s %s\n", "per-layer metric (traced run)", "value", "unit", "layer")
	for _, m := range perLayerMetrics {
		v := wr.PerLayer[m.Name]
		fmt.Fprintf(w, "   %-36s %14.6g  %-8s %s\n", m.Name, v.Value, v.Unit, m.Layer)
	}
}
