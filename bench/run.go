package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tbpoint/internal/stats"
)

// env is what a workload sees of the run it is part of.
type env struct {
	seed    uint64
	workdir string // scratch directory of this run, inside the checkout
	size    sizing
}

// op is one operation of a pass: one benchmark result or one served job.
// failed_frac counts operations, so every output check is attached to one.
type op struct {
	id      string
	seconds float64 // client-observed latency of the operation
	err     error   // the operation itself failed (no output to check)
	out     any     // the operation's output, checked after the clock stops
}

// passResult is one execution of a workload's timed region.
type passResult struct {
	wall float64 // host seconds of the timed region
	ops  []op
	// aux holds measurements taken at the edge of the pass that a check or a
	// per-layer metric needs (cache bytes when the clock stopped, ...).
	aux map[string]float64
	// root is the pass's root span in the traced pass.
	root int
}

// workload is one named set of inputs. A round is setup, pass, teardown; a
// run is as many rounds as fit in -seconds.
type workload interface {
	// setup prepares one round. Its duration is one setup_s sample.
	setup(e *env) error
	// pass runs the timed region once. With a nil tracer it is the
	// end-to-end path a user takes; with a tracer it is the same work
	// re-executed step by step with one span around each call into a layer.
	pass(e *env, tr *tracer) (*passResult, error)
	// check verifies the pass's outputs after the clock has stopped,
	// charging failures to operations in c, and returns the simulated
	// statistics that must repeat for a seed (see sameFact).
	check(e *env, pr *passResult, c *checker) map[string]float64
	// reference repeats outputs through an independent path (a one-shot run
	// of a served job) and compares; all = every output, else a sample.
	reference(e *env, pr *passResult, c *checker, all bool)
	// layers derives the per-layer metrics of a traced run from its untraced
	// and traced passes, and runs the layer probes that are not part of the
	// pass. It is called before the traced round's teardown.
	layers(e *env, untraced, traced *passResult, tr *tracer, c *checker) map[string]float64
	// accuracy returns the simulated-accuracy metrics of a pass.
	accuracy(pr *passResult) map[string]float64
	teardown(e *env)
}

// checker counts operations attempted and failed. An operation is one
// benchmark result, one served job, or one run-level invariant (cache
// budget, golden statistics, ...); it fails once however many of its checks
// do, and repeating it in a later round does not attempt it again.
type checker struct {
	failedOp map[string]bool // every operation seen -> whether it failed
	failures []string
	context  string // prefixed to failure messages ("round 2: ")
}

func newChecker() *checker { return &checker{failedOp: map[string]bool{}} }

func (c *checker) attempt(opID string) {
	if _, ok := c.failedOp[opID]; !ok {
		c.failedOp[opID] = false
	}
}

func (c *checker) fail(opID, format string, args ...any) {
	c.failedOp[opID] = true
	c.failures = append(c.failures, c.context+opID+": "+fmt.Sprintf(format, args...))
}

func (c *checker) counts() (attempted, failed int) {
	for _, f := range c.failedOp {
		attempted++
		if f {
			failed++
		}
	}
	return attempted, failed
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the line the driver reads: exactly these keys.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is everything one run knows, written with -out for the suite,
// -compare and people; the driver only reads Result.
type runDetail struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	Rounds   int      `json:"rounds"`
	// RoundsReported is how many of them the medians are taken over: the
	// rounds the hypervisor did not disturb (see runUntraced).
	RoundsReported int                `json:"rounds_reported,omitempty"`
	Result         runResult          `json:"result"`
	Failures       []string           `json:"failures,omitempty"`
	Facts          map[string]float64 `json:"facts,omitempty"`
	// Samples are the raw values behind each reported median.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// TailPercentile is the percentile op_latency_tail_s reports.
	TailPercentile int `json:"tail_percentile,omitempty"`
	// Accuracy holds the simulated-accuracy metrics of the first pass; they
	// repeat exactly for a seed, so an untraced run records them too.
	Accuracy map[string]float64 `json:"accuracy,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

type runConfig struct {
	workload     string
	seed         uint64
	seconds      float64
	traced       bool
	workdir      string
	updateGolden bool // skip the golden comparison; the caller rewrites the file
	keepSpans    bool
	size         sizing
}

// runOne performs one run of one workload in this process.
func runOne(cfg runConfig, procStart time.Time) (*runDetail, error) {
	w, ok := newWorkload(cfg.workload, cfg.size)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", cfg.workload, workloadNames())
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: cfg.seed, workdir: dir, size: cfg.size}
	d := &runDetail{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Host: hostFingerprint(cfg.workdir), Samples: map[string][]float64{},
	}
	c := newChecker()
	var err error
	if cfg.traced {
		err = runTraced(w, e, c, d, cfg.keepSpans)
	} else {
		err = runUntraced(w, e, c, d, cfg.seconds, procStart)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.updateGolden {
		c.attempt("golden")
		checkGolden(cfg.workload, cfg.seed, d.Facts, cfg.traced, c)
	}
	d.Failures = c.failures
	d.Result.Attempted, d.Result.Failed = c.counts()
	d.Result.Correct = d.Result.Failed == 0
	return d, nil
}

// round runs setup, pass and teardown once. setupStart is when this round's
// set-up is taken to have begun. inspect sees the pass before teardown, with
// the share of the round's CPU time the hypervisor gave to other guests
// (steal time over wall time x GOMAXPROCS).
func round(w workload, e *env, tr *tracer, setupStart time.Time, inspect func(pr *passResult, stolen float64)) (setupS float64, pr *passResult, err error) {
	defer func() {
		w.teardown(e)
		runtime.GC() // this round's garbage is not the next round's to collect
	}()
	steal0 := stealSeconds()
	if err = w.setup(e); err != nil {
		return 0, nil, fmt.Errorf("setup: %w", err)
	}
	setupS = time.Since(setupStart).Seconds()
	if pr, err = w.pass(e, tr); err != nil {
		return 0, nil, err
	}
	stolen := (stealSeconds() - steal0) / (time.Since(setupStart).Seconds() * float64(runtime.GOMAXPROCS(0)))
	inspect(pr, stolen)
	return setupS, pr, nil
}

// roundSample is what one untraced round contributes to the medians.
type roundSample struct {
	setupS, wallS float64
	latencies     map[string]float64 // by operation; failed operations have none
	stolen        float64            // see round
}

// cleanSteal is the stolen share up to which a round counts as undisturbed.
const cleanSteal = 0.02

// runUntraced measures the end-to-end metrics. It makes rounds until the
// timed regions of undisturbed rounds add up to the requested seconds, or
// until all rounds together have taken half as long again. A round during which the
// hypervisor stole CPU is still checked, but it is reported only when fewer
// than MinRounds undisturbed rounds exist: on a shared host steal time
// doubles wall time for seconds at a stretch, and it is the neighbours'
// load, not the program's, that such a round would measure.
func runUntraced(w workload, e *env, c *checker, d *runDetail, seconds float64, procStart time.Time) error {
	var first *passResult
	var rounds []roundSample
	var timed, timedClean float64
	clean := 0
	for r := 0; r < e.size.MinRounds || (timed < 1.5*seconds && (timedClean < seconds || clean < e.size.MinRounds)); r++ {
		// The first round's set-up is counted from process start: a user
		// waits for the runtime and package initialisation too.
		setupStart := time.Now()
		if r == 0 {
			setupStart = procStart
		}
		var rs roundSample
		setupS, pr, err := round(w, e, nil, setupStart, func(pr *passResult, stolen float64) {
			rs.stolen = stolen
			for _, o := range pr.ops {
				c.attempt(o.id)
			}
			if r == 0 {
				d.Facts = w.check(e, pr, c)
				d.Accuracy = w.accuracy(pr)
				return
			}
			// Later rounds repeat round 0.
			c.context = fmt.Sprintf("round %d: ", r)
			if diff := diffFacts(d.Facts, w.check(e, pr, c)); diff != "" {
				c.fail("repeat", "statistics differ from round 0: %s", diff)
			}
			c.context = ""
		})
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if r == 0 {
			first = pr
		}
		rs.setupS, rs.wallS, rs.latencies = setupS, pr.wall, map[string]float64{}
		for _, o := range pr.ops {
			if o.err == nil {
				rs.latencies[o.id] = o.seconds
			}
		}
		rounds = append(rounds, rs)
		timed += pr.wall
		if rs.stolen <= cleanSteal {
			timedClean += pr.wall
			clean++
		}
	}
	c.attempt("repeat")
	// Peak memory is read before the reference computations, which are not
	// part of what a user runs.
	rss := peakRSSMB()
	w.reference(e, first, c, false)

	// Report the undisturbed rounds; failing that, the least disturbed.
	d.Rounds = len(rounds)
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].stolen < rounds[j].stolen })
	keep := clean
	if keep < e.size.MinRounds {
		keep = e.size.MinRounds
	}
	var pooled []float64
	byOp := map[string][]float64{}
	for i, rs := range rounds {
		d.Samples["stolen_frac"] = append(d.Samples["stolen_frac"], rs.stolen)
		if i >= keep {
			continue
		}
		d.Samples["setup_s"] = append(d.Samples["setup_s"], rs.setupS)
		d.Samples["wall_s"] = append(d.Samples["wall_s"], rs.wallS)
		for id, s := range rs.latencies {
			byOp[id] = append(byOp[id], s)
			pooled = append(pooled, s)
		}
	}
	d.RoundsReported = keep
	// The typical operation: each operation's median over the rounds, then
	// the median over operations. (Pooling all samples instead would let the
	// number of rounds decide between which two operations the median falls.)
	var typical []float64
	for _, ss := range byOp {
		typical = append(typical, median(ss))
	}
	p50 := median(typical)
	// The tail is over operation instances, pooled. Which percentile is fixed
	// per workload by the samples MinRounds rounds give, so that it does not
	// change with the number of rounds a run happened to fit in.
	d.TailPercentile = tailPercentile(len(first.ops) * e.size.MinRounds)
	tail := p50
	if d.TailPercentile > 50 {
		tail = stats.Percentile(pooled, float64(d.TailPercentile))
	}
	d.Samples["op_latency_s"] = pooled
	d.Result.Metrics = map[string]metricValue{
		"setup_s":           {median(d.Samples["setup_s"]), "s"},
		"wall_s":            {median(d.Samples["wall_s"]), "s"},
		"peak_rss_mb":       {rss, "MB"},
		"op_latency_p50_s":  {p50, "s"},
		"op_latency_tail_s": {tail, "s"},
	}
	return nil
}

// stealSeconds is the CPU time the hypervisor has given to other guests since
// boot, over all CPUs (the eighth value of /proc/stat's cpu line, in 10 ms
// ticks). Where the file does not exist nothing is ever counted as stolen.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// tracedAttempts is how often a traced run repeats a round the hypervisor
// disturbed before it settles for the least disturbed one.
const tracedAttempts = 3

// quietRound makes a round, again if the hypervisor disturbed it, and hands
// the pass of the attempt that stands to use before its teardown.
func quietRound(w workload, e *env, traced bool, name string, use func(pr *passResult, tr *tracer)) (*passResult, error) {
	for attempt := 1; ; attempt++ {
		var tr *tracer
		if traced {
			tr = newTracer(name)
		}
		retry := false
		_, pr, err := round(w, e, tr, time.Now(), func(pr *passResult, stolen float64) {
			if retry = stolen > cleanSteal && attempt < tracedAttempts; !retry {
				use(pr, tr)
			}
		})
		if err != nil || !retry {
			return pr, err
		}
	}
}

// runTraced measures the per-layer metrics: one untraced round for the
// reference wall time, then one traced round plus the layer probes.
func runTraced(w workload, e *env, c *checker, d *runDetail, keepSpans bool) error {
	untraced, err := quietRound(w, e, false, d.Workload, func(pr *passResult, _ *tracer) {
		for _, o := range pr.ops {
			c.attempt(o.id)
		}
		d.Facts = w.check(e, pr, c)
		d.Accuracy = w.accuracy(pr)
		w.reference(e, pr, c, true)
	})
	if err != nil {
		return fmt.Errorf("untraced round: %w", err)
	}
	var layer map[string]float64
	c.attempt("traced")
	traced, err := quietRound(w, e, true, d.Workload, func(pr *passResult, tr *tracer) {
		c.context = "traced pass: "
		// Tracing may cost time; it may never change a result.
		if diff := diffFacts(d.Facts, w.check(e, pr, c)); diff != "" {
			c.fail("traced", "statistics differ from the untraced pass: %s", diff)
		}
		c.context = ""
		layer = w.layers(e, untraced, pr, tr, c)
		if keepSpans {
			d.Spans = tr.spans
		}
	})
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	layer["trace_overhead_pct"] = 100 * (traced.wall/untraced.wall - 1)
	for k, v := range d.Accuracy {
		layer[k] = v
	}
	d.Rounds = 2
	d.Result.Metrics = map[string]metricValue{}
	for _, m := range perLayerMetrics {
		v := layer[m.Name] // a layer the workload never calls did no work: 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c.fail("traced", "per-layer metric %s is %v", m.Name, v)
			v = 0
		}
		d.Result.Metrics[m.Name] = metricValue{v, m.Unit}
		delete(layer, m.Name)
	}
	for k := range layer {
		c.fail("traced", "workload emitted per-layer metric %s that perLayerMetrics does not name", k)
	}
	// The traced-only statistics that repeat exactly are pinned by the
	// golden files next to the end-to-end results.
	for _, name := range exactLayerMetrics {
		d.Facts[tracedFactPrefix+name] = d.Result.Metrics[name].Value
	}
	return nil
}

// peakRSSMB is the process's peak resident set so far (Linux: ru_maxrss is
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sameFact is the repeat rule for a simulated statistic. Counts repeat
// exactly. Floating-point results repeat to 1e-9 relative, not to the bit:
// internal/simpoint sums its clusters' cycles in map-iteration order, so the
// Ideal-Simpoint prediction (and every bundle byte derived from it) moves in
// its last digit from run to run of one binary on one seed.
func sameFact(a, b float64) bool {
	if a == b {
		return true
	}
	if a == math.Trunc(a) && b == math.Trunc(b) {
		return false
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// diffFacts names the first few keys on which two fact sets disagree.
func diffFacts(want, got map[string]float64) string {
	var bad []string
	for k, v := range want {
		if g, ok := got[k]; !ok {
			bad = append(bad, k+" missing")
		} else if !sameFact(g, v) {
			bad = append(bad, fmt.Sprintf("%s = %v, want %v", k, g, v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k+" unexpected")
		}
	}
	sort.Strings(bad)
	if len(bad) > 4 {
		bad = append(bad[:4], fmt.Sprintf("... and %d more", len(bad)-4))
	}
	return strings.Join(bad, ", ")
}
