package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	imetrics "tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
	"tbpoint/internal/stats"
)

// serve drives an in-process tbpointd (server.Open behind httptest) with
// closed-loop HTTP clients: a tenant submits its next job when the previous
// result is in hand. Completion is observed through /events; client.Wait's
// 200 ms poll base would otherwise be the measurement.
type serve struct {
	warm bool
	size sizing

	dir    string
	driver *server.Driver
	ts     *httptest.Server
	jobs   []server.JobSpec // the timed region's jobs, in submission order
}

func newServe(warm bool, s sizing) workload { return &serve{warm: warm, size: s} }

// passTimeout bounds one drain; a wedged daemon fails the run instead of
// hanging it.
const passTimeout = 150 * time.Second

// jobTrace is one job as its client saw it, on one clock (daemon and
// clients share the process).
type jobTrace struct {
	spec     server.JobSpec
	status   server.JobStatus // terminal status from /events
	bundle   []byte
	t0       time.Time // before POST /jobs
	accepted time.Time // POST returned
	terminal time.Time // terminal status read from /events
	done     time.Time // result bytes in hand

	decoded   *experiments.Results // bundle, decoded once by results()
	decodeErr error
}

// results opens the served results.json: the durable envelope, then the
// bundle.
func (jt *jobTrace) results() (*experiments.Results, error) {
	if jt.decoded == nil && jt.decodeErr == nil {
		var payload []byte
		if _, payload, jt.decodeErr = durable.ReadEnvelope(jt.bundle); jt.decodeErr == nil {
			jt.decoded, jt.decodeErr = experiments.ReadResults(bytes.NewReader(payload))
		}
	}
	return jt.decoded, jt.decodeErr
}

func (w *serve) jobSpec(e *env, seedIndex int, samplers []string) server.JobSpec {
	return server.JobSpec{
		Targets:    []string{"accuracy"},
		Scale:      w.size.ServeScale,
		Seed:       e.seed*1000 + uint64(seedIndex),
		Benchmarks: w.size.ServeBenchmarks,
		Samplers:   samplers,
	}
}

func (w *serve) setup(e *env) error {
	experiments.Parallelism = 0
	w.dir = filepath.Join(e.workdir, "state")
	cfg := server.Config{
		StateDir:    w.dir,
		Dispatchers: w.size.Dispatchers,
		Metrics:     imetrics.New(),
	}
	w.jobs = nil
	// prefill runs before the clock starts. serve-warm fills the cache with
	// the base jobs; serve-cold only warms the daemon itself (connections,
	// lazy initialisation) with jobs on seeds the timed region never asks
	// for, so that its cache stays cold.
	var prefill []server.JobSpec
	if w.warm {
		for s := 0; s < w.size.ServeWarmSeeds; s++ {
			prefill = append(prefill, w.jobSpec(e, s, nil))
			for _, set := range warmSamplerSets {
				w.jobs = append(w.jobs, w.jobSpec(e, s, set))
			}
		}
	} else {
		cfg.CacheMaxBytes = w.size.ServeColdCacheBytes
		for k := 0; k < 2*w.size.Clients; k++ {
			prefill = append(prefill, w.jobSpec(e, 900+k, nil))
		}
		for i := 0; i < w.size.ServeColdJobs; i++ {
			w.jobs = append(w.jobs, w.jobSpec(e, i, coldSamplerSets[i%len(coldSamplerSets)]))
		}
	}
	d, err := server.Open(cfg)
	if err != nil {
		return err
	}
	w.driver = d
	w.ts = httptest.NewServer(d.Handler())
	for _, jt := range w.drain(prefill, nil, 0) {
		if jt.status.State != server.StateDone {
			return fmt.Errorf("prefill job seed %d ended %q: %s", jt.spec.Seed, jt.status.State, jt.status.Error)
		}
	}
	return nil
}

func (w *serve) teardown(e *env) {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.driver != nil {
		w.driver.Close()
		w.driver = nil
	}
	os.RemoveAll(w.dir)
}

// drain runs specs through the daemon with the configured number of
// closed-loop clients; client k takes jobs k, k+Clients, ...
func (w *serve) drain(specs []server.JobSpec, tr *tracer, root int) []jobTrace {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	out := make([]jobTrace, len(specs))
	var wg sync.WaitGroup
	for k := 0; k < w.size.Clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := client.New(w.ts.URL)
			for i := k; i < len(specs); i += w.size.Clients {
				spec := specs[i]
				spec.Client = fmt.Sprintf("c%d", k)
				out[i] = runJob(ctx, cl, spec)
				if tr != nil {
					out[i].record(tr, root, fmt.Sprintf("job%03d", i))
				}
			}
		}(k)
	}
	wg.Wait()
	return out
}

// runJob is one closed-loop operation: submit, follow /events to the
// terminal state, fetch the result.
func runJob(ctx context.Context, cl *client.Client, spec server.JobSpec) jobTrace {
	jt := jobTrace{spec: spec, t0: time.Now()}
	fail := func(err error) jobTrace {
		jt.done = time.Now()
		if jt.status.Error == "" {
			jt.status.Error = err.Error()
		}
		if jt.status.State == "" || jt.status.State == server.StateDone {
			jt.status.State = server.StateFailed
		}
		return jt
	}
	st, err := cl.Submit(ctx, spec)
	jt.accepted = time.Now()
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	err = cl.Events(ctx, st.ID, func(s server.JobStatus) error {
		jt.status = s
		if s.State.Terminal() && jt.terminal.IsZero() {
			jt.terminal = time.Now()
		}
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("events: %w", err))
	}
	if jt.status.State != server.StateDone {
		return fail(fmt.Errorf("job ended %s", jt.status.State))
	}
	if jt.bundle, err = cl.Result(ctx, st.ID); err != nil {
		return fail(fmt.Errorf("result: %w", err))
	}
	jt.done = time.Now()
	return jt
}

// stages cuts a job's latency into six disjoint parts. Queue wait is taken
// from the moment POST returned, not from SubmittedAt, because the daemon
// stamps SubmittedAt before it journals the job: measured from there the
// journal write would be counted in both submit and queue wait. With idle
// dispatchers a job even starts before its POST returns; the overlap stays
// with submit and the run is counted from the POST's return.
func (jt *jobTrace) stages() (names []string, edges []time.Time) {
	st := jt.status
	clamp := func(t, lo, hi time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(hi) {
			return hi
		}
		return t
	}
	started, finished := jt.accepted, jt.terminal
	if st.StartedAt != nil {
		started = *st.StartedAt
	}
	if st.FinishedAt != nil {
		finished = clamp(*st.FinishedAt, jt.accepted, jt.terminal)
	}
	ran := clamp(started.Add(time.Duration(st.WallSeconds*float64(time.Second))), jt.accepted, finished)
	started = clamp(started, jt.accepted, ran)
	return []string{"server.submit", "server.queue_wait", "server.run", "server.finish", "server.notify", "server.result_fetch"},
		[]time.Time{jt.t0, jt.accepted, started, ran, finished, jt.terminal, jt.done}
}

func (jt *jobTrace) record(tr *tracer, root int, id string) {
	if jt.terminal.IsZero() {
		return
	}
	opSpan := tr.add(root, "op", id, jt.t0, jt.done)
	names, edges := jt.stages()
	for i, n := range names {
		tr.add(opSpan, n, id, edges[i], edges[i+1])
	}
}

func (w *serve) pass(e *env, tr *tracer) (*passResult, error) {
	pr := &passResult{aux: map[string]float64{}}
	var endRoot func()
	if tr != nil {
		pr.root, endRoot = tr.begin(0, "pass", "")
	}
	start := time.Now()
	traces := w.drain(w.jobs, tr, pr.root)
	pr.wall = time.Since(start).Seconds()
	if tr != nil {
		endRoot()
	}
	for i := range traces {
		jt := &traces[i]
		o := op{id: fmt.Sprintf("job%03d", i), seconds: jt.done.Sub(jt.t0).Seconds(), out: jt}
		if jt.status.State != server.StateDone {
			o.err = fmt.Errorf("%s: %s", jt.status.State, jt.status.Error)
		}
		pr.ops = append(pr.ops, o)
	}
	snap := w.driver.Metrics().Counters
	pr.aux["evictions"] = float64(snap["server.cache_evictions"])
	pr.aux["admission_rejects"] = float64(snap["server.admission_rejects"])
	pr.aux["cache_bytes"] = float64(w.driver.CacheSizeBytes())
	return pr, nil
}

// oneShot is the reference a served bundle must equal byte for byte: the
// same spec through experiments.RunTargets and WriteResultsFile with no
// store, no server. The options mirror JobSpec.options (unexported); the
// comparison itself proves they agree.
func oneShot(dir string, spec server.JobSpec) ([]byte, error) {
	opts := experiments.DefaultOptions(spec.Scale)
	opts.Seed = spec.Seed
	opts.Benchmarks = spec.Benchmarks
	opts.Samplers = spec.Samplers
	opts.Retry = experiments.RetryPolicy{Attempts: 1, Seed: spec.Seed}
	bundle, err := experiments.RunTargets(opts, experiments.RunSpec{Targets: spec.Targets}, nil)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "oneshot.json")
	defer os.Remove(path)
	if err := experiments.WriteResultsFile(path, bundle); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// sameBundle compares a served results.json with its one-shot reference.
// Both envelopes must verify (length and CRC, so a flipped byte anywhere
// fails), and the bundles must be equal value for value: structure, strings
// and counts exactly, floating-point results by sameFact. Byte equality is
// what the daemon promises, but the bytes of an Ideal-Simpoint prediction are
// not stable across runs of the one-shot path itself (see sameFact).
func sameBundle(served, reference []byte) error {
	if bytes.Equal(served, reference) {
		return nil
	}
	var vals [2]any
	for i, data := range [][]byte{served, reference} {
		_, payload, err := durable.ReadEnvelope(data)
		if err != nil {
			return fmt.Errorf("%s bundle: %w", [2]string{"served", "one-shot"}[i], err)
		}
		if err := json.Unmarshal(payload, &vals[i]); err != nil {
			return fmt.Errorf("%s bundle: %w", [2]string{"served", "one-shot"}[i], err)
		}
	}
	return sameJSON("bundle", vals[0], vals[1])
}

func sameJSON(path string, a, b any) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: served and one-shot differ in shape", path)
		}
		for k, x := range av {
			y, ok := bv[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing from the one-shot bundle", path, k)
			}
			if err := sameJSON(path+"."+k, x, y); err != nil {
				return err
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: served and one-shot differ in shape", path)
		}
		for i := range av {
			if err := sameJSON(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); err != nil {
				return err
			}
		}
	case float64:
		bv, ok := b.(float64)
		if !ok || !sameFact(av, bv) {
			return fmt.Errorf("%s: served %v, one-shot %v", path, a, b)
		}
	default:
		if a != b {
			return fmt.Errorf("%s: served %v, one-shot %v", path, a, b)
		}
	}
	return nil
}

func (w *serve) check(e *env, pr *passResult, c *checker) map[string]float64 {
	facts := map[string]float64{}
	// Jobs on one seed share a full reference: whatever sampler set they
	// asked for, they must report the same reference IPC and the same
	// tbpoint estimate. This catches a cache that serves one key's artifact
	// for another on every job, not only on the ones reference() recomputes.
	perSeed := map[uint64][]float64{}
	for _, o := range pr.ops {
		if o.err != nil {
			c.fail(o.id, "%v", o.err)
			continue
		}
		jt := o.out.(*jobTrace)
		res, err := jt.results()
		if err != nil {
			c.fail(o.id, "served bundle does not decode: %v", err)
			continue
		}
		if len(res.Errors) > 0 || len(res.Accuracy) != len(jt.spec.Benchmarks) {
			c.fail(o.id, "bundle has %d results and %d cell errors, want %d and 0", len(res.Accuracy), len(res.Errors), len(jt.spec.Benchmarks))
			continue
		}
		names, _ := sampler.Normalize(jt.spec.Samplers)
		var sig []float64
		for _, r := range res.Accuracy {
			sig = append(sig, r.FullIPC)
			facts[o.id+".full_ipc_sum"] += r.FullIPC
			for _, name := range names {
				out, ok := r.Outcome(name)
				est := out.Estimate
				if !ok || !finitePositive(est.PredictedIPC) || !(est.SampleSize > 0 && est.SampleSize <= 1) {
					c.fail(o.id, "%s: %s estimate missing or out of range: %+v", r.Name, name, est)
				}
				facts[o.id+".ipc_sum"] += est.PredictedIPC
				facts[o.id+".size_sum"] += est.SampleSize
				if name == sampler.NameTBPoint {
					sig = append(sig, est.PredictedIPC)
				}
			}
		}
		if prev, ok := perSeed[jt.spec.Seed]; ok {
			for i := range prev {
				if i >= len(sig) || !sameFact(prev[i], sig[i]) {
					c.fail(o.id, "seed %d: reference or tbpoint IPC differs from another job on the same seed", jt.spec.Seed)
					break
				}
			}
		}
		perSeed[jt.spec.Seed] = sig

		if w.warm {
			if jt.status.CacheHits != 0 || jt.status.SubcellMisses != 0 || jt.status.SubcellHits == 0 {
				c.fail(o.id, "warm job saw cell hits %d, sub-cell hits %d misses %d; want 0, >0, 0",
					jt.status.CacheHits, jt.status.SubcellHits, jt.status.SubcellMisses)
			}
			for _, p := range jt.status.Phases {
				if p.Name == "experiments.full_ref" {
					c.fail(o.id, "warm job ran a full reference (%.3fs)", p.Seconds)
				}
			}
		}
	}
	c.attempt("cache")
	if !w.warm {
		if pr.aux["evictions"] == 0 {
			c.fail("cache", "serve-cold ended with no evictions: the byte budget never bound")
		}
		if pr.aux["cache_bytes"] > float64(w.size.ServeColdCacheBytes) {
			c.fail("cache", "cache holds %.0f bytes, budget is %d", pr.aux["cache_bytes"], w.size.ServeColdCacheBytes)
		}
	}
	c.attempt("admission")
	if pr.aux["admission_rejects"] > 0 {
		c.fail("admission", "%.0f submissions were rejected with 429", pr.aux["admission_rejects"])
	}
	return facts
}

// reference recomputes served bundles one-shot and compares byte for byte:
// every job, or OracleSample of them spread over the pass (which ones
// rotates with the seed).
func (w *serve) reference(e *env, pr *passResult, c *checker, all bool) {
	every := 1
	if !all {
		every = (len(pr.ops) + w.size.OracleSample - 1) / w.size.OracleSample
	}
	for i, o := range pr.ops {
		jt, ok := o.out.(*jobTrace)
		if !ok || o.err != nil || (i+int(e.seed%1000))%every != 0 {
			continue
		}
		ref, err := oneShot(e.workdir, jt.spec)
		if err != nil {
			c.fail(o.id, "one-shot reference: %v", err)
		} else if err := sameBundle(jt.bundle, ref); err != nil {
			c.fail(o.id, "%v", err)
		}
	}
}

func (w *serve) accuracy(pr *passResult) map[string]float64 {
	var tbpErr, tbpSize []float64
	for _, o := range pr.ops {
		jt, ok := o.out.(*jobTrace)
		if !ok || o.err != nil {
			continue
		}
		res, err := jt.results()
		if err != nil {
			continue
		}
		for _, r := range res.Accuracy {
			if tbp, ok := r.Outcome("tbpoint"); ok {
				tbpErr = append(tbpErr, tbp.Err)
				tbpSize = append(tbpSize, tbp.Estimate.SampleSize)
			}
		}
	}
	return map[string]float64{
		"tbpoint_err_geomean_pct":    geomeanPct(tbpErr),
		"tbpoint_sample_geomean_pct": geomeanPct(tbpSize),
		"stratified_err_geomean_pct": 0,
	}
}

func (w *serve) layers(e *env, untraced, traced *passResult, tr *tracer, c *checker) map[string]float64 {
	m := map[string]float64{}
	// Stage medians over the traced jobs.
	stage := map[string][]float64{}
	var lat []float64
	var cellHits, cellMisses, subHits, subMisses float64
	for _, o := range traced.ops {
		jt, ok := o.out.(*jobTrace)
		if !ok || o.err != nil {
			continue
		}
		lat = append(lat, o.seconds)
		names, edges := jt.stages()
		for i, n := range names {
			stage[n] = append(stage[n], 1e3*edges[i+1].Sub(edges[i]).Seconds())
		}
		cellHits += float64(jt.status.CacheHits)
		cellMisses += float64(jt.status.CacheMisses)
		subHits += float64(jt.status.SubcellHits)
		subMisses += float64(jt.status.SubcellMisses)
		// Run time inside the daemon, by the daemon's own phase clock: how
		// much of a job is full reference and how much is estimation.
		for _, p := range jt.status.Phases {
			switch {
			case p.Name == "experiments.full_ref":
				m["gpusim.fullref_s"] += p.Seconds
			case strings.HasPrefix(p.Name, "sampler."):
				m[p.Name+"_s"] += p.Seconds
			}
		}
	}
	var stageSum float64
	for n, v := range stage {
		p50 := median(v)
		m[n+"_p50_ms"] = p50
		stageSum += p50 / 1e3
	}
	// On a served workload two jobs overlap, so layer self times add up to
	// more than the wall clock; what must add up is one job's stages to one
	// job's latency.
	p50 := median(lat)
	m["attribution_gap_pct"] = 100 * ratio(math.Abs(stageSum-p50), p50)
	m["server.cell_hit_ratio"] = ratio(cellHits, cellHits+cellMisses)
	m["server.subcell_hit_ratio"] = ratio(subHits, subHits+subMisses)
	m["server.admission_rejects"] = traced.aux["admission_rejects"]
	m["durable.evictions"] = traced.aux["evictions"]
	m["durable.cache_mb"] = traced.aux["cache_bytes"] / (1 << 20)

	w.resubmitProbes(e, traced, m, c)
	storeProbe(e, w.size, m, c)
	return m
}

// resubmitProbes resubmits the specs the daemon served last. Where every cell
// still hits, the round trip is the cost of a job that does no work; the
// same jobs followed with client.Wait instead of /events show what its
// default poll adds. (serve-cold's byte budget keeps only its last few jobs'
// cells; a resubmission that misses is simply not a sample.)
func (w *serve) resubmitProbes(e *env, traced *passResult, m map[string]float64, c *checker) {
	n := 8
	if n > len(traced.ops) {
		n = len(traced.ops)
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cl := client.New(w.ts.URL)
	c.attempt("probe")
	var hit, overshoot []float64
	for i := 1; i <= n; i++ { // most recently served first: its cells are the last to be evicted
		o := traced.ops[len(traced.ops)-i]
		jt, ok := o.out.(*jobTrace)
		if !ok {
			continue
		}
		again := runJob(ctx, cl, jt.spec)
		if again.status.State != server.StateDone {
			c.fail("probe", "resubmitted %s ended %s: %s", o.id, again.status.State, again.status.Error)
			continue
		}
		if again.status.CacheMisses != 0 {
			continue
		}
		viaEvents := again.done.Sub(again.t0).Seconds()
		hit = append(hit, 1e3*viaEvents)

		t0 := time.Now()
		st, err := cl.Submit(ctx, jt.spec)
		if err == nil {
			if st, err = cl.Wait(ctx, st.ID, 0); err == nil {
				_, err = cl.Result(ctx, st.ID)
			}
		}
		if err != nil {
			c.fail("probe", "client.Wait probe on %s: %v", o.id, err)
			continue
		}
		overshoot = append(overshoot, 1e3*(time.Since(t0).Seconds()-viaEvents))
	}
	m["server.hit_roundtrip_p50_ms"] = median(hit)
	m["server.client_wait_overshoot_p50_ms"] = median(overshoot)
}

// storeProbe times durable.Store on a scratch store with the three payload
// sizes the daemon's cache actually holds: a grid cell (1 KiB), a profile
// artifact (256 KiB) and a full-reference artifact (1 MiB). The p50s are of
// the cell-sized operations, the put rate of the full-reference-sized ones.
// A get is a map lookup that copies nothing, so a byte rate for it would be
// fiction; the read path that does move bytes is durable.Open re-reading and
// re-verifying every entry, which is what a restarted daemon waits for.
func storeProbe(e *env, size sizing, m map[string]float64, c *checker) {
	dir := filepath.Join(e.workdir, "store-probe")
	store, err := durable.Open(dir)
	c.attempt("probe")
	if err != nil {
		c.fail("probe", "opening the probe store: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	var bytesPut float64
	for _, kib := range []int{1, 256, 1024} {
		payload := []byte(`"` + strings.Repeat("a", kib<<10-2) + `"`) // valid JSON, as Put requires
		var put, get []float64
		for i := 0; i < size.StoreProbeOps; i++ {
			st := time.Now()
			if err := store.Put(fmt.Sprintf("probe/%d/%d", kib, i), payload); err != nil {
				c.fail("probe", "store put: %v", err)
				return
			}
			put = append(put, time.Since(st).Seconds())
			bytesPut += float64(len(payload))
		}
		for i := 0; i < size.StoreProbeOps; i++ {
			st := time.Now()
			if _, ok := store.Get(fmt.Sprintf("probe/%d/%d", kib, i)); !ok {
				c.fail("probe", "store get missed a key it just put")
				return
			}
			get = append(get, time.Since(st).Seconds())
		}
		switch kib {
		case 1:
			m["durable.put_p50_us"] = 1e6 * median(put)
			m["durable.get_p50_us"] = 1e6 * median(get)
		case 1024:
			m["durable.put_mb_per_s"] = float64(len(put)) / stats.Sum(put)
		}
	}
	st := time.Now()
	reloaded, err := durable.Open(dir)
	if err != nil || reloaded.Len() != 3*size.StoreProbeOps {
		c.fail("probe", "reopening the probe store: %v", err)
		return
	}
	m["durable.reload_mb_per_s"] = bytesPut / (1 << 20) / time.Since(st).Seconds()
}
