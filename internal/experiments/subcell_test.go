package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tbpoint/internal/core"
	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

// subcellOpts is a small accuracy configuration with the sub-cell artifact
// cache enabled on the given store.
func subcellOpts(t *testing.T, store *durable.Store, mc *metrics.Collector) Options {
	t.Helper()
	opts := DefaultOptions(0.02)
	opts.Seed = 7
	opts.Benchmarks = []string{"stream"}
	opts.Checkpoint = store
	opts.Subcell = true
	opts.Resume = true
	opts.Metrics = mc
	return opts
}

func benchJSON(t *testing.T, r interface{}) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSubcellCacheByteIdenticalReuse is the sub-cell cache's core contract:
// a warm run over the same workload composes its result from the store — the
// reference header and one outcome per strategy hit, nothing is simulated or
// estimated — and still produces a byte-identical BenchResult, both to its
// own cold run and to a run with no cache at all.
func TestSubcellCacheByteIdenticalReuse(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	plain := subcellOpts(t, nil, nil)
	plain.Subcell = false
	base, err := RunBenchmark(spec, gpusim.DefaultConfig(), plain)
	if err != nil {
		t.Fatal(err)
	}

	coldMC := metrics.New()
	cold, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, coldMC))
	if err != nil {
		t.Fatal(err)
	}
	if hits := coldMC.Count(metrics.SubcellHits); hits != 0 {
		t.Fatalf("cold run had %d subcell hits", hits)
	}
	if misses := coldMC.Count(metrics.SubcellMisses); misses != 1 {
		t.Fatalf("cold run recorded %d subcell misses, want 1 (the full reference)", misses)
	}
	if !hasPhase(coldMC, "experiments.full_ref") {
		t.Fatal("cold run has no experiments.full_ref phase")
	}

	warmMC := metrics.New()
	warm, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, warmMC))
	if err != nil {
		t.Fatal(err)
	}
	if hits := warmMC.Count(metrics.SubcellHits); hits != 1 {
		t.Fatalf("warm run recorded %d subcell hits, want 1 (the reference header)", hits)
	}
	if misses := warmMC.Count(metrics.SubcellMisses); misses != 0 {
		t.Fatalf("warm run missed %d artifacts", misses)
	}
	if hits, misses := warmMC.Count(metrics.OutcomeHits), warmMC.Count(metrics.OutcomeMisses); hits != 3 || misses != 0 {
		t.Fatalf("warm run outcome hits=%d misses=%d, want 3 and 0", hits, misses)
	}
	if misses := coldMC.Count(metrics.OutcomeMisses); misses != 3 {
		t.Fatalf("cold run recorded %d outcome misses, want 3", misses)
	}
	assertComposed(t, "warm run", warmMC)

	baseJSON, coldJSON, warmJSON := benchJSON(t, base), benchJSON(t, cold), benchJSON(t, warm)
	if !bytes.Equal(coldJSON, baseJSON) {
		t.Error("cold cached run differs from uncached run")
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Error("warm cached run differs from cold run")
	}

	// The entries live under the subcell/ namespace of the shared store;
	// RunBenchmark journals no cell, so they are the only keys: the full
	// reference, its header, and one outcome per default strategy.
	var kinds []string
	for _, k := range store.Keys() {
		parts := strings.Split(k, "/")
		if len(parts) < 4 || parts[0] != "subcell" || parts[1] != "v1" || parts[3] != "stream" {
			t.Fatalf("unexpected store key %s", k)
		}
		kinds = append(kinds, strings.Join(append(parts[2:3], parts[6:]...), "/"))
	}
	if got, want := strings.Join(kinds, " "), "fullref outcome/random outcome/simpoint outcome/tbpoint refhdr"; got != want {
		t.Fatalf("store entries = %q, want %q", got, want)
	}
}

// assertComposed fails unless mc saw a pure composition: no reference run,
// no strategy estimate, no simulation at all.
func assertComposed(t *testing.T, what string, mc *metrics.Collector) {
	t.Helper()
	for _, p := range mc.Snapshot().Phases {
		if p.Name == "experiments.full_ref" || strings.HasPrefix(p.Name, "sampler.") {
			t.Fatalf("%s ran phase %s", what, p.Name)
		}
	}
	if n := mc.Count(metrics.SimLaunches); n != 0 {
		t.Fatalf("%s simulated %d launches", what, n)
	}
}

func hasPhase(mc *metrics.Collector, name string) bool { return phaseCount(mc, name) > 0 }

// TestSubcellDisabledPublishesNothing pins the opt-in: a checkpointing run
// without Subcell must not write artifact keys (the crash-injection CI
// cases count checkpoint writes).
func TestSubcellDisabledPublishesNothing(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := subcellOpts(t, store, nil)
	opts.Subcell = false
	if _, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts); err != nil {
		t.Fatal(err)
	}
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, "subcell/") {
			t.Fatalf("subcell key %s published with Subcell off", k)
		}
	}
}

// TestSubcellComposesEverySamplerSubset is the composition property: all 31
// non-empty sampler selections, in a shuffled order against one store, each
// give the bytes of a run with no store at all, estimate every strategy
// exactly once per benchmark over the whole sequence, and once everything is
// stored compose without estimating or simulating anything.
func TestSubcellComposesEverySamplerSubset(t *testing.T) {
	names := sampler.Names()
	var subsets [][]string
	for mask := 1; mask < 1<<len(names); mask++ {
		var set []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				set = append(set, n)
			}
		}
		subsets = append(subsets, set)
	}
	rand.New(rand.NewSource(16)).Shuffle(len(subsets), func(i, j int) {
		subsets[i], subsets[j] = subsets[j], subsets[i]
	})
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"stream", "bfs"} {
		spec, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		run := func(set []string, store *durable.Store, mc *metrics.Collector) []byte {
			t.Helper()
			opts := subcellOpts(t, store, mc)
			opts.Scale = 0.01
			opts.Samplers = set
			r, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
			if err != nil {
				t.Fatalf("%s %v: %v", bench, set, err)
			}
			return benchJSON(t, r)
		}
		want := make([][]byte, len(subsets))
		mc := metrics.New()
		for i, set := range subsets {
			want[i] = run(set, nil, nil)
			if got := run(set, store, mc); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s %v: result composed from the store differs from the run without one", bench, set)
			}
		}
		if n := mc.Count(metrics.OutcomeMisses); n != uint64(len(names)) {
			t.Errorf("%s: %d outcome misses over the sequence, want each of the %d strategies estimated once", bench, n, len(names))
		}
		if n := mc.Count(metrics.SamplerEstimates); n != uint64(len(names)) {
			t.Errorf("%s: %d estimates computed, want %d", bench, n, len(names))
		}
		if n := mc.Count(metrics.SubcellMisses); n != 1 {
			t.Errorf("%s: %d reference simulations, want 1", bench, n)
		}
		final := metrics.New()
		for i, set := range subsets {
			if got := run(set, store, final); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s %v: final pass differs", bench, set)
			}
		}
		assertComposed(t, bench+" final pass", final)
		if hits, misses := final.Count(metrics.SubcellHits), final.Count(metrics.SubcellMisses); hits != uint64(len(subsets)) || misses != 0 {
			t.Errorf("%s final pass: subcell hits=%d misses=%d, want %d and 0", bench, hits, misses, len(subsets))
		}
	}
}

// evictEntry drops one key from store the way the byte budget would: every
// other entry is touched, so key is the least recently used.
func evictEntry(t *testing.T, store *durable.Store, key string) {
	t.Helper()
	for _, k := range store.Keys() {
		if k != key {
			store.Get(k)
		}
	}
	store.SetMaxBytes(store.SizeBytes() - 1)
	store.SetMaxBytes(0)
	if _, ok := store.Get(key); ok || store.Evictions() != 1 {
		t.Fatalf("evicting %s: still present=%v after %d evictions", key, ok, store.Evictions())
	}
}

// TestSubcellComposesWithoutFullReference: the small entries outlive the
// heavy artifact. With fullref evicted an all-hit cell still composes; a
// cell that needs one more strategy simulates the reference again (and
// republishes it) and still matches a run with no store.
func TestSubcellComposesWithoutFullReference(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, nil))
	if err != nil {
		t.Fatal(err)
	}
	var fullref string
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, "subcell/v1/fullref/") {
			fullref = k
		}
	}
	evictEntry(t, store, fullref)

	warmMC := metrics.New()
	warm, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, warmMC))
	if err != nil {
		t.Fatal(err)
	}
	assertComposed(t, "all-hit cell without the artifact", warmMC)
	if !bytes.Equal(benchJSON(t, warm), benchJSON(t, cold)) {
		t.Error("cell composed without the artifact differs from its cold run")
	}

	wider := subcellOpts(t, store, metrics.New())
	wider.Samplers = []string{"default", "stratified"}
	got, err := RunBenchmark(spec, gpusim.DefaultConfig(), wider)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := wider.Metrics.Count(metrics.SubcellHits), wider.Metrics.Count(metrics.SubcellMisses); hits != 0 || misses != 1 {
		t.Errorf("cell with a missing strategy and no artifact: subcell hits=%d misses=%d, want 0 and 1", hits, misses)
	}
	if hits, misses := wider.Metrics.Count(metrics.OutcomeHits), wider.Metrics.Count(metrics.OutcomeMisses); hits != 3 || misses != 1 {
		t.Errorf("outcome hits=%d misses=%d, want 3 and 1", hits, misses)
	}
	if n := wider.Metrics.Count(metrics.SamplerEstimates); n != 1 {
		t.Errorf("%d strategies estimated, want only the missing one", n)
	}
	plain := wider
	plain.Checkpoint, plain.Metrics = nil, nil
	want, err := RunBenchmark(spec, gpusim.DefaultConfig(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(benchJSON(t, got), benchJSON(t, want)) {
		t.Error("re-simulated cell differs from a run with no store")
	}
	if _, ok := store.Get(fullref); !ok {
		t.Error("the re-simulated reference was not republished")
	}
}

// TestOutcomeKeyCompleteness: every input an outcome depends on moves its
// key, and nothing else does.
func TestOutcomeKeyCompleteness(t *testing.T) {
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const totalInsts = 3_000_000
	key := func(o Options, cfg gpusim.Config, name string) string {
		return o.subcell("stream", o.UnitSize(totalInsts), cfg).key("outcome", name)
	}
	base := subcellOpts(t, store, nil)
	baseKey := key(base, gpusim.DefaultConfig(), "tbpoint")

	type variant struct {
		name string
		opts func(*Options)
	}
	variants := []variant{
		{"scale", func(o *Options) { o.Scale *= 2 }},
		{"seed", func(o *Options) { o.Seed++ }},
		{"RandomFrac", func(o *Options) { o.RandomFrac = 0.2 }},
		{"UnitDivisor", func(o *Options) { o.UnitDivisor = 100 }},
		{"MinUnitInsts", func(o *Options) { o.MinUnitInsts = 10_000 }},
		{"MaxUnitInsts", func(o *Options) { o.MaxUnitInsts = 5000 }},
	}
	// Every core.Options field, so a field added later cannot be forgotten.
	tbType := reflect.TypeOf(core.Options{})
	for i := 0; i < tbType.NumField(); i++ {
		i, field := i, tbType.Field(i).Name
		if field == "Ctx" || field == "Metrics" {
			continue
		}
		variants = append(variants, variant{"TBPoint." + field, func(o *Options) {
			tb := core.DefaultOptions()
			switch f := reflect.ValueOf(&tb).Elem().Field(i); f.Kind() {
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.01)
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("core.Options.%s: teach this test its kind %s", field, f.Kind())
			}
			o.TBPoint = &tb
		}})
	}
	for _, v := range variants {
		o := base
		v.opts(&o)
		if key(o, gpusim.DefaultConfig(), "tbpoint") == baseKey {
			t.Errorf("changing %s leaves the outcome key unchanged", v.name)
		}
	}
	if key(base, gpusim.DefaultConfig().WithOccupancy(32, 8), "tbpoint") == baseKey {
		t.Error("changing the hardware config leaves the outcome key unchanged")
	}
	if key(base, gpusim.DefaultConfig(), "stratified") == baseKey {
		t.Error("changing the strategy leaves the outcome key unchanged")
	}

	// What does not determine the outcome must not move the key: explicit
	// defaults, the live context and collector, the sampler selection.
	same := base
	tb := core.DefaultOptions()
	tb.Ctx, tb.Metrics = context.Background(), metrics.New()
	same.TBPoint = &tb
	same.Samplers = []string{"all"}
	same.Ctx, same.Metrics, same.Resume = context.Background(), metrics.New(), false
	if key(same, gpusim.DefaultConfig(), "tbpoint") != baseKey {
		t.Error("an input that does not determine the outcome moved its key")
	}
}

// TestSubcellDamagedEntriesRecompute: an entry that does not decode, an
// entry whose embedded key material is another key's, and a run told not to
// resume all count as misses, recompute, and republish a good entry.
func TestSubcellDamagedEntriesRecompute(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunBenchmark(spec, gpusim.DefaultConfig(), subcellOpts(t, store, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := benchJSON(t, cold)
	var tbKey, hdrKey string
	for _, k := range store.Keys() {
		switch {
		case strings.HasSuffix(k, "/tbpoint"):
			tbKey = k
		case strings.HasPrefix(k, "subcell/v1/refhdr/"):
			hdrKey = k
		}
	}
	good, _ := store.Get(tbKey)
	goodHdr, _ := store.Get(hdrKey)

	// A different seed's entry filed under this key: what an FNV collision
	// would look like. Its numbers are plausible and wrong.
	other := subcellOpts(t, store, nil)
	other.Seed++
	if _, err := RunBenchmark(spec, gpusim.DefaultConfig(), other); err != nil {
		t.Fatal(err)
	}
	var foreign, foreignHdr []byte
	for _, k := range store.Keys() {
		if k != tbKey && strings.HasSuffix(k, "/tbpoint") {
			foreign, _ = store.Get(k)
		}
		if k != hdrKey && strings.HasPrefix(k, "subcell/v1/refhdr/") {
			foreignHdr, _ = store.Get(k)
		}
	}
	if foreign == nil || foreignHdr == nil || bytes.Equal(foreign, good) {
		t.Fatal("no foreign entries to plant")
	}

	for _, tc := range []struct {
		name            string
		key             string
		payload         []byte
		resume          bool
		wantOutcomeMiss uint64
		wantSubcellMiss uint64
	}{
		{"corrupt outcome", tbKey, []byte(`{"material":17}`), true, 1, 0},
		{"unknown material", tbKey, []byte(`{"material":"x","value":"half"}`), true, 1, 0},
		{"foreign outcome", tbKey, foreign, true, 1, 0},
		{"corrupt header", hdrKey, []byte(`[]`), true, 0, 0},
		{"foreign header", hdrKey, foreignHdr, true, 0, 0},
		{"no resume", tbKey, good, false, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := store.Put(tc.key, tc.payload); err != nil {
				t.Fatal(err)
			}
			writes := store.Writes()
			mc := metrics.New()
			opts := subcellOpts(t, store, mc)
			opts.Resume = tc.resume
			r, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(benchJSON(t, r), want) {
				t.Error("result differs from the cold run")
			}
			if n := mc.Count(metrics.OutcomeMisses); n != tc.wantOutcomeMiss {
				t.Errorf("%d outcome misses, want %d", n, tc.wantOutcomeMiss)
			}
			if n := mc.Count(metrics.SubcellMisses); n != tc.wantSubcellMiss {
				t.Errorf("%d subcell misses, want %d", n, tc.wantSubcellMiss)
			}
			if !tc.resume {
				if n := mc.Count(metrics.OutcomeHits) + mc.Count(metrics.SubcellHits); n != 0 {
					t.Errorf("a run that does not resume recorded %d hits", n)
				}
				if n := store.Writes() - writes; n != 5 {
					t.Errorf("a run that does not resume republished %d entries, want all 5", n)
				}
			} else if n := store.Writes() - writes; n != 1 {
				t.Errorf("republished %d entries, want the damaged one", n)
			}
			for k, wantData := range map[string][]byte{tbKey: good, hdrKey: goodHdr} {
				if got, _ := store.Get(k); !bytes.Equal(got, wantData) {
					t.Errorf("%s holds %s after the run, want the good entry back", k, got)
				}
			}
		})
	}
}

// TestSubcellConcurrentCellsShareOneStore: cells of one benchmark with
// overlapping sampler sets run at once (two dispatchers of the job server
// do this), looking up and publishing the same keys concurrently. Every
// result still equals the run without a store; the race stage runs this
// under the detector.
func TestSubcellConcurrentCellsShareOneStore(t *testing.T) {
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]string{{"all"}, {"tbpoint", "stratified"}, {"all"}, nil}
	want := make([][]byte, len(sets))
	for i, set := range sets {
		opts := subcellOpts(t, nil, nil)
		opts.Samplers = set
		r, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = benchJSON(t, r)
	}
	for round := 0; round < 2; round++ { // cold store, then warm
		got := make([]*BenchResult, len(sets))
		errs := make([]error, len(sets))
		var wg sync.WaitGroup
		for i, set := range sets {
			wg.Add(1)
			go func(i int, set []string) {
				defer wg.Done()
				opts := subcellOpts(t, store, metrics.New())
				opts.Samplers = set
				got[i], errs[i] = RunBenchmark(spec, gpusim.DefaultConfig(), opts)
			}(i, set)
		}
		wg.Wait()
		for i := range sets {
			if errs[i] != nil {
				t.Fatalf("round %d %v: %v", round, sets[i], errs[i])
			}
			if !bytes.Equal(benchJSON(t, got[i]), want[i]) {
				t.Errorf("round %d %v: differs from the run without a store", round, sets[i])
			}
		}
	}
}

// phaseCount is how many times mc timed the named phase.
func phaseCount(mc *metrics.Collector, name string) int64 {
	for _, p := range mc.Snapshot().Phases {
		if p.Name == name {
			return p.Count
		}
	}
	return 0
}

// TestSensitivityComposesFromStore: sensitivity cells are accuracy cells, so
// they go through the sub-cell cache too. A default-trio run fills the store;
// the same grid with every strategy then misses the cell keys but reuses each
// configuration's reference run and the trio's outcomes, estimates only the
// two new strategies, simulates nothing — and writes the bytes of a run with
// no store.
func TestSensitivityComposesFromStore(t *testing.T) {
	cells := uint64(len(HWConfigs()))
	plain := subcellOpts(t, nil, nil)
	plain.Subcell = false
	plain.Samplers = []string{"all"}
	want, cellErrs, err := RunSensitivity(plain)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("plain run: err %v, cell errors %+v", err, cellErrs)
	}

	store := openStore(t, t.TempDir())
	if _, _, err := RunSensitivity(subcellOpts(t, store, nil)); err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	warm := subcellOpts(t, store, mc)
	warm.Samplers = []string{"all"}
	got, cellErrs, err := RunSensitivity(warm)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("warm run: err %v, cell errors %+v", err, cellErrs)
	}
	if !bytes.Equal(benchJSON(t, got), benchJSON(t, want)) {
		t.Error("sensitivity composed from the store differs from the run without one")
	}

	for _, c := range []struct {
		id   metrics.Counter
		want uint64
	}{
		{metrics.ExpCellsResumed, 0},
		{metrics.ExpCellsExecuted, cells},
		{metrics.SubcellHits, cells}, // the reference run, decoded
		{metrics.SubcellMisses, 0},
		{metrics.OutcomeHits, 3 * cells},
		{metrics.OutcomeMisses, 2 * cells},
		{metrics.SamplerEstimates, 2 * cells},
		{metrics.SimLaunches, 0},
	} {
		if n := mc.Count(c.id); n != c.want {
			t.Errorf("%s = %d, want %d", c.id.Name(), n, c.want)
		}
	}
	for _, name := range sampler.Names() {
		want := int64(0)
		if name == sampler.NameSystematic || name == sampler.NameStratified {
			want = int64(cells)
		}
		if n := phaseCount(mc, "sampler."+name); n != want {
			t.Errorf("phase sampler.%s ran %d times, want %d", name, n, want)
		}
	}
	if n := phaseCount(mc, "experiments.full_ref"); n != 0 {
		t.Errorf("warm run simulated %d reference runs", n)
	}
	// Two grids' cells are journaled; the cache entries beside them are not
	// cells.
	if n, all := JournaledCells(store), store.Len(); n != int(2*cells) || all <= n {
		t.Errorf("JournaledCells = %d of %d store entries, want %d cells and cache entries beside them", n, all, 2*cells)
	}
}

// TestSensitivityRecordsMetrics: a sensitivity cell meters what an accuracy
// cell does — simulator counters, one reference-run phase, and one
// sampler.<name> phase per strategy it runs (the selection plus TBPoint,
// which Fig. 12/13 always need) — while its result carries the selection only.
func TestSensitivityRecordsMetrics(t *testing.T) {
	cells := int64(len(HWConfigs()))
	mc := metrics.New()
	opts := fastOpts()
	opts.Benchmarks = []string{"stream"}
	opts.Samplers = []string{sampler.NameRandom}
	opts.Metrics = mc
	results, cellErrs, err := RunSensitivity(opts)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("err %v, cell errors %+v", err, cellErrs)
	}
	if mc.Count(metrics.SimLaunches) == 0 || mc.Count(metrics.SimWarpInsts) == 0 {
		t.Error("no simulator counters recorded")
	}
	for name, want := range map[string]int64{
		"experiments.full_ref":              cells,
		"sampler." + sampler.NameRandom:     cells,
		"sampler." + sampler.NameTBPoint:    cells,
		"sampler." + sampler.NameSimPoint:   0,
		"sampler." + sampler.NameStratified: 0,
		"sampler." + sampler.NameSystematic: 0,
	} {
		if n := phaseCount(mc, name); n != want {
			t.Errorf("phase %s ran %d times, want %d", name, n, want)
		}
	}
	for _, r := range results {
		if _, ok := r.Samplers[sampler.NameRandom]; !ok || len(r.Samplers) != 1 {
			t.Errorf("%s %s: outcomes %v, want exactly the selected random", r.Bench, r.Config.Name(), r.Samplers)
		}
		if r.SampleSize <= 0 {
			t.Errorf("%s %s: TBPoint sample size %v not carried", r.Bench, r.Config.Name(), r.SampleSize)
		}
	}
}

// TestMotivationSharesReferenceWithAccuracy: the motivation study reads its
// per-launch CPIs from the accuracy cell's reference run, so over one store
// each benchmark is simulated in full once — by whichever target comes first.
func TestMotivationSharesReferenceWithAccuracy(t *testing.T) {
	benches := []string{"kmeans", "stream"}
	plain := subcellOpts(t, nil, nil)
	plain.Subcell = false
	plain.Benchmarks = benches
	wantMot, err := RunMotivation(plain)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc, _, err := RunAccuracy(plain)
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t, t.TempDir())
	motMC, accMC := metrics.New(), metrics.New()
	opts := subcellOpts(t, store, motMC)
	opts.Benchmarks = benches
	gotMot, err := RunMotivation(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Metrics = accMC
	gotAcc, cellErrs, err := RunAccuracy(opts)
	if err != nil || len(cellErrs) != 0 {
		t.Fatalf("accuracy: err %v, cell errors %+v", err, cellErrs)
	}
	if !reflect.DeepEqual(gotMot, wantMot) {
		t.Errorf("motivation over a store = %+v, want %+v", gotMot, wantMot)
	}
	if !bytes.Equal(benchJSON(t, gotAcc), benchJSON(t, wantAcc)) {
		t.Error("accuracy on motivation's reference runs differs from the run without a store")
	}
	if n := phaseCount(motMC, "experiments.full_ref"); n != int64(len(benches)) {
		t.Errorf("motivation simulated %d reference runs, want %d", n, len(benches))
	}
	if motMC.Count(metrics.SimLaunches) == 0 {
		t.Error("motivation recorded no simulator counters")
	}
	if n := phaseCount(accMC, "experiments.full_ref"); n != 0 {
		t.Errorf("accuracy re-simulated %d reference runs motivation had stored", n)
	}
	if hits, misses := accMC.Count(metrics.SubcellHits), accMC.Count(metrics.SubcellMisses); hits != uint64(len(benches)) || misses != 0 {
		t.Errorf("accuracy subcell hits=%d misses=%d, want %d and 0", hits, misses, len(benches))
	}
}
