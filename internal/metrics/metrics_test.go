package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	c := New()
	c.Inc(SimCycles)
	c.Add(SimCycles, 9)
	c.Add(MemL1Hits, 3)
	if got := c.Count(SimCycles); got != 10 {
		t.Errorf("SimCycles = %d, want 10", got)
	}
	if got := c.Count(MemL1Hits); got != 3 {
		t.Errorf("MemL1Hits = %d, want 3", got)
	}
	if got := c.Count(MemL2Hits); got != 0 {
		t.Errorf("untouched counter = %d, want 0", got)
	}
}

func TestEveryCounterAndDistNamed(t *testing.T) {
	seen := map[string]bool{}
	for i := Counter(0); i < NumCounters; i++ {
		n := i.Name()
		if n == "" {
			t.Errorf("counter %d has no name", i)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
		if !strings.Contains(n, ".") {
			t.Errorf("counter name %q not group-qualified", n)
		}
	}
	for i := Dist(0); i < NumDists; i++ {
		n := i.Name()
		if n == "" {
			t.Errorf("dist %d has no name", i)
		}
		if seen[n] {
			t.Errorf("dist name %q collides", n)
		}
		seen[n] = true
	}
}

func TestDistSemantics(t *testing.T) {
	c := New()
	for _, v := range []uint64{5, 2, 9, 2} {
		c.Observe(DistMSHROccupancy, v)
	}
	s := c.Snapshot()
	d, ok := s.Dists[DistMSHROccupancy.Name()]
	if !ok {
		t.Fatal("observed dist missing from snapshot")
	}
	if d.Count != 4 || d.Sum != 18 || d.Min != 2 || d.Max != 9 {
		t.Errorf("dist = %+v, want count 4 sum 18 min 2 max 9", d)
	}
	if got := d.Mean(); got != 4.5 {
		t.Errorf("mean = %g, want 4.5", got)
	}
	if _, ok := s.Dists[DistDRAMQueueWait.Name()]; ok {
		t.Error("unobserved dist present in snapshot")
	}
}

// TestNilCollectorNoOp pins the disabled-collector contract: every method
// is safe and side-effect free on a nil receiver.
func TestNilCollectorNoOp(t *testing.T) {
	var c *Collector
	c.Inc(SimCycles)
	c.Add(SimCycles, 5)
	c.AtomicAdd(SimCycles, 5)
	c.Observe(DistMSHROccupancy, 1)
	c.AddPhase("x", time.Second)
	sw := c.StartPhase("z")
	sw.Stop()
	c.Merge(New())
	(*Collector)(nil).Merge(nil)
	if got := c.Count(SimCycles); got != 0 {
		t.Errorf("nil Count = %d", got)
	}
	s := c.Snapshot()
	if len(s.Counters) != 0 || len(s.Dists) != 0 || len(s.Phases) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
}

func TestPhases(t *testing.T) {
	c := New()
	c.AddPhase("a", 2*time.Second)
	c.AddPhase("b", time.Second)
	c.AddPhase("a", time.Second)
	s := c.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(s.Phases))
	}
	// Sorted by name in the snapshot.
	if s.Phases[0].Name != "a" || s.Phases[1].Name != "b" {
		t.Errorf("phase order = %v", s.Phases)
	}
	if s.Phases[0].Seconds != 3 || s.Phases[0].Count != 2 {
		t.Errorf("phase a = %+v, want 3s x2", s.Phases[0])
	}
	sw := c.StartPhase("c")
	time.Sleep(time.Millisecond)
	sw.Stop()
	s = c.Snapshot()
	if s.Phases[2].Seconds <= 0 {
		t.Error("a stopped StartPhase recorded no time")
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Add(SimCycles, 10)
	a.Observe(DistSMWarpInsts, 4)
	a.AddPhase("p", time.Second)
	b.Add(SimCycles, 5)
	b.Add(MemL2Misses, 7)
	b.Observe(DistSMWarpInsts, 9)
	b.Observe(DistSMWarpInsts, 1)
	b.AddPhase("p", time.Second)
	b.AddPhase("q", time.Second)
	a.Merge(b)
	s := a.Snapshot()
	if s.Counters[SimCycles.Name()] != 15 || s.Counters[MemL2Misses.Name()] != 7 {
		t.Errorf("merged counters wrong: %v", s.Counters)
	}
	d := s.Dists[DistSMWarpInsts.Name()]
	if d.Count != 3 || d.Sum != 14 || d.Min != 1 || d.Max != 9 {
		t.Errorf("merged dist = %+v", d)
	}
	if len(s.Phases) != 2 || s.Phases[0].Seconds != 2 || s.Phases[0].Count != 2 {
		t.Errorf("merged phases = %+v", s.Phases)
	}
}

// TestConcurrentAtomicAndMerge exercises the two sanctioned concurrent
// usages under the race detector: AtomicAdd on a shared collector, and
// Merge of per-worker collectors into one aggregate.
func TestConcurrentAtomicAndMerge(t *testing.T) {
	shared := New()
	agg := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := New()
			for i := 0; i < perWorker; i++ {
				shared.AtomicAdd(ParTasks, 1)
				local.Inc(SimWarpInsts)
				local.Observe(DistSMWarpInsts, uint64(w))
			}
			local.AddPhase("work", time.Microsecond)
			agg.Merge(local)
		}(w)
	}
	wg.Wait()
	if got := shared.Count(ParTasks); got != workers*perWorker {
		t.Errorf("shared atomic count = %d, want %d", got, workers*perWorker)
	}
	s := agg.Snapshot()
	if got := s.Counters[SimWarpInsts.Name()]; got != workers*perWorker {
		t.Errorf("merged count = %d, want %d", got, workers*perWorker)
	}
	d := s.Dists[DistSMWarpInsts.Name()]
	if d.Count != workers*perWorker || d.Min != 0 || d.Max != workers-1 {
		t.Errorf("merged dist = %+v", d)
	}
	if len(s.Phases) != 1 || s.Phases[0].Count != workers {
		t.Errorf("merged phases = %+v", s.Phases)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := New()
	c.Add(SimCycles, 42)
	c.Observe(DistDRAMQueueWait, 7)
	c.AddPhase("p", 1500*time.Millisecond)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters[SimCycles.Name()] != 42 {
		t.Errorf("round-tripped counter = %v", got.Counters)
	}
	if d := got.Dists[DistDRAMQueueWait.Name()]; d.Sum != 7 {
		t.Errorf("round-tripped dist = %+v", d)
	}
	if len(got.Phases) != 1 || got.Phases[0].Seconds != 1.5 {
		t.Errorf("round-tripped phases = %+v", got.Phases)
	}
}

func TestWriteText(t *testing.T) {
	c := New()
	c.Add(MemL1Hits, 5)
	c.Add(SimCycles, 2)
	c.Observe(DistMSHROccupancy, 3)
	c.AddPhase("run", time.Second)
	var buf bytes.Buffer
	c.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"[mem]", "[sim]", "mem.l1_hits", "mem.mshr_occupancy", "run", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkDisabledInc documents the cost of the nil-collector fast path
// (the per-call price instrumented code pays when metrics are off).
func BenchmarkDisabledInc(b *testing.B) {
	var c *Collector
	for i := 0; i < b.N; i++ {
		c.Inc(SimWarpInsts)
	}
}

func BenchmarkEnabledInc(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.Inc(SimWarpInsts)
	}
}

func BenchmarkEnabledObserve(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.Observe(DistMSHROccupancy, uint64(i&1023))
	}
}

// TestLiveSnapshotRaceFree pins the aggregate-collector contract the job
// server relies on: Snapshot and Count may run while other goroutines Merge
// and AtomicAdd into the same collector. Run under -race, this fails if any
// of those paths regress to unsynchronized counter access.
func TestLiveSnapshotRaceFree(t *testing.T) {
	agg := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= 100 { // minimum work even if the readers finish first
					select {
					case <-stop:
						return
					default:
					}
				}
				agg.AtomicAdd(ExpCellsExecuted, 1)
				src := New()
				src.Add(SimCycles, uint64(w+i))
				src.Observe(DistMSHROccupancy, uint64(i%7))
				src.AddPhase("work", time.Microsecond)
				agg.Merge(src)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		_ = agg.Snapshot()
		_ = agg.Count(ExpCellsExecuted)
	}
	close(stop)
	wg.Wait()
	snap := agg.Snapshot()
	if snap.Counters[ExpCellsExecuted.Name()] == 0 {
		t.Error("AtomicAdd increments lost")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
