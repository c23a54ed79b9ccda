package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Times are seconds
// since the tracer started. Spans of one operation share Op.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = no parent
	Name     string  `json:"name"`   // "<layer>.<what>", or "pass"/"op"/"probe" for structure
	Workload string  `json:"workload"`
	Op       string  `json:"op,omitempty"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is only ever used in
// the traced pass; the untraced pass runs without one.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name, op string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// begin opens a span whose children are recorded while it runs; the returned
// func closes it.
func (t *tracer) begin(parent int, name, op string) (id int, end func()) {
	id = t.add(parent, name, op, time.Now(), time.Now())
	return id, func() {
		now := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// call times fn as a child span of parent and returns its duration.
func (t *tracer) call(parent int, name, op string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, name, op, start, end)
	return end.Sub(start).Seconds()
}

// selfTimes returns each span's duration minus the part of its interval that
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]float64 {
	type iv struct{ a, b float64 }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].a < ks[j].a })
		covered, edge := 0.0, s.Start
		for _, k := range ks {
			a, b := k.a, k.b
			if a < edge {
				a = edge
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by span name under root (root itself excluded).
func layerSelf(spans []span, root int) map[string]float64 {
	under := map[int]bool{root: true}
	for _, s := range spans { // parents are always recorded before children
		if under[s.Parent] {
			under[s.ID] = true
		}
	}
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if s.ID != root && under[s.ID] {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}
