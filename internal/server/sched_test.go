package server

import "testing"

// popN drains up to n jobs, failing the test if the scheduler runs dry
// early.
func popN(t *testing.T, s *drrSched, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, ok := s.pop()
		if !ok {
			t.Fatalf("pop %d/%d: scheduler empty", i+1, n)
		}
		out = append(out, id)
	}
	return out
}

func wantOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("popped %d jobs %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v (first diff at %d)", got, want, i)
		}
	}
}

// TestSchedFIFOWithinClient: a single client degenerates to the original
// FIFO — the journal/restart contract.
func TestSchedFIFOWithinClient(t *testing.T) {
	s := newDRRSched()
	s.push("a", "j1", 0)
	s.push("a", "j2", 0)
	s.push("a", "j3", 0)
	wantOrder(t, popN(t, s, 3), "j1", "j2", "j3")
	if _, ok := s.pop(); ok {
		t.Fatal("pop on empty scheduler succeeded")
	}
	if s.len() != 0 {
		t.Fatalf("len = %d after drain", s.len())
	}
}

// TestSchedRoundRobinAcrossClients: equal-priority clients alternate, so a
// client that queued many jobs first cannot monopolize the dispatchers.
func TestSchedRoundRobinAcrossClients(t *testing.T) {
	s := newDRRSched()
	s.push("a", "a1", 0)
	s.push("a", "a2", 0)
	s.push("b", "b1", 0)
	s.push("b", "b2", 0)
	s.push("c", "c1", 0)
	wantOrder(t, popN(t, s, 5), "a1", "b1", "c1", "a2", "b2")
}

// TestSchedPriorityWidensShare: a priority-4 client releases 1+4 jobs per
// visit against a priority-0 client's one — weighted fairness, with the
// low-priority client still served every lap (no starvation).
func TestSchedPriorityWidensShare(t *testing.T) {
	s := newDRRSched()
	for _, id := range []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"} {
		s.push("a", id, 4)
	}
	s.push("b", "b1", 0)
	s.push("b", "b2", 0)
	wantOrder(t, popN(t, s, 12),
		"a1", "a2", "a3", "a4", "a5", "b1",
		"a6", "a7", "a8", "a9", "a10", "b2")
}

// TestSchedNoStarvationBound: however hard one client floods (even at max
// priority), a newcomer's first job is released within one lap — at most
// 1+MaxPriority pops later.
func TestSchedNoStarvationBound(t *testing.T) {
	s := newDRRSched()
	for i := 0; i < 100; i++ {
		s.push("flood", "f", MaxPriority)
	}
	s.push("small", "s1", 0)
	for i := 0; i < 1+MaxPriority+1; i++ {
		id, ok := s.pop()
		if !ok {
			t.Fatal("scheduler empty")
		}
		if id == "s1" {
			return
		}
	}
	t.Fatalf("small client's job not released within %d pops", 1+MaxPriority+1)
}

// TestSchedDrainedClientBanksNothing: a client that drains leaves the ring
// and its deficit dies with it — rejoining later starts from zero credit,
// and the scheduler state stays proportional to pending work.
func TestSchedDrainedClientBanksNothing(t *testing.T) {
	s := newDRRSched()
	s.push("a", "a1", MaxPriority)
	popN(t, s, 1)
	if len(s.clients) != 0 || len(s.ring) != 0 {
		t.Fatalf("drained scheduler retains state: clients=%d ring=%d", len(s.clients), len(s.ring))
	}
	// Re-push: the client re-enters fresh; high leftover deficit from the
	// earlier visit must not let it jump a newly interleaved client.
	s.push("a", "a2", 0)
	s.push("b", "b1", 0)
	wantOrder(t, popN(t, s, 2), "a2", "b1")
}

// TestSchedRestartOrder mirrors the driver's recovery path: pushes in
// journal (submission) order rebuild the same pop order a live daemon
// would have produced.
func TestSchedRestartOrder(t *testing.T) {
	build := func() *drrSched {
		s := newDRRSched()
		s.push("x", "x1", 0)
		s.push("x", "x2", 2)
		s.push("y", "y1", 0)
		return s
	}
	a, b := build(), build()
	for {
		ida, oka := a.pop()
		idb, okb := b.pop()
		if oka != okb || ida != idb {
			t.Fatalf("replayed scheduler diverged: (%q,%v) vs (%q,%v)", ida, oka, idb, okb)
		}
		if !oka {
			return
		}
	}
}

// TestSchedRemove: removing a pending job frees its slot in both counts and
// leaves every other client's order, and the round-robin cursor, intact —
// whether the removed client sat before, at or after the cursor.
func TestSchedRemove(t *testing.T) {
	build := func() *drrSched {
		s := newDRRSched()
		for _, j := range []struct{ client, id string }{{"a", "a1"}, {"a", "a2"}, {"b", "b1"}, {"c", "c1"}, {"c", "c2"}} {
			s.push(j.client, j.id, 0)
		}
		wantOrder(t, popN(t, s, 1), "a1") // the cursor now rests on b
		return s
	}
	s := build()
	s.remove("a", "a2") // before the cursor: a leaves the ring
	if s.len() != 3 || s.clientLen("a") != 0 || len(s.ring) != 2 {
		t.Fatalf("after removing a2: len %d, a holds %d, ring %v", s.len(), s.clientLen("a"), s.ring)
	}
	wantOrder(t, popN(t, s, 3), "b1", "c1", "c2")

	s = build()
	s.remove("b", "b1") // at the cursor: c is next
	wantOrder(t, popN(t, s, 3), "c1", "a2", "c2")

	s = build()
	s.remove("c", "c1") // after the cursor, the client keeps a job
	s.remove("c", "nosuch")
	s.remove("z", "z1")
	wantOrder(t, popN(t, s, 3), "b1", "c2", "a2")
	if _, ok := s.pop(); ok || s.len() != 0 {
		t.Fatalf("scheduler not empty after removals: len %d", s.len())
	}
}
