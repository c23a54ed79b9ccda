package server

// This file is the driver's fair-share scheduler: a deficit-round-robin
// (DRR) arrangement of per-client FIFO queues replacing the original single
// FIFO, so one client flooding the daemon with jobs can no longer starve
// everyone else.
//
// The mechanics follow classic DRR (Shreedhar & Varghese): each client with
// pending jobs owns a queue and a deficit counter; a dispatcher visit
// credits the queue one quantum and releases jobs while the deficit covers
// the head job's cost. Cost is 1/(1+Priority), so priority never reorders a
// client's own queue (FIFO within a client is part of the journal/restart
// contract) — it widens the client's share of dispatcher visits: a
// priority-p head job lets its queue release up to 1+p jobs per visit.
// Because the quantum covers the largest possible cost, every visited
// client releases at least one job per lap, which bounds any job's wait by
// the number of active clients — the no-starvation guarantee the serveload
// suite asserts.
//
// Deficits reset when a queue drains (no banking credit while idle), and
// drained clients leave the ring so the state stays proportional to the
// pending work. A job cancelled while queued is removed at once, so it
// stops counting against the admission bounds. The scheduler is plain data
// guarded by the driver's mutex; restart recovery replays the journal in
// submission order through push, reproducing the pre-restart queue shape.

import "slices"

// drrQuantum is the credit a queue earns per dispatcher visit. It must be
// >= the maximum job cost (1.0, priority 0) for the one-job-per-visit
// progress guarantee to hold.
const drrQuantum = 1.0

// MaxPriority bounds JobSpec.Priority (0 = normal share .. 9 = 10x share).
const MaxPriority = 9

// jobCost converts a job's priority into its DRR cost.
func jobCost(priority int) float64 {
	if priority < 0 {
		priority = 0
	}
	if priority > MaxPriority {
		priority = MaxPriority
	}
	return 1 / float64(1+priority)
}

type queuedJob struct {
	id   string
	cost float64
}

type clientQueue struct {
	jobs    []queuedJob
	deficit float64
	// charged marks that the current visit already credited the quantum,
	// so a client releasing several jobs across consecutive pop calls is
	// credited once per visit, not once per pop.
	charged bool
}

// drrSched is the deficit-round-robin multi-queue. Not safe for concurrent
// use on its own — the driver's mutex guards it.
type drrSched struct {
	clients map[string]*clientQueue
	ring    []string // active clients, first-pending order
	cursor  int
	total   int
}

func newDRRSched() *drrSched {
	return &drrSched{clients: map[string]*clientQueue{}}
}

// push appends a job to its client's FIFO queue, activating the client at
// the ring's tail if it had nothing pending.
func (s *drrSched) push(client, id string, priority int) {
	cq := s.clients[client]
	if cq == nil {
		cq = &clientQueue{}
		s.clients[client] = cq
	}
	if len(cq.jobs) == 0 {
		s.ring = append(s.ring, client)
	}
	cq.jobs = append(cq.jobs, queuedJob{id: id, cost: jobCost(priority)})
	s.total++
}

// remove drops a pending job from its client's queue (a no-op for a job
// the scheduler does not hold); a client left with nothing pending leaves
// the ring as if drained.
func (s *drrSched) remove(client, id string) {
	cq := s.clients[client]
	if cq == nil {
		return
	}
	i := slices.IndexFunc(cq.jobs, func(q queuedJob) bool { return q.id == id })
	if i < 0 {
		return
	}
	cq.jobs = slices.Delete(cq.jobs, i, i+1)
	s.total--
	if len(cq.jobs) > 0 {
		return
	}
	r := slices.Index(s.ring, client)
	s.ring = slices.Delete(s.ring, r, r+1)
	delete(s.clients, client)
	if r < s.cursor {
		s.cursor--
	}
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
}

// len reports the number of pending jobs across all clients.
func (s *drrSched) len() int { return s.total }

// clientLen reports one client's pending-job count (0 for unknown
// clients) — the per-tenant admission bound consults it.
func (s *drrSched) clientLen(client string) int {
	if cq := s.clients[client]; cq != nil {
		return len(cq.jobs)
	}
	return 0
}

// pop releases the next job ID under the DRR discipline. It returns false
// only when nothing is pending.
func (s *drrSched) pop() (string, bool) {
	if s.total == 0 {
		return "", false
	}
	// One lap suffices (the quantum affords every cost, so the first
	// visited client releases); the outer bound is defensive against a
	// quantum/cost invariant break.
	for lap := 0; lap <= len(s.ring); lap++ {
		for n := len(s.ring); n > 0; n-- {
			cq := s.clients[s.ring[s.cursor]]
			if !cq.charged {
				cq.deficit += drrQuantum
				cq.charged = true
			}
			if cq.deficit >= cq.jobs[0].cost {
				j := cq.jobs[0]
				cq.deficit -= j.cost
				cq.jobs = cq.jobs[1:]
				s.total--
				if len(cq.jobs) == 0 {
					s.retireCursor()
				}
				return j.id, true
			}
			// Visit over: the head job is dearer than the accumulated
			// deficit. Keep the deficit, drop the visit credit marker.
			cq.charged = false
			s.cursor = (s.cursor + 1) % len(s.ring)
		}
	}
	return "", false
}

// retireCursor removes the (drained) client under the cursor from the
// ring, resetting its deficit by dropping the entry entirely — an idle
// client banks no credit. The cursor lands on the next client in ring
// order.
func (s *drrSched) retireCursor() {
	delete(s.clients, s.ring[s.cursor])
	s.ring = append(s.ring[:s.cursor], s.ring[s.cursor+1:]...)
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
}
