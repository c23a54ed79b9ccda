package server

// This file is the stuck-job watchdog: a supervision goroutine that
// periodically fingerprints every running job's progress — the per-phase
// timings and counters of its live collector, the same data GET /jobs/{id}
// streams — and cancels, with the distinguished ErrStuck cause, any job
// whose fingerprint has not moved for Config.StuckAfter. The cancelled run
// unwinds through the ordinary abort path and terminally fails as "stuck",
// so a wedged job (a deadlocked epoch barrier, a hung dependency) costs one
// detection window instead of a dispatcher slot forever.
//
// The watchdog never kills goroutines — it cannot. It relies on the
// cooperative cancellation the whole stack already honors (cells poll their
// context at unit boundaries), which is also why StuckAfter must be chosen
// generously: a single long-running cell records no phase transitions while
// it works, and the fingerprint only moves when the collector does.

import (
	"errors"
	"hash/fnv"
	"math"
	"time"

	"tbpoint/internal/metrics"
)

// ErrStuck is the cancellation cause the watchdog attaches when it kills a
// run for making no progress; runJob translates it into the terminal
// failed(stuck) verdict.
var ErrStuck = errors.New("server: job made no progress within the stuck-after window")

// progressMark is one watchdog observation of a running job: the progress
// fingerprint and when it was first seen.
type progressMark struct {
	fp uint64
	at time.Time
}

// watchdogLoop ticks checkStuck every StuckAfter/4 until the driver closes.
// Started by Open when Config.StuckAfter > 0. The 10ms floor keeps a tiny
// StuckAfter from turning the watchdog into a busy loop.
func (d *Driver) watchdogLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(max(d.cfg.StuckAfter/4, 10*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-ticker.C:
			d.checkStuck(time.Now())
		}
	}
}

// checkStuck is one watchdog pass at the given instant: it refreshes every
// running job's progress mark and cancels (cause ErrStuck) those stale for
// at least Config.StuckAfter. The clock arrives as a parameter so the
// staleness logic is testable against a fake clock. Returns the IDs it
// cancelled this pass.
func (d *Driver) checkStuck(now time.Time) []string {
	after := d.cfg.StuckAfter
	if after <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var stuck []string
	for _, id := range d.order {
		j := d.jobs[id]
		if j.rec.State != StateRunning || j.mc == nil {
			j.progress = progressMark{}
			continue
		}
		fp := progressFingerprint(j.mc.Snapshot())
		if j.progress.at.IsZero() || j.progress.fp != fp {
			j.progress = progressMark{fp: fp, at: now}
			continue
		}
		if now.Sub(j.progress.at) >= after && j.cancel != nil {
			d.logf("watchdog: job %s made no progress for >= %s, cancelling as stuck", id, after)
			j.cancel(ErrStuck) // only closes the run context; the aborted run names evStuck
			stuck = append(stuck, id)
			// Reset the mark so a job that somehow survives the cancel is
			// not re-cancelled every subsequent tick.
			j.progress = progressMark{}
		}
	}
	return stuck
}

// progressFingerprint condenses a live collector snapshot into one value
// that changes whenever the job does anything observable: any counter
// increment, any phase start-to-stop transition. Phases arrive sorted and
// counter maps are hashed in Snapshot's deterministic name order, so equal
// snapshots always produce equal fingerprints.
func progressFingerprint(s metrics.Snapshot) uint64 {
	h := fnv.New64a()
	b := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b)
	}
	// Counters: iterate the full registered set in ID order rather than
	// ranging the map, so the hash order is deterministic without sorting.
	for i := metrics.Counter(0); i < metrics.NumCounters; i++ {
		if v, ok := s.Counters[i.Name()]; ok {
			put(uint64(i))
			put(v)
		}
	}
	for _, p := range s.Phases {
		h.Write([]byte(p.Name))
		put(uint64(p.Count))
		put(math.Float64bits(p.Seconds))
	}
	return h.Sum64()
}
