package experiments

import (
	"context"
	"time"

	"tbpoint/internal/metrics"
	"tbpoint/internal/stats"
)

// RetryPolicy governs how a failed grid cell is retried before it degrades
// to a CellError. The zero value means one attempt and no retries — the
// pre-retry behaviour.
type RetryPolicy struct {
	// Attempts is the total number of tries per cell (values < 1 mean 1).
	Attempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it. Zero means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 5s.
	MaxDelay time.Duration
	// Seed feeds the deterministic backoff jitter: the same (seed, cell,
	// attempt) triple always yields the same delay, so a retried run is
	// reproducible while concurrent retries still decorrelate.
	Seed uint64
}

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// delay returns the backoff before attempt+1 for the given cell:
// exponential in the attempt number, capped at MaxDelay, with a
// deterministic jitter drawn uniformly from the delay's upper half.
func (p RetryPolicy) delay(cell, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter in [d/2, d]: one SplitMix64 draw seeded by the (seed, cell,
	// attempt) triple, never the wall clock, so chaos runs replay bit-for-bit.
	half := d / 2
	if half > 0 {
		h := stats.NewRNG(p.Seed ^ uint64(cell)<<20 ^ uint64(attempt)).Uint64()
		d = half + time.Duration(h%uint64(half+1))
	}
	return d
}

// runCellWithRetry executes one grid cell under the Options' retry policy
// and per-cell deadline: each attempt runs with panic isolation (runCell),
// failures back off with deterministic jitter, and the whole cell — all
// attempts together — races CellDeadline. Retrying stops early once the
// grid context or the cell deadline is gone; the caller distinguishes the
// two (grid cancellation propagates, a blown cell deadline degrades to a
// CellError like any other cell fault). The returned CellError carries the
// attempt bookkeeping (Attempts, LastDelay, TotalDuration) for the caller
// to complete if the cell failed for good.
func (o Options) runCellWithRetry(cell int, fn func(ctx context.Context) error) (CellError, error) {
	start := time.Now()
	ctx := o.Ctx
	cancel := context.CancelFunc(func() {})
	if o.CellDeadline > 0 {
		base := o.Ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel = context.WithTimeout(base, o.CellDeadline)
	}
	defer cancel()

	var ce CellError
	var err error
	n := o.Retry.attempts()
	for a := 1; a <= n; a++ {
		ce.Attempts = a
		err = runCell(func() error { return fn(ctx) })
		if err == nil || a == n || ctxErr(o.Ctx) != nil || ctxErr(ctx) != nil {
			break
		}
		ce.LastDelay = o.Retry.delay(cell, a)
		o.Metrics.AtomicAdd(metrics.ExpCellRetries, 1)
		if !sleepCtx(ctx, ce.LastDelay) {
			// The deadline (or the grid) died during the backoff; the
			// last real attempt's error stands.
			break
		}
	}
	ce.TotalDuration = time.Since(start)
	return ce, err
}

// sleepCtx sleeps for d, waking early (returning false) when ctx dies.
// A nil ctx sleeps unconditionally.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
