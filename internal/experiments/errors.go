package experiments

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"tbpoint/internal/par"
)

// CellError records one failed cell of an experiments grid. A faulty cell —
// an error or even a panic inside one benchmark/configuration — degrades to
// an entry here while the rest of the grid completes; the harness surfaces
// the list as the "errors" section of results.json.
type CellError struct {
	// Grid names the grid the cell belonged to ("accuracy", "sensitivity").
	Grid string `json:"grid"`
	// Cell identifies the cell (benchmark name, or benchmark/config).
	Cell string `json:"cell"`
	// Err is the cell's error text.
	Err string `json:"err"`
	// Stack is the panicking goroutine's stack when the failure was a panic
	// (empty for ordinary errors).
	Stack string `json:"stack,omitempty"`
	// Attempts is how many times the cell was tried before giving up, so a
	// transient fault (succeeds on retry, never lands here) is
	// distinguishable from a deterministic one (fails every attempt).
	Attempts int `json:"attempts,omitempty"`
	// LastDelay is the final backoff slept between attempts, in
	// nanoseconds (zero when the cell never retried).
	LastDelay time.Duration `json:"lastDelayNs,omitempty"`
	// TotalDuration is the cell's wall time across all attempts, in
	// nanoseconds.
	TotalDuration time.Duration `json:"totalDurationNs,omitempty"`
}

// runCell executes one grid cell with panic isolation: a panic becomes a
// *par.PanicError return. par's own worker-level recovery would only
// surface the lowest-index panic of a loop; recovering per cell lets every
// faulty cell be recorded individually. A *par.PanicError re-raised from a
// nested fan-out (FullAppCtx, funcsim.ProfileApp) is kept as is: its stack
// is the goroutine that actually panicked.
func runCell(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*par.PanicError)
			if !ok {
				pe = &par.PanicError{Value: r, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	return fn()
}

// ctxErr is ctx.Err for possibly-nil contexts.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// isCancellation distinguishes "the run is being torn down" from a genuine
// per-cell fault: cancellation propagates and aborts the grid, cell faults
// degrade to CellError entries.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// failed completes the CellError of a cell that failed for good with err:
// its text, and the panicking goroutine's stack when it was a panic.
func (ce CellError) failed(grid, cell string, err error) *CellError {
	ce.Grid, ce.Cell, ce.Err = grid, cell, err.Error()
	var pe *par.PanicError
	if errors.As(err, &pe) {
		ce.Stack = string(pe.Stack)
	}
	return &ce
}
