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
	// TotalDuration is the cell's wall time, in nanoseconds.
	TotalDuration time.Duration `json:"totalDurationNs,omitempty"`
}

// runCell executes one grid cell exactly once (a cell is deterministic, so a
// second attempt could only repeat its failure) with panic isolation. A
// panic becomes a *par.PanicError return, so every faulty cell is recorded,
// not only par's lowest-index one; one re-raised from a nested fan-out
// (FullAppCtx, funcsim.ProfileApp) keeps the stack of the goroutine that
// panicked.
func (o Options) runCell(fn func(Options) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*par.PanicError)
			if !ok {
				pe = &par.PanicError{Value: r, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	return fn(o)
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

// cellError records a cell that failed with err after running for took: its
// text, and the panicking goroutine's stack when it was a panic.
func cellError(grid, cell string, err error, took time.Duration) *CellError {
	ce := CellError{Grid: grid, Cell: cell, Err: err.Error(), TotalDuration: took}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		ce.Stack = string(pe.Stack)
	}
	return &ce
}
