// Package par provides the process-wide worker budget the harness uses to
// fan independent simulations out over CPUs.
//
// Every parallel loop in the repository — benchmark grids in
// internal/experiments, per-launch profiling in internal/funcsim, per-launch
// full-app simulation, the representative simulations inside core.Retarget —
// draws extra workers from one shared budget instead of each spawning its
// own pool. Nested fan-outs therefore never multiply: a benchmark grid
// running B cells that each simulate L launches uses at most Limit
// goroutines in total, not B*L.
//
// The scheme is caller-runs: ForEach always executes work on the calling
// goroutine, and only *extra* workers consume budget tokens. A caller is
// either the user's goroutine or an extra that already holds a token, so
// total concurrency never exceeds Limit, and with Limit 1 every loop in the
// process degrades to plain sequential in-index-order execution — which is
// what the determinism tests pin against.
//
// Two failure-isolation guarantees hold on every path:
//
//   - A panicking task never kills the process from an extra-worker
//     goroutine: panics are recovered at the task boundary and surface as a
//     *PanicError carrying the panic value and stack, ranked like any other
//     task error.
//   - ForEachCtx stops claiming new indices once its context is cancelled.
//     Tasks already running finish (fn is never interrupted mid-flight),
//     all extra workers are joined before return, and the loop reports the
//     lowest-index task error, or the context's error if no task failed.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tbpoint/internal/metrics"
)

var (
	mu   sync.Mutex
	lim  int // 0 => GOMAXPROCS
	used int // extra workers currently running
)

// Package-wide utilisation statistics. These are cumulative since process
// start (or the last ResetStats) and are maintained with atomics because
// loops run concurrently; read them through StatsInto.
var (
	statLoops        atomic.Int64 // loops that acquired at least one extra worker
	statTasks        atomic.Int64 // fn invocations across all loops
	statExtraWorkers atomic.Int64 // extra-worker goroutines spawned
	statDenied       atomic.Int64 // tryAcquire calls rejected by the budget
)

// PanicError is a task panic converted to an error at the worker boundary.
// Recovering here (rather than letting the panic unwind) is load-bearing:
// a panic on an extra-worker goroutine has no caller frame to recover it
// and would kill the whole process. Stack is the panicking goroutine's
// stack, captured at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task panicked: %v", e.Value)
}

// StatsInto adds the package's cumulative utilisation counters to c:
// par.loops, par.tasks, par.extra_workers and par.acquire_denied. A nil
// collector is a no-op. Pair with ResetStats to scope the numbers to one
// experiment.
func StatsInto(c *metrics.Collector) {
	if c == nil {
		return
	}
	c.Add(metrics.ParLoops, uint64(statLoops.Load()))
	c.Add(metrics.ParTasks, uint64(statTasks.Load()))
	c.Add(metrics.ParExtraWorkers, uint64(statExtraWorkers.Load()))
	c.Add(metrics.ParAcquireDenied, uint64(statDenied.Load()))
}

// ResetStats zeroes the cumulative utilisation counters.
func ResetStats() {
	statLoops.Store(0)
	statTasks.Store(0)
	statExtraWorkers.Store(0)
	statDenied.Store(0)
}

// SetLimit sets the shared worker budget. Zero (the default) means
// GOMAXPROCS; one disables parallelism entirely; negative values are
// clamped to one (sequential) rather than silently meaning "GOMAXPROCS".
// Loops already in flight keep the workers they hold, but acquire no new
// ones beyond the new limit.
func SetLimit(n int) {
	if n < 0 {
		n = 1
	}
	mu.Lock()
	lim = n
	mu.Unlock()
}

// Limit reports the effective budget (GOMAXPROCS when unset).
func Limit() int {
	mu.Lock()
	defer mu.Unlock()
	return effLimit()
}

func effLimit() int {
	if lim > 0 {
		return lim
	}
	return runtime.GOMAXPROCS(0)
}

// tryAcquire reserves one extra-worker token; the caller's own goroutine is
// budget-free, so a limit of L admits L-1 extras.
func tryAcquire() bool {
	mu.Lock()
	defer mu.Unlock()
	if used >= effLimit()-1 {
		statDenied.Add(1)
		return false
	}
	used++
	return true
}

func release() {
	mu.Lock()
	used--
	mu.Unlock()
}

// invoke runs one task, converting a panic into a *PanicError so that a
// faulty task degrades to an ordinary per-index error on every execution
// path (caller-runs and extra-worker alike).
func invoke(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ForEach runs fn(i) for every i in [0, n), fanning out over the shared
// worker budget. It always runs work on the calling goroutine and never
// blocks waiting for budget: if no extra workers are available the loop is
// simply sequential. All indices are attempted even after a failure (so
// result slices are fully populated and no goroutine leaks), and the
// returned error is the one from the LOWEST failing index — deterministic
// regardless of worker interleaving. A panicking task surfaces as a
// *PanicError at its index instead of crashing the process.
func ForEach(n int, fn func(i int) error) error {
	return forEach(nil, n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is
// cancelled no new index is claimed, in-flight tasks run to completion,
// and all extra workers are joined before return. The returned error is
// the lowest-index task error if any task failed, else ctx.Err() if the
// loop was cut short, else nil. A nil ctx behaves exactly like ForEach.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return forEach(ctx, n, fn)
}

func forEach(ctx context.Context, n int, fn func(i int) error) error {
	cancelled := func() bool {
		return ctx != nil && ctx.Err() != nil
	}
	if n <= 0 {
		return nil
	}
	if cancelled() {
		return ctx.Err()
	}
	if n == 1 {
		statTasks.Add(1)
		return invoke(fn, 0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for !cancelled() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			statTasks.Add(1)
			errs[i] = invoke(fn, i)
		}
	}
	var wg sync.WaitGroup
	fanned := false
	for k := 1; k < n && !cancelled() && tryAcquire(); k++ {
		fanned = true
		statExtraWorkers.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	if fanned {
		statLoops.Add(1)
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled() {
		return ctx.Err()
	}
	return nil
}
