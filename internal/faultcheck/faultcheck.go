// Package faultcheck provides deterministic, seeded fault injection for
// the chaos tests: an Injector counts the calls made at one injection
// point and fires exactly one fault — an error, a panic, or a crash — at a
// chosen (or seeded) call index.
//
// Everything is deterministic: the faulting call index is fixed at
// construction (OnNth) or derived from a seed with one stats.RNG draw
// (Seeded), never from wall clock or global randomness, so a failing chaos
// run reproduces bit-for-bit. Injectors are safe for concurrent use — the
// call counter is atomic, so exactly one call observes the fault no matter
// how many goroutines share the injection point.
//
// Typical use:
//
//	inj := faultcheck.OnNth(3, faultcheck.Error)
//	err := par.ForEach(16, func(i int) error { return inj.Fire() })
//	// exactly one index failed with faultcheck.ErrInjected
package faultcheck

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"tbpoint/internal/stats"
)

// Mode selects what the injector does on the faulting call.
type Mode int

const (
	// Error makes Fire return ErrInjected (wrapped with the call index).
	Error Mode = iota
	// Panic makes Fire panic with a faultcheck-tagged message.
	Panic
	// Crash makes Fire invoke the configured crash hook (default: a
	// faultcheck-tagged panic; WithCrashHook can substitute os.Exit to kill
	// the process for real). It models die-at-Nth-write process death for
	// the crash-recovery chaos suite.
	Crash
)

func (m Mode) String() string {
	switch m {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ErrInjected is the sentinel all injected errors wrap; test assertions
// use errors.Is against it.
var ErrInjected = errors.New("faultcheck: injected fault")

// Injector fires one fault at a fixed call index. The zero value is
// unusable; construct with OnNth or Seeded. A nil *Injector is the
// disabled injector: Fire is a no-op returning nil, so production seams
// can consult an injector variable unconditionally.
type Injector struct {
	mode  Mode
	nth   int64 // everyCall means every Fire faults (see Always)
	crash func()
	calls atomic.Int64
	fired atomic.Int64
}

// everyCall is the nth sentinel for Always-mode injectors.
const everyCall = -1

// OnNth returns an injector that faults on the nth Fire call (1-based;
// n < 1 is clamped to 1).
func OnNth(n int64, mode Mode) *Injector {
	if n < 1 {
		n = 1
	}
	return &Injector{mode: mode, nth: n}
}

// Seeded returns an injector whose faulting call index is derived
// deterministically from seed, uniform over [1, span] (span < 1 is
// clamped to 1). Sweeping seeds moves the fault around the call space
// without any test-side bookkeeping.
func Seeded(seed uint64, span int64, mode Mode) *Injector {
	if span < 1 {
		span = 1
	}
	return OnNth(1+int64(stats.NewRNG(seed).Uint64()%uint64(span)), mode)
}

// Always returns an injector that faults on every Fire call — a
// deterministically *persistent* failure (where OnNth's fire-exactly-once
// models a transient one); its Calls count shows how often a failing call
// site was tried.
func Always(mode Mode) *Injector {
	return &Injector{mode: mode, nth: everyCall}
}

// WithCrashHook sets what a Crash-mode injector does on the faulting call
// (default: panic). The store's crash hook (durable.Store.ArmCrashHook)
// passes os.Exit so the process dies for real; tests keep the panic and
// recover it.
func (in *Injector) WithCrashHook(fn func()) *Injector {
	in.crash = fn
	return in
}

// Nth returns the 1-based call index the injector faults at.
func (in *Injector) Nth() int64 { return in.nth }

// Fire counts one call at the injection point and, on the faulting call,
// applies the configured fault: Error mode returns an error wrapping
// ErrInjected, Panic mode panics, Crash mode runs the crash hook. Every
// other call returns nil immediately. Nil receivers always return nil.
func (in *Injector) Fire() error {
	if in == nil {
		return nil
	}
	call := in.calls.Add(1)
	if in.nth != everyCall && call != in.nth {
		return nil
	}
	in.fired.Add(1)
	switch in.mode {
	case Panic:
		panic(fmt.Sprintf("faultcheck: injected panic at call %d", call))
	case Crash:
		if in.crash != nil {
			in.crash()
			return nil
		}
		panic(fmt.Sprintf("faultcheck: injected crash at call %d", call))
	default:
		return fmt.Errorf("%w (call %d)", ErrInjected, call)
	}
}

// Calls returns the number of Fire calls made so far.
func (in *Injector) Calls() int64 {
	if in == nil {
		return 0
	}
	return in.calls.Load()
}

// Fired reports whether the fault has been applied.
func (in *Injector) Fired() bool {
	if in == nil {
		return false
	}
	return in.fired.Load() > 0
}

// faultyReader consults an injector before every Read, modelling a storage
// layer that fails mid-stream.
type faultyReader struct {
	r  io.Reader
	in *Injector
}

// Reader wraps r so that every Read first consults the injector: on the
// faulting call an Error-mode injector fails the read and a Panic-mode one
// panics. Used to chaos-test the persist readers against mid-stream I/O
// failure.
func Reader(r io.Reader, in *Injector) io.Reader {
	return &faultyReader{r: r, in: in}
}

func (f *faultyReader) Read(p []byte) (int, error) {
	if err := f.in.Fire(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// faultyWriter consults an injector before every Write; the faulting write
// is short — only half the buffer reaches the underlying writer before the
// error — modelling the torn write a crashing process leaves behind.
type faultyWriter struct {
	w  io.Writer
	in *Injector
}

// Writer wraps w so that the injector's faulting call becomes a
// truncating/short write: half of p is written through, then the fault is
// returned. Used to chaos-test the durable write path against mid-write
// failure.
func Writer(w io.Writer, in *Injector) io.Writer {
	return &faultyWriter{w: w, in: in}
}

func (f *faultyWriter) Write(p []byte) (int, error) {
	if err := f.in.Fire(); err != nil {
		n := len(p) / 2
		if n > 0 {
			if wn, werr := f.w.Write(p[:n]); werr != nil {
				return wn, werr
			}
		}
		return n, err
	}
	return f.w.Write(p)
}
