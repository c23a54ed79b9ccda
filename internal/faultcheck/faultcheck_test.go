package faultcheck

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestOnNthFiresExactlyOnce(t *testing.T) {
	in := OnNth(3, Error)
	var failed []int
	for i := 0; i < 10; i++ {
		if err := in.Fire(); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("error does not wrap ErrInjected: %v", err)
			}
			failed = append(failed, i)
		}
	}
	if len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("faults at calls %v, want exactly call index 2 (3rd call)", failed)
	}
	if in.Calls() != 10 {
		t.Fatalf("Calls() = %d, want 10", in.Calls())
	}
	if !in.Fired() {
		t.Fatal("Fired() = false after fault")
	}
}

func TestOnNthClampsBelowOne(t *testing.T) {
	in := OnNth(-5, Error)
	if in.Nth() != 1 {
		t.Fatalf("Nth() = %d, want 1", in.Nth())
	}
	if err := in.Fire(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first call err = %v, want ErrInjected", err)
	}
}

func TestPanicMode(t *testing.T) {
	in := OnNth(1, Panic)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Panic mode did not panic")
		} else if s, ok := r.(string); !ok || !strings.Contains(s, "faultcheck") {
			t.Fatalf("panic value %v not faultcheck-tagged", r)
		}
	}()
	_ = in.Fire()
}

func TestSeededIsDeterministicAndInRange(t *testing.T) {
	const span = 17
	for seed := uint64(0); seed < 50; seed++ {
		a, b := Seeded(seed, span, Error), Seeded(seed, span, Error)
		if a.Nth() != b.Nth() {
			t.Fatalf("seed %d: Nth differs between constructions: %d vs %d", seed, a.Nth(), b.Nth())
		}
		if a.Nth() < 1 || a.Nth() > span {
			t.Fatalf("seed %d: Nth %d outside [1,%d]", seed, a.Nth(), span)
		}
	}
	// Consecutive seeds should not all collapse to one index.
	hits := map[int64]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		hits[Seeded(seed, span, Error).Nth()] = true
	}
	if len(hits) < 2 {
		t.Fatalf("50 seeds over span %d produced only %d distinct indices", span, len(hits))
	}
	// One stats.RNG draw picks the index; these values predate that and pin
	// every seeded chaos sweep across the change of helper.
	for _, c := range []struct {
		seed      uint64
		span, nth int64
	}{{0, 17, 13}, {1, 17, 11}, {7, 100, 88}, {42, 1000, 414}, {1 << 40, 3, 1}, {12345, 1 << 30, 701567393}} {
		if got := Seeded(c.seed, c.span, Error).Nth(); got != c.nth {
			t.Errorf("Seeded(%d, %d).Nth() = %d, want the recorded %d", c.seed, c.span, got, c.nth)
		}
	}
}

func TestConcurrentFireIsExactlyOnce(t *testing.T) {
	in := OnNth(40, Error)
	var wg sync.WaitGroup
	var mu sync.Mutex
	faults := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := in.Fire(); err != nil {
					mu.Lock()
					faults++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if faults != 1 {
		t.Fatalf("%d faults across 80 concurrent calls, want exactly 1", faults)
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	for i := 0; i < 3; i++ {
		if err := in.Fire(); err != nil {
			t.Fatalf("nil injector Fire() = %v, want nil", err)
		}
	}
	if in.Calls() != 0 || in.Fired() {
		t.Fatal("nil injector reported activity")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Error: "error", Panic: "panic", Crash: "crash", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestCrashModeDefaultPanics(t *testing.T) {
	in := OnNth(1, Crash)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Crash mode without a crash hook did not panic")
		} else if s, ok := r.(string); !ok || !strings.Contains(s, "injected crash") {
			t.Fatalf("panic value %v not crash-tagged", r)
		}
	}()
	_ = in.Fire()
}

func TestCrashModeRunsCrashHook(t *testing.T) {
	died := false
	in := OnNth(2, Crash).WithCrashHook(func() { died = true })
	if err := in.Fire(); err != nil || died {
		t.Fatalf("first call: err %v died %v", err, died)
	}
	if err := in.Fire(); err != nil {
		t.Fatalf("crash fn call returned error: %v", err)
	}
	if !died {
		t.Fatal("crash hook not invoked on the faulting call")
	}
	if !in.Fired() {
		t.Fatal("Fired() = false after crash")
	}
	// Past the faulting call, the injector goes quiet again.
	died = false
	if err := in.Fire(); err != nil || died {
		t.Fatalf("post-crash call: err %v died %v", err, died)
	}
}

func TestAlwaysFiresEveryCall(t *testing.T) {
	in := Always(Error)
	for i := 0; i < 5; i++ {
		if err := in.Fire(); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want persistent ErrInjected", i, err)
		}
	}
	if in.Calls() != 5 || !in.Fired() {
		t.Fatalf("Calls() = %d Fired() = %v after 5 persistent faults", in.Calls(), in.Fired())
	}
}

// TestWriterShortWrite pins the torn-write model: the faulting Write pushes
// exactly half the buffer through before failing, and the writer recovers
// for subsequent calls.
func TestWriterShortWrite(t *testing.T) {
	var sink strings.Builder
	w := Writer(&sink, OnNth(2, Error))
	if _, err := w.Write([]byte("aaaa")); err != nil {
		t.Fatalf("first write failed early: %v", err)
	}
	n, err := w.Write([]byte("bbbb"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("faulting write err = %v, want ErrInjected", err)
	}
	if n != 2 {
		t.Fatalf("faulting write reported n = %d, want the short half 2", n)
	}
	if _, err := w.Write([]byte("cccc")); err != nil {
		t.Fatalf("post-fault write failed: %v", err)
	}
	if got := sink.String(); got != "aaaabbcccc" {
		t.Fatalf("sink holds %q, want %q (torn middle write)", got, "aaaabbcccc")
	}
}

func TestWriterCleanWhenInjectorNil(t *testing.T) {
	var sink strings.Builder
	w := Writer(&sink, nil)
	if _, err := w.Write([]byte("hello")); err != nil || sink.String() != "hello" {
		t.Fatalf("clean writer: %q, %v", sink.String(), err)
	}
}
