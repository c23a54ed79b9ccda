package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"tbpoint/internal/faultcheck"
)

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("grid/a/123", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("grid/b/456", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("grid/a/123"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("same-session get: %q, %v", got, ok)
	}
	if s.Writes() != 2 || s.Len() != 2 {
		t.Fatalf("writes %d len %d, want 2 2", s.Writes(), s.Len())
	}

	// A fresh open (a resumed process) sees exactly the journaled cells.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || s2.Quarantined() != 0 {
		t.Fatalf("reopen: len %d quarantined %d", s2.Len(), s2.Quarantined())
	}
	if got, ok := s2.Get("grid/b/456"); !ok || string(got) != `{"v":2}` {
		t.Fatalf("reopened get: %q, %v", got, ok)
	}
	if _, ok := s2.Get("grid/never/789"); ok {
		t.Fatal("phantom cell in reopened store")
	}
}

// TestStoreQuarantinesCorruptCheckpoints damages the log three ways — a
// flipped byte inside one record, a line of garbage, a torn last record —
// and checks that a reopening store drops exactly those records, keeps the
// damaged file aside as it was, and serves only the intact cells.
func TestStoreQuarantinesCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, "cell-0", `{"v":0}`, "cell-1", `{"v":"one"}`, "cell-2", `{"v":2}`, "cell-3", `{"v":3}`)
	path := filepath.Join(dir, logName)
	raw := readFile(t, path)
	raw[bytes.Index(raw, []byte("one"))] ^= 0xff
	i := bytes.Index(raw, []byte(`"cell-2"`))
	i = bytes.LastIndexByte(raw[:i], '\n') + 1
	raw = slices.Insert(raw, i, []byte("garbage\n")...)
	raw = raw[:len(raw)-3]
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, s := replay(t, dir)
	if s.Quarantined() != 3 {
		t.Fatalf("quarantined %d, want 3", s.Quarantined())
	}
	wantRecords(t, got, "cell-0", `{"v":0}`, "cell-2", `{"v":2}`)
	// The damaged bytes are preserved aside, not destroyed.
	if aside := readFile(t, path+quarantineExt); !bytes.Equal(aside, raw) {
		t.Errorf("%s holds %q, want the damaged log %q", logName+quarantineExt, aside, raw)
	}
}

// TestStorePutFaultInjection wires the die-at-Nth-write seam: the faulting
// write must fail without journaling anything, while writes before and
// after it land.
func TestStorePutFaultInjection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Fault = faultcheck.OnNth(2, faultcheck.Error)
	if err := s.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte(`2`)); !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("write 2: err = %v, want injected", err)
	}
	if err := s.Put("c", []byte(`3`)); err != nil {
		t.Fatal(err)
	}
	if s.Writes() != 2 {
		t.Fatalf("writes = %d, want 2 (the faulted one must not count)", s.Writes())
	}
	s.Close()
	s2, _ := Open(dir)
	if s2.Len() != 2 {
		t.Fatalf("durable cells = %d, want 2", s2.Len())
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("faulted write left a durable cell")
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("cell-%d", i)
			if err := s.Put(key, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 16 || s.Writes() != 16 {
		t.Fatalf("len %d writes %d, want 16 16", s.Len(), s.Writes())
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if err := s.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store served a cell")
	}
	if s.Len() != 0 || s.Writes() != 0 || s.Quarantined() != 0 || s.Dir() != "" {
		t.Fatal("nil store accessors not zero")
	}
}
