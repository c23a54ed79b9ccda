package durable

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// diskBytes stats the store directory: the bytes of every file in it but
// the damaged ones kept aside — the quantity -cache-max-bytes promises to
// bound.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), quarantineExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func put(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	if err := s.Put(key, []byte(fmt.Sprintf(`{"k":%q,"pad":%q}`, key, strings.Repeat("x", n)))); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

// TestStoreEvictsLRUUnderByteBudget: an append that would take the file
// over the budget compacts it, evicting least-recently-used records until
// the live ones fill at most half the budget; a Get refreshes recency.
func TestStoreEvictsLRUUnderByteBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "warm", 100)
	one := s.SizeBytes()
	if one <= 0 {
		t.Fatalf("SizeBytes = %d after one put", one)
	}
	// Budget for four records of this size; the fifth compacts to two.
	s.SetMaxBytes(4 * one)
	put(t, s, "a", 100)
	put(t, s, "b", 100)
	put(t, s, "c", 100)
	if got := s.Evictions(); got != 0 {
		t.Fatalf("evictions before exceeding budget = %d", got)
	}
	// Refresh "warm" so "a" and "b" are now least recently used.
	if _, ok := s.Get("warm"); !ok {
		t.Fatal("warm missing before eviction")
	}
	put(t, s, "d", 100)
	if got := s.Evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := s.Get(k); ok {
			t.Fatalf("LRU key %s survived eviction", k)
		}
	}
	for _, k := range []string{"warm", "d"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used key %s was evicted", k)
		}
	}
	if disk, acct := diskBytes(t, dir), s.SizeBytes(); disk != acct || disk > 2*one {
		t.Fatalf("disk=%d accounted=%d, want at most half the budget %d", disk, acct, 4*one)
	}
}

// An evicted entry must recompute, never serve stale bytes: after eviction
// the key misses, and a re-Put under the same key returns the new payload.
func TestStoreEvictedEntriesRecomputeNeverStale(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "k", 100)
	size := s.SizeBytes()
	s.SetMaxBytes(size) // exactly one entry of this size fits
	put(t, s, "j", 100)
	if _, ok := s.Get("k"); ok {
		t.Fatal("evicted key k still readable")
	}
	fresh := []byte(`{"version":2}`)
	if err := s.Put("k", fresh); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("re-published key k = %q ok=%v, want %q", got, ok, fresh)
	}
	// The re-Put evicted "j" in turn (budget fits one entry).
	if _, ok := s.Get("j"); ok {
		t.Fatal("j survived over-budget re-publish")
	}
	// A reopen sees only what the bound kept — never a ghost of "k" v1.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok = s2.Get("k")
	if !ok || !bytes.Equal(got, fresh) || s2.Len() != 1 {
		t.Fatalf("reopened key k = %q ok=%v among %d keys, want %q alone", got, ok, s2.Len(), fresh)
	}
	if s2.Quarantined() != 0 {
		t.Fatalf("eviction produced %d quarantined records", s2.Quarantined())
	}
}

// SetMaxBytes on a freshly opened over-budget directory trims it
// immediately to half the budget. Recency after a restart is last-write
// order, so the most recently written keys survive whatever was read
// before the restart, and a damaged log kept aside is left alone.
func TestStoreSetMaxBytesTrimsExistingDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"key4", "key0", "key3", "key1", "key2"} {
		put(t, s, k, 100)
	}
	s.Get("key4") // recency the restart forgets
	per := s.SizeBytes() / 5
	s.Close()

	// Plant a quarantined file; bounding must never delete it.
	qpath := s.path() + quarantineExt
	if err := os.WriteFile(qpath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetMaxBytes(4 * per)
	if got := s2.Evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	for _, k := range []string{"key1", "key2"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("last-written key %s missing", k)
		}
	}
	if disk := diskBytes(t, dir); disk > 2*per || disk != s2.SizeBytes() {
		t.Fatalf("disk %d, accounted %d, want at most %d", disk, s2.SizeBytes(), 2*per)
	}
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantined file touched by eviction: %v", err)
	}
}

// An unbounded store (the default, and every pre-existing caller) never
// evicts regardless of size.
func TestStoreUnboundedNeverEvicts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("key%d", i), 500)
	}
	if s.Evictions() != 0 || s.Len() != 20 {
		t.Fatalf("unbounded store evicted: evictions=%d len=%d", s.Evictions(), s.Len())
	}
}

// SizeBytes is the file's length: through overwrites that grow and shrink
// entries (leaving superseded records in the log), through compactions and
// through evictions, it equals what a stat of the directory reads, and
// under a budget it never exceeds that budget.
func TestStoreSizeMatchesDiskAfterOverwritesAndEvictions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if disk, acct := diskBytes(t, dir), s.SizeBytes(); disk != acct {
			t.Fatalf("%s: disk=%d accounted=%d", when, disk, acct)
		}
	}
	for i := 0; i < 6; i++ {
		put(t, s, fmt.Sprintf("key%d", i), 50*(i+1))
	}
	check("after puts")
	put(t, s, "key1", 900) // grow
	put(t, s, "key4", 1)   // shrink
	put(t, s, "key4", 1)   // same bytes again
	check("after overwrites")
	s.SetMaxBytes(s.SizeBytes() / 2)
	if s.Evictions() == 0 {
		t.Fatal("halving the budget evicted nothing")
	}
	check("after evictions")
	put(t, s, "key0", 700) // re-publish an evicted key, evicting others
	check("after re-publish")
	if s.SizeBytes() > s.maxBytes {
		t.Fatalf("store holds %d bytes, budget %d", s.SizeBytes(), s.maxBytes)
	}
}
