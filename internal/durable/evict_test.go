package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diskCkptBytes sums the on-disk sizes of the store's live .ckpt files —
// the quantity -cache-max-bytes promises to bound.
func diskCkptBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ckptExt) {
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
	// Budget for three entries of this size; the fourth must evict.
	s.SetMaxBytes(3 * one)
	put(t, s, "a", 100)
	put(t, s, "b", 100)
	if got := s.Evictions(); got != 0 {
		t.Fatalf("evictions before exceeding budget = %d", got)
	}
	// Refresh "warm" so "a" is now least recently used.
	if _, ok := s.Get("warm"); !ok {
		t.Fatal("warm missing before eviction")
	}
	put(t, s, "c", 100)
	if got := s.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("LRU key a survived eviction")
	}
	for _, k := range []string{"warm", "b", "c"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used key %s was evicted", k)
		}
	}
	if disk, acct := diskCkptBytes(t, dir), s.SizeBytes(); disk != acct || disk > 3*one {
		t.Fatalf("disk=%d accounted=%d budget=%d", disk, acct, 3*one)
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
	s.SetMaxBytes(size) // exactly one entry fits
	put(t, s, "other", 100)
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
	// The re-Put evicted "other" in turn (budget fits one entry).
	if _, ok := s.Get("other"); ok {
		t.Fatal("other survived over-budget re-publish")
	}
	// A reopen sees only what the bound kept — never a ghost of "k" v1.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get("k")
	if !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("reopened key k = %q ok=%v, want %q", got, ok, fresh)
	}
	if s2.Quarantined() != 0 {
		t.Fatalf("eviction produced %d quarantined files", s2.Quarantined())
	}
}

// SetMaxBytes on a freshly opened over-budget directory trims it
// immediately, deterministically (sorted key order stands in for the
// unknowable pre-restart recency), and leaves quarantined files alone.
func TestStoreSetMaxBytesTrimsExistingDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		put(t, s, fmt.Sprintf("key%d", i), 100)
	}
	per := s.SizeBytes() / 5

	// Plant a quarantined file; bounding must never delete it.
	qpath := filepath.Join(dir, "deadbeef"+ckptExt+quarantineExt)
	if err := os.WriteFile(qpath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetMaxBytes(2 * per)
	if got := s2.Evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	// Sorted order: key0..key2 evicted first.
	for _, k := range []string{"key3", "key4"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("expected survivor %s missing", k)
		}
	}
	if diskCkptBytes(t, dir) > 2*per {
		t.Fatalf("disk %d over budget %d", diskCkptBytes(t, dir), 2*per)
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

// The accounted size is the bytes Put wrote, not a later stat of the file:
// through overwrites that grow and shrink entries and through evictions,
// SizeBytes stays equal to the sum of the live files' sizes.
func TestStoreSizeMatchesDiskAfterOverwritesAndEvictions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if disk, acct := diskCkptBytes(t, dir), s.SizeBytes(); disk != acct {
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
