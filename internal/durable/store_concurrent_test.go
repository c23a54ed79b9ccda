package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sync"
	"testing"
)

// These tests pin the store's concurrency contract under -race: the job
// server shares one artifact-cache Store between several dispatcher
// goroutines (concurrent Get/Put, including the same key, under a byte
// budget that compacts the log).

// TestStoreConcurrentPutGet hammers one Store from many goroutines mixing
// same-key and distinct-key traffic. Every Get must observe either a miss
// or one of the values some Put wrote — never a torn or foreign value.
func TestStoreConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A shared key all workers fight over, plus a private one.
				shared := []byte(fmt.Sprintf(`{"worker":%d,"i":%d}`, w, i))
				if err := s.Put("grid/shared", shared); err != nil {
					t.Errorf("put shared: %v", err)
					return
				}
				private := []byte(fmt.Sprintf(`{"value":%d}`, i))
				key := fmt.Sprintf("grid/w%d/%d", w, i)
				if err := s.Put(key, private); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				if got, ok := s.Get(key); !ok || !bytes.Equal(got, private) {
					t.Errorf("get %s = %q, %v; want %q", key, got, ok, private)
					return
				}
				if got, ok := s.Get("grid/shared"); ok {
					var v struct{ Worker, I int }
					if json.Unmarshal(got, &v) != nil {
						t.Errorf("shared key holds torn value %q", got)
						return
					}
				}
				s.Keys()
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Len(), workers*perWorker+1; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	// Exactly one write per Put survived to the in-memory view and disk.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reopened.Len(), workers*perWorker+1; got != want {
		t.Errorf("reopened Len = %d, want %d", got, want)
	}
	if reopened.Quarantined() != 0 {
		t.Errorf("clean concurrent writes quarantined %d files", reopened.Quarantined())
	}
}

// TestStorePutEvictRaceReopens races same-key and distinct-key Puts under
// a budget so tight that most Puts compact. Whatever order they land in,
// the file the live store leaves must replay to exactly what the live
// store held, and stay within the budget.
func TestStorePutEvictRaceReopens(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 512
	s.SetMaxBytes(budget)
	const workers = 6
	const perWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d/%d", w, i)
				if i%2 == 0 {
					key = fmt.Sprintf("shared/%d", i%3)
				}
				if err := s.Put(key, []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				s.Get(fmt.Sprintf("shared/%d", (i+1)%3))
			}
		}(w)
	}
	wg.Wait()
	if s.Evictions() == 0 {
		t.Fatal("the budget never bound; the race is not exercised")
	}
	live := map[string]string{}
	for _, k := range s.Keys() {
		v, _ := s.Get(k)
		live[k] = string(v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := diskBytes(t, s.Dir()); n > budget {
		t.Errorf("the log holds %d bytes, over the %d-byte budget", n, budget)
	}
	got, reopened := replay(t, s.Dir())
	if !maps.Equal(got, live) {
		t.Errorf("reopened store holds %v, the live store held %v", got, live)
	}
	if reopened.Quarantined() != 0 {
		t.Errorf("racing puts left %d damaged records", reopened.Quarantined())
	}
}

// TestStoreNoDoubleExecute models the server's cache discipline end to end:
// two "jobs" (goroutine groups sharing one Store) race over one grid; a
// worker only computes a cell it could not Get. However the race resolves,
// the published value for each key is the deterministic cell result, and a
// third pass performs zero computations.
func TestStoreNoDoubleExecute(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	compute := func(key string) []byte {
		return []byte(fmt.Sprintf(`{"result":%q}`, key)) // deterministic, like a seeded cell
	}
	const cells = 30
	runJob := func() int {
		computed := 0
		for i := 0; i < cells; i++ {
			key := fmt.Sprintf("grid/cell/%d", i)
			if _, ok := s.Get(key); ok {
				continue
			}
			computed++
			if err := s.Put(key, compute(key)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		return computed
	}
	var wg sync.WaitGroup
	first := make([]int, 2)
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			first[j] = runJob()
		}(j)
	}
	wg.Wait()
	// Both jobs together computed every cell at least once; racing jobs may
	// overlap, but identical inputs produce identical bytes, so the journal
	// converges regardless of write order.
	if first[0]+first[1] < cells {
		t.Errorf("jobs computed %d+%d cells, grid has %d", first[0], first[1], cells)
	}
	if again := runJob(); again != 0 {
		t.Errorf("third job recomputed %d cells, want pure cache", again)
	}
	for i := 0; i < cells; i++ {
		key := fmt.Sprintf("grid/cell/%d", i)
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, compute(key)) {
			t.Errorf("cell %s = %q, %v", key, got, ok)
		}
	}
}
