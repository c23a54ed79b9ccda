package durable

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tbpoint/internal/faultcheck"
)

// KindCheckpoint is the envelope kind of checkpoint-store cell files.
const KindCheckpoint = "checkpoint-cell"

// ckptExt is the checkpoint file suffix; quarantined files gain ".corrupt".
const (
	ckptExt       = ".ckpt"
	quarantineExt = ".corrupt"
)

// WriteFault is the fault-injection seam consulted before every journal
// write; *faultcheck.Injector satisfies it. It is the repository's one way
// to inject a failure: tests arm it in-process, ArmCrashHook from the
// environment.
type WriteFault interface{ Fire() error }

// CrashHookEnv names the environment variable ArmCrashHook reads.
const CrashHookEnv = "TBPOINT_CRASH_AFTER_CHECKPOINTS"

// cellRecord is a checkpoint file's payload: the cell key in the clear (so
// hash collisions and misfiled entries are detectable) plus the journaled
// result.
type cellRecord struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Store is a crash-safe checkpoint journal: one envelope file per recorded
// cell, written atomically, keyed by an arbitrary string (the experiment
// grids use grid/cell/config-hash keys). Open scans the directory once;
// corrupted or truncated entries are quarantined — renamed aside, never
// trusted — and simply count as missing.
//
// A nil *Store is the disabled journal: Get always misses and Put is a
// no-op, so callers thread a store through unconditionally. Get and Put are
// safe for concurrent use by grid workers.
//
// SetMaxBytes turns the store into a bounded LRU cache: the on-disk bytes
// of live entries are accounted per key, and writes that push the total
// over the budget evict the least-recently-used entries (their files are
// deleted). An evicted key simply misses again — callers recompute and
// re-publish, which is exactly the checkpoint contract — so bounding the
// store can cost work but never correctness.
type Store struct {
	dir string

	// Fault, when non-nil, is fired before every journal write. The chaos
	// suites set it directly and ArmCrashHook from the environment; always
	// nil in normal operation.
	Fault WriteFault

	mu          sync.Mutex
	cells       map[string][]byte
	writes      int64
	quarantined int

	// Bounded-cache state: per-key on-disk size, total, budget (0 =
	// unbounded), and the recency list (front = least recently used).
	sizes     map[string]int64
	curBytes  int64
	maxBytes  int64
	lru       *list.List               // of string keys
	elems     map[string]*list.Element // key -> lru element
	evictions int64
}

// Open creates (if needed) and scans a checkpoint directory. Unreadable
// entries are quarantined in place; Open fails only when the directory
// itself cannot be created or listed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		cells: map[string][]byte{},
		sizes: map[string]int64{},
		lru:   list.New(),
		elems: map[string]*list.Element{},
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		path := filepath.Join(dir, name)
		payload, err := ReadEnvelopeFile(path, KindCheckpoint)
		if err != nil {
			s.quarantine(path)
			continue
		}
		var rec cellRecord
		if json.Unmarshal(payload, &rec) != nil || fileName(rec.Key) != name {
			s.quarantine(path)
			continue
		}
		s.cells[rec.Key] = rec.Data
		if info, err := e.Info(); err == nil {
			s.sizes[rec.Key] = info.Size()
			s.curBytes += info.Size()
		}
	}
	// Recency is unknowable across restarts; seed the LRU in sorted key
	// order so eviction of pre-existing entries is deterministic.
	for _, key := range sortedKeysLocked(s.cells) {
		s.elems[key] = s.lru.PushBack(key)
	}
	return s, nil
}

func sortedKeysLocked(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ArmCrashHook is the binaries' crash hook: when TBPOINT_CRASH_AFTER_CHECKPOINTS
// holds N, the Nth write to s makes the process exit with status 3 before
// anything reaches disk, so exactly N-1 entries survive — a real process
// death at a chosen point, for the crash-and-resume and crash-loop proofs.
// Unset, the store stays unarmed; a value that is not an integer is an
// error. Call it before anything else can write to s.
func (s *Store) ArmCrashHook() error {
	env := os.Getenv(CrashHookEnv)
	if env == "" {
		return nil
	}
	n, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: %v", CrashHookEnv, env, err)
	}
	s.Fault = faultcheck.OnNth(n, faultcheck.Crash).WithCrashHook(func() {
		fmt.Fprintf(os.Stderr, "%s: injected crash at store write %d (%s)\n", filepath.Base(os.Args[0]), n, CrashHookEnv)
		os.Exit(3)
	})
	return nil
}

// quarantine renames a damaged checkpoint aside so it is preserved for
// inspection but never consulted again. Only a rename this process won is
// counted: when several stores scan one directory concurrently (a restart
// racing a still-dying predecessor), whoever loses the rename race finds
// the file already set aside, and each damaged file is counted exactly
// once across all of them.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+quarantineExt) == nil {
		s.quarantined++
	}
}

// fileName derives a checkpoint's file name from its key: keys carry
// slashes and config hashes, so the name is a digest, with the key itself
// recorded inside the envelope.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return fmt.Sprintf("%x%s", sum[:16], ckptExt)
}

// Get returns the journaled data for key, if present. A hit refreshes the
// key's recency, so a bounded store keeps its working set.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.cells[key]
	if e := s.elems[key]; ok && e != nil {
		s.lru.MoveToBack(e)
	}
	return data, ok
}

// Put journals data (which must be valid JSON, as all grid cell results
// are) under key: one atomic, enveloped file write. The
// injected Fault (if any) fires first, so a die-at-Nth-write crash leaves
// exactly N-1 durable cells. A failed write leaves neither a torn file nor
// a stale in-memory entry.
func (s *Store) Put(key string, data []byte) error {
	if s == nil {
		return nil
	}
	if s.Fault != nil {
		if err := s.Fault.Fire(); err != nil {
			return fmt.Errorf("durable: checkpoint %s: %w", fileName(key), err)
		}
	}
	rec, err := json.Marshal(cellRecord{Key: key, Data: json.RawMessage(data)})
	if err != nil {
		return err
	}
	// The entry weighs what the envelope writer produced: a stat after the
	// rename could fail, and weighing the entry 0 would let the store
	// outgrow its byte budget.
	var env bytes.Buffer
	if err := WriteEnvelope(&env, KindCheckpoint, rec); err != nil {
		return err
	}
	if err := WriteFileBytes(filepath.Join(s.dir, fileName(key)), env.Bytes()); err != nil {
		return err
	}
	size := int64(env.Len())
	s.mu.Lock()
	s.cells[key] = append([]byte(nil), data...)
	s.writes++
	s.curBytes += size - s.sizes[key]
	s.sizes[key] = size
	if e := s.elems[key]; e != nil {
		s.lru.MoveToBack(e)
	} else {
		s.elems[key] = s.lru.PushBack(key)
	}
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// evictLocked deletes least-recently-used entries until the store fits its
// byte budget. Eviction only ever removes the live .ckpt file of an entry
// this store owns — quarantined *.corrupt files are never touched, and a
// concurrent Open that loses the race to a just-deleted file fails its
// rename-aside, so an eviction can never masquerade as a quarantine.
// Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.curBytes > s.maxBytes && s.lru.Len() > 0 {
		key := s.lru.Remove(s.lru.Front()).(string)
		// Best-effort file delete: WriteFile's rename made the entry a
		// single file, so Remove is atomic; a missing file (a racing
		// eviction or an external cleanup) leaves nothing to do.
		os.Remove(filepath.Join(s.dir, fileName(key)))
		s.curBytes -= s.sizes[key]
		delete(s.cells, key)
		delete(s.sizes, key)
		delete(s.elems, key)
		s.evictions++
	}
}

// SetMaxBytes bounds the store's on-disk footprint (0 restores the
// unbounded default). Entries already over the budget — e.g. a directory
// inherited from an unbounded run — are evicted immediately.
func (s *Store) SetMaxBytes(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
	s.evictLocked()
}

// Keys returns every loadable cell key, sorted, so journal scans (the job
// server's restart recovery) are deterministic.
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Dir returns the store's directory ("" for the disabled store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Len returns the number of loadable cells (journaled or loaded at Open).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Writes returns the number of successful journal writes this session.
func (s *Store) Writes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Quarantined returns how many damaged files Open renamed aside.
func (s *Store) Quarantined() int {
	if s == nil {
		return 0
	}
	return s.quarantined
}

// SizeBytes returns the accounted on-disk bytes of the live entries.
func (s *Store) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curBytes
}

// Evictions returns how many entries the byte budget has evicted.
func (s *Store) Evictions() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
