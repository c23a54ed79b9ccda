package durable

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"tbpoint/internal/faultcheck"
)

const (
	// CrashHookEnv names the environment variable ArmCrashHook reads.
	CrashHookEnv = "TBPOINT_CRASH_AFTER_CHECKPOINTS"

	// The log's file name in a store's directory, and the suffix of
	// damaged bytes kept aside.
	logName, quarantineExt = "journal.log", ".corrupt"
)

// WriteFault is the repository's one fault-injection seam, fired before
// every store write; *faultcheck.Injector satisfies it.
type WriteFault interface{ Fire() error }

// cellRecord is a record's payload, and a live record in the recency
// list: the key in the clear, so a record is only ever read back under
// its own key, and its data.
type cellRecord struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
	line int64           // the length of its line in the log; writers own it
}

// Store is a crash-safe keyed store kept as one append-only file,
// <dir>/journal.log: the experiment grids' -resume checkpoints, the job
// server's artifact cache and its job journal. A record is one line,
// "<size> <crc32c> <payload>\n", where payload is the JSON cellRecord,
// size its length and crc32c its CRC-32C in eight hex digits. Put appends
// one record and fsyncs the file; Open replays it, the last record of a
// key winning. SetMaxBytes bounds the file.
//
// One process owns a store directory. A nil *Store is the disabled store:
// Get always misses and Put is a no-op. All methods are safe for
// concurrent use, and a Get never waits on a Put's fsync.
type Store struct {
	dir string

	// Fault, when non-nil, is fired before every Put writes anything;
	// tests set it, ArmCrashHook arms it from the environment.
	Fault WriteFault

	// wmu serialises writers (appends, compactions, Close) and owns f,
	// broken and maxBytes.
	wmu      sync.Mutex
	f        *os.File // the log, open for appending; nil once closed
	broken   error    // a failed write that could not be rolled back
	maxBytes int64    // the file's byte budget (0 = unbounded)

	// mu guards what readers see; writers change it holding wmu too.
	mu          sync.Mutex
	lru         *list.List               // of *cellRecord, front = least recently used
	elems       map[string]*list.Element // key -> its element in lru
	size        int64                    // the file's length
	writes      int64
	evictions   int64
	quarantined int
}

// Open creates (if needed) the store in dir and replays its log. A torn
// tail, or any line that fails its check, loses only that record: Open
// counts it in Quarantined and keeps the raw file as journal.log.corrupt.
// When the log holds superseded or damaged records, Open compacts it. A
// directory holding *.ckpt files, an older store's per-file format, is
// refused before anything in it is read or written. Otherwise Open fails
// only on I/O.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if old, _ := fs.Glob(os.DirFS(dir), "*.ckpt"); len(old) > 0 { // the pattern is valid
		return nil, fmt.Errorf("durable: %s holds %d *.ckpt file(s) such as %s: an older store format that this build does not read", dir, len(old), old[0])
	}
	s := &Store{dir: dir, lru: list.New(), elems: map[string]*list.Element{}}
	raw, err := os.ReadFile(s.path())
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	good := 0
	for off := 0; off < len(raw); {
		line := raw[off:]
		if n := bytes.IndexByte(line, '\n'); n >= 0 {
			line = line[:n+1]
		}
		off += len(line)
		if rec, ok := decodeRecord(line); ok {
			rec.line = int64(len(line))
			s.setLocked(&rec)
			s.size += rec.line
			good++
		} else {
			s.quarantined++
		}
	}
	if s.quarantined > 0 {
		if err := WriteFileBytes(s.path()+quarantineExt, raw); err != nil {
			return nil, err
		}
	} else if good == len(s.elems) {
		if err := s.reopen(); err != nil {
			return nil, err
		}
		syncDir(dir) // a log Open created must survive a crash too
		return s, nil
	}
	if err := s.compact(nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) path() string { return filepath.Join(s.dir, logName) }

// ArmCrashHook is the binaries' crash hook: when CrashHookEnv holds N, the
// Nth Put to s exits the process with status 3 before anything reaches
// disk, so exactly N-1 records survive — a real death at a chosen point.
// Unset, s stays unarmed; a value that is not an integer is an error.
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

// encodeRecord renders one log line.
func encodeRecord(key string, data []byte) ([]byte, error) {
	payload, err := json.Marshal(cellRecord{Key: key, Data: json.RawMessage(data)})
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%d %08x %s\n", len(payload), crc32.Checksum(payload, castagnoli), payload), nil
}

// decodeRecord checks and parses one log line (with its newline): the
// size and checksum must be exactly what encodeRecord wrote for the
// payload, and the payload must name a key.
func decodeRecord(line []byte) (cellRecord, bool) {
	var rec cellRecord
	body, ok := bytes.CutSuffix(line, []byte("\n")) // a torn line has none
	size, rest, _ := bytes.Cut(body, []byte(" "))
	sum, payload, _ := bytes.Cut(rest, []byte(" "))
	ok = ok && string(size) == strconv.Itoa(len(payload)) &&
		string(sum) == fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli)) &&
		json.Unmarshal(payload, &rec) == nil && rec.Key != "" && len(rec.Data) > 0
	return rec, ok
}

// Get returns the data last put under key, if present. A hit refreshes
// the key's recency, so a bounded store keeps its working set.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.elems[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToBack(el)
	return el.Value.(*cellRecord).Data, true
}

// Put stores data (valid JSON) under key and fsyncs it before returning:
// one appended record, or a compaction when the append would take the
// file over its budget. The Fault fires first. A failed append is cut back
// off the file; if even that fails, every later Put fails too.
func (s *Store) Put(key string, data []byte) error {
	if s == nil {
		return nil
	}
	if s.Fault != nil {
		if err := s.Fault.Fire(); err != nil {
			return fmt.Errorf("durable: %s: put %s: %w", s.path(), key, err)
		}
	}
	line, err := encodeRecord(key, data)
	if err != nil {
		return err
	}
	e := &cellRecord{Key: key, Data: append(json.RawMessage(nil), data...), line: int64(len(line))}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	switch {
	case s.broken != nil:
		return s.broken
	case s.f == nil:
		return os.ErrClosed
	case s.maxBytes > 0 && s.size+e.line > s.maxBytes:
		return s.compact(e)
	}
	if err := s.append(line); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setLocked(e)
	s.size += e.line
	s.writes++
	return nil
}

// append writes and fsyncs one line, or truncates the file back to its
// last good record. Callers hold wmu.
func (s *Store) append(line []byte) error {
	_, err := s.f.Write(line)
	if err == nil {
		err = s.f.Sync()
	}
	if err == nil {
		return nil
	}
	terr := s.f.Truncate(s.size)
	if terr == nil {
		terr = s.f.Sync()
	}
	if terr != nil {
		s.broken = fmt.Errorf("durable: %s: unusable after a failed append (%v): %w", s.path(), err, terr)
	}
	return err
}

// compact is the store's only rewrite. With add (a Put's new record) as
// the most recent, it evicts least-recently-used records until the live
// ones fill at most half the byte budget — add stays if it alone fits the
// budget — and rewrites the rest, least recent first, through WriteFile.
// Memory changes only once the new file is in place. Callers hold wmu.
func (s *Store) compact(add *cellRecord) error {
	s.mu.Lock()
	keep := make([]*cellRecord, 0, s.lru.Len()+1)
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cellRecord); add == nil || e.Key != add.Key {
			keep = append(keep, e)
		}
	}
	s.mu.Unlock()
	if add != nil {
		keep = append(keep, add)
	}
	var live int64
	for _, e := range keep {
		live += e.line
	}
	evict := 0
	for ; s.maxBytes > 0 && evict < len(keep) && live > s.maxBytes/2; evict++ {
		if keep[evict] == add && live <= s.maxBytes {
			break
		}
		live -= keep[evict].line
	}
	live = 0 // now what the rewrite writes, one record at a time
	err := WriteFile(s.path(), func(w io.Writer) error {
		for _, e := range keep[evict:] {
			line, err := encodeRecord(e.Key, e.Data)
			if err != nil {
				return err
			}
			e.line = int64(len(line))
			live += e.line
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, e := range keep[:evict] {
		s.dropLocked(e.Key)
	}
	if add != nil {
		if evict < len(keep) {
			s.setLocked(add)
		}
		s.writes++
	}
	s.evictions += int64(evict)
	s.size = live
	s.mu.Unlock()
	return s.reopen()
}

// reopen points f at the log file, creating it if needed: a compaction
// renamed a new file over the one f had open. Callers hold wmu.
func (s *Store) reopen() error {
	if s.f != nil {
		s.f.Close() // only ever appended to, and every append was fsynced
	}
	var err error
	if s.f, err = os.OpenFile(s.path(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		s.broken = fmt.Errorf("durable: %s: reopening after a compaction: %w", s.path(), err)
	}
	return err
}

// setLocked makes e the live, most recent record of its key. Callers hold
// mu (or own s alone, as Open does).
func (s *Store) setLocked(e *cellRecord) {
	s.dropLocked(e.Key)
	s.elems[e.Key] = s.lru.PushBack(e)
}

// dropLocked forgets key's record, if any. Callers hold mu.
func (s *Store) dropLocked(key string) {
	if el, ok := s.elems[key]; ok {
		s.lru.Remove(el)
		delete(s.elems, key)
	}
}

// SetMaxBytes bounds the store's file (0 restores the unbounded default):
// when an append would take the file over the budget, the store evicts
// least-recently-used records until the live ones fill at most half the
// budget and rewrites them, least recent first. An evicted key simply
// misses again, so a budget costs work but never correctness. A file
// already over the budget is compacted at once (if that fails, the next
// Put compacts instead).
func (s *Store) SetMaxBytes(n int64) {
	if s == nil {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.maxBytes = n
	if n > 0 && s.SizeBytes() > n && s.f != nil && s.broken == nil {
		s.compact(nil)
	}
}

// Keys returns every live key, sorted, so replays are deterministic.
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.elems))
	for k := range s.elems {
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

// read returns what field reads under mu; 0 for the disabled store.
func (s *Store) read(field func() int64) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return field()
}

// Len returns the number of live records.
func (s *Store) Len() int { return int(s.read(func() int64 { return int64(len(s.elems)) })) }

// Writes returns the number of successful Puts since Open.
func (s *Store) Writes() int64 { return s.read(func() int64 { return s.writes }) }

// SizeBytes returns the length of the store's file: what the budget bounds.
func (s *Store) SizeBytes() int64 { return s.read(func() int64 { return s.size }) }

// Evictions returns how many records the byte budget has evicted.
func (s *Store) Evictions() int64 { return s.read(func() int64 { return s.evictions }) }

// Quarantined returns how many damaged log lines Open dropped.
func (s *Store) Quarantined() int { return int(s.read(func() int64 { return int64(s.quarantined) })) }

// Close closes the log file; later Puts fail. Closing twice is a no-op.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
