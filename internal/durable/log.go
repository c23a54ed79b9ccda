package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// logName is the log's file name inside its directory; a log that held
// damaged records at Open is kept, as it was, under logName+quarantineExt.
const logName = "journal.log"

// errLogClosed fails a Put after Close.
var errLogClosed = errors.New("durable: log is closed")

// Log is a crash-safe keyed journal kept as one append-only file: each Put
// appends one self-checking record and fsyncs the file, and Open replays
// the file, the last record of a key winning. It is the job server's
// journal, where every write sits on a job's latency: an append plus one
// fsync of a file that already exists costs a fraction of Store's
// temp-file write, fsync, rename and directory fsync.
//
// A record is one line, "<size> <crc32c> <payload>\n": the payload is the
// JSON cellRecord (key and data), size its byte length in decimal, and
// crc32c its CRC-32C (the envelope's Castagnoli table) in eight hex
// digits. A torn tail, or any line that fails its check, loses only that
// record: Open counts it in Quarantined and copies the raw file aside
// before it rewrites anything. Open also folds in a per-file journal a
// Store left in the same directory (*.ckpt), the log's own keys winning.
//
// One process owns a log: two processes appending to one file, or one
// compacting it under another, are not supported.
type Log struct {
	path string

	// Fault, when non-nil, is fired before every write, exactly as
	// Store.Fault: before any byte of an append is written.
	Fault WriteFault

	mu          sync.Mutex
	f           *os.File // nil once closed
	size        int64    // the file's length up to its last good record
	broken      error    // a failed append that could not be rolled back
	recs        map[string][]byte
	writes      int64
	quarantined int
}

// OpenLog opens (creating if needed) the log in dir and replays it. When
// the log holds superseded or damaged records, or dir holds a per-file
// journal to fold in, Open rewrites the log with only its live records
// (atomically, through WriteFile) and then deletes the folded files. Open
// fails only on I/O: damage costs records, never the log.
func OpenLog(dir string) (*Log, error) { return openLog(dir, nil) }

// openLog is OpenLog with fault fired before each of Open's own writes
// (the quarantine copy and the rewrite), so tests can interrupt a
// migration.
func openLog(dir string, fault WriteFault) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{path: filepath.Join(dir, logName), Fault: fault, recs: map[string][]byte{}}
	raw, err := os.ReadFile(l.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	replayed, damaged := 0, 0
	for off := 0; off < len(raw); {
		line := raw[off:]
		if n := bytes.IndexByte(line, '\n'); n >= 0 {
			line = line[:n+1]
		}
		off += len(line)
		if rec, ok := decodeRecord(line); ok {
			l.recs[rec.Key] = rec.Data
			replayed++
		} else {
			damaged++
		}
	}
	dead := replayed - len(l.recs)

	// Fold in a per-file journal: the log's keys win.
	old, err := Open(dir)
	if err != nil {
		return nil, err
	}
	folded := old.Keys()
	for _, key := range folded {
		if _, ok := l.recs[key]; !ok {
			l.recs[key], _ = old.Get(key)
		}
	}
	l.quarantined = damaged + old.Quarantined()

	if damaged > 0 {
		if err := l.fire(); err != nil {
			return nil, err
		}
		if err := WriteFileBytes(l.path+quarantineExt, raw); err != nil {
			return nil, err
		}
	}
	l.size = int64(len(raw))
	if damaged > 0 || dead > 0 || len(folded) > 0 {
		if l.size, err = l.rewrite(); err != nil {
			return nil, err
		}
		// Best-effort: a file left behind is folded again at the next
		// Open, where the log's record wins.
		for _, key := range folded {
			os.Remove(filepath.Join(dir, fileName(key)))
		}
	}
	if l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	syncDir(dir) // a log Open created must survive a crash too
	return l, nil
}

// rewrite replaces the log with its live records, sorted by key, and
// returns the new file's length.
func (l *Log) rewrite() (int64, error) {
	if err := l.fire(); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	for _, key := range sortedKeysLocked(l.recs) {
		line, err := encodeRecord(key, l.recs[key])
		if err != nil {
			return 0, err
		}
		buf.Write(line)
	}
	return int64(buf.Len()), WriteFileBytes(l.path, buf.Bytes())
}

// fire fires the Fault, if any, naming the log in its error.
func (l *Log) fire() error {
	if l.Fault == nil {
		return nil
	}
	if err := l.Fault.Fire(); err != nil {
		return fmt.Errorf("durable: %s: %w", l.path, err)
	}
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
	body, ok := bytes.CutSuffix(line, []byte("\n"))
	if !ok {
		return rec, false // torn: every record ends in a newline
	}
	size, rest, _ := bytes.Cut(body, []byte(" "))
	sum, payload, _ := bytes.Cut(rest, []byte(" "))
	if string(size) != strconv.Itoa(len(payload)) ||
		string(sum) != fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli)) {
		return rec, false
	}
	if json.Unmarshal(payload, &rec) != nil || rec.Key == "" || len(rec.Data) == 0 {
		return rec, false
	}
	return rec, true
}

// Put appends data (which must be valid JSON) under key and fsyncs the log
// before it returns. The Fault (if any) fires before any byte is written.
// A failed append is cut back off the file, so the log still replays
// cleanly; if even that fails, every later Put fails too.
func (l *Log) Put(key string, data []byte) error {
	if err := l.fire(); err != nil {
		return err
	}
	line, err := encodeRecord(key, data)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.broken != nil:
		return l.broken
	case l.f == nil:
		return errLogClosed
	}
	if err := l.append(line); err != nil {
		return err
	}
	l.recs[key] = append([]byte(nil), data...)
	l.writes++
	return nil
}

// append writes and fsyncs one line, or truncates the file back to its
// last good record. Callers hold l.mu.
func (l *Log) append(line []byte) error {
	_, err := l.f.Write(line)
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.size += int64(len(line))
		return nil
	}
	terr := l.f.Truncate(l.size)
	if terr == nil {
		terr = l.f.Sync()
	}
	if terr != nil {
		l.broken = fmt.Errorf("durable: %s: unusable after a failed append (%v): %w", l.path, err, terr)
	}
	return err
}

// Get returns the data last put under key, if any.
func (l *Log) Get(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, ok := l.recs[key]
	return data, ok
}

// Keys returns every live key, sorted, so replays are deterministic.
func (l *Log) Keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedKeysLocked(l.recs)
}

// Writes returns the number of successful Puts since OpenLog.
func (l *Log) Writes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes
}

// Quarantined returns how many damaged records Open dropped (with any
// damaged file of a folded per-file journal).
func (l *Log) Quarantined() int { return l.quarantined }

// Close closes the log file; later Puts fail. Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
