package durable

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tbpoint/internal/faultcheck"
)

// These tests pin the store's log file: how a damaged, torn or superseded
// record is replayed, how a failed append is rolled back, and that Open
// refuses the per-file entries an older Store kept.

// putAll opens the store in dir, puts each key/value pair in order and
// closes it.
func putAll(t *testing.T, dir string, kv ...string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(kv); i += 2 {
		if err := s.Put(kv[i], []byte(kv[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// replay opens the store in dir and returns what it holds, with the store.
func replay(t *testing.T, dir string) (map[string]string, *Store) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	got := map[string]string{}
	for _, k := range s.Keys() {
		v, _ := s.Get(k)
		got[k] = string(v)
	}
	return got, s
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wantRecords(t *testing.T, got map[string]string, want ...string) {
	t.Helper()
	w := map[string]string{}
	for i := 0; i < len(want); i += 2 {
		w[want[i]] = want[i+1]
	}
	if len(got) != len(w) {
		t.Fatalf("replayed %v, want %v", got, w)
	}
	for k, v := range w {
		if got[k] != v {
			t.Fatalf("replayed %v, want %v", got, w)
		}
	}
}

// TestLogTornTail: a last record cut short by a crash mid-append is lost,
// counted and kept aside; every record before it replays, and the rewritten
// log opens clean.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, "a", `1`, "b", `{"x":2}`, "c", `"three"`)
	path := filepath.Join(dir, logName)
	raw := readFile(t, path)
	torn := raw[:len(raw)-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, s := replay(t, dir)
	wantRecords(t, got, "a", `1`, "b", `{"x":2}`)
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", s.Quarantined())
	}
	if aside := readFile(t, path+quarantineExt); !bytes.Equal(aside, torn) {
		t.Errorf("%s holds %q, want the torn log", logName+quarantineExt, aside)
	}
	s.Close()
	got, s = replay(t, dir)
	wantRecords(t, got, "a", `1`, "b", `{"x":2}`)
	if s.Quarantined() != 0 {
		t.Errorf("reopened rewritten log: Quarantined() = %d, want 0", s.Quarantined())
	}
}

// TestLogFlippedByteLosesOnlyThatRecord: a damaged record in the middle of
// the log costs that record alone, and the raw log is kept as it was.
func TestLogFlippedByteLosesOnlyThatRecord(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, "a", `1`, "b", `"middle"`, "c", `3`)
	path := filepath.Join(dir, logName)
	raw := readFile(t, path)
	i := bytes.Index(raw, []byte("middle"))
	raw[i] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, s := replay(t, dir)
	wantRecords(t, got, "a", `1`, "c", `3`)
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", s.Quarantined())
	}
	if aside := readFile(t, path+quarantineExt); !bytes.Equal(aside, raw) {
		t.Errorf("%s holds %q, want the original bytes %q", logName+quarantineExt, aside, raw)
	}
}

// TestLogFailedAppendReplaysCleanly: an append the Fault fails writes
// nothing, later appends succeed, and the log replays with nothing to
// quarantine.
func TestLogFailedAppendReplaysCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	size := len(readFile(t, s.path()))
	s.Fault = faultcheck.OnNth(1, faultcheck.Error)
	if err := s.Put("b", []byte(`2`)); !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("faulted Put = %v, want the injected error", err)
	}
	if n := len(readFile(t, s.path())); n != size {
		t.Fatalf("a faulted Put grew the log from %d to %d bytes", size, n)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("a faulted Put is visible")
	}
	if err := s.Put("c", []byte(`3`)); err != nil {
		t.Fatal(err)
	}
	if s.Writes() != 2 {
		t.Errorf("Writes() = %d, want 2", s.Writes())
	}
	s.Close()
	got, s := replay(t, dir)
	wantRecords(t, got, "a", `1`, "c", `3`)
	if s.Quarantined() != 0 {
		t.Errorf("Quarantined() = %d, want 0", s.Quarantined())
	}
	if _, err := os.Stat(s.path() + quarantineExt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a clean log left %s: %v", logName+quarantineExt, err)
	}
}

// TestLogAppendThatCannotRollBack: when a failed append cannot be cut back
// off the file, every later Put fails, and the log replays what was written
// before.
func TestLogAppendThatCannotRollBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	s.f.Close() // write, truncate and sync all fail from here on
	if err := s.Put("b", []byte(`2`)); err == nil {
		t.Fatal("Put on a dead file succeeded")
	}
	if err := s.Put("c", []byte(`3`)); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("Put after a failed rollback = %v, want the store unusable", err)
	}
	got, _ := replay(t, dir)
	wantRecords(t, got, "a", `1`)
}

// TestLogCompactionKeepsLastRecordPerKey: Open rewrites a log holding
// superseded records to exactly the last record of each key, in last-write
// order, and a log with nothing dead is left as it is.
func TestLogCompactionKeepsLastRecordPerKey(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, "b", `1`, "a", `1`, "b", `2`, "c", `1`, "a", `2`, "a", `3`)
	got, s := replay(t, dir)
	wantRecords(t, got, "a", `3`, "b", `2`, "c", `1`)
	if s.Writes() != 0 || s.Quarantined() != 0 {
		t.Errorf("Writes() = %d, Quarantined() = %d after a compaction, want 0 and 0", s.Writes(), s.Quarantined())
	}
	s.Close()
	raw := readFile(t, s.path())
	var want []byte
	for _, kv := range [][2]string{{"b", `2`}, {"c", `1`}, {"a", `3`}} {
		line, err := encodeRecord(kv[0], []byte(kv[1]))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("compacted log:\n%s\nwant:\n%s", raw, want)
	}
	if got := s.SizeBytes(); got != int64(len(raw)) {
		t.Errorf("SizeBytes() = %d, the file holds %d", got, len(raw))
	}
	info, err := os.Stat(s.path())
	if err != nil {
		t.Fatal(err)
	}
	replay(t, dir)
	if again, err := os.Stat(s.path()); err != nil || !os.SameFile(info, again) {
		t.Errorf("a compact log was rewritten at Open (%v)", err)
	}
}

// TestLogOpenInterruptedByFault: an Open that must rewrite the log (it
// holds a superseded record and a damaged line) and is stopped by a fault
// (a directory where the quarantine copy must go) fails and leaves the log
// byte for byte as it was; the next Open rewrites it, the last record of
// each key winning.
func TestLogOpenInterruptedByFault(t *testing.T) {
	dir := t.TempDir()
	record := func(key, data string) []byte {
		line, err := encodeRecord(key, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	raw := slices.Concat(record("job/1", `"one"`), record("job/2", `"old"`),
		[]byte("12 00000000 damaged\n"), record("job/2", `"new"`))
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+quarantineExt, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open succeeded with its quarantine copy blocked")
	}
	if !bytes.Equal(readFile(t, path), raw) {
		t.Fatal("an interrupted Open changed the log")
	}
	if err := os.Remove(path + quarantineExt); err != nil {
		t.Fatal(err)
	}
	got, s := replay(t, dir)
	wantRecords(t, got, "job/1", `"one"`, "job/2", `"new"`)
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", s.Quarantined())
	}
}

// TestOpenRefusesPerFileEntries: a directory holding a *.ckpt file, the
// per-file format an older Store kept, fails Open with an error naming the
// directory, and neither that file nor the log is touched.
func TestOpenRefusesPerFileEntries(t *testing.T) {
	snapshot := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			files[e.Name()] = readFile(t, filepath.Join(dir, e.Name()))
		}
		return files
	}
	for _, withLog := range []bool{false, true} {
		dir := t.TempDir()
		if withLog {
			putAll(t, dir, "a", `1`, "a", `2`)
		}
		ckpt := filepath.Join(dir, "0123abcd.ckpt")
		if err := os.WriteFile(ckpt, []byte(`{"format":"tbpoint-durable-v1"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		before := snapshot(dir)
		s, err := Open(dir)
		if err == nil {
			s.Close()
			t.Fatalf("log %v: Open accepted a directory holding %s", withLog, ckpt)
		}
		if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "older store format") {
			t.Errorf("log %v: error %q does not name %s as an older store format", withLog, err, dir)
		}
		if after := snapshot(dir); !maps.EqualFunc(after, before, bytes.Equal) {
			t.Errorf("log %v: a refused Open changed the directory from %q to %q", withLog, before, after)
		}
	}
}

// TestLogPutAfterClose: a closed store refuses writes instead of losing
// them.
func TestLogPutAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put("a", []byte(`1`)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Put after Close = %v, want %v", err, os.ErrClosed)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}
