package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tbpoint/internal/faultcheck"
)

// putAll opens the log in dir, puts each key/value pair in order and closes it.
func putAll(t *testing.T, dir string, kv ...string) {
	t.Helper()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(kv); i += 2 {
		if err := l.Put(kv[i], []byte(kv[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replay opens the log in dir and returns what it holds, with the log.
func replay(t *testing.T, dir string) (map[string]string, *Log) {
	t.Helper()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	got := map[string]string{}
	for _, k := range l.Keys() {
		v, _ := l.Get(k)
		got[k] = string(v)
	}
	return got, l
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
	got, l := replay(t, dir)
	wantRecords(t, got, "a", `1`, "b", `{"x":2}`)
	if l.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", l.Quarantined())
	}
	if aside := readFile(t, path+quarantineExt); !bytes.Equal(aside, torn) {
		t.Errorf("%s holds %q, want the torn log", logName+quarantineExt, aside)
	}
	l.Close()
	got, l = replay(t, dir)
	wantRecords(t, got, "a", `1`, "b", `{"x":2}`)
	if l.Quarantined() != 0 {
		t.Errorf("reopened rewritten log: Quarantined() = %d, want 0", l.Quarantined())
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
	got, l := replay(t, dir)
	wantRecords(t, got, "a", `1`, "c", `3`)
	if l.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", l.Quarantined())
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
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	size := len(readFile(t, l.path))
	l.Fault = faultcheck.OnNth(1, faultcheck.Error)
	if err := l.Put("b", []byte(`2`)); !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("faulted Put = %v, want the injected error", err)
	}
	if n := len(readFile(t, l.path)); n != size {
		t.Fatalf("a faulted Put grew the log from %d to %d bytes", size, n)
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("a faulted Put is visible")
	}
	if err := l.Put("c", []byte(`3`)); err != nil {
		t.Fatal(err)
	}
	if l.Writes() != 2 {
		t.Errorf("Writes() = %d, want 2", l.Writes())
	}
	l.Close()
	got, l := replay(t, dir)
	wantRecords(t, got, "a", `1`, "c", `3`)
	if l.Quarantined() != 0 {
		t.Errorf("Quarantined() = %d, want 0", l.Quarantined())
	}
	if _, err := os.Stat(l.path + quarantineExt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a clean log left %s: %v", logName+quarantineExt, err)
	}
}

// TestLogAppendThatCannotRollBack: when a failed append cannot be cut back
// off the file, every later Put fails, and the log replays what was written
// before.
func TestLogAppendThatCannotRollBack(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // write, truncate and sync all fail from here on
	if err := l.Put("b", []byte(`2`)); err == nil {
		t.Fatal("Put on a dead file succeeded")
	}
	if err := l.Put("c", []byte(`3`)); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("Put after a failed rollback = %v, want the log unusable", err)
	}
	got, _ := replay(t, dir)
	wantRecords(t, got, "a", `1`)
}

// TestLogCompactionKeepsLastRecordPerKey: Open rewrites a log holding
// superseded records to exactly the last record of each key, and a log with
// nothing dead is left as it is.
func TestLogCompactionKeepsLastRecordPerKey(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, "b", `1`, "a", `1`, "b", `2`, "c", `1`, "a", `2`, "a", `3`)
	got, l := replay(t, dir)
	wantRecords(t, got, "a", `3`, "b", `2`, "c", `1`)
	if l.Writes() != 0 || l.Quarantined() != 0 {
		t.Errorf("Writes() = %d, Quarantined() = %d after a compaction, want 0 and 0", l.Writes(), l.Quarantined())
	}
	l.Close()
	raw := readFile(t, l.path)
	var want []byte
	for _, kv := range [][2]string{{"a", `3`}, {"b", `2`}, {"c", `1`}} {
		line, err := encodeRecord(kv[0], []byte(kv[1]))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("compacted log:\n%s\nwant:\n%s", raw, want)
	}
	info, err := os.Stat(l.path)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, dir)
	if again, err := os.Stat(l.path); err != nil || !os.SameFile(info, again) {
		t.Errorf("a compact log was rewritten at Open (%v)", err)
	}
}

// TestLogMigrationInterruptedByFault: a per-file journal is folded into the
// log at Open. A fault between the quarantine copy and the rewrite fails
// Open and leaves every .ckpt file and the log as they were; the next Open
// completes the migration, the log's own key winning, and deletes the
// folded files.
func TestLogMigrationInterruptedByFault(t *testing.T) {
	dir := t.TempDir()
	putAll(t, dir, "job/2", `"log"`, "job/4", `"four"`)
	old, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"job/1", `"one"`}, {"job/2", `"file"`}, {"job/3", `"three"`}} {
		if err := old.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("12 0000") // a torn append, so Open has two writes to make
	f.Close()
	before := readFile(t, path)
	ckpts := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, "*"+ckptExt))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	files := ckpts()
	if len(files) != 3 {
		t.Fatalf("%d .ckpt files, want 3", len(files))
	}

	if _, err := openLog(dir, faultcheck.OnNth(2, faultcheck.Error)); !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("openLog with a fault at its rewrite = %v, want the injected error", err)
	}
	if !slices.Equal(ckpts(), files) {
		t.Fatalf("an interrupted migration left %v, want %v", ckpts(), files)
	}
	if !bytes.Equal(readFile(t, path), before) {
		t.Fatal("an interrupted migration changed the log")
	}

	got, l := replay(t, dir)
	wantRecords(t, got, "job/1", `"one"`, "job/2", `"log"`, "job/3", `"three"`, "job/4", `"four"`)
	if l.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1 (the torn append)", l.Quarantined())
	}
	if left := ckpts(); len(left) != 0 {
		t.Errorf("migration left %v", left)
	}
	l.Close()
	got, l = replay(t, dir)
	wantRecords(t, got, "job/1", `"one"`, "job/2", `"log"`, "job/3", `"three"`, "job/4", `"four"`)
	if l.Quarantined() != 0 {
		t.Errorf("reopened migrated log: Quarantined() = %d, want 0", l.Quarantined())
	}
}

// TestLogPutAfterClose: a closed log refuses writes instead of losing them.
func TestLogPutAfterClose(t *testing.T) {
	l, err := OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Put("a", []byte(`1`)); !errors.Is(err, errLogClosed) {
		t.Fatalf("Put after Close = %v, want %v", err, errLogClosed)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}
