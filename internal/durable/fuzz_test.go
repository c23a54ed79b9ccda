package durable

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEnvelope drives ReadEnvelope — the parser of every results-file
// load — with arbitrary bytes: it must never panic, and anything it accepts
// must re-encode to an envelope it accepts again with the identical
// payload (so a file's verdict is stable across rewrites).
func FuzzReadEnvelope(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteEnvelope(&valid, "results/v2", []byte(`{"scale":0.02,"seed":7,"accuracy":[{"Name":"stream","FullIPC":0.433}]}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"tbpoint-durable-v1","kind":"k","size":0,"crc32c":"00000000","payload":{}}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := ReadEnvelope(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, kind, payload); err != nil {
			t.Fatalf("re-encoding an accepted envelope failed: %v", err)
		}
		kind2, payload2, err := ReadEnvelope(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if kind2 != kind || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip drifted: kind %q->%q payload %q->%q", kind, kind2, payload, payload2)
		}
	})
}

// FuzzStoreReplay writes three intact records followed by arbitrary bytes as a
// store's log. Open must never panic or fail on it; each intact record
// must replay unless a later record that checks out (one line of the tail,
// judged by decodeRecord) replaces it, and everything else in the tail is
// quarantined. SizeBytes must be the file's length, and a reopen must
// replay the same values and quarantine nothing.
func FuzzStoreReplay(f *testing.F) {
	var valid []byte
	for _, kv := range [][2]string{{"job/j000001", `{"state":"queued"}`}, {"job/j000001", `{"state":"done"}`}, {"a", `2`}} {
		line, err := encodeRecord(kv[0], []byte(kv[1]))
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, line...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte("3 00000000 abc\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(""))

	var intact []byte
	want := map[string]string{"a": `1`, "b": `{"x":[2]}`, "c": `"3"`}
	for _, k := range []string{"a", "b", "c"} {
		line, err := encodeRecord(k, []byte(want[k]))
		if err != nil {
			f.Fatal(err)
		}
		intact = append(intact, line...)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		want, damaged := maps.Clone(want), 0
		for rest := tail; len(rest) > 0; {
			line := rest
			if n := bytes.IndexByte(rest, '\n'); n >= 0 {
				line = rest[:n+1]
			}
			rest = rest[len(line):]
			if rec, ok := decodeRecord(line); ok {
				want[rec.Key] = string(rec.Data)
			} else {
				damaged++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), append(intact, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, s := replay(t, dir)
		if !maps.Equal(got, want) || s.Quarantined() != damaged {
			t.Fatalf("replayed %v and quarantined %d, want %v and %d", got, s.Quarantined(), want, damaged)
		}
		if disk := diskBytes(t, dir); s.SizeBytes() != disk {
			t.Fatalf("SizeBytes() = %d, the log holds %d", s.SizeBytes(), disk)
		}
		s.Close()
		again, q := openContents(t, dir)
		if q != 0 || len(again) != len(got) {
			t.Fatalf("reopen replayed %v and quarantined %d, want %v and 0", again, q, got)
		}
		for k, v := range got {
			var val any
			if json.Unmarshal([]byte(v), &val) != nil || !reflect.DeepEqual(again[k], val) {
				t.Fatalf("reopen replayed %s as %v, the first Open as %s", k, again[k], v)
			}
		}
	})
}

// openContents opens the store in dir and returns its records, each
// decoded (a compaction re-encodes a record's JSON, so only its value is
// kept), and how many records Open quarantined.
func openContents(t *testing.T, dir string) (map[string]any, int) {
	t.Helper()
	raw, s := replay(t, dir)
	got := map[string]any{}
	for k, v := range raw {
		var val any
		if err := json.Unmarshal([]byte(v), &val); err != nil {
			t.Fatalf("record %q holds invalid JSON %q", k, v)
		}
		got[k] = val
	}
	return got, s.Quarantined()
}

// lruModel is what a bounded Store promises, kept in plain data: the keys
// in recency order and in the order of their last line in the file (front
// = least recent), each live key's line length, the file's length, the
// budget (0 = unbounded) and the evictions this session.
type lruModel struct {
	order     []string
	file      []string
	line      map[string]int64
	bytes     int64
	max       int64
	evictions int64
}

// toBack moves key to the back of keys, appending it if absent.
func toBack(keys []string, key string) []string {
	if i := slices.Index(keys, key); i >= 0 {
		keys = slices.Delete(keys, i, i+1)
	}
	return append(keys, key)
}

// compact is Store.compact's rule: with add (if any) the most recent,
// evict from the least recent end until the live lines fill at most half
// the budget, unless only add is left and it fits the budget; the
// survivors, in recency order, become the file.
func (m *lruModel) compact(add string) {
	var live int64
	for _, k := range m.order {
		live += m.line[k]
	}
	for m.max > 0 && len(m.order) > 0 && live > m.max/2 {
		key := m.order[0]
		if key == add && live <= m.max {
			break
		}
		m.order = m.order[1:]
		live -= m.line[key]
		delete(m.line, key)
		m.evictions++
	}
	m.file, m.bytes = slices.Clone(m.order), live
}

// FuzzStoreLRU runs a byte-encoded sequence of operations — put (one of six
// keys, a payload size), get, SetMaxBytes and reopen — against a Store and
// against lruModel. After every operation the store's keys, its file's
// length (accounted and on disk) and its eviction count must equal the
// model's, and a bounded file must be within its budget. A reopen forgets
// the budget and the eviction count, and recency becomes the order of the
// keys' last writes in the file.
func FuzzStoreLRU(f *testing.F) {
	f.Add([]byte{0, 10, 4, 10, 8, 10, 2, 20, 3, 0, 12, 10, 6, 1})
	f.Add([]byte{2, 3, 0, 200, 4, 5, 8, 5, 1, 0, 0, 5})
	f.Add([]byte{0, 255, 2, 1, 16, 7, 3, 0, 4, 9, 20, 9, 2, 2})
	f.Add([]byte{})
	keys := []string{"a", "b", "c", "sub/d", "sub/e", "f"}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		m := &lruModel{line: map[string]int64{}}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0: // put: the op byte picks the key, the argument the payload size
				key := keys[int(op/4)%len(keys)]
				data := []byte(`{"p":"` + strings.Repeat("x", 8*int(arg)) + `"}`)
				if err := s.Put(key, data); err != nil {
					t.Fatal(err)
				}
				line, err := encodeRecord(key, data)
				if err != nil {
					t.Fatal(err)
				}
				size := int64(len(line))
				over := m.max > 0 && m.bytes+size > m.max
				m.line[key] = size
				m.order = toBack(m.order, key)
				if over {
					m.compact(key)
				} else {
					m.file = toBack(m.file, key)
					m.bytes += size
				}
			case 1:
				key := keys[int(arg)%len(keys)]
				_, held := m.line[key]
				if _, ok := s.Get(key); ok != held {
					t.Fatalf("op %d: Get(%s) hit %v, model holds it %v", i/2, key, ok, held)
				}
				if held {
					m.order = toBack(m.order, key)
				}
			case 2:
				m.max = 64 * int64(arg)
				s.SetMaxBytes(m.max)
				if m.max > 0 && m.bytes > m.max {
					m.compact("")
				}
			case 3:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(dir); err != nil {
					t.Fatal(err)
				}
				m.order, m.max, m.evictions, m.bytes = slices.Clone(m.file), 0, 0, 0
				for _, k := range m.file {
					m.bytes += m.line[k]
				}
			}
			want := slices.Clone(m.order)
			slices.Sort(want)
			if got := s.Keys(); !slices.Equal(got, want) {
				t.Fatalf("op %d (%d, %d): keys %q, model %q", i/2, op, arg, got, want)
			}
			if got, disk := s.SizeBytes(), diskBytes(t, dir); got != m.bytes || disk != m.bytes {
				t.Fatalf("op %d (%d, %d): %d bytes accounted, %d on disk, model %d", i/2, op, arg, got, disk, m.bytes)
			}
			if m.max > 0 && m.bytes > m.max {
				t.Fatalf("op %d (%d, %d): the file holds %d bytes, over its %d-byte budget", i/2, op, arg, m.bytes, m.max)
			}
			if got := s.Evictions(); got != m.evictions {
				t.Fatalf("op %d (%d, %d): %d evictions, model %d", i/2, op, arg, got, m.evictions)
			}
		}
	})
}
