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

// FuzzReadCheckpoint drives ReadEnvelope — the parser every checkpoint,
// profile, and results load goes through — with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to an envelope it
// accepts again with the identical payload (so quarantine decisions are
// stable across rewrites).
func FuzzReadCheckpoint(f *testing.F) {
	var valid bytes.Buffer
	rec, _ := json.Marshal(cellRecord{Key: "grid/cell/0123", Data: json.RawMessage(`{"ipc":1.5}`)})
	if err := WriteEnvelope(&valid, KindCheckpoint, rec); err != nil {
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

// FuzzOpenLog writes three intact records followed by arbitrary bytes as a
// log file. OpenLog must never panic or fail on it; each intact record
// must replay unless a later record that checks out (one line of the tail,
// judged by decodeRecord) replaces it, and everything else in the tail is
// quarantined. A reopen must replay the same values and quarantine nothing.
func FuzzOpenLog(f *testing.F) {
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
		l, err := OpenLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, k := range l.Keys() {
			v, _ := l.Get(k)
			got[k] = string(v)
		}
		l.Close()
		if !maps.Equal(got, want) || l.Quarantined() != damaged {
			t.Fatalf("replayed %v and quarantined %d, want %v and %d", got, l.Quarantined(), want, damaged)
		}
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

// openContents opens the log in dir and returns its records, each decoded
// (a rewrite re-encodes a record's JSON, so only its value is kept), and
// how many records Open quarantined.
func openContents(t *testing.T, dir string) (map[string]any, int) {
	t.Helper()
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := map[string]any{}
	for _, k := range l.Keys() {
		v, _ := l.Get(k)
		var val any
		if err := json.Unmarshal(v, &val); err != nil {
			t.Fatalf("record %q holds invalid JSON %q", k, v)
		}
		got[k] = val
	}
	return got, l.Quarantined()
}

// lruModel is what a bounded Store promises, kept in plain data: the keys
// in recency order (front = least recently used), each entry's envelope
// size, the accounted total, the budget (0 = unbounded) and the evictions
// this session.
type lruModel struct {
	order     []string
	size      map[string]int64
	bytes     int64
	max       int64
	evictions int64
}

func (m *lruModel) touch(key string) {
	if i := slices.Index(m.order, key); i >= 0 {
		m.order = append(slices.Delete(m.order, i, i+1), key)
	}
}

func (m *lruModel) evict() {
	for m.max > 0 && m.bytes > m.max && len(m.order) > 0 {
		key := m.order[0]
		m.order = m.order[1:]
		m.bytes -= m.size[key]
		delete(m.size, key)
		m.evictions++
	}
}

// envelopeSize is the on-disk size of key's entry holding data.
func envelopeSize(t *testing.T, key string, data []byte) int64 {
	t.Helper()
	rec, err := json.Marshal(cellRecord{Key: key, Data: json.RawMessage(data)})
	if err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := WriteEnvelope(&env, KindCheckpoint, rec); err != nil {
		t.Fatal(err)
	}
	return int64(env.Len())
}

// FuzzStoreLRU runs a byte-encoded sequence of operations — put (one of six
// keys, a payload size), get, SetMaxBytes and reopen — against a Store and
// against lruModel. After every operation the store's keys, accounted
// bytes, on-disk .ckpt bytes and eviction count must equal the model's. A
// reopen forgets the budget and the eviction count and re-seeds recency in
// sorted key order; an entry larger than the budget is evicted by its own
// put.
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
		m := &lruModel{size: map[string]int64{}}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0: // put: the op byte picks the key, the argument the payload size
				key := keys[int(op/4)%len(keys)]
				data := []byte(`{"p":"` + strings.Repeat("x", 8*int(arg)) + `"}`)
				if err := s.Put(key, data); err != nil {
					t.Fatal(err)
				}
				if _, ok := m.size[key]; !ok {
					m.order = append(m.order, key)
				}
				size := envelopeSize(t, key, data)
				m.bytes += size - m.size[key]
				m.size[key] = size
				m.touch(key)
				m.evict()
			case 1:
				key := keys[int(arg)%len(keys)]
				_, held := m.size[key]
				if _, ok := s.Get(key); ok != held {
					t.Fatalf("op %d: Get(%s) hit %v, model holds it %v", i/2, key, ok, held)
				}
				m.touch(key)
			case 2:
				m.max = 64 * int64(arg)
				s.SetMaxBytes(m.max)
				m.evict()
			case 3:
				if s, err = Open(dir); err != nil {
					t.Fatal(err)
				}
				slices.Sort(m.order)
				m.max, m.evictions = 0, 0
			}
			want := slices.Clone(m.order)
			slices.Sort(want)
			if got := s.Keys(); !slices.Equal(got, want) {
				t.Fatalf("op %d (%d, %d): keys %q, model %q", i/2, op, arg, got, want)
			}
			if got, disk := s.SizeBytes(), diskCkptBytes(t, dir); got != m.bytes || disk != m.bytes {
				t.Fatalf("op %d (%d, %d): %d bytes accounted, %d on disk, model %d", i/2, op, arg, got, disk, m.bytes)
			}
			if got := s.Evictions(); got != m.evictions {
				t.Fatalf("op %d (%d, %d): %d evictions, model %d", i/2, op, arg, got, m.evictions)
			}
		}
	})
}
