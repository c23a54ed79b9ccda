package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbpoint/internal/faultcheck"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileBytes(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite: the new content fully replaces the old.
	if err := WriteFileBytes(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "x" {
		t.Fatalf("overwrite left %q", got)
	}
}

// TestWriteFileMode: the file WriteFile renames into place carries the mode
// os.Create would have given it, not CreateTemp's 0600.
func TestWriteFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileBytes(path, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("WriteFile produced mode %o, want 644", perm)
	}
}

// TestWriteFileFailureLeavesNoTrace checks the atomicity contract: a write
// that fails partway (here via a truncating/short-write injection) must
// leave the previous file byte-identical and no temp litter in the
// directory.
func TestWriteFileFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFileBytes(path, []byte("previous content")); err != nil {
		t.Fatal(err)
	}

	inj := faultcheck.OnNth(1, faultcheck.Error)
	err := WriteFile(path, func(w io.Writer) error {
		fw := faultcheck.Writer(w, inj)
		_, err := fw.Write([]byte("new content that must never land"))
		return err
	})
	if !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}

	got, err := os.ReadFile(path)
	if err != nil || string(got) != "previous content" {
		t.Fatalf("destination disturbed by failed write: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp litter after failed write: %v", names)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"a":1,"b":[2,3],"c":"text"}`)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "test-kind", payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadEnvelope(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if kind != "test-kind" || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind %q payload %q", kind, got)
	}
}

// TestEnvelopeCorruptDetected flips every byte of an envelope in turn: each
// mutation must surface as a typed ErrCorrupt/ErrTruncated (or, for
// whitespace-only mutations that JSON ignores, still verify) — never as a
// silently different payload.
func TestEnvelopeCorruptDetected(t *testing.T) {
	payload := []byte(`{"value":12345,"name":"cell"}`)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "k", payload); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x20
		_, got, err := ReadEnvelope(mut)
		if err == nil {
			// A mutation outside the checksummed payload (the kind label,
			// insignificant whitespace) can legitimately still verify —
			// ReadEnvelopeFile's kind check covers the label — but the
			// payload itself must be untouched.
			if !bytes.Equal(got, payload) {
				t.Fatalf("flip at %d: payload silently changed to %q", i, got)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
}

// TestEnvelopeTruncationDetected cuts an envelope at every length: each
// prefix must fail with a typed error, and prefixes that cut the document
// short must specifically report ErrTruncated.
func TestEnvelopeTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "k", []byte(`{"big":[1,2,3,4,5,6,7,8,9]}`)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data)-1; n++ {
		_, _, err := ReadEnvelope(data[:n])
		if err == nil {
			t.Fatalf("cut at %d of %d: accepted a truncated envelope", n, len(data))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: untyped error %v", n, err)
		}
		// A clean cut mid-document (past the opening brace) is truncation.
		if n > 0 && n < len(data)-2 && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: classified %v, want ErrTruncated", n, err)
		}
	}
}

func TestEnvelopeKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e")
	if err := WriteEnvelopeFile(path, "profile", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelopeFile(path, "results"); err == nil ||
		!strings.Contains(err.Error(), `"profile"`) {
		t.Fatalf("kind mismatch not reported: %v", err)
	}
}
