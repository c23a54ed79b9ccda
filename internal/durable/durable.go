// Package durable makes the harness's on-disk artifacts crash-safe.
//
// WriteFile is atomic persistence: a reader sees the old file or the new
// one, never a prefix. The envelope (WriteEnvelope/ReadEnvelope) detects
// what atomicity cannot, a truncated file or a flipped byte: a versioned
// JSON wrapper (`jq .payload` recovers the document) carrying the
// payload's length and CRC-32C, whose loads classify damage as
// ErrTruncated or ErrCorrupt. Store (store.go) is the one keyed-record
// store: an append-only log of checksummed lines that holds the grids'
// -resume checkpoints, the job server's artifact cache and its job journal.
// That log is the only store format Open reads; it refuses a directory
// holding an older store's per-file *.ckpt entries and leaves them as
// they are.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrCorrupt reports a file whose bytes are present but wrong: a CRC
// mismatch, mangled JSON, or an unknown envelope format.
var ErrCorrupt = errors.New("durable: corrupt file")

// ErrTruncated reports a file that ends before its declared content does.
var ErrTruncated = errors.New("durable: truncated file")

// WriteFile atomically replaces path with whatever write produces: the
// content goes to a temporary file in path's directory, is flushed and
// fsynced, and is renamed over path only after everything succeeded. On any
// error the temporary file is removed and path is left untouched — a crash
// (or SIGINT) at any instant leaves either the old file or the new one,
// never a torn mixture.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	// CreateTemp opens 0600; match what os.Create would have produced,
	// before the fsync, so the mode is as durable as the bytes.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// WriteFileBytes is WriteFile for a pre-built payload.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// syncDir fsyncs a directory so the rename itself is durable. Best-effort:
// some filesystems reject fsync on directories, and by this point the data
// is safely in either the old or the new file.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// envelopeFormat versions the wrapper; bump it if the field set changes.
const envelopeFormat = "tbpoint-durable-v1"

// castagnoli is the CRC-32C table (the polynomial with hardware support and
// better error detection than IEEE).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is the on-disk wrapper. Payload is kept raw so the checksum is
// over the exact stored bytes, not a re-marshalling.
type envelope struct {
	Format  string          `json:"format"`
	Kind    string          `json:"kind"`
	Size    int             `json:"size"`
	CRC32C  string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// WriteEnvelope wraps payload (which must itself be valid JSON) in the
// versioned, checksummed envelope and writes it to w.
func WriteEnvelope(w io.Writer, kind string, payload []byte) error {
	payload = bytes.TrimSpace(payload)
	if len(payload) == 0 {
		return fmt.Errorf("durable: empty payload for kind %q", kind)
	}
	sum := crc32.Checksum(payload, castagnoli)
	if _, err := fmt.Fprintf(w, "{\"format\":%q,\"kind\":%q,\"size\":%d,\"crc32c\":\"%08x\",\n\"payload\":",
		envelopeFormat, kind, len(payload), sum); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// WriteEnvelopeFile atomically writes an enveloped payload to path.
func WriteEnvelopeFile(path, kind string, payload []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		return WriteEnvelope(w, kind, payload)
	})
}

// ReadEnvelope parses an envelope from data, verifying format, declared
// size, and checksum. Damage is classified: a document that ends early is
// ErrTruncated, anything else that fails to verify is ErrCorrupt.
func ReadEnvelope(data []byte) (kind string, payload []byte, err error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		var syn *json.SyntaxError
		if len(bytes.TrimSpace(data)) == 0 ||
			(errors.As(err, &syn) && syn.Offset >= int64(len(data))) {
			return "", nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return "", nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Format != envelopeFormat {
		return "", nil, fmt.Errorf("%w: unknown format %q", ErrCorrupt, env.Format)
	}
	body := bytes.TrimSpace(env.Payload)
	// An absent payload with size 0 would CRC-verify vacuously (the CRC of
	// nothing is 0), so it must be rejected explicitly: no writer ever
	// produces an empty payload.
	if len(body) == 0 {
		return "", nil, fmt.Errorf("%w: missing payload", ErrCorrupt)
	}
	if len(body) < env.Size {
		return "", nil, fmt.Errorf("%w: payload is %d bytes of a declared %d",
			ErrTruncated, len(body), env.Size)
	}
	if len(body) > env.Size {
		return "", nil, fmt.Errorf("%w: payload is %d bytes, declared %d",
			ErrCorrupt, len(body), env.Size)
	}
	sum := fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli))
	if sum != env.CRC32C {
		return "", nil, fmt.Errorf("%w: crc32c %s, declared %s", ErrCorrupt, sum, env.CRC32C)
	}
	return env.Kind, body, nil
}

// ReadEnvelopeFile loads and verifies an enveloped file, additionally
// checking that it holds the expected kind of payload (so a file of another
// kind can never be loaded where a results bundle was expected).
func ReadEnvelopeFile(path, kind string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	gotKind, payload, err := ReadEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%s: envelope holds %q, want %q", path, gotKind, kind)
	}
	return payload, nil
}
