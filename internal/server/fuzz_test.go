package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tbpoint/internal/server"
	"tbpoint/internal/workloads"
)

// FuzzJobSpec drives POST /jobs — the one place bytes from outside become
// a journaled job — with arbitrary bodies against a paused driver: the
// handler never panics, answers 400 or 202, an accepted spec names only
// known benchmarks, and it is a fixed point of the boundary: re-marshalled,
// it decodes strictly and validates to exactly itself, so a client can
// resubmit what the status endpoint shows and a journal replay sees what
// was accepted.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"targets":["accuracy"],"scale":0.02,"seed":7,"benchmarks":["stream"]}`))
	f.Add([]byte(`{"targets":["all"],"samplers":["all","TBPoint"],"deadline":"90s","client":"a"}`))
	f.Add([]byte(`{"targets":["accuracy"],"cell_deadline":1000}`))
	f.Add([]byte(`{"targets":["fig5"],"samples":-3,"no_cache":true,"scale":-0}`))
	f.Add([]byte(`{"targets":["accuracy"],"parallel_sm":2}`))
	f.Add([]byte(`{"targets":["accuracy"],"fault":"panic"}`))
	f.Add([]byte(`{"targets":["accuracy"],"benchmarks":["nosuch"]}`))
	f.Add([]byte(`{"targets":["accuracy"],"client":"\ud800"} trailing`))
	f.Add([]byte(`{"targets":[]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))

	d := openDriver(f, server.Config{StateDir: f.TempDir(), Paused: true})
	h := d.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if w.Code == http.StatusBadRequest {
			return
		}
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST /jobs %q answered %d, want 400 or 202", body, w.Code)
		}
		var st server.JobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.State != server.StateQueued {
			t.Fatalf("202 body %q: %v", w.Body.Bytes(), err)
		}
		for _, name := range st.Spec.Benchmarks {
			if _, err := workloads.ByName(name); err != nil {
				t.Fatalf("POST /jobs %q accepted an unknown benchmark: %v", body, err)
			}
		}
		again, err := json.Marshal(st.Spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", st.Spec, err)
		}
		var spec server.JobSpec
		dec := json.NewDecoder(bytes.NewReader(again))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("accepted spec %s does not decode strictly: %v", again, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec %s no longer validates: %v", again, err)
		}
		if fixed, err := json.Marshal(spec); err != nil || !bytes.Equal(fixed, again) {
			t.Fatalf("accepted spec is not a fixed point of the boundary (%v):\n%s\n%s", err, again, fixed)
		}
	})
}
