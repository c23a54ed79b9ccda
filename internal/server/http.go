package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"
)

// eventInterval is the default progress cadence of the events stream.
const eventInterval = 500 * time.Millisecond

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz              liveness probe (200 while the process serves)
//	GET  /readyz               readiness probe: 503 while paused or
//	                           draining, 200 otherwise
//	GET  /metrics              server-wide metrics snapshot (JSON)
//	POST /jobs                 submit a JobSpec, returns 202 + JobStatus
//	GET  /jobs                 list all known jobs (history survives
//	                           restarts); ?state= filters (unknown: 400)
//	GET  /jobs/{id}            one job's status (live progress while running)
//	GET  /jobs/{id}/events     chunked NDJSON status stream until terminal
//	GET  /jobs/{id}/result     the done job's results.json, byte-identical
//	                           to the one-shot CLI's -json output
//	GET  /jobs/{id}/report     the job's captured report text
//	POST /jobs/{id}/cancel     cancel queued or running job
//
// Everything is plain net/http + JSON; errors come back as
// {"error": "..."} with a conventional status code.
func (d *Driver) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := d.Ready()
		if !ready {
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"ready": false, "reason": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := d.Metrics().WriteJSON(w); err != nil {
			d.logf("writing metrics: %v", err)
		}
	})
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		state := JobState(r.URL.Query().Get("state"))
		if state != "" && !slices.Contains(jobStates, state) {
			writeError(w, fmt.Errorf("server: unknown job state %q (known: %v)", state, jobStates))
			return
		}
		writeJSON(w, http.StatusOK, d.JobsInState(state))
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := d.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data, err := d.Result(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		text, err := d.Report(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(text))
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := d.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	return mux
}

// maxSpecBytes bounds a POST /jobs body; a job spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

func (d *Driver) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields() // typos in a curl body should fail loudly
	err := dec.Decode(&spec)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the job spec object")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decoding job spec: " + err.Error()})
		return
	}
	st, err := d.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams the job's status as chunked NDJSON — one JSON
// object per line, a new line whenever progress ticks, the final line
// carrying the terminal state. Clients just read lines until EOF.
func (d *Driver) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	done, err := d.Done(id)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() bool {
		st, err := d.Status(id)
		if err != nil || enc.Encode(st) != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return !st.State.Terminal()
	}
	ticker := time.NewTicker(eventInterval)
	defer ticker.Stop()
	for emit() {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			// Fall through to emit the terminal status immediately.
		case <-ticker.C:
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps driver errors onto HTTP status codes: unknown job → 404,
// driver shut down → 503, the daemon's own failure → 500, everything else
// (validation, bad state) → 400.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.As(err, new(internalError)):
		code = http.StatusInternalServerError
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrShutdown):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
