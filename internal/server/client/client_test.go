package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

// TestWaitRidesEvents: Wait follows /events and returns the last status the
// stream delivers. A stream that is refused (404) or that ends before a
// terminal state is an error naming the job, a refusal also carrying the
// daemon's status and error text, and Wait never falls back to
// GET /jobs/{id}. A daemon that is gone once the stream ends (it closed its
// listener) ends Wait at once with that error; waiting again after the
// restart is the recovery.
func TestWaitRidesEvents(t *testing.T) {
	for _, tc := range []struct {
		name    string
		events  func(w http.ResponseWriter) // nil: the daemon's 404 for an unknown job
		gone    bool                        // the daemon stops listening once the stream starts
		wantErr bool
	}{
		{"terminal", func(w http.ResponseWriter) {
			enc := json.NewEncoder(w)
			enc.Encode(server.JobStatus{ID: "j1", State: server.StateRunning})
			w.(http.Flusher).Flush()
			enc.Encode(server.JobStatus{ID: "j1", State: server.StateDone, CacheHits: 7})
		}, false, false},
		{"not found", nil, false, true},
		{"ends early", func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateRunning})
		}, false, true},
		{"daemon gone", func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateRunning})
		}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var polls, streams atomic.Int64
			var srv *httptest.Server
			mux := http.NewServeMux()
			mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
				streams.Add(1)
				if tc.events == nil {
					w.WriteHeader(http.StatusNotFound)
					json.NewEncoder(w).Encode(map[string]string{"error": server.ErrNotFound.Error()})
					return
				}
				if tc.gone {
					// No keep-alive: a later request would dial the closed listener.
					w.Header().Set("Connection", "close")
					srv.Listener.Close()
				}
				tc.events(w)
			})
			mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
				polls.Add(1)
				json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateDone, CacheHits: 7})
			})
			srv = httptest.NewServer(mux)
			defer srv.Close()
			start := time.Now()
			st, err := client.New(srv.URL).Wait(context.Background(), "j1", 0)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "j1") || !strings.Contains(err.Error(), string(st.State)) ||
					time.Since(start) > 500*time.Millisecond {
					t.Fatalf("Wait returned %+v, %v after %v; want an error naming j1 and its last state well inside 1s", st, err, time.Since(start))
				}
				var ae *client.APIError
				if tc.events == nil && (!errors.As(err, &ae) || ae.Status != http.StatusNotFound || !strings.Contains(err.Error(), "no such job")) {
					t.Fatalf("Wait on an unknown job returned %v, want the daemon's 404 saying \"no such job\"", err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if st.State != server.StateDone || st.CacheHits != 7 {
				t.Fatalf("status = %+v, want the terminal one", st)
			}
			if streams.Load() != 1 || polls.Load() != 0 {
				t.Fatalf("%d streams and %d polls, want 1 and 0", streams.Load(), polls.Load())
			}
		})
	}
}

// TestWaitCancelsPromptly: a cancelled context ends Wait at once, even on
// an event stream that never ends.
func TestWaitCancelsPromptly(t *testing.T) {
	streaming := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobStatus{ID: r.PathValue("id"), State: server.StateQueued})
		w.(http.Flusher).Flush()
		close(streaming)
		<-r.Context().Done() // the job never finishes
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := client.New(srv.URL).Wait(ctx, "j1", 0)
		errc <- err
	}()
	<-streaming
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return promptly after cancellation")
	}
}

// TestSubmitSurfacesOtherErrors: Submit is one POST; a 400 comes straight
// back as a typed APIError carrying the server's message.
func TestSubmitSurfacesOtherErrors(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "negative scale"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	_, err := client.New(srv.URL).Submit(context.Background(), server.JobSpec{Targets: []string{"accuracy"}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || posts.Load() != 1 {
		t.Fatalf("Submit returned %v after %d POSTs, want a 400 APIError after 1", err, posts.Load())
	}
	if !strings.Contains(ae.Message, "negative scale") {
		t.Fatalf("message %q lost the server's error text", ae.Message)
	}
}
