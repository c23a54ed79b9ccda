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

// fakeDaemon serves GET /jobs/{id} with the status that state(n) returns
// for the n-th poll (1-based), counting requests.
func fakeDaemon(t *testing.T, polls *atomic.Int64, state func(n int64) server.JobState) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		n := polls.Add(1)
		json.NewEncoder(w).Encode(server.JobStatus{ID: r.PathValue("id"), State: state(n)})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestWaitRidesEvents: Wait follows /events and returns the last status the
// stream delivers without a single poll. A stream that is refused (404, a
// daemon or proxy without the endpoint) or that ends before a terminal state
// falls back to polling.
func TestWaitRidesEvents(t *testing.T) {
	for _, tc := range []struct {
		name      string
		events    func(w http.ResponseWriter) // nil: 404
		wantPolls int64
	}{
		{"terminal", func(w http.ResponseWriter) {
			enc := json.NewEncoder(w)
			enc.Encode(server.JobStatus{ID: "j1", State: server.StateRunning})
			w.(http.Flusher).Flush()
			enc.Encode(server.JobStatus{ID: "j1", State: server.StateDone, CacheHits: 7})
		}, 0},
		{"not found", nil, 1},
		{"ends early", func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateRunning})
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var polls, streams atomic.Int64
			mux := http.NewServeMux()
			mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
				streams.Add(1)
				if tc.events == nil {
					http.NotFound(w, r)
					return
				}
				tc.events(w)
			})
			mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
				polls.Add(1)
				json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateDone, CacheHits: 7})
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()
			st, err := client.New(srv.URL).Wait(context.Background(), "j1", time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != server.StateDone || st.CacheHits != 7 {
				t.Fatalf("status = %+v, want the terminal one", st)
			}
			if streams.Load() != 1 || polls.Load() != tc.wantPolls {
				t.Fatalf("%d streams and %d polls, want 1 and %d", streams.Load(), polls.Load(), tc.wantPolls)
			}
		})
	}
}

// TestWaitReturnsOnTerminal: without /events (fakeDaemon 404s it) Wait polls
// until the daemon reports a terminal state and returns it.
func TestWaitReturnsOnTerminal(t *testing.T) {
	var polls atomic.Int64
	srv := fakeDaemon(t, &polls, func(n int64) server.JobState {
		if n >= 3 {
			return server.StateDone
		}
		return server.StateRunning
	})
	st, err := client.New(srv.URL).Wait(context.Background(), "j1", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if n := polls.Load(); n != 3 {
		t.Fatalf("polled %d times, want 3", n)
	}
}

// TestWaitBacksOff: against a job that never finishes, the poll interval
// must grow — a 10ms base over a ~1.5s window makes well under 40 requests
// with exponential backoff (capped at 16x base), versus ~150 with fixed
// polling. This is the thundering-herd guard for many clients waiting on a
// loaded daemon.
func TestWaitBacksOff(t *testing.T) {
	var polls atomic.Int64
	srv := fakeDaemon(t, &polls, func(int64) server.JobState { return server.StateRunning })
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	if _, err := client.New(srv.URL).Wait(ctx, "j1", 10*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait returned %v, want deadline exceeded", err)
	}
	if n := polls.Load(); n > 40 {
		t.Fatalf("polled %d times in 1.5s with 10ms base — backoff not applied", n)
	}
}

// TestWaitCancelsPromptly: a cancelled context interrupts the backoff sleep
// immediately, even when the interval has grown long.
func TestWaitCancelsPromptly(t *testing.T) {
	var polls atomic.Int64
	srv := fakeDaemon(t, &polls, func(int64) server.JobState { return server.StateQueued })
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// A 10s base would sleep far past the test timeout if cancellation
		// had to wait the interval out.
		_, err := client.New(srv.URL).Wait(ctx, "j1", 10*time.Second)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let Wait enter its first sleep
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

// overloadedDaemon 429s the first `rejects` POST /jobs requests (with the
// given Retry-After header, if any), then accepts with 202.
func overloadedDaemon(t *testing.T, rejects int64, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) <= rejects {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "job queue is full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &posts
}

// TestSubmitRetriesOverload: a 429 admission rejection is retried with
// backoff until the daemon accepts — the caller sees only the eventual
// success.
func TestSubmitRetriesOverload(t *testing.T) {
	srv, posts := overloadedDaemon(t, 2, "")
	st, err := client.New(srv.URL).Submit(context.Background(), server.JobSpec{Targets: []string{"accuracy"}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "j1" || st.State != server.StateQueued {
		t.Fatalf("accepted status = %+v", st)
	}
	if n := posts.Load(); n != 3 {
		t.Fatalf("POSTed %d times, want 3 (two rejections, one acceptance)", n)
	}
}

// TestSubmitHonorsRetryAfter: the server's Retry-After hint stretches the
// backoff — with a 2s hint and a 300ms context, Submit must still be
// sleeping (not hammering the daemon) when the context dies, and the error
// reports both the timeout and the last rejection.
func TestSubmitHonorsRetryAfter(t *testing.T) {
	srv, posts := overloadedDaemon(t, 1<<30, "2")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := client.New(srv.URL).Submit(ctx, server.JobSpec{Targets: []string{"accuracy"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit returned %v, want deadline exceeded", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || !ae.Overloaded() || ae.RetryAfter != 2*time.Second {
		t.Fatalf("error %v does not carry the parsed 429 rejection (got %+v)", err, ae)
	}
	// One initial attempt, zero retries: the 2s hint outlives the context.
	if n := posts.Load(); n != 1 {
		t.Fatalf("POSTed %d times inside a 2s Retry-After window, want exactly 1", n)
	}
}

// TestSubmitSurfacesOtherErrors: only 429 is retried; a 400 comes straight
// back as a typed APIError.
func TestSubmitSurfacesOtherErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "negative scale"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	_, err := client.New(srv.URL).Submit(context.Background(), server.JobSpec{Targets: []string{"accuracy"}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Overloaded() {
		t.Fatalf("Submit returned %v, want a 400 APIError", err)
	}
	if !strings.Contains(ae.Message, "negative scale") {
		t.Fatalf("message %q lost the server's error text", ae.Message)
	}
}
