package server

import (
	"net/http/httptest"
	"testing"
	"time"
)

// TestRetryAfterRoundsUp: the 429 hint is whole seconds rounded up, at least
// one, so a client honouring it never retries before the server asked.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct {
		after time.Duration
		want  string
	}{{0, "1"}, {-time.Second, "1"}, {time.Millisecond, "1"}, {time.Second, "1"},
		{1100 * time.Millisecond, "2"}, {1500 * time.Millisecond, "2"}, {2 * time.Second, "2"}} {
		w := httptest.NewRecorder()
		writeError(w, &OverloadError{Scope: "global", RetryAfter: c.after})
		if got := w.Header().Get("Retry-After"); w.Code != 429 || got != c.want {
			t.Errorf("RetryAfter %v: HTTP %d Retry-After %q, want 429 %q", c.after, w.Code, got, c.want)
		}
	}
}
