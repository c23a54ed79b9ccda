// Package client is the Go client for the tbpointd HTTP API. It exists so
// the server tests, internal/e2e and cmd/tbpointctl exercise the same
// wire path an external caller would — no test-only backdoors into the
// driver.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tbpoint/internal/server"
)

// Client talks to one tbpointd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:8338").
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// APIError is a non-2xx daemon response: the HTTP status and the decoded
// {"error": ...} message.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("HTTP %d", e.Status)
}

// do issues one request and decodes the JSON response into out (unless out
// is nil). Non-2xx responses come back as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			ae.Message = fmt.Sprintf("%s %s: %s", method, path, e.Error)
		} else {
			ae.Message = fmt.Sprintf("%s %s", method, path)
		}
		return ae
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/jobs", spec, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists every job the daemon knows about.
func (c *Client) Jobs(ctx context.Context) ([]server.JobStatus, error) {
	return c.JobsInState(ctx, "")
}

// JobsInState lists the daemon's jobs filtered to one state ("" = all),
// e.g. server.StateQuarantined for the dead-letter queue.
func (c *Client) JobsInState(ctx context.Context, state server.JobState) ([]server.JobStatus, error) {
	path := "/jobs"
	if state != "" {
		path += "?state=" + string(state)
	}
	var jobs []server.JobStatus
	err := c.do(ctx, http.MethodGet, path, nil, &jobs)
	return jobs, err
}

// Ready probes GET /readyz; ok=false carries the daemon's reason (or the
// transport error if the probe itself failed).
func (c *Client) Ready(ctx context.Context) (bool, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	var body struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, fmt.Sprintf("decoding readyz response: %v (HTTP %d)", err, resp.StatusCode)
	}
	return body.Ready, body.Reason
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Result downloads a done job's results.json bytes, exactly as the daemon
// persisted them.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var data []byte
	err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &data)
	return data, err
}

// Report fetches the job's captured report text.
func (c *Client) Report(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/report", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /jobs/%s/report: HTTP %d", id, resp.StatusCode)
	}
	return string(data), nil
}

// Metrics fetches the server-wide metrics snapshot as raw JSON.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	var data []byte
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &data)
	return data, err
}

// Events streams the job's NDJSON status events, calling fn per status
// until the stream ends (terminal state) or fn returns an error, which is
// propagated.
func (c *Client) Events(ctx context.Context, id string, fn func(server.JobStatus) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /jobs/%s/events: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st server.JobStatus
		if err := json.Unmarshal(line, &st); err != nil {
			return fmt.Errorf("decoding event: %w", err)
		}
		if err := fn(st); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Wait blocks until the job reaches a terminal state (or ctx dies) and
// returns the final status. It follows the job's /events stream, which the
// daemon ends with the terminal status, so it returns as soon as the job
// finishes. A stream that is refused, or that ends before a terminal state
// (the daemon went away), is an error naming the job and its last state;
// calling Wait again once the daemon is back (tbpointctl wait <id>) is the
// recovery, since jobs survive restarts. poll is ignored, kept only because
// bench/ passes it.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.Events(ctx, id, func(s server.JobStatus) error {
		st = s
		return nil
	})
	if err == nil && st.State.Terminal() {
		return st, nil
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if err == nil {
		err = errors.New("event stream ended before a terminal state")
	}
	return st, fmt.Errorf("waiting for job %s (last state %q): %w", id, st.State, err)
}
