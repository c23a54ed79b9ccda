package e2e

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
)

// parseStatusLine splits a tbpointctl status line back into its key=value
// fields. error= comes last and is Go-quoted (it may hold spaces); every
// other value is a bare token.
func parseStatusLine(t *testing.T, line string) map[string]string {
	t.Helper()
	head, quoted, ok := strings.Cut(strings.TrimSpace(line), " error=")
	msg, err := strconv.Unquote(quoted)
	if !ok || err != nil {
		t.Fatalf("status line has no well-formed error= tail: %q", line)
	}
	fields := map[string]string{"error": msg}
	for _, kv := range strings.Fields(head) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("status line field %q is not key=value: %q", kv, line)
		}
		fields[k] = v
	}
	return fields
}

// checkStatusLine asserts line is exactly the rendering of st: every field
// tbpointctl prints parses back to the JobStatus value it was printed from.
func checkStatusLine(t *testing.T, line string, st server.JobStatus) {
	t.Helper()
	want := map[string]string{
		"id": st.ID, "state": string(st.State), "wall_seconds": fmt.Sprintf("%.3f", st.WallSeconds),
		"cache_misses": fmt.Sprint(st.CacheMisses),
		"subcell_hits": fmt.Sprint(st.SubcellHits), "subcell_misses": fmt.Sprint(st.SubcellMisses),
		"outcome_hits": fmt.Sprint(st.OutcomeHits), "outcome_misses": fmt.Sprint(st.OutcomeMisses),
		"cells_failed": fmt.Sprint(st.CellsFailed), "requeues": fmt.Sprint(st.Requeues),
		"run_requeues": fmt.Sprint(st.RunRequeues), "failure_kind": st.FailureKind(), "error": st.Error,
	}
	got := parseStatusLine(t, line)
	if len(got) != len(want) {
		t.Errorf("status line has %d fields, want %d: %q", len(got), len(want), line)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("status line %s=%q, want %q (job %+v)", k, got[k], v, st)
		}
	}
}

// TestCtlEverySubcommand drives each tbpointctl subcommand against a real
// daemon and checks it against the typed client's view of the same job:
// output, exit status, and — because the job is submitted through
// tbpointctl's flags — the flag-to-JobSpec wiring, by comparing the download
// with the one-shot CLI run of the same flags.
func TestCtlEverySubcommand(t *testing.T) {
	ctx := testContext(t)
	d := startDaemon(t, "ctl", filepath.Join(t.TempDir(), "state"), "-dispatchers", "1")
	flags := []string{"-scale", "0.02", "-seed", "7", "-bench", "stream", "accuracy"}
	ok := func(args ...string) string {
		t.Helper()
		r := d.ctl(args...)
		if r.code != 0 {
			t.Fatalf("tbpointctl %v exited %d:\n%s%s", args, r.code, r.stdout, r.stderr)
		}
		return r.stdout
	}
	lastLine := func(out string) string {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		return lines[len(lines)-1]
	}

	id := strings.TrimSpace(ok(append([]string{"submit"}, flags...)...))
	waited := ok("wait", id)
	st, err := d.c.Status(ctx, id)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("tbpointctl wait returned 0 for %+v (%v)", st, err)
	}
	checkStatusLine(t, waited, st)
	checkStatusLine(t, ok("status", id), st)
	checkStatusLine(t, lastLine(ok("events", id)), st)
	if listed := ok("list", "-state", "done"); strings.Count(listed, "\n") != 1 {
		t.Errorf("list -state done printed %q, want one line", listed)
	} else {
		checkStatusLine(t, listed, st)
	}

	want := oneShot(t, "-bench", "stream")
	out := filepath.Join(t.TempDir(), "results.json")
	ok("result", "-o", out, id)
	if !bytes.Equal(readFile(t, out), want) || ok("result", id) != string(want) {
		t.Error("tbpointctl result differs from the one-shot CLI run of the same flags")
	}
	if report, err := d.c.Report(ctx, id); err != nil || report == "" || ok("report", id) != report {
		t.Errorf("tbpointctl report differs from GET /jobs/%s/report (%v)", id, err)
	}
	if snap, err := metrics.ReadSnapshot(strings.NewReader(ok("metrics"))); err != nil || snap.Counters[metrics.ServerJobsDone.Name()] != 1 {
		t.Errorf("tbpointctl metrics: %v, counters %v", err, snap.Counters)
	}

	// Exit statuses: wait and submit -wait exit 0 only for done.
	r := d.ctl(append([]string{"submit", "-wait", "-deadline", "1ns"}, flags...)...)
	if got := parseStatusLine(t, r.stdout); r.code != 1 || got["state"] != string(server.StateFailed) || got["failure_kind"] != server.FailureError {
		t.Errorf("submit -wait of a job past its deadline: exit %d, %q; want 1 and failure_kind=error", r.code, r.stdout)
	}
	paused := startDaemon(t, "ctl_paused", filepath.Join(t.TempDir(), "state"), "-paused")
	queued := strings.TrimSpace(paused.ctl(append([]string{"submit"}, flags...)...).stdout)
	if r := paused.ctl("cancel", queued); r.code != 0 || parseStatusLine(t, r.stdout)["id"] != queued {
		t.Errorf("cancel of queued job %q: exit %d, %q", queued, r.code, r.stdout)
	}
	if r := paused.ctl("wait", queued); r.code != 1 || parseStatusLine(t, r.stdout)["state"] != string(server.StateCancelled) {
		t.Errorf("wait on a cancelled job: exit %d, %q; want 1 and state=cancelled", r.code, r.stdout)
	}
	cached := parseStatusLine(t, ok(append([]string{"submit", "-wait"}, flags...)...))
	if cached["state"] != string(server.StateDone) || cached["cache_misses"] != "0" || cached["subcell_hits"] != "1" || cached["subcell_misses"] != "0" {
		t.Errorf("submit -wait of a repeat job printed %v, want done, composed from the cache", cached)
	}
	if r := d.ctl("list", "-state", "quarantned"); r.code != 1 || !strings.Contains(r.stderr, "quarantined") {
		t.Errorf("list -state with a typo exited %d, %q; want 1 and the known states", r.code, r.stderr)
	}
	if r := d.ctl("status", "j999999"); r.code != 1 {
		t.Errorf("status of an unknown job exited %d, want 1", r.code)
	}
	if r := d.ctl(); r.code != 2 {
		t.Errorf("tbpointctl with no command exited %d, want 2 (usage)", r.code)
	}
}
