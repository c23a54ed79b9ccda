// Package e2e holds the proofs that need a real process: it builds
// cmd/experiments, cmd/tbpointd and cmd/tbpointctl once and drives them the
// way a user (or a crash) would — exit codes, kill -9, os.Exit inside a
// daemon, bytes on disk. Behaviour an in-process test already pins
// (internal/server, internal/experiments) is deliberately not repeated here.
//
// Skipped under -short. Under -race the binaries are race-built as well, so
// `go test -race ./internal/e2e/` runs the daemon's whole driver/dispatcher
// path under the detector while it serves.
package e2e

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

// binDir holds the built experiments, tbpointd and tbpointctl.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		return
	}
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "tbpoint-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	if raceEnabled {
		args = append(args, "-race")
	}
	build := exec.Command("go", append(args, "tbpoint/cmd/experiments", "tbpoint/cmd/tbpointd", "tbpoint/cmd/tbpointctl")...)
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: building the binaries under test:", err)
		return 1
	}
	binDir = dir
	return m.Run()
}

// bin is the path of a built binary. TestMain's go build is invisible to the
// test cache, so bin lists the command's source directory from inside the
// test: an edit under cmd/<name> then invalidates a cached pass.
func bin(name string) string {
	os.ReadDir(filepath.Join("..", "..", "cmd", name))
	return filepath.Join(binDir, name)
}

// stepTimeout bounds every single wait (one process run, one job, one
// poll-until) so a hang fails the test that caused it instead of the suite.
const stepTimeout = time.Minute

// result is a finished process: code is -1 when it could not be started or
// did not exit on its own (stderr then says why).
type result struct {
	stdout, stderr string
	code           int
}

// run executes a built binary to completion. Safe off the test goroutine.
func run(env []string, name string, args ...string) result {
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin(name), args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		return result{stderr: err.Error(), code: -1}
	}
	return result{out.String(), errb.String(), cmd.ProcessState.ExitCode()}
}

// waitFor polls cond until it holds; the sleep only paces the poll.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(stepTimeout); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*stepTimeout)
	t.Cleanup(cancel)
	return ctx
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// artifact writes data to $CI_ARTIFACT_DIR/name, the directory the workflow
// uploads when a run goes red. Best-effort, and a no-op outside CI.
func artifact(name string, data []byte) {
	if dir := os.Getenv("CI_ARTIFACT_DIR"); dir != "" && os.MkdirAll(dir, 0o755) == nil {
		os.WriteFile(filepath.Join(dir, name), data, 0o644)
	}
}

// keepOnFailure makes the file at path an artifact if the test fails.
func keepOnFailure(t *testing.T, path, name string) {
	t.Cleanup(func() {
		if data, err := os.ReadFile(path); t.Failed() && err == nil {
			artifact(name, data)
		}
	})
}

// daemon is one running tbpointd process.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	c       *client.Client
	url     string
	logPath string
	exited  chan struct{} // closed once the process has been reaped
}

// startDaemon boots tbpointd and fails the test unless it comes up serving.
func startDaemon(t *testing.T, name, state string, args ...string) *daemon {
	t.Helper()
	d := bootDaemon(t, name, state, nil, args...)
	if d.dead() {
		t.Fatalf("tbpointd exited before serving:\n%s", d.log())
	}
	return d
}

// bootDaemon starts tbpointd, with env added to its environment, on an
// ephemeral port over the given state directory and returns once it has
// written its address file — or died first, which a daemon replaying a
// crash-looping job may (d.c is then nil). If the test fails, the log
// (appended to across boots over one state directory) and a last metrics
// snapshot become the artifacts <name>_daemon.log and <name>_metrics.json.
func bootDaemon(t *testing.T, name, state string, env []string, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, logPath: state + ".log", exited: make(chan struct{})}
	addrFile := filepath.Join(t.TempDir(), "addr")
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(bin("tbpointd"), append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state-dir", state, "-v"}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.Env = append(os.Environ(), env...)
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		if t.Failed() && d.c != nil && !d.dead() {
			if snap, err := d.c.Metrics(context.Background()); err == nil {
				artifact(name+"_metrics.json", snap)
			}
		}
		d.kill()
		if t.Failed() {
			artifact(name+"_daemon.log", []byte(d.log()))
		}
		if raceEnabled && strings.Contains(d.log(), "WARNING: DATA RACE") {
			t.Errorf("%s daemon reported a data race:\n%s", name, d.log())
		}
	})
	var addr []byte
	waitFor(t, "tbpointd to write its address file", func() bool {
		addr, _ = os.ReadFile(addrFile)
		return len(addr) > 0 || d.dead()
	})
	if len(addr) > 0 {
		d.url = "http://" + strings.TrimSpace(string(addr))
		d.c = client.New(d.url)
	}
	return d
}

func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// kill is kill -9: no shutdown path runs.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) log() string {
	data, _ := os.ReadFile(d.logPath)
	return string(data)
}

// ctl runs tbpointctl against this daemon.
func (d *daemon) ctl(args ...string) result {
	return run([]string{"TBPOINTD_ADDR=" + d.url}, "tbpointctl", args...)
}

// submit posts the job and returns its ID.
func (d *daemon) submit(ctx context.Context, spec server.JobSpec) string {
	d.t.Helper()
	st, err := d.c.Submit(ctx, spec)
	if err != nil {
		d.t.Fatal(err)
	}
	return st.ID
}

// waitRunning returns once a dispatcher holds the job.
func (d *daemon) waitRunning(ctx context.Context, id string) {
	d.t.Helper()
	waitFor(d.t, "job "+id+" to be running", func() bool {
		st, err := d.c.Status(ctx, id)
		return err == nil && st.State == server.StateRunning
	})
}

// counter reads one server-wide counter off GET /metrics.
func (d *daemon) counter(c metrics.Counter) uint64 {
	d.t.Helper()
	data, err := d.c.Metrics(context.Background())
	if err != nil {
		d.t.Fatal(err)
	}
	snap, err := metrics.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		d.t.Fatalf("GET /metrics is not a metrics snapshot: %v", err)
	}
	return snap.Counters[c.Name()]
}

// finish waits for the job and fails the test unless it ends in want.
func (d *daemon) finish(ctx context.Context, id string, want server.JobState) server.JobStatus {
	d.t.Helper()
	st, err := d.c.Wait(ctx, id, 0)
	if err != nil || st.State != want {
		d.t.Fatalf("job %s ended %q (%v), want %q: %+v\n%s", id, st.State, err, want, st, d.log())
	}
	return st
}

// oneShot is the cmd/experiments run every served job is compared against:
// the enveloped -json bytes of `experiments -scale 0.02 -seed 7 <args>
// accuracy`.
func oneShot(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "oneshot.json")
	r := run(nil, "experiments", append(append([]string{"-par", "1", "-scale", "0.02", "-seed", "7", "-json", out}, args...), "accuracy")...)
	if r.code != 0 {
		t.Fatalf("one-shot experiments %v exited %d:\n%s", args, r.code, r.stderr)
	}
	return readFile(t, out)
}

// streamJob is the cheapest real job: one benchmark of the accuracy grid.
func streamJob() server.JobSpec {
	return server.JobSpec{Targets: []string{"accuracy"}, Scale: 0.02, Seed: 7, Benchmarks: []string{"stream"}}
}
