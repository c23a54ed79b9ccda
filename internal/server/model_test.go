package server

// The lifecycle checked against a model: seeded random sequences of submit /
// cancel / pause / unpause / journal-write fault / dispatcher panic / crash /
// restart run against the real Driver, and a small reference model — fed
// only the interpreter's transition log and the test's own knowledge of
// which journal writes it made fail — predicts what every journal replay
// must find and do. Every fault is armed through a store's
// durable.WriteFault: journal faults through d.journal.Fault under d.mu,
// the lock every journal write holds, and wedged jobs through a cacheWedge
// on d.cache, armed while the freshly opened driver is still paused.

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tbpoint/internal/faultcheck"
	"tbpoint/internal/metrics"
)

const modelCap = 1 // MaxRequeues: quarantine on the second death under a job

// modelRec is the part of a job record the model predicts.
type modelRec struct {
	state                 JobState
	requeues, runRequeues int
}

type modelJob struct {
	id, kind   string
	spec       JobSpec
	mem, disk  modelRec // this process's view; what the journal holds
	dispatched bool     // in the current process
	replayed   bool     // the current process's replay has been seen
	lostWrite  bool     // the next transition's journal write was made to fail
}

type model struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	d    *Driver
	jobs []*modelJob // accepted jobs, submission order
	byID map[string]*modelJob

	logMu sync.Mutex
	lines []string
	trace []string // every transition seen, for the determinism check

	lastDispatched map[string]int // per client, this process
	wedge          *cacheWedge    // this process's: parks the first job to write to the cache
	dispatchPanic  bool           // the next dispatch's journal write panics
}

var (
	transitionLine = regexp.MustCompile(`^job (j\d+): (\w*)->(\w+) \(([\w-]+)\)`)
	lostWriteLine  = regexp.MustCompile(`^journaling (j\d+) (\w*)->(\w+) failed`)
)

func (m *model) logf(format string, args ...interface{}) {
	m.logMu.Lock()
	m.lines = append(m.lines, fmt.Sprintf(format, args...))
	m.logMu.Unlock()
}

func (m *model) open(paused bool) {
	m.t.Helper()
	// What replay must do, from what the journal holds.
	for _, j := range m.jobs {
		j.mem, j.dispatched, j.replayed, j.lostWrite = j.disk, false, j.disk.state.Terminal(), false
	}
	m.lastDispatched, m.dispatchPanic = map[string]int{}, false
	d, err := Open(Config{StateDir: m.dir, Dispatchers: 1, Paused: true,
		MaxRequeues: modelCap, Metrics: metrics.New(), Logf: m.logf})
	if err != nil {
		m.t.Fatalf("open: %v", err)
	}
	m.d, m.wedge = d, wedgeCache(d)
	d.SetPaused(paused)
	m.settle()
	for _, j := range m.jobs {
		if !j.replayed {
			m.t.Fatalf("job %s (journaled %s) was not replayed", j.id, j.disk.state)
		}
	}
}

// observe feeds the interpreter's log to the model.
func (m *model) observe() {
	m.t.Helper()
	m.logMu.Lock()
	lines := m.lines
	m.lines = nil
	m.logMu.Unlock()
	for _, line := range lines {
		if f := lostWriteLine.FindStringSubmatch(line); f != nil {
			m.byID[f[1]].lostWrite = true
			continue
		}
		f := transitionLine.FindStringSubmatch(line)
		if f == nil {
			continue
		}
		j, from, to, ev := m.byID[f[1]], JobState(f[2]), JobState(f[3]), f[4]
		m.trace = append(m.trace, f[0])
		if j == nil {
			m.t.Fatalf("transition of a job nobody was told was accepted: %s", line)
		}
		if ev == "panic" && j.mem.state == StateQueued && m.dispatchPanic {
			// The dispatch's own journal write panicked, so the dispatch was
			// never logged: the job went running in memory only.
			m.dispatched(line, j)
			j.mem.state, j.kind, m.dispatchPanic = StateRunning, "panic", false
		}
		if from != j.mem.state {
			m.t.Fatalf("%s: model has the job %q", line, j.mem.state)
		}
		want := j.mem
		want.state = to
		switch {
		case strings.HasPrefix(ev, "replay"):
			// The model's own replay rule, from the journaled record alone.
			want = j.disk
			want.requeues++
			want.state = StateQueued
			if j.disk.state == StateRunning {
				if want.runRequeues++; want.runRequeues > modelCap {
					want.state = StateQuarantined
				}
			}
			if j.replayed || to != want.state {
				m.t.Fatalf("%s: journal held %+v, model replays it once, to %s", line, j.disk, want.state)
			}
			if to == StateQuarantined && want.runRequeues != modelCap+1 {
				m.t.Fatalf("%s: quarantined at run_requeues %d, cap %d", line, want.runRequeues, modelCap)
			}
			j.replayed = true
		case ev == "dispatch":
			m.dispatched(line, j)
		case to == StateDone && j.disk.state == StateDone:
			m.t.Fatalf("%s: done twice", line)
		}
		j.mem = want
		if !j.lostWrite {
			j.disk = j.mem
		}
		j.lostWrite = false
	}
}

// dispatched checks a dispatch against the model: at most once per process,
// and in submission order within each client.
func (m *model) dispatched(line string, j *modelJob) {
	m.t.Helper()
	n, _ := strconv.Atoi(j.id[1:])
	if j.dispatched {
		m.t.Fatalf("%s: second dispatch in one process", line)
	}
	if last := m.lastDispatched[j.spec.clientKey()]; n < last {
		m.t.Fatalf("%s: client %s's j%06d was dispatched before it (FIFO per client)", line, j.spec.clientKey(), last)
	}
	j.dispatched, m.lastDispatched[j.spec.clientKey()] = true, n
}

// settle waits until the driver has nothing left to do on its own — no
// job running to completion, no dispatcher about to pick one up — then
// checks every job's status against the model.
func (m *model) settle() {
	m.t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		m.d.mu.Lock()
		busy, queued, wedged := false, 0, 0
		for _, id := range m.d.order {
			switch j := m.d.jobs[id]; {
			case j.rec.State == StateQueued:
				queued++
			case j.rec.State == StateRunning && m.wedge.holding(): // the one dispatcher's job
				wedged++
			case j.rec.State == StateRunning:
				busy = true
			}
		}
		idle := !m.d.paused && !m.d.closed && queued > 0 && wedged == 0 // one dispatcher
		m.d.mu.Unlock()
		if !busy && !idle {
			break
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("driver never settled (busy %v, %d queued, %d wedged)", busy, queued, wedged)
		}
	}
	m.observe()
	got := m.d.Jobs()
	if len(got) != len(m.jobs) {
		m.t.Fatalf("driver knows %d jobs, %d were accepted", len(got), len(m.jobs))
	}
	for i, j := range m.jobs {
		if st := got[i]; st.ID != j.id || st.State != j.mem.state || st.Requeues != j.mem.requeues || st.RunRequeues != j.mem.runRequeues {
			m.t.Fatalf("job %d is %s %s requeues=%d run_requeues=%d, model has %s %+v",
				i, st.ID, st.State, st.Requeues, st.RunRequeues, j.id, j.mem)
		}
	}
}

func (m *model) arm(in *faultcheck.Injector) {
	m.d.mu.Lock()
	m.d.journal.Fault = in
	m.d.mu.Unlock()
}

// cancel cancels a job. A running job's cancel only takes effect once its
// run is out of the wedge, so a job parked there — now, or on its way out —
// is released.
func (m *model) cancel(id string) {
	m.t.Helper()
	if _, err := m.d.Cancel(id); err != nil {
		m.t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if st, _ := m.d.Status(id); st.State != StateRunning {
			return
		}
		if m.wedge.holding() {
			m.wedge.release()
			return
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("cancelled job %s never left running", id)
		}
	}
}

// panicAtDispatch is the dispatcher-panic event: with the driver paused, no
// job running and one queued, it arms a panic in the next journal write and
// unpauses, so the dispatch of the head job panics in its own journal write.
// The job fails as a panic and the one dispatcher slot restarts.
func (m *model) panicAtDispatch() {
	m.d.mu.Lock()
	running, queued := false, false
	for _, j := range m.d.jobs {
		running = running || j.rec.State == StateRunning
		queued = queued || j.rec.State == StateQueued
	}
	armed := m.d.paused && !running && queued
	if armed {
		m.d.journal.Fault = faultcheck.OnNth(1, faultcheck.Panic)
	}
	m.d.mu.Unlock()
	if armed {
		m.dispatchPanic = true
		m.d.SetPaused(false)
	}
}

func (m *model) submit() {
	m.t.Helper()
	spec, kind := cheapSpec(), "clean"
	switch r := m.rng.Intn(10); {
	case r < 3: // parks in its first cache write
		spec, kind = wedgeSpec(), "wedge"
	case r < 4: // aborts before its first cell
		spec.Targets, spec.Deadline, kind = []string{"accuracy"}, Duration(time.Nanosecond), "deadline"
	}
	spec.Client = []string{"", "a", "b"}[m.rng.Intn(3)]
	spec.Priority = m.rng.Intn(3)
	st, err := m.d.Submit(spec)
	if err != nil {
		// Only an injected journal fault may refuse a valid spec, and it
		// must leave no trace: the next accepted job takes the same ID.
		if !errors.Is(err, faultcheck.ErrInjected) {
			m.t.Fatalf("submit: %v", err)
		}
		return
	}
	if want := fmt.Sprintf("j%06d", len(m.jobs)+1); st.ID != want {
		m.t.Fatalf("accepted as %s, want %s", st.ID, want)
	}
	j := &modelJob{id: st.ID, kind: kind, spec: st.Spec}
	m.jobs = append(m.jobs, j)
	m.byID[j.id] = j
}

// runSequence plays one seeded sequence and returns its transition trace.
func runSequence(t *testing.T, seed int64) []string {
	m := &model{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(), byID: map[string]*modelJob{}}
	m.open(m.rng.Intn(2) == 0)
	for op, n := 0, 8+m.rng.Intn(8); op < n; op++ {
		switch r := m.rng.Intn(21); {
		case r < 9:
			m.submit()
		case r < 12 && len(m.jobs) > 0:
			m.cancel(m.jobs[m.rng.Intn(len(m.jobs))].id)
		case r < 14:
			m.d.SetPaused(true)
		case r < 16:
			m.d.SetPaused(false)
		case r < 17: // a transient fault: the next journal write fails
			m.arm(faultcheck.OnNth(1, faultcheck.Error))
		case r < 18:
			m.panicAtDispatch()
		case r < 20: // kill -9: nothing reaches the journal any more, then the process is gone
			m.arm(faultcheck.Always(faultcheck.Error))
			fallthrough
		default: // graceful restart
			m.d.Close()
			m.observe()
			m.open(m.rng.Intn(3) == 0)
		}
		m.settle()
	}

	// Drain: a clean process runs everything left; wedged jobs are cancelled.
	m.d.Close()
	m.observe()
	m.open(false)
	for _, j := range m.jobs {
		if j.kind == "wedge" {
			m.cancel(j.id)
			m.settle()
		}
	}
	for _, j := range m.jobs {
		if !j.mem.state.Terminal() {
			t.Fatalf("accepted job %s (%s) ended the drain %s", j.id, j.kind, j.mem.state)
		}
		if j.kind == "clean" && j.mem.state == StateFailed {
			t.Fatalf("clean job %s failed", j.id)
		}
	}
	m.d.Close()
	return m.trace
}

// TestModelRandomSequences: across 200 seeded sequences no accepted job is
// lost, none is dispatched twice in a process or done twice, requeues and
// run_requeues count exactly the restarts that found the job queued or
// running, quarantine fires at exactly cap+1, and each client's jobs are
// dispatched in submission order.
func TestModelRandomSequences(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			runSequence(t, seed)
		})
	}
}

// TestModelDeterministicPerSeed: one dispatcher and a settle after every
// operation make a seed's whole transition trace reproducible.
func TestModelDeterministicPerSeed(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, b := runSequence(t, seed), runSequence(t, seed)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("seed %d: two runs differ:\n%s\n--- vs ---\n%s", seed, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
}
