#!/usr/bin/env bash
# ci.sh — the repository's single CI entry point, as named, timed stages:
#
#   fmt     gofmt -l must report nothing
#   vet     go vet over every package
#   build   go build over every package
#   benchbuild go vet + go test inside bench/, the separate tbpoint/bench
#           module behind BENCHMARK.json (root ./... never sees it), so an
#           internal/ API move that breaks the benchmark fails CI instead
#           of the next benchmark run
#   test    the full unit/integration suite
#   race    race-detector pass over the packages that run simulations
#           concurrently (the shared worker budget fans launches and
#           benchmark cells out over goroutines; see DESIGN.md), the
#           profiler's launch fan-out (funcsim) and the clustering it
#           feeds, plus the job server and the live-snapshot metrics paths
#   chaos   the cancellation/fault-injection suite (internal/faultcheck
#           driven): mid-run cancellation, per-cell panic isolation,
#           retry/resume/corruption handling across par, gpusim, core,
#           durable, experiments — plus a kill-and-resume case that
#           crashes a real experiments process at a checkpoint write and
#           proves the resumed results.json is byte-identical, and an
#           abort-flush case proving a fatally failed run still writes
#           both its results and metrics JSON
#   fuzz    10s fuzz smoke over each existing fuzz target
#   golden  cmd/goldencheck re-runs the five determinism benchmarks and
#           diffs the full metrics counter set against testdata goldens
#   samplers the pluggable estimation-strategy registry: the
#           internal/sampler test suite (registry round-trip, Neyman
#           allocation edge cases, stratified estimator properties), an
#           N-way -samplers grid smoke on two workloads (per-strategy
#           outcomes, Pareto section, CI columns, sampler.* counters), and
#           the byte-identity invariant that an explicitly selected
#           default trio equals an unflagged run
#   parsm   gpusim's epoch-parallel engine (a library option, reached via
#           experiments.FullAppParallel): race-detector pass over the
#           TestParallel* suite (barrier hammer, determinism, worker-count
#           invariance, chaos cancellation) and over the experiments test
#           that fails on any serial-vs-parallel instruction-count mismatch
#           or cycle divergence > 5%
#   serve   the tbpointd job server end to end, race-instrumented: boot on
#           an ephemeral port, submit a grid over HTTP, download the
#           results.json and cmp it against the one-shot cmd/experiments
#           output; kill -9 the daemon with a queued job and prove the
#           restart runs it; overlap a second job and prove the artifact
#           cache serves it (nonzero cache_hits, lower wall time). Then the
#           supervision chaos proofs against a -chaos daemon: an injected
#           panic fails one job (failure_kind=panic, stack recorded) while
#           the daemon keeps serving (dispatcher_restarts counted); a
#           wedged job is killed by the stuck watchdog (failure_kind=
#           stuck); a flooded queue rejects with 429 + Retry-After while
#           /readyz reports 503, and a backing-off tbpointctl submit
#           retries through to acceptance; a crash-looping job that kills
#           the daemon on every pickup is dead-lettered (quarantined) at
#           the requeue cap, after which the daemon stays up and the
#           innocent job behind it completes
#   serveload multi-tenant hardening under load: a race-built daemon with a
#           byte-bounded cache (-cache-max-bytes) takes a flooding client's
#           queue plus a small client's single job; the dispatch log must
#           show the small tenant served within one round (no starvation),
#           the cache directory must stay under its budget with
#           server.cache_evictions counted, and an overlapping-but-non-
#           identical job (same workload, wider sampler set) must reuse the
#           full reference and the stored outcomes (subcell_hits > 0,
#           outcome_hits = 3, less wall time than a -no-cache run) while
#           its results.json stays byte-identical to the one-shot CLI
#
# Usage: scripts/ci.sh [fast | stage...]
#   (no args)       run every stage
#   fast            skip the fuzz stage (quick pre-commit loop)
#   stage...        run exactly the named stages, in the order given
#                   (e.g. `scripts/ci.sh race parsm serve`); unknown
#                   stage names fail before anything runs
#   SKIP_FUZZ=1     skip only the fuzz stage (full/fast runs)
#   CI_ARTIFACT_DIR copy key outputs (results/metrics JSON, daemon logs)
#                   here so the workflow can upload them on failure
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt vet build benchbuild test race chaos fuzz golden samplers parsm serve serveload)

stage() {
  local name="$1"
  shift
  local start=$SECONDS
  echo "== ${name}"
  if "$@"; then
    echo "== ${name} ok ($((SECONDS - start))s)"
  else
    echo "== ${name} FAILED ($((SECONDS - start))s)" >&2
    return 1
  fi
}

# artifact FILE [NAME] — stash a file for the CI workflow to upload. No-op
# outside CI (CI_ARTIFACT_DIR unset); never fails the calling stage.
artifact() {
  if [[ -n "${CI_ARTIFACT_DIR:-}" && -e "$1" ]]; then
    mkdir -p "$CI_ARTIFACT_DIR"
    cp "$1" "$CI_ARTIFACT_DIR/${2:-$(basename "$1")}" 2>/dev/null || true
  fi
}

check_fmt() {
  local bad
  bad=$(gofmt -l .)
  if [[ -n "$bad" ]]; then
    echo "gofmt needed on:" >&2
    echo "$bad" >&2
    return 1
  fi
}

run_fuzz() {
  # One target per invocation: `go test -fuzz` accepts a single fuzzing
  # target at a time. -run='^$' keeps the smoke from re-running unit tests.
  go test -run='^$' -fuzz='^FuzzRead$' -fuzztime=10s ./internal/trace/
  go test -run='^$' -fuzz='^FuzzReadRegionTable$' -fuzztime=10s ./internal/core/
  go test -run='^$' -fuzz='^FuzzReadProfiles$' -fuzztime=10s ./internal/core/
  go test -run='^$' -fuzz='^FuzzReadCheckpoint$' -fuzztime=10s ./internal/durable/
  go test -run='^$' -fuzz='^FuzzStratifiedAllocate$' -fuzztime=10s ./internal/sampler/
}

run_chaos() {
  # -count=1 defeats the test cache: chaos tests exercise timing-dependent
  # cancellation paths and should actually run on every CI invocation.
  go test -count=1 -run 'Chaos|Cancel|Abort|Panic|Retry|Resume|Corrupt|Quarantine|Truncat|Crash|Concurrent|Deadline|Stuck|Watchdog|Admission|Overload|Fault' \
    ./internal/faultcheck/ ./internal/par/ ./internal/gpusim/ \
    ./internal/core/ ./internal/experiments/ ./internal/durable/ \
    ./internal/server/
  run_crash_recovery
  run_abort_flush
}

run_crash_recovery() {
  # Kill-and-resume, with a real process death: the env hook makes the
  # experiments binary os.Exit(3) at its 2nd checkpoint write, so exactly
  # one cell is durable. A resume must then simulate only the two lost
  # cells (proved via the metrics counters), and a second, fully resumed
  # run must reproduce the uninterrupted run's results.json byte for byte.
  # Subshell so the cleanup trap cannot outlive the function (a RETURN
  # trap would re-fire on every later return under set -u).
  (
  local tmp bin
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  bin="$tmp/experiments"
  go build -o "$bin" ./cmd/experiments
  local args=(-par 1 -scale 0.02 -seed 7 -bench stream,black,hotspot)

  "$bin" "${args[@]}" -json "$tmp/golden.json" accuracy >/dev/null

  if TBPOINT_CRASH_AFTER_CHECKPOINTS=2 "$bin" "${args[@]}" \
      -checkpoint-dir "$tmp/ckpt" -json "$tmp/crashed.json" accuracy \
      >/dev/null 2>"$tmp/crash.log"; then
    echo "crash-recovery: the injected crash did not kill the run" >&2
    return 1
  fi
  grep -q "injected crash" "$tmp/crash.log" || {
    echo "crash-recovery: run died but not from the injected crash:" >&2
    cat "$tmp/crash.log" >&2
    return 1
  }
  if [[ -e "$tmp/crashed.json" ]]; then
    echo "crash-recovery: the dead run left a results.json behind" >&2
    return 1
  fi

  "$bin" "${args[@]}" -checkpoint-dir "$tmp/ckpt" -resume \
    -metrics-json "$tmp/metrics.json" accuracy >/dev/null
  artifact "$tmp/metrics.json" crash_recovery_metrics.json
  grep -q '"exp.cells_resumed": 1' "$tmp/metrics.json" || {
    echo "crash-recovery: resumed run did not report exactly 1 resumed cell" >&2
    grep '"exp\.' "$tmp/metrics.json" >&2 || true
    return 1
  }
  grep -q '"exp.cells_executed": 2' "$tmp/metrics.json" || {
    echo "crash-recovery: resumed run re-executed a journaled cell" >&2
    grep '"exp\.' "$tmp/metrics.json" >&2 || true
    return 1
  }

  "$bin" "${args[@]}" -checkpoint-dir "$tmp/ckpt" -resume \
    -json "$tmp/resumed.json" accuracy >/dev/null 2>"$tmp/resume.log"
  grep -q "resumed 3 cell(s) from checkpoint, journaled 0 new" "$tmp/resume.log" || {
    echo "crash-recovery: fully resumed run still simulated cells:" >&2
    cat "$tmp/resume.log" >&2
    return 1
  }
  cmp "$tmp/golden.json" "$tmp/resumed.json" || {
    echo "crash-recovery: resumed results.json differs from the uninterrupted run" >&2
    return 1
  }
  )
}

run_abort_flush() {
  # A run stopped by a fatal target error (here: the accuracy target's
  # setup failing on an unknown benchmark) must still flush BOTH its
  # partial results.json and its metrics JSON before reporting failure —
  # the observability files are how an aborted run is diagnosed.
  (
  local tmp bin
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  bin="$tmp/experiments"
  go build -o "$bin" ./cmd/experiments
  if "$bin" -par 1 -scale 0.02 -seed 7 -bench nosuch \
      -json "$tmp/aborted.json" \
      -metrics-json "$tmp/aborted_metrics.json" accuracy \
      >/dev/null 2>"$tmp/abort.log"; then
    echo "abort-flush: an unknown benchmark did not fail the run" >&2
    return 1
  fi
  grep -q 'unknown benchmark "nosuch"' "$tmp/abort.log" || {
    echo "abort-flush: run failed, but not on the unknown benchmark:" >&2
    cat "$tmp/abort.log" >&2
    return 1
  }
  artifact "$tmp/aborted.json"
  artifact "$tmp/aborted_metrics.json"
  [[ -s "$tmp/aborted.json" ]] || {
    echo "abort-flush: fatally failed run wrote no results.json" >&2
    cat "$tmp/abort.log" >&2
    return 1
  }
  [[ -s "$tmp/aborted_metrics.json" ]] || {
    echo "abort-flush: fatally failed run wrote no metrics JSON" >&2
    return 1
  }
  )
}

run_parsm() {
  # The parallel event loop's own gates: the race detector over its test
  # suite (epoch barriers, pool shutdown, mid-epoch cancellation), then
  # over the audit that the loop, reached the way its one caller reaches
  # it, simulates exactly the serial loop's instructions with bounded
  # cycle divergence. -count=1 because these tests exist to exercise real
  # goroutine interleavings.
  go test -race -count=1 -run 'TestParallel' ./internal/gpusim/
  go test -race -count=1 -run 'TestFullAppParallelAgreesWithSerial' ./internal/experiments/
}

# wait_file FILE — poll until FILE is non-empty (daemon address files).
wait_file() {
  local i
  for i in $(seq 100); do
    [[ -s "$1" ]] && return 0
    sleep 0.1
  done
  echo "timed out waiting for $1" >&2
  return 1
}

# field LINE KEY — pull key=value out of a tbpointctl status line. The key
# must sit at the line start or after a space, so `requeues` cannot match
# inside `run_requeues`.
field() {
  sed -n -E "s/(^|.* )${2}=([^ ]*).*/\2/p" <<<"$1"
}

run_serve() {
  # The job server end to end, over real HTTP and real process death. The
  # daemon is built -race so the whole driver/dispatcher path runs under
  # the race detector while serving.
  (
  local tmp
  tmp=$(mktemp -d)
  # The pid-file glob may match nothing (clean shutdown removes them), so
  # every cleanup step is failure-proof: a failing command in an EXIT trap
  # would otherwise override the stage's real exit status under set -e.
  # shellcheck disable=SC2064
  trap "{ cat '$tmp'/*.pid 2>/dev/null | xargs -r kill 2>/dev/null; } || true; rm -rf '$tmp'" EXIT
  go build -race -o "$tmp/tbpointd" ./cmd/tbpointd
  go build -o "$tmp/tbpointctl" ./cmd/tbpointctl
  go build -o "$tmp/experiments" ./cmd/experiments
  local args=(-scale 0.02 -seed 7 -bench stream,black,hotspot)

  "$tmp/experiments" -par 1 "${args[@]}" -json "$tmp/oneshot.json" accuracy >/dev/null

  # Phase 1 — durability: a paused daemon journals the job without running
  # it, dies hard (kill -9, no shutdown path), and the restarted daemon
  # must run the job it never saw submitted.
  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr1" \
    -state-dir "$tmp/state" -paused -v >"$tmp/daemon1.log" 2>&1 &
  echo $! >"$tmp/d1.pid"
  disown # keep bash from reporting the later kill -9
  wait_file "$tmp/addr1"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr1")"
  local job line
  job=$("$tmp/tbpointctl" submit "${args[@]}" accuracy)
  line=$("$tmp/tbpointctl" status "$job")
  [[ "$(field "$line" state)" == "queued" ]] || {
    echo "serve: paused daemon ran the job anyway: $line" >&2
    return 1
  }
  kill -9 "$(cat "$tmp/d1.pid")"
  rm -f "$tmp/d1.pid"

  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr2" \
    -state-dir "$tmp/state" -v >"$tmp/daemon2.log" 2>&1 &
  echo $! >"$tmp/d2.pid"
  disown
  wait_file "$tmp/addr2"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr2")"
  line=$("$tmp/tbpointctl" wait "$job")
  artifact "$tmp/daemon1.log"
  artifact "$tmp/daemon2.log"
  [[ "$(field "$line" state)" == "done" && "$(field "$line" requeues)" == "1" ]] || {
    echo "serve: job did not survive the kill -9 restart: $line" >&2
    cat "$tmp/daemon2.log" >&2
    return 1
  }
  "$tmp/tbpointctl" result -o "$tmp/served.json" "$job"
  artifact "$tmp/served.json"
  cmp "$tmp/oneshot.json" "$tmp/served.json" || {
    echo "serve: served results.json differs from the one-shot CLI output" >&2
    return 1
  }

  # Phase 2 — the artifact cache: an overlapping second job must be served
  # from the cells the first one computed (nonzero cache_hits, nothing
  # recomputed, measurably lower wall time) and still produce identical
  # bytes.
  local job2 line2
  job2=$("$tmp/tbpointctl" submit "${args[@]}" accuracy)
  line2=$("$tmp/tbpointctl" wait "$job2")
  [[ "$(field "$line2" state)" == "done" ]] || {
    echo "serve: second job failed: $line2" >&2
    return 1
  }
  [[ "$(field "$line2" cache_hits)" -gt 0 && "$(field "$line2" cache_misses)" -eq 0 ]] || {
    echo "serve: second job was not served from the artifact cache: $line2" >&2
    return 1
  }
  awk -v a="$(field "$line" wall_seconds)" -v b="$(field "$line2" wall_seconds)" \
      'BEGIN { exit !(b < a) }' || {
    echo "serve: cached job ($line2) not faster than computed job ($line)" >&2
    return 1
  }
  "$tmp/tbpointctl" result -o "$tmp/served2.json" "$job2"
  cmp "$tmp/oneshot.json" "$tmp/served2.json" || {
    echo "serve: cache-served results.json differs from the one-shot output" >&2
    return 1
  }

  # The events stream must end on a terminal state, and the server metrics
  # must account for the cache traffic.
  "$tmp/tbpointctl" events "$job2" | tail -1 | grep -q "state=done" || {
    echo "serve: events stream did not end with the terminal state" >&2
    return 1
  }
  "$tmp/tbpointctl" metrics >"$tmp/server_metrics.json"
  artifact "$tmp/server_metrics.json"
  grep -q '"server.cache_hits": [1-9]' "$tmp/server_metrics.json" || {
    echo "serve: server.cache_hits counter not exported:" >&2
    grep '"server\.' "$tmp/server_metrics.json" >&2 || true
    return 1
  }

  # Graceful shutdown still journals a consistent queue.
  kill "$(cat "$tmp/d2.pid")"
  local i
  for i in $(seq 100); do
    kill -0 "$(cat "$tmp/d2.pid")" 2>/dev/null || break
    sleep 0.1
  done
  rm -f "$tmp/d2.pid"
  grep -q "stopped" "$tmp/daemon2.log" || {
    echo "serve: daemon did not shut down cleanly" >&2
    cat "$tmp/daemon2.log" >&2
    return 1
  }
  ) && run_serve_chaos && run_serve_quarantine
  # ^ explicit chaining: the stage runner invokes this function inside an
  # `if`, which suppresses set -e — an unchained failing phase would
  # otherwise be masked by a later passing one.
}

run_serve_chaos() {
  # Supervision under injected faults, on two -chaos daemons (the stuck
  # watchdog must be armed for the fault proofs but absent for the
  # admission proofs, or it would free the wedged dispatcher mid-test).
  # Daemon 1 (watchdog armed): panic containment — one bad job, zero
  # daemon damage, the slot restarts and serves the next job — and the
  # watchdog verdict (failure_kind=stuck). Daemon 2 (queue bound 2):
  # admission control — 429 + Retry-After over raw HTTP, /readyz 503,
  # and a tbpointctl submit that backs off through the rejections to
  # eventual acceptance.
  (
  local tmp
  tmp=$(mktemp -d)
  # shellcheck disable=SC2064
  trap "{ cat '$tmp'/*.pid 2>/dev/null | xargs -r kill 2>/dev/null; } || true; rm -rf '$tmp'" EXIT
  go build -race -o "$tmp/tbpointd" ./cmd/tbpointd
  go build -o "$tmp/tbpointctl" ./cmd/tbpointctl
  local args=(-scale 0.02 -seed 7 -bench stream)

  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr1" \
    -state-dir "$tmp/state1" -chaos -dispatchers 1 -stuck-after 10s \
    -drain-timeout 30s -v >"$tmp/daemon1.log" 2>&1 &
  echo $! >"$tmp/d1.pid"
  disown
  wait_file "$tmp/addr1"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr1")"

  # Panic containment: the job fails terminally with the panic recorded,
  # and the restarted dispatcher slot runs the next job to done.
  local line
  line=$("$tmp/tbpointctl" submit -wait -fault panic "${args[@]}" accuracy || true)
  [[ "$(field "$line" state)" == "failed" && "$(field "$line" failure_kind)" == "panic" ]] || {
    echo "serve: panic-injected job did not fail as panic: $line" >&2
    cat "$tmp/daemon1.log" >&2
    return 1
  }
  line=$("$tmp/tbpointctl" submit -wait "${args[@]}" accuracy)
  [[ "$(field "$line" state)" == "done" ]] || {
    echo "serve: job after a contained panic did not complete: $line" >&2
    cat "$tmp/daemon1.log" >&2
    return 1
  }

  # The stuck watchdog: a wedged job is cancelled and classified stuck.
  line=$("$tmp/tbpointctl" submit -wait -fault stuck "${args[@]}" accuracy || true)
  [[ "$(field "$line" state)" == "failed" && "$(field "$line" failure_kind)" == "stuck" ]] || {
    echo "serve: wedged job did not fail as stuck: $line" >&2
    cat "$tmp/daemon1.log" >&2
    return 1
  }

  "$tmp/tbpointctl" metrics >"$tmp/chaos_metrics.json"
  artifact "$tmp/chaos_metrics.json" serve_chaos_metrics.json
  artifact "$tmp/daemon1.log" serve_chaos_daemon.log
  local key
  for key in '"server.jobs_panicked": 1' '"server.jobs_stuck": 1' \
             '"server.dispatcher_restarts": [1-9]'; do
    grep -q "$key" "$tmp/chaos_metrics.json" || {
      echo "serve: supervision counter missing: $key" >&2
      grep '"server\.' "$tmp/chaos_metrics.json" >&2 || true
      return 1
    }
  done
  kill "$(cat "$tmp/d1.pid")" 2>/dev/null || true
  rm -f "$tmp/d1.pid"

  # Admission control: wedge the only dispatcher (no watchdog on this
  # daemon, so the wedge holds), fill the queue to its bound, and the
  # next raw submission must bounce with 429 + Retry-After while /readyz
  # reports 503. A tbpointctl submit launched against the full queue must
  # retry through the rejections and win once the wedge is cancelled.
  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr2" \
    -state-dir "$tmp/state2" -chaos -dispatchers 1 -max-queued 2 \
    -v >"$tmp/daemon2.log" 2>&1 &
  echo $! >"$tmp/d2.pid"
  disown
  wait_file "$tmp/addr2"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr2")"

  local wedge q1 q2 i
  wedge=$("$tmp/tbpointctl" submit -fault stuck "${args[@]}" accuracy)
  for i in $(seq 100); do
    [[ "$(field "$("$tmp/tbpointctl" status "$wedge")" state)" == "running" ]] && break
    sleep 0.1
  done
  q1=$("$tmp/tbpointctl" submit "${args[@]}" accuracy)
  q2=$("$tmp/tbpointctl" submit "${args[@]}" accuracy)
  curl -s -o "$tmp/reject.json" -D "$tmp/reject.hdr" \
    -X POST -H 'Content-Type: application/json' \
    -d '{"targets":["accuracy"],"scale":0.02,"benchmarks":["stream"]}' \
    "$TBPOINTD_ADDR/jobs"
  grep -q "429" "$tmp/reject.hdr" && grep -qi "^retry-after: [1-9]" "$tmp/reject.hdr" || {
    echo "serve: over-bound submission was not rejected with 429 + Retry-After:" >&2
    cat "$tmp/reject.hdr" "$tmp/reject.json" >&2
    return 1
  }
  curl -s -o /dev/null -w '%{http_code}' "$TBPOINTD_ADDR/readyz" | grep -q 503 || {
    echo "serve: saturated daemon still reports ready" >&2
    return 1
  }
  "$tmp/tbpointctl" submit "${args[@]}" accuracy >"$tmp/retried.id" 2>"$tmp/retried.err" &
  local subpid=$!
  sleep 1.5 # let the backing-off client take at least one 429 on the chin
  kill -0 "$subpid" 2>/dev/null || {
    echo "serve: backing-off submit returned while the queue was still full:" >&2
    cat "$tmp/retried.id" "$tmp/retried.err" >&2
    return 1
  }
  "$tmp/tbpointctl" cancel "$wedge" >/dev/null
  "$tmp/tbpointctl" cancel "$q1" >/dev/null
  "$tmp/tbpointctl" cancel "$q2" >/dev/null
  wait "$subpid" || {
    echo "serve: backing-off submit never got accepted:" >&2
    cat "$tmp/retried.err" >&2
    return 1
  }
  line=$("$tmp/tbpointctl" wait "$(cat "$tmp/retried.id")")
  [[ "$(field "$line" state)" == "done" ]] || {
    echo "serve: retried submission's job did not complete: $line" >&2
    return 1
  }
  curl -s -o /dev/null -w '%{http_code}' "$TBPOINTD_ADDR/readyz" | grep -q 200 || {
    echo "serve: drained daemon did not become ready again" >&2
    return 1
  }
  "$tmp/tbpointctl" metrics >"$tmp/admission_metrics.json"
  artifact "$tmp/admission_metrics.json" serve_admission_metrics.json
  artifact "$tmp/daemon2.log" serve_admission_daemon.log
  grep -q '"server.admission_rejects": [1-9]' "$tmp/admission_metrics.json" || {
    echo "serve: server.admission_rejects counter missing:" >&2
    grep '"server\.' "$tmp/admission_metrics.json" >&2 || true
    return 1
  }
  kill "$(cat "$tmp/d2.pid")" 2>/dev/null || true
  rm -f "$tmp/d2.pid"
  )
}

run_serve_quarantine() {
  # Poison-job quarantine with real process death: a chaos crash job makes
  # tbpointd os.Exit(3) on every pickup. Each restart replays the journal,
  # sees the job was running when the daemon died, and requeues it — until
  # the requeue cap, where it is dead-lettered instead. The daemon then
  # stays up and the innocent job queued behind the poison one completes.
  (
  local tmp
  tmp=$(mktemp -d)
  # shellcheck disable=SC2064
  trap "{ cat '$tmp'/*.pid 2>/dev/null | xargs -r kill 2>/dev/null; } || true; rm -rf '$tmp'" EXIT
  go build -race -o "$tmp/tbpointd" ./cmd/tbpointd
  go build -o "$tmp/tbpointctl" ./cmd/tbpointctl
  local args=(-scale 0.02 -seed 7 -bench stream)

  # Seed the journal on a paused chaos daemon: the poison job first (FIFO
  # head of the single dispatcher), the bystander behind it.
  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr0" \
    -state-dir "$tmp/state" -chaos -paused -v >"$tmp/daemon.log" 2>&1 &
  echo $! >"$tmp/d.pid"
  disown
  wait_file "$tmp/addr0"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr0")"
  local poison bystander
  poison=$("$tmp/tbpointctl" submit -fault crash "${args[@]}" accuracy)
  bystander=$("$tmp/tbpointctl" submit "${args[@]}" accuracy)
  kill -9 "$(cat "$tmp/d.pid")"
  rm -f "$tmp/d.pid"

  # Crash loop: the default -max-requeues 3 allows exactly 4 daemon deaths
  # under the poison job (its own kill -9 above only requeued it as
  # queued, which never counts) before the 5th boot quarantines it.
  local deaths=0 attempt pid verdict state
  for attempt in $(seq 8); do
    rm -f "$tmp/addr"
    "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
      -state-dir "$tmp/state" -chaos -dispatchers 1 -v >>"$tmp/daemon.log" 2>&1 &
    pid=$!
    echo $pid >"$tmp/d.pid"
    disown
    wait_file "$tmp/addr"
    export TBPOINTD_ADDR="http://$(cat "$tmp/addr")"
    verdict=""
    local t
    for t in $(seq 300); do
      if ! kill -0 "$pid" 2>/dev/null; then
        verdict=died
        break
      fi
      state=$(field "$("$tmp/tbpointctl" status "$poison" 2>/dev/null || true)" state)
      if [[ "$state" == "quarantined" ]]; then
        verdict=quarantined
        break
      fi
      sleep 0.1
    done
    case "$verdict" in
      died) deaths=$((deaths + 1)); rm -f "$tmp/d.pid" ;;
      quarantined) break ;;
      *)
        echo "serve: quarantine loop attempt $attempt resolved nothing" >&2
        cat "$tmp/daemon.log" >&2
        return 1 ;;
    esac
  done
  artifact "$tmp/daemon.log" serve_quarantine_daemon.log
  [[ "$verdict" == "quarantined" ]] || {
    echo "serve: poison job was never quarantined after $deaths daemon deaths" >&2
    cat "$tmp/daemon.log" >&2
    return 1
  }
  [[ "$deaths" == "4" ]] || {
    echo "serve: quarantine fired after $deaths daemon deaths, want exactly 4 (cap 3)" >&2
    return 1
  }

  # The dead-letter record keeps the history; the bystander completes on
  # the surviving daemon; the dead-letter list names exactly the poison
  # job; the counter confirms.
  local line
  line=$("$tmp/tbpointctl" status "$poison")
  [[ "$(field "$line" failure_kind)" == "quarantined" && "$(field "$line" run_requeues)" == "4" ]] || {
    echo "serve: quarantined status line wrong: $line" >&2
    return 1
  }
  line=$("$tmp/tbpointctl" wait "$bystander")
  [[ "$(field "$line" state)" == "done" ]] || {
    echo "serve: bystander job did not complete after quarantine: $line" >&2
    cat "$tmp/daemon.log" >&2
    return 1
  }
  "$tmp/tbpointctl" list -state quarantined >"$tmp/deadletter.txt"
  [[ "$(wc -l <"$tmp/deadletter.txt")" == "1" ]] && grep -q "id=$poison" "$tmp/deadletter.txt" || {
    echo "serve: dead-letter list wrong:" >&2
    cat "$tmp/deadletter.txt" >&2
    return 1
  }
  "$tmp/tbpointctl" metrics >"$tmp/quarantine_metrics.json"
  artifact "$tmp/quarantine_metrics.json" serve_quarantine_metrics.json
  grep -q '"server.jobs_quarantined": 1' "$tmp/quarantine_metrics.json" || {
    echo "serve: server.jobs_quarantined counter wrong:" >&2
    grep '"server\.' "$tmp/quarantine_metrics.json" >&2 || true
    return 1
  }
  kill "$(cat "$tmp/d.pid")" 2>/dev/null || true
  rm -f "$tmp/d.pid"
  )
}

run_serveload() {
  # Multi-tenant serving under load, with real binaries. Three guarantees:
  # fair-share dispatch (the flooding tenant cannot starve the small one),
  # the bounded artifact cache (directory under -cache-max-bytes, evictions
  # counted, results still correct), and sub-cell reuse (an overlapping but
  # non-identical job skips the full reference). The in-process half —
  # concurrent HTTP clients, the deterministic DRR properties, the
  # cancel-at-pickup race — runs first under the race detector.
  (
  local tmp
  tmp=$(mktemp -d)
  # shellcheck disable=SC2064
  trap "{ cat '$tmp'/*.pid 2>/dev/null | xargs -r kill 2>/dev/null; } || true; rm -rf '$tmp'" EXIT

  go test -race -count=1 \
    -run 'TestServeLoad|TestSubcellReuse|TestCancelAtDispatchPickup|TestSched|TestWait' \
    ./internal/server/...

  go build -race -o "$tmp/tbpointd" ./cmd/tbpointd
  go build -o "$tmp/tbpointctl" ./cmd/tbpointctl
  go build -o "$tmp/experiments" ./cmd/experiments
  local args=(-scale 0.02 -bench stream)
  # One job's artifacts weigh ~180KB (the full reference; its header, the
  # three outcomes and the cell add ~5KB); a 576KB budget holds ~3 of the 4
  # submitted jobs, forcing evictions while keeping the newest artifacts
  # resident for the sub-cell reuse phase.
  local budget=$((576 * 1024))

  # Phase 1 — fair share + bounded cache. Submissions land on a paused
  # daemon so the whole multi-tenant queue exists before dispatch begins
  # (and the requeue path is re-proved under a DRR queue); the restarted
  # single-dispatcher daemon then interleaves the tenants.
  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr1" \
    -state-dir "$tmp/state" -paused -v >"$tmp/daemon1.log" 2>&1 &
  echo $! >"$tmp/d1.pid"
  disown
  wait_file "$tmp/addr1"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr1")"
  local floods=() seed job small
  for seed in 101 102 103; do
    job=$("$tmp/tbpointctl" submit -client flood -seed "$seed" "${args[@]}" accuracy)
    floods+=("$job")
  done
  small=$("$tmp/tbpointctl" submit -client small -seed 7 "${args[@]}" accuracy)
  kill -9 "$(cat "$tmp/d1.pid")"
  rm -f "$tmp/d1.pid"

  "$tmp/tbpointd" -addr 127.0.0.1:0 -addr-file "$tmp/addr2" \
    -state-dir "$tmp/state" -dispatchers 1 -cache-max-bytes "$budget" \
    -v >"$tmp/daemon2.log" 2>&1 &
  echo $! >"$tmp/d2.pid"
  disown
  wait_file "$tmp/addr2"
  export TBPOINTD_ADDR="http://$(cat "$tmp/addr2")"
  local line
  for job in "${floods[@]}" "$small"; do
    line=$("$tmp/tbpointctl" wait -poll 50ms "$job")
    [[ "$(field "$line" state)" == "done" ]] || {
      echo "serveload: job $job failed under load: $line" >&2
      cat "$tmp/daemon2.log" >&2
      return 1
    }
  done
  artifact "$tmp/daemon2.log" serveload_daemon.log

  # No starvation: despite three flood jobs queued ahead of it, the small
  # tenant's job must be dispatched within the first round — first or
  # second pickup in the daemon's own dispatch log.
  grep -o 'picked up job [^ ]*' "$tmp/daemon2.log" | head -2 | grep -q "$small" || {
    echo "serveload: small tenant not dispatched within one round:" >&2
    grep 'picked up job' "$tmp/daemon2.log" >&2
    return 1
  }

  # Bounded cache: evictions happened and the directory respects the
  # budget.
  "$tmp/tbpointctl" metrics >"$tmp/server_metrics.json"
  artifact "$tmp/server_metrics.json" serveload_metrics.json
  grep -q '"server.cache_evictions": [1-9]' "$tmp/server_metrics.json" || {
    echo "serveload: no cache evictions under a $budget-byte budget:" >&2
    grep '"server\.' "$tmp/server_metrics.json" >&2 || true
    return 1
  }
  find "$tmp/state/cache" -name '*.ckpt' -printf '%s\n' \
    | awk -v max="$budget" '{s += $1} END { exit !(s <= max) }' || {
    echo "serveload: cache directory exceeds the $budget-byte budget" >&2
    du -sb "$tmp/state/cache" >&2
    return 1
  }

  # Phase 2 — sub-cell reuse: same workload as the small tenant's job but a
  # wider sampler set. The cell key differs (no whole-cell hit) yet the
  # full-reference artifact must hit, beating the
  # same spec computed cold with -no-cache — and the bytes must equal the
  # one-shot CLI's.
  local warm cold wline cline
  warm=$("$tmp/tbpointctl" submit -client other -seed 7 -samplers all "${args[@]}" accuracy)
  wline=$("$tmp/tbpointctl" wait -poll 50ms "$warm")
  [[ "$(field "$wline" state)" == "done" && "$(field "$wline" cache_hits)" -eq 0 ]] || {
    echo "serveload: warm job should recompute its cell (different samplers): $wline" >&2
    return 1
  }
  [[ "$(field "$wline" subcell_hits)" -gt 0 ]] || {
    echo "serveload: overlapping job reused no sub-cell artifacts: $wline" >&2
    return 1
  }
  # The small tenant's job left the default trio's outcomes behind (they
  # survived phase 1's evictions with its reference); only the two
  # strategies `all` adds are estimated.
  [[ "$(field "$wline" outcome_hits)" -eq 3 && "$(field "$wline" outcome_misses)" -eq 2 ]] || {
    echo "serveload: overlapping job should reuse 3 outcomes and estimate 2: $wline" >&2
    return 1
  }
  cold=$("$tmp/tbpointctl" submit -client other -seed 7 -samplers all -no-cache "${args[@]}" accuracy)
  cline=$("$tmp/tbpointctl" wait -poll 50ms "$cold")
  [[ "$(field "$cline" state)" == "done" ]] || {
    echo "serveload: cold baseline job failed: $cline" >&2
    return 1
  }
  awk -v warm="$(field "$wline" wall_seconds)" -v cold="$(field "$cline" wall_seconds)" \
      'BEGIN { exit !(warm < cold) }' || {
    echo "serveload: artifact reuse saved no wall time (warm $wline vs cold $cline)" >&2
    return 1
  }
  "$tmp/experiments" -par 1 -scale 0.02 -seed 7 -bench stream -samplers all \
    -json "$tmp/oneshot_all.json" accuracy >/dev/null
  "$tmp/tbpointctl" result -o "$tmp/warm.json" "$warm"
  artifact "$tmp/warm.json" serveload_warm.json
  cmp "$tmp/oneshot_all.json" "$tmp/warm.json" || {
    echo "serveload: artifact-reusing job's results.json differs from the one-shot output" >&2
    return 1
  }

  kill "$(cat "$tmp/d2.pid")" 2>/dev/null || true
  rm -f "$tmp/d2.pid"
  )
}

run_samplers() {
  # The sampler registry end to end: the package's own suite first, then
  # cmd/experiments driving the registry — the byte-identity contract
  # (explicit default trio == unflagged run) and the N-way run
  # (per-strategy outcomes, CI columns, Pareto section, sampler.*
  # counters) on two workloads.
  (
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  go test -count=1 ./internal/sampler/
  local bin="$tmp/experiments"
  go build -o "$bin" ./cmd/experiments
  local args=(-par 1 -scale 0.02 -seed 7 -bench stream,black)

  "$bin" "${args[@]}" -json "$tmp/default.json" accuracy >"$tmp/default.txt"
  "$bin" "${args[@]}" -samplers tbpoint,simpoint,random \
    -json "$tmp/trio.json" accuracy >"$tmp/trio.txt"
  cmp "$tmp/default.json" "$tmp/trio.json" || {
    echo "samplers: explicit default trio is not byte-identical to the default run" >&2
    return 1
  }
  cmp "$tmp/default.txt" "$tmp/trio.txt" || {
    echo "samplers: explicit default trio changed the report text" >&2
    return 1
  }

  "$bin" "${args[@]}" -samplers all -json "$tmp/nway.json" \
    -metrics-json "$tmp/nway_metrics.json" accuracy >"$tmp/nway.txt"
  artifact "$tmp/nway.json" samplers_nway.json
  artifact "$tmp/nway_metrics.json" samplers_nway_metrics.json
  local want
  for want in '"samplers"' '"pareto"' '"ci95_half"' '"pilot_units"'; do
    grep -q "$want" "$tmp/nway.json" || {
      echo "samplers: N-way results.json missing $want" >&2
      return 1
    }
  done
  for want in 'Sampler detail' 'Pareto: error vs speedup' 'ci95' 'Stratified' 'err(Strat)'; do
    grep -q "$want" "$tmp/nway.txt" || {
      echo "samplers: N-way report missing '$want'" >&2
      return 1
    }
  done
  # 5 registered strategies x 2 benchmarks.
  grep -q '"sampler.estimates": 10' "$tmp/nway_metrics.json" || {
    echo "samplers: sampler.estimates counter wrong:" >&2
    grep '"sampler\.' "$tmp/nway_metrics.json" >&2 || true
    return 1
  }
  grep -q 'sampler.stratified' "$tmp/nway_metrics.json" || {
    echo "samplers: no sampler.stratified phase recorded" >&2
    return 1
  }

  # An unknown strategy must fail before any simulation starts.
  if "$bin" "${args[@]}" -samplers bogus accuracy >/dev/null 2>&1; then
    echo "samplers: unknown sampler name was accepted" >&2
    return 1
  fi
  )
}

run_benchbuild() {
  go vet -C bench . && go test -C bench .
}

run_stage() {
  case "$1" in
    fmt)    stage fmt check_fmt ;;
    vet)    stage vet go vet ./... ;;
    build)  stage build go build ./... ;;
    benchbuild) stage benchbuild run_benchbuild ;;
    test)   stage test go test ./... ;;
    race)   stage race go test -race ./internal/gpusim/ ./internal/experiments/ \
              ./internal/core/ ./internal/par/ ./internal/durable/ \
              ./internal/metrics/ ./internal/server/ ./internal/funcsim/ \
              ./internal/cluster/ ;;
    chaos)  stage chaos run_chaos ;;
    fuzz)   stage fuzz run_fuzz ;;
    golden) stage golden go run ./cmd/goldencheck ;;
    samplers) stage samplers run_samplers ;;
    parsm)  stage parsm run_parsm ;;
    serve)  stage serve run_serve ;;
    serveload) stage serveload run_serveload ;;
    *)      echo "ci.sh: unknown stage '$1' (known: ${ALL_STAGES[*]})" >&2
            return 2 ;;
  esac
}

# Stage selection: no args = everything, `fast` = everything minus fuzz,
# otherwise exactly the named stages in the order given.
# Unknown names fail before any stage runs.
STAGES=()
if [[ $# -eq 0 ]]; then
  STAGES=("${ALL_STAGES[@]}")
elif [[ $# -eq 1 && "$1" == "fast" ]]; then
  for s in "${ALL_STAGES[@]}"; do
    [[ "$s" == "fuzz" ]] && continue
    STAGES+=("$s")
  done
else
  for s in "$@"; do
    known=0
    for k in "${ALL_STAGES[@]}"; do
      [[ "$s" == "$k" ]] && known=1
    done
    if [[ "$known" == "0" ]]; then
      echo "ci.sh: unknown stage '$s' (known: ${ALL_STAGES[*]})" >&2
      exit 2
    fi
    STAGES+=("$s")
  done
fi

for s in "${STAGES[@]}"; do
  if [[ "$s" == "fuzz" && "${SKIP_FUZZ:-0}" == "1" && $# -le 1 ]]; then
    continue
  fi
  run_stage "$s"
done

echo "CI OK (${SECONDS}s)"
