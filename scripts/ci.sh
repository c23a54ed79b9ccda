#!/usr/bin/env bash
# ci.sh — the repository's single CI entry point: a list of named, timed
# stages, each nothing but gofmt/go invocations. Every proof lives in a Go
# test; this script only decides which commands run and in what order.
#
#   fmt        gofmt -l must report nothing
#   vet        go vet over every package
#   build      go build over every package
#   benchbuild go vet + go test inside bench/, the separate tbpoint/bench
#              module behind BENCHMARK.json (root ./... never sees it), so an
#              internal/ API move that breaks the benchmark fails CI instead
#              of the next benchmark run
#   test       the full suite, internal/e2e included: unit, integration,
#              property, chaos/fault-injection and sampler-registry tests,
#              plus the real-process proofs against plain binaries
#   benchsmoke every Go benchmark of the root module run once (-benchtime
#              1x, no tests), so a benchmark that stops compiling or
#              panics — BenchmarkRunLaunchEventLoop, the scheduler's own
#              microbenchmark, among them — fails CI; timings are not judged
#   race       race-detector pass over the packages that run simulations
#              concurrently (the shared worker budget fans launches and grid
#              cells out over goroutines; see DESIGN.md), the profiler's
#              launch fan-out and the clustering it feeds (with
#              internal/experiments, the fan-outs that read launches' shared
#              shape tables concurrently), internal/kernel's launch builder and
#              internal/trace's launch equality, the durable store,
#              the live-snapshot metrics paths, the job server with its HTTP
#              client, and internal/e2e — whose TestMain then race-builds the
#              binaries it drives. internal/gpusim's TestGoldenCounters runs
#              here too, so the metrics goldens are also proven under the
#              race detector (launch fan-out, per-launch collectors merged
#              in launch order)
#   e2e        internal/e2e on its own, under -race: cmd/experiments dying at
#              a store write and resuming to byte-identical results, a fatal
#              target error still flushing its JSON outputs, tbpointd
#              surviving a hard death with a journaled job, a crash-looping
#              job quarantined after exactly four daemon deaths (each death
#              armed by the store's TBPOINT_CRASH_AFTER_CHECKPOINTS hook, the
#              same one cmd/experiments dies by), served results equal to
#              one-shot CLI bytes, daemon flag wiring, and every tbpointctl
#              subcommand. A cache hit after `race` in a full run; the stage
#              exists to be run by name
#   fuzz       10s fuzz smoke over each of the ten fuzz targets: the
#              instruction cursor (the flat µop walk yields the block walk's
#              instructions, blocks and loop iterations on random programs
#              and trip counts), the wake heap (the bottom-up pop leaves the
#              classic sift's pops and heap array after every push and pop
#              of an arbitrary sequence), the launch builder (blocks read back bit
#              for bit, one table entry per bit-distinct shape, also with
#              every shape in one bucket), the
#              launch-equality predicate behind reference-run launch reuse
#              (equal => same recorded streams),
#              the region table reader, the profile reader (an accepted
#              profile's interned rows re-encode to the file's per-block
#              rows, every block indexing a stored row), the reference replay
#              through the region sampler's one log reader, observe (an
#              arbitrary block order and unit list is refused or finished,
#              never a panic or an out-of-range block), the
#              checkpoint reader, the stratified allocator, and POST /jobs
#              (arbitrary bodies get 400 or 202, never a panic, and an
#              accepted spec is a fixed point of decode + Validate)
#
# Usage: scripts/ci.sh [fast | stage...]
#   (no args)       run every stage
#   fast            skip the fuzz stage (quick pre-commit loop)
#   stage...        run exactly the named stages, in the order given
#                   (e.g. `scripts/ci.sh race e2e`); unknown stage names
#                   fail before anything runs
#   SKIP_FUZZ=1     skip only the fuzz stage (full/fast runs)
#   CI_ARTIFACT_DIR internal/e2e copies a failed test's daemon logs,
#                   results.json and metrics snapshots here, for the workflow
#                   to upload
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt vet build benchbuild test benchsmoke race e2e fuzz)

stage_fmt() {
  local bad
  bad=$(gofmt -l .)
  [[ -z "$bad" ]] || { printf 'gofmt needed on:\n%s\n' "$bad" >&2; return 1; }
}
stage_vet() { go vet ./...; }
stage_build() { go build ./...; }
stage_benchbuild() { go vet -C bench . && go test -C bench .; }
stage_test() { go test ./...; }
stage_benchsmoke() { go test -run '^$' -bench . -benchtime 1x ./...; }
stage_race() {
  go test -race ./internal/gpusim/ ./internal/experiments/ ./internal/core/ \
    ./internal/par/ ./internal/durable/ ./internal/metrics/ \
    ./internal/server/... ./internal/funcsim/ ./internal/cluster/ \
    ./internal/kernel/ ./internal/trace/ ./internal/e2e/
}
stage_e2e() { go test -race ./internal/e2e/; }
# One target per invocation: `go test -fuzz` accepts a single fuzzing target
# at a time. -run='^$' keeps the smoke from re-running unit tests.
fuzz() { go test -run='^$' -fuzz="^$1\$" -fuzztime=10s "$2"; }
stage_fuzz() {
  fuzz FuzzCursor ./internal/isa/ &&
    fuzz FuzzWakeHeap ./internal/gpusim/ &&
    fuzz FuzzLaunchBuilder ./internal/kernel/ &&
    fuzz FuzzSameInput ./internal/trace/ &&
    fuzz FuzzReadRegionTable ./internal/core/ &&
    fuzz FuzzReadProfiles ./internal/core/ &&
    fuzz FuzzReplayOrder ./internal/core/ &&
    fuzz FuzzReadCheckpoint ./internal/durable/ &&
    fuzz FuzzStratifiedAllocate ./internal/sampler/ &&
    fuzz FuzzJobSpec ./internal/server/
}

# Stage selection: no args = everything, `fast` = everything minus fuzz,
# otherwise exactly the named stages in the order given. Unknown names fail
# before any stage runs.
STAGES=("$@")
if [[ $# -eq 0 || "$*" == "fast" ]]; then
  STAGES=()
  for s in "${ALL_STAGES[@]}"; do
    [[ "$s" == "fuzz" && ("$*" == "fast" || "${SKIP_FUZZ:-0}" == "1") ]] || STAGES+=("$s")
  done
fi
for s in "${STAGES[@]}"; do
  if [[ " ${ALL_STAGES[*]} " != *" $s "* ]]; then
    echo "ci.sh: unknown stage '$s' (known: ${ALL_STAGES[*]})" >&2
    exit 2
  fi
done

for s in "${STAGES[@]}"; do
  start=$SECONDS
  echo "== ${s}"
  if ! "stage_${s}"; then
    echo "== ${s} FAILED ($((SECONDS - start))s)" >&2
    exit 1
  fi
  echo "== ${s} ok ($((SECONDS - start))s)"
done

echo "CI OK (${SECONDS}s)"
