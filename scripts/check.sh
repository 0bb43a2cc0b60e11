#!/usr/bin/env bash
# The full quality gate, in order:
#   1. clang-tidy over src/ (skips cleanly when clang-tidy is absent)
#   2. doc-link gate: every relative Markdown link in docs/ and README.md
#      must resolve to an existing file; flattening gate: only the files
#      allowed to flatten a design (the view itself, the Session's cached
#      stage, and the no-view fallbacks of identify, hashing, control search
#      and the lazy lint facts) may call CompactView::build in src/
#   3. Debug build with AddressSanitizer + UBSan and -Werror
#   4. the full test suite under both sanitizers
#   5. `netrev lint --fail-on=warning` over every family benchmark, both as
#      built-in designs and as generated .bench files (exercising the parser
#      path); any warning-or-worse finding fails the gate, and
#      `lint --diag-json` must be byte-identical at --jobs 1 vs --jobs 8 and
#      with the artifact cache on vs off (--cache-entries 0)
#   6. ThreadSanitizer build (NETREV_SANITIZE=thread) over the parallel
#      identification tests: thread pool, profiler, jobs determinism, the
#      dataflow/domain analysis suites, serve, and the CLI signal handlers
#   7. jobs-determinism gate: `evaluate --json`, the `identify --trace`
#      decision narrative and `identify --base --json` at --jobs 1 vs
#      --jobs $(nproc) must emit byte-identical output on every family
#      benchmark, and so must `dot b03s` and `dot b12s --depth 2`
#   8. giant-family smoke gate: generate b19s (~262K gates), identify it
#      under a hard time budget, require `identify --json` to hash to its
#      recorded sha256, and to be byte-identical at --jobs 8
#   9. batch smoke gate: `netrev batch` over the family benchmarks twice must
#      emit byte-identical JSON at different job counts, and a batch with
#      repeated entries must report artifact-cache hits under --profile
#  10. resume-after-kill gate: a journaled batch SIGKILLed mid-run, then
#      resumed, must emit byte-identical JSON to an uninterrupted run
#  11. lift gate: `netrev lift` over every family benchmark must emit a
#      schema-v1 document whose every operator verified equivalent, and be
#      byte-identical at --jobs 1 vs 8 and with the cache disabled
#  12. serve gate: start the daemon, check `client identify`, `client lift`
#      and `client evaluate` output is byte-identical to the one-shot CLI
#      (`identify --json`, `lift`, `evaluate --json`), with and without
#      --base, fire concurrent mixed requests, SIGTERM mid-load, and require
#      a clean drain (exit 6, "drained")
#  13. chaos gate: process-level fault isolation under deliberate sabotage —
#      a clean `batch --isolate` run must be byte-identical to the
#      in-process run; NETREV_CHAOS crashing one of five entries must exit 9
#      and quarantine exactly that entry while the other four stay
#      byte-identical; SIGKILLing a live worker (then the batch) must leave
#      a journal `--resume` converges from; and a `serve --isolate` daemon
#      must answer a worker crash with a structured error, keep serving,
#      and still drain cleanly
#
#
# The serve and chaos daemons run in the background; an EXIT trap stops any
# still running, with their --isolate workers, when a gate fails.
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${BUILD_DIR}-tsan"

# PIDs of the live background daemons; each is cleared once its drain has
# been waited for.  SIGSTOP first so a supervisor cannot respawn a worker
# between the two kills.
SERVE_PID=""
CHAOS_SERVE_PID=""
stop_daemons() {
  for pid in $SERVE_PID $CHAOS_SERVE_PID; do
    kill -STOP "$pid" 2> /dev/null || true
    pkill -KILL -P "$pid" 2> /dev/null || true
    kill -KILL "$pid" 2> /dev/null || true
  done
}
trap stop_daemons EXIT

scripts/tidy.sh

# Doc-link gate (cheap, fails fast): every relative Markdown link in docs/
# and README.md must resolve to an existing file.
python3 scripts/check_doc_links.py

# Flattening gate (static, fails fast): a pipeline stage reads the Session's
# cached CompactView instead of building its own.  Only these files may call
# CompactView::build: the view itself, the Session's "compact" stage, and the
# no-view fallbacks library callers rely on (identify_words, ConeHasher,
# find_relevant_control_signals, the lazy lint dataflow facts).
FLATTEN_ALLOWED='^src/(netlist/compact|pipeline/session|wordrec/identify|wordrec/hash_key|wordrec/control|analysis/dataflow_rules)\.cpp$'
FLATTEN_EXTRA=$(grep -rln 'CompactView::build(' src/ | grep -Ev "$FLATTEN_ALLOWED" || true)
if [ -n "$FLATTEN_EXTRA" ]; then
  echo "flattening gate: CompactView::build( called outside the allowed files:" >&2
  echo "$FLATTEN_EXTRA" >&2
  echo "take the Session's view (Session::compact) or the caller's instead" >&2
  exit 1
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DNETREV_SANITIZE=address,undefined \
  -DNETREV_WERROR=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"

# Make UBSan failures hard errors instead of prints.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=0"

ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure

# Lint gate: the shipped example designs must be free of warning-or-worse
# findings (notes — e.g. high-fanout control candidates — are informational).
NETREV="$BUILD_DIR/examples/netrev"
LINT_DIR="$BUILD_DIR/lint-designs"
mkdir -p "$LINT_DIR"
for family in b03s b04s b08s b11s b13s; do
  echo "lint: $family"
  "$NETREV" lint "$family" --fail-on=warning
  "$NETREV" generate "$family" -o "$LINT_DIR" > /dev/null
  "$NETREV" lint "$LINT_DIR/$family.bench" --fail-on=warning
  "$NETREV" lint "$LINT_DIR/$family.v" --fail-on=warning
done

# Lint-determinism gate: the full diagnostics JSON (all 12 rules, including
# the dataflow/domain-backed ones) must not depend on the worker count or on
# whether the artifact cache is enabled.
LINT_DET_DIR="$BUILD_DIR/lint-determinism"
mkdir -p "$LINT_DET_DIR"
for family in b03s b04s b08s b11s b13s; do
  echo "lint-determinism: $family"
  "$NETREV" lint "$family" --diag-json --jobs 1 \
    > "$LINT_DET_DIR/$family.j1.json"
  "$NETREV" lint "$family" --diag-json --jobs 8 \
    > "$LINT_DET_DIR/$family.j8.json"
  diff "$LINT_DET_DIR/$family.j1.json" "$LINT_DET_DIR/$family.j8.json"
  "$NETREV" lint "$family" --diag-json --cache-entries 0 \
    > "$LINT_DET_DIR/$family.nocache.json"
  diff "$LINT_DET_DIR/$family.j1.json" "$LINT_DET_DIR/$family.nocache.json"
done

# ThreadSanitizer pass over the concurrency surface: the pool and profiler
# unit tests plus the end-to-end jobs-determinism suite (which drives every
# parallel pipeline stage at 1/2/8 jobs), and the CLI's signal handlers
# (SIGTERM drain, SIGINT cancel).  TSan is incompatible with ASan, so this is
# a separate build tree.
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DNETREV_SANITIZE=thread \
  -DNETREV_WERROR=ON
cmake --build "$TSAN_DIR" -j"$(nproc)"
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$TSAN_DIR" -j"$(nproc)" \
  --output-on-failure \
  -R 'ThreadPool|Profiler|JobsDeterminism|Batch|Session|ArtifactCache|BatchResume|Journal|Degradation|Checkpoint|CancelToken|Serve|Protocol|Dataflow|Domain|Lift|Sigint'

# Jobs-determinism gate: the full CLI output (evaluation + analysis JSON)
# must not depend on the worker count, and neither may the trace narrative
# (traced runs take the same parallel group and trial loops).
JOBS_DIR="$BUILD_DIR/jobs-determinism"
mkdir -p "$JOBS_DIR"
for family in b03s b04s b08s b11s b13s; do
  echo "jobs-determinism: $family"
  "$NETREV" evaluate "$family" --json --jobs 1 > "$JOBS_DIR/$family.j1.json"
  "$NETREV" evaluate "$family" --json --jobs "$(nproc)" > "$JOBS_DIR/$family.jN.json"
  diff "$JOBS_DIR/$family.j1.json" "$JOBS_DIR/$family.jN.json"
  "$NETREV" identify "$family" --trace --jobs 1 > "$JOBS_DIR/$family.j1.trace"
  "$NETREV" identify "$family" --trace --jobs "$(nproc)" > "$JOBS_DIR/$family.jN.trace"
  diff "$JOBS_DIR/$family.j1.trace" "$JOBS_DIR/$family.jN.trace"
  # Base runs the same parallel group loop, without reduction trials.
  "$NETREV" identify "$family" --base --json --jobs 1 \
    > "$JOBS_DIR/$family.base.j1.json"
  "$NETREV" identify "$family" --base --json --jobs "$(nproc)" \
    > "$JOBS_DIR/$family.base.jN.json"
  diff "$JOBS_DIR/$family.base.j1.json" "$JOBS_DIR/$family.base.jN.json"
done
# The DOT export walks the Session's view and emits nodes in net-id order,
# so it must not depend on the worker count either.
echo "jobs-determinism: dot"
"$NETREV" dot b03s --jobs 1 > "$JOBS_DIR/b03s.j1.dot"
"$NETREV" dot b03s --jobs "$(nproc)" > "$JOBS_DIR/b03s.jN.dot"
diff "$JOBS_DIR/b03s.j1.dot" "$JOBS_DIR/b03s.jN.dot"
"$NETREV" dot b12s --depth 2 --jobs 1 > "$JOBS_DIR/b12s.d2.j1.dot"
"$NETREV" dot b12s --depth 2 --jobs "$(nproc)" > "$JOBS_DIR/b12s.d2.jN.dot"
diff "$JOBS_DIR/b12s.d2.j1.dot" "$JOBS_DIR/b12s.d2.jN.dot"

# Giant-family smoke gate: the data-oriented core at scale.  Generate the
# smallest giant profile (b19s, ~262K gates), identify it under a hard time
# budget, and require the output to hash to the sha256 recorded while the
# retired pointer-netlist core still ran beside the CompactView core (both
# produced these 18,655 bytes), and to be byte-identical to itself at
# --jobs 8.  Sanitized debug builds run several times slower than release,
# hence the generous budget; a hang or a byte diff is what this gate exists
# to catch.
B19S_IDENTIFY_SHA256=ad719109f5c60815d9b04b71f0eef4a68e082d41eaa01ffe99aef9d594606776
GIANT_DIR="$BUILD_DIR/giant-smoke"
mkdir -p "$GIANT_DIR"
echo "giant-smoke: generate b19s"
timeout 300 "$NETREV" generate b19s -o "$GIANT_DIR" > /dev/null
echo "giant-smoke: identify"
timeout 1800 "$NETREV" identify b19s --json > "$GIANT_DIR/identify.json"
giant_sha256="$(sha256sum "$GIANT_DIR/identify.json" | cut -d' ' -f1)"
if [[ "$giant_sha256" != "$B19S_IDENTIFY_SHA256" ]]; then
  echo "giant-smoke: b19s identify --json hashes to $giant_sha256," \
    "recorded $B19S_IDENTIFY_SHA256" >&2
  exit 1
fi
echo "giant-smoke: identify (--jobs 8)"
timeout 1800 "$NETREV" identify b19s --json --jobs 8 \
  > "$GIANT_DIR/jobs8.json"
diff "$GIANT_DIR/identify.json" "$GIANT_DIR/jobs8.json"

# Batch smoke gate.  The artifact cache is in-memory, so cross-invocation
# hits cannot exist; instead (a) two independent runs at different job counts
# must emit byte-identical JSON, and (b) one run with every spec listed twice
# must satisfy the duplicates from the cache (visible in the profile).
BATCH_DIR="$BUILD_DIR/batch-smoke"
mkdir -p "$BATCH_DIR"
echo "batch-smoke: determinism"
"$NETREV" batch b03s b04s b08s b11s b13s --json --jobs 1 \
  > "$BATCH_DIR/run1.json"
"$NETREV" batch b03s b04s b08s b11s b13s --json --jobs "$(nproc)" \
  > "$BATCH_DIR/run2.json"
diff "$BATCH_DIR/run1.json" "$BATCH_DIR/run2.json"
echo "batch-smoke: cache hits"
"$NETREV" batch b03s b04s b03s b04s --json --profile \
  > "$BATCH_DIR/warm.out"
grep -E 'cache\.hits: *[1-9]' "$BATCH_DIR/warm.out" > /dev/null || {
  echo "batch-smoke: expected nonzero cache.hits in --profile output" >&2
  exit 1
}
"$NETREV" --version

# Resume-after-kill gate.  Start a journaled batch over the family
# benchmarks, SIGKILL it mid-run, resume from the journal, and require the
# resumed output to be byte-identical to an uninterrupted run.  The journal
# must also have restored at least one entry when the kill landed mid-batch
# (a too-fast run that finished before the kill simply passes the diff).
RESUME_DIR="$BUILD_DIR/resume-smoke"
rm -rf "$RESUME_DIR"
mkdir -p "$RESUME_DIR"
JOURNAL="$RESUME_DIR/journal.jsonl"
FAMILIES=(b03s b04s b08s b11s b13s)
echo "resume-smoke: uninterrupted reference"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 > "$RESUME_DIR/reference.json"
echo "resume-smoke: kill mid-run"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 --resume "$JOURNAL" \
  > "$RESUME_DIR/killed.json" 2> /dev/null &
BATCH_PID=$!
# Give the run long enough to journal some entries but not (usually) finish.
sleep 0.2
kill -KILL "$BATCH_PID" 2> /dev/null || true
wait "$BATCH_PID" 2> /dev/null || true
echo "resume-smoke: resume ($(wc -l < "$JOURNAL" 2> /dev/null || echo 0) journaled)"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 --resume "$JOURNAL" \
  > "$RESUME_DIR/resumed.json"
diff "$RESUME_DIR/reference.json" "$RESUME_DIR/resumed.json"

# Lift gate.  Every family benchmark must lift to a schema-v1 word-level
# document in which every operator's bit-blasted model proved simulation-
# equivalent to the original cones, and the bytes must not depend on the
# worker count or the artifact cache.
LIFT_DIR="$BUILD_DIR/lift-smoke"
mkdir -p "$LIFT_DIR"
for family in b03s b04s b08s b11s b13s; do
  echo "lift-smoke: $family"
  "$NETREV" lift "$family" > "$LIFT_DIR/$family.json"
  grep -q '^{"schema_version":1,' "$LIFT_DIR/$family.json" || {
    echo "lift-smoke: $family document is not schema-version stamped" >&2
    exit 1
  }
  grep -q '"verdict":"equivalent"' "$LIFT_DIR/$family.json" || {
    echo "lift-smoke: $family lift did not verify equivalent" >&2
    exit 1
  }
  if grep -q '"verified":false' "$LIFT_DIR/$family.json"; then
    echo "lift-smoke: $family has an unverified operator" >&2
    exit 1
  fi
  "$NETREV" lift "$family" --jobs 8 > "$LIFT_DIR/$family.j8.json"
  diff "$LIFT_DIR/$family.json" "$LIFT_DIR/$family.j8.json"
  "$NETREV" lift "$family" --cache-entries 0 > "$LIFT_DIR/$family.nocache.json"
  diff "$LIFT_DIR/$family.json" "$LIFT_DIR/$family.nocache.json"
done

# Serve gate.  Start the daemon on an ephemeral port, require `client
# identify`, `lift` and `evaluate` output byte-identical to the one-shot CLI
# under both techniques, then SIGTERM it with concurrent requests in flight
# and require a clean drain: exit code 6 and the "drained" trailer.  Shed clients (exit 8) are expected under load.
SERVE_DIR="$BUILD_DIR/serve-smoke"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
echo "serve-smoke: start daemon"
"$NETREV" serve --listen 127.0.0.1:0 --max-inflight 2 --max-queue 4 \
  --drain-timeout 30000 \
  > "$SERVE_DIR/serve.out" 2> "$SERVE_DIR/serve.err" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^netrev serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$SERVE_DIR/serve.out")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || {
  echo "serve-smoke: daemon never reported its port" >&2
  cat "$SERVE_DIR/serve.err" >&2
  exit 1
}

echo "serve-smoke: byte-equivalence with the one-shot CLI"
# Each op under both techniques: "" is the paper's, --base the baseline's.
for technique in "" --base; do
  tag="${technique#--}"
  tag="${tag:-ours}"
  "$NETREV" identify b03s --json $technique > "$SERVE_DIR/oneshot-$tag.json"
  "$NETREV" client identify b03s $technique --connect "127.0.0.1:$PORT" \
    > "$SERVE_DIR/served-$tag.json"
  diff "$SERVE_DIR/oneshot-$tag.json" "$SERVE_DIR/served-$tag.json"
  "$NETREV" lift b03s $technique > "$SERVE_DIR/oneshot-lift-$tag.json"
  "$NETREV" client lift b03s $technique --connect "127.0.0.1:$PORT" \
    > "$SERVE_DIR/served-lift-$tag.json"
  diff "$SERVE_DIR/oneshot-lift-$tag.json" "$SERVE_DIR/served-lift-$tag.json"
  "$NETREV" evaluate b03s --json $technique \
    > "$SERVE_DIR/oneshot-evaluate-$tag.json"
  "$NETREV" client evaluate b03s $technique --connect "127.0.0.1:$PORT" \
    > "$SERVE_DIR/served-evaluate-$tag.json"
  diff "$SERVE_DIR/oneshot-evaluate-$tag.json" \
    "$SERVE_DIR/served-evaluate-$tag.json"
done

echo "serve-smoke: mixed ops"
"$NETREV" client ping --connect "127.0.0.1:$PORT" > /dev/null
"$NETREV" client load b04s --connect "127.0.0.1:$PORT" > /dev/null
"$NETREV" client stats --connect "127.0.0.1:$PORT" > "$SERVE_DIR/stats.json"
grep '"hits":' "$SERVE_DIR/stats.json" > /dev/null

echo "serve-smoke: SIGTERM mid-load drains cleanly"
CLIENT_PIDS=()
for family in b03s b04s b08s b11s; do
  "$NETREV" client identify "$family" --connect "127.0.0.1:$PORT" \
    > /dev/null 2>&1 &
  CLIENT_PIDS+=($!)
done
sleep 0.1
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || true  # shed/cancelled clients are fine; lost ones are not
done
[ "$SERVE_RC" -eq 6 ] || {
  echo "serve-smoke: expected drain exit code 6, got $SERVE_RC" >&2
  cat "$SERVE_DIR/serve.err" >&2
  exit 1
}
grep -q "netrev serve drained" "$SERVE_DIR/serve.out" || {
  echo "serve-smoke: missing 'netrev serve drained' trailer" >&2
  exit 1
}

# Chaos gate.  Process-level fault isolation under deliberate sabotage.
# abort@ rather than segv@ because ASan intercepts raise(SIGSEGV) and turns
# it into exit(1); no --worker-mem because RLIMIT_AS breaks the sanitizer's
# shadow mappings.  SIGABRT reaches the supervisor unchanged.
CHAOS_DIR="$BUILD_DIR/chaos-smoke"
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"

echo "chaos-smoke: clean isolated batch matches the in-process run"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 > "$CHAOS_DIR/reference.json"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 --isolate \
  > "$CHAOS_DIR/isolated.json"
diff "$CHAOS_DIR/reference.json" "$CHAOS_DIR/isolated.json"

echo "chaos-smoke: poisoned entry is quarantined, siblings untouched"
CHAOS_RC=0
NETREV_CHAOS="abort@identify:b08s" "$NETREV" batch "${FAMILIES[@]}" --json \
  --jobs 1 --isolate > "$CHAOS_DIR/chaos.json" 2> "$CHAOS_DIR/chaos.err" \
  || CHAOS_RC=$?
[ "$CHAOS_RC" -eq 9 ] || {
  echo "chaos-smoke: expected worker-crashed exit code 9, got $CHAOS_RC" >&2
  cat "$CHAOS_DIR/chaos.err" >&2
  exit 1
}
python3 - "$CHAOS_DIR/reference.json" "$CHAOS_DIR/chaos.json" b08s <<'PY'
import json, sys
ref = {e["design"]: e for e in json.load(open(sys.argv[1]))["entries"]}
chaos_doc = json.load(open(sys.argv[2]))
chaos = {e["design"]: e for e in chaos_doc["entries"]}
victim = sys.argv[3]
entry = chaos[victim]
assert entry["status"] == "crashed", entry
assert entry["crash"] == "signal 6 (SIGABRT)", entry
assert entry["signal"] == 6, entry
assert chaos_doc["summary"]["crashed"] == 1, chaos_doc["summary"]
for design, reference in ref.items():
    if design == victim:
        continue
    assert chaos[design] == reference, design + " diverged under chaos"
PY

echo "chaos-smoke: SIGKILL a live worker mid-batch, then resume"
CHAOS_JOURNAL="$CHAOS_DIR/journal.jsonl"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 --isolate \
  --resume "$CHAOS_JOURNAL" > "$CHAOS_DIR/killed.json" 2> /dev/null &
BATCH_PID=$!
sleep 0.3
# The worker dies first (the supervisor must absorb it), then the batch
# itself; a too-fast run that already finished simply passes the diff.
pkill -KILL -P "$BATCH_PID" 2> /dev/null || true
sleep 0.2
kill -KILL "$BATCH_PID" 2> /dev/null || true
wait "$BATCH_PID" 2> /dev/null || true
echo "chaos-smoke: resume ($(wc -l < "$CHAOS_JOURNAL" 2> /dev/null || echo 0) journaled)"
"$NETREV" batch "${FAMILIES[@]}" --json --jobs 1 --isolate \
  --resume "$CHAOS_JOURNAL" > "$CHAOS_DIR/resumed.json"
diff "$CHAOS_DIR/reference.json" "$CHAOS_DIR/resumed.json"

echo "chaos-smoke: serve --isolate survives a worker crash"
NETREV_CHAOS="abort@identify:b04s" "$NETREV" serve --listen 127.0.0.1:0 \
  --isolate > "$CHAOS_DIR/serve.out" 2> "$CHAOS_DIR/serve.err" &
CHAOS_SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^netrev serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$CHAOS_DIR/serve.out")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || {
  echo "chaos-smoke: daemon never reported its port" >&2
  cat "$CHAOS_DIR/serve.err" >&2
  exit 1
}
CLIENT_RC=0
"$NETREV" client identify b04s --connect "127.0.0.1:$PORT" \
  > /dev/null 2> "$CHAOS_DIR/client.err" || CLIENT_RC=$?
[ "$CLIENT_RC" -eq 9 ] || {
  echo "chaos-smoke: expected client exit 9 for a crashed worker, got $CLIENT_RC" >&2
  cat "$CHAOS_DIR/client.err" >&2
  exit 1
}
grep -q "worker crashed: signal 6 (SIGABRT)" "$CHAOS_DIR/client.err"
# The daemon is unharmed: the next request (an unpoisoned design) must be
# byte-identical to the one-shot CLI, and health must show the casualty.
"$NETREV" client identify b03s --connect "127.0.0.1:$PORT" \
  > "$CHAOS_DIR/after-crash.json"
diff "$SERVE_DIR/oneshot-ours.json" "$CHAOS_DIR/after-crash.json"
"$NETREV" client health --connect "127.0.0.1:$PORT" > "$CHAOS_DIR/health.json"
grep -q '"quarantined":1' "$CHAOS_DIR/health.json"
kill -TERM "$CHAOS_SERVE_PID"
CHAOS_SERVE_RC=0
wait "$CHAOS_SERVE_PID" || CHAOS_SERVE_RC=$?
CHAOS_SERVE_PID=""
[ "$CHAOS_SERVE_RC" -eq 6 ] || {
  echo "chaos-smoke: expected drain exit code 6, got $CHAOS_SERVE_RC" >&2
  cat "$CHAOS_DIR/serve.err" >&2
  exit 1
}

echo "check.sh: tidy + doc-links + flattening + -Werror + sanitizer suite + lint gate + lint-determinism + tsan + jobs-determinism + giant-smoke + batch-smoke + resume-smoke + lift-smoke + serve-smoke + chaos-smoke all passed"
