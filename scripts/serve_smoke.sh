#!/usr/bin/env bash
# End-to-end smoke for ctrtl_serve: starts a server, proves the wire results
# are byte-identical to ctrtl_design, proves the content-hash cache works
# (second submission of the same sources is a hit, and so are a whitespace
# variant and its byte-identical resubmit), exercises a fault-plan
# job and a watchdog-tripping job, checks backpressure stats plumbing, and
# shuts the server down cleanly. CI runs this as the service smoke job; it
# is also wired into ctest as tool_ctrtl_serve_smoke.
#
# Usage: scripts/serve_smoke.sh [ctrtl_serve-bin] [ctrtl_design-bin] [repo-root]
set -euo pipefail

SERVE="${1:-build/tools/ctrtl_serve}"
DESIGN="${2:-build/tools/ctrtl_design}"
ROOT="${3:-$(cd "$(dirname "$0")/.." && pwd)}"

for bin in "$SERVE" "$DESIGN"; do
  if [ ! -x "$bin" ]; then
    echo "serve_smoke: $bin not built" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
SOCK="$WORK/ctrtl.sock"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  exit 1
}

"$SERVE" serve --socket="$SOCK" --workers=2 --queue=4 --cache=4 \
  > "$WORK/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || fail "server socket never appeared"
"$SERVE" ping --socket="$SOCK" | grep -q "ok ctrtl-serve/2" \
  || fail "ping failed"

FIG1="$ROOT/examples/rtd/fig1.rtd"
PLAN="$ROOT/examples/faults/fig1_force.fp"

# 1. Byte-for-byte equivalence: the streamed wire reports must render to
#    exactly the result lines ctrtl_design prints for the same design. Only
#    conflict lines, register lines (both two-space indented), and the
#    "final register values:" header constitute the result; everything else
#    in ctrtl_design output is progress chatter.
"$DESIGN" "$FIG1" --simulate \
  | grep -E '^(  |final register values:)' > "$WORK/expected.txt"
"$SERVE" submit --socket="$SOCK" --job=clean "$FIG1" \
  > "$WORK/got.txt" 2> "$WORK/clean.log"
diff -u "$WORK/expected.txt" "$WORK/got.txt" \
  || fail "wire reports differ from ctrtl_design output"
grep -q "cache miss" "$WORK/clean.log" || fail "first job should miss"

# 2. Cache hit: identical sources, second submission must skip lowering.
"$SERVE" submit --socket="$SOCK" --job=warm "$FIG1" \
  > "$WORK/got2.txt" 2> "$WORK/warm.log"
diff -u "$WORK/expected.txt" "$WORK/got2.txt" \
  || fail "warm run changed the results"
grep -q "cache hit" "$WORK/warm.log" || fail "second job should hit the cache"

# 2b. Whitespace variant: other bytes, same canonical stream — a cache hit
#     through the full parse/hash path. Then the variant byte for byte
#     again, which the source index serves without parsing.
sed 's/^bus B1$/bus   B1/' "$FIG1" > "$WORK/fig1_spaced.rtd"
cmp -s "$FIG1" "$WORK/fig1_spaced.rtd" && fail "whitespace variant is unchanged"
"$DESIGN" "$WORK/fig1_spaced.rtd" --simulate \
  | grep -E '^(  |final register values:)' > "$WORK/expected_spaced.txt"
for run in spaced same; do
  "$SERVE" submit --socket="$SOCK" --job="$run" "$WORK/fig1_spaced.rtd" \
    > "$WORK/got_$run.txt" 2> "$WORK/$run.log"
  diff -u "$WORK/expected_spaced.txt" "$WORK/got_$run.txt" \
    || fail "$run resubmit changed the results"
  grep -q "cache hit" "$WORK/$run.log" || fail "$run resubmit should hit"
done

# 3. Fault-plan job: forcing B1 at 5:ra makes step-5 rb a conflict (exit 3),
#    and the faulted wire output must still match faulted ctrtl_design.
"$DESIGN" "$FIG1" --simulate --fault-plan="$PLAN" \
  | grep -E '^(  |final register values:)' > "$WORK/expected_fault.txt" || true
set +e
"$SERVE" submit --socket="$SOCK" --job=faulted --fault-plan="$PLAN" "$FIG1" \
  > "$WORK/got_fault.txt" 2> "$WORK/fault.log"
STATUS=$?
set -e
[ "$STATUS" -eq 3 ] || fail "faulted job expected exit 3, got $STATUS"
diff -u "$WORK/expected_fault.txt" "$WORK/got_fault.txt" \
  || fail "faulted wire reports differ from ctrtl_design"

# 4. Generated corpus design: a ctrtl_gen fabric case through the wire.
if [ -x "${SERVE%ctrtl_serve}ctrtl_gen" ]; then
  GEN="${SERVE%ctrtl_serve}ctrtl_gen"
  "$GEN" --seed=11 --count=1 --profile=fabric --out-dir="$WORK/corpus" \
    > /dev/null
  CASE="$(ls "$WORK/corpus"/*.rtd | head -1)"
  "$DESIGN" "$CASE" --simulate \
    | grep -E '^(  |final register values:)' > "$WORK/expected_gen.txt"
  "$SERVE" submit --socket="$SOCK" --job=gen "$CASE" \
    > "$WORK/got_gen.txt" 2>/dev/null
  diff -u "$WORK/expected_gen.txt" "$WORK/got_gen.txt" \
    || fail "generated-design wire reports differ from ctrtl_design"
fi

# 5. Watchdog job: a tight delta-cycle bound must come back as a structured
#    per-instance watchdog report (exit 4), not a hung or dead server.
set +e
"$SERVE" submit --socket="$SOCK" --job=wd --max-delta-cycles=10 "$FIG1" \
  > /dev/null 2> "$WORK/wd.log"
STATUS=$?
set -e
[ "$STATUS" -eq 4 ] || fail "watchdog job expected exit 4, got $STATUS"
grep -q "watchdog" "$WORK/wd.log" || fail "watchdog diagnostic missing"
"$SERVE" ping --socket="$SOCK" > /dev/null || fail "server died after watchdog"

# 6. Structured error reply: garbage design text must yield E-PARSE.
echo "this is not a design" > "$WORK/bad.rtd"
set +e
"$SERVE" submit --socket="$SOCK" --job=bad "$WORK/bad.rtd" \
  > /dev/null 2> "$WORK/bad.log"
STATUS=$?
set -e
[ "$STATUS" -eq 2 ] || fail "bad design expected exit 2, got $STATUS"
grep -q "E-PARSE" "$WORK/bad.log" || fail "expected E-PARSE error code"

# 7. Stats plumbing: hits/misses observed above must show up. Four hits:
#    the warm job, the two whitespace-variant jobs, plus the watchdog job
#    (same canonical stream — engine bounds are not part of the cache key).
"$SERVE" stats --socket="$SOCK" > "$WORK/stats.txt"
grep -q "^cache-hits 4$" "$WORK/stats.txt" || fail "expected 4 cache hits"
grep -Eq "^jobs-completed [0-9]+$" "$WORK/stats.txt" || fail "stats malformed"

# 8. Clean shutdown: SHUTDOWN frame stops the server; process exits 0.
"$SERVE" shutdown --socket="$SOCK" | grep -q "shutdown acknowledged" \
  || fail "shutdown not acknowledged"
wait "$SERVER_PID"
SERVER_STATUS=$?
SERVER_PID=""
[ "$SERVER_STATUS" -eq 0 ] || fail "server exited $SERVER_STATUS"
grep -q "ctrtl_serve: stopped" "$WORK/server.log" \
  || fail "server did not log clean stop"

echo "serve smoke: all checks passed"
