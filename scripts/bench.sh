#!/usr/bin/env bash
# Benchmark regression sentinel (see docs/observability.md).
#
#   scripts/bench.sh [--build-dir DIR] [--check] [--update]
#
# Runs the deterministic bench suites (E3 compile speed, E5 phase
# breakdown, E7 code quality) with --baseline-json, plus the compile
# server throughput run (gg-load against a live --serve daemon) and an
# overload leg (open-loop arrivals against a bounded queue, merged into
# the same artifact under the overload_ prefix: goodput, shed rate,
# tail latency), and either:
#
#   --update (default)  writes BENCH_compile_speed.json,
#                       BENCH_phase_breakdown.json and
#                       BENCH_code_quality.json at the repo root — the
#                       committed baselines;
#   --check             writes fresh metrics into the build tree and
#                       compares them against the committed baselines
#                       with `gg-report --check-bench`. Exits nonzero on
#                       any count-metric deviation beyond the default
#                       0.5% threshold (time metrics are informational
#                       and skipped; pass gg-report --time-threshold
#                       manually to opt in). The overload_ metrics are
#                       load-dependent, so --noisy=overload_ keeps them
#                       informational like the time class. --check also
#                       runs 5 alternating untraced/traced (--trace-json
#                       armed) pairs of the throughput leg and fails if
#                       the traced median is more than 2% below the
#                       untraced median.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
MODE=update
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --check) MODE=check; shift ;;
    --update) MODE=update; shift ;;
    *) echo "usage: bench.sh [--build-dir DIR] [--check|--update]" >&2; exit 2 ;;
  esac
done

for bin in bench/bench_compile_speed bench/bench_phase_breakdown \
           bench/bench_code_quality tools/gg-report tools/gg-load \
           examples/compile_minic; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "bench.sh: $BUILD_DIR/$bin missing (build the tree first)" >&2
    exit 1
  fi
done

if [ "$MODE" = update ]; then
  echo "== writing bench baselines at $ROOT"
  "$BUILD_DIR/bench/bench_compile_speed" \
      --baseline-json="$ROOT/BENCH_compile_speed.json" > /dev/null
  "$BUILD_DIR/bench/bench_phase_breakdown" \
      --baseline-json="$ROOT/BENCH_phase_breakdown.json" > /dev/null
  "$BUILD_DIR/bench/bench_code_quality" \
      --baseline-json="$ROOT/BENCH_code_quality.json" > /dev/null
  rm -f "$BUILD_DIR/bench-serve.sock"
  "$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
      --spawn="$BUILD_DIR/examples/compile_minic" \
      --requests=200 --clients=4 --corpus=16 --verify \
      --bench-json="$ROOT/BENCH_server_throughput.json" > /dev/null
  rm -f "$BUILD_DIR/bench-serve.sock"
  GG_FAULT=overload-burst=20 \
  "$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
      --spawn="$BUILD_DIR/examples/compile_minic" \
      --serve-arg=--serve-workers=2 --serve-arg=--serve-queue-depth=4 \
      --requests=300 --clients=4 --corpus=12 --open-loop=500 \
      --timeout-ms=20000 --expect-sheds \
      --bench-json="$ROOT/BENCH_server_throughput.json" \
      --bench-merge --bench-prefix=overload_ > /dev/null
  echo "   BENCH_compile_speed.json BENCH_phase_breakdown.json" \
       "BENCH_code_quality.json BENCH_server_throughput.json"
  exit 0
fi

echo "== bench sentinel: fresh run vs committed baselines"
FRESH="$BUILD_DIR/bench-fresh"
mkdir -p "$FRESH"
"$BUILD_DIR/bench/bench_compile_speed" \
    --baseline-json="$FRESH/compile_speed.json" > /dev/null
"$BUILD_DIR/bench/bench_phase_breakdown" \
    --baseline-json="$FRESH/phase_breakdown.json" > /dev/null
"$BUILD_DIR/bench/bench_code_quality" \
    --baseline-json="$FRESH/code_quality.json" > /dev/null
# One throughput leg: run_load OUT [gg-load args...]; thr_of OUT reads
# its req/s.
run_load() {
  local out=$1; shift
  rm -f "$BUILD_DIR/bench-serve.sock" "$out"
  "$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
      --spawn="$BUILD_DIR/examples/compile_minic" "$@" \
      --requests=200 --clients=4 --corpus=16 --verify \
      --bench-json="$out" > /dev/null
}
thr_of() {
  sed -n 's/.*"throughput_per_wall_seconds":\([0-9.eE+-]*\).*/\1/p' "$1"
}
median() { printf '%s\n' "$@" | sort -g | sed -n "$(( ($# + 1) / 2 ))p"; }
gate_json() {
  printf '{"schema":"gg-bench-v1","bench":"server_throughput",%s\n' \
    "\"metrics\":{\"throughput_per_wall_seconds\":$1}}" > "$2"
}

# Always-on tracing overhead guard (docs/observability.md): the same
# throughput leg with the server's trace recorder armed must stay within
# 2% of the untraced throughput. One run of each is too noisy on a shared
# machine, so the guard runs 5 alternating untraced/traced pairs and
# compares the medians; the first untraced run is the one the sentinel
# below pins to the committed baseline. The compare is scoped to the
# throughput metric alone — latency percentiles jitter more than 2%
# between two healthy runs, and gating on them would only measure the
# machine.
UNTRACED=() TRACED=()
for pair in 1 2 3 4 5; do
  out="$FRESH/server_throughput.json"
  [ "$pair" = 1 ] || out="$FRESH/server_throughput_untraced.$pair.json"
  traced="$FRESH/server_throughput_traced.$pair.json"
  run_load "$out"
  run_load "$traced" --serve-arg=--trace-json=/dev/null
  UNTRACED+=("$(thr_of "$out")")
  TRACED+=("$(thr_of "$traced")")
done
for thr in "${UNTRACED[@]}" "${TRACED[@]}"; do
  [ -n "$thr" ] ||
    { echo "bench.sh: a throughput leg reported no metric" >&2; exit 1; }
done
gate_json "$(median "${UNTRACED[@]}")" "$FRESH/server_throughput_untraced_gate.json"
gate_json "$(median "${TRACED[@]}")" "$FRESH/server_throughput_traced_gate.json"
echo "== always-on tracing overhead guard (<=2% of untraced throughput)"
echo "   untraced req/s: ${UNTRACED[*]} (median $(median "${UNTRACED[@]}"))"
echo "   traced req/s:   ${TRACED[*]} (median $(median "${TRACED[@]}"))"
"$BUILD_DIR/tools/gg-report" --time-threshold=2 \
    --check-bench="$FRESH/server_throughput_traced_gate.json:$FRESH/server_throughput_untraced_gate.json" \
    > /dev/null
rm -f "$BUILD_DIR/bench-serve.sock"
GG_FAULT=overload-burst=20 \
"$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
    --spawn="$BUILD_DIR/examples/compile_minic" \
    --serve-arg=--serve-workers=2 --serve-arg=--serve-queue-depth=4 \
    --requests=300 --clients=4 --corpus=12 --open-loop=500 \
    --timeout-ms=20000 --expect-sheds \
    --bench-json="$FRESH/server_throughput.json" \
    --bench-merge --bench-prefix=overload_ > /dev/null
"$BUILD_DIR/tools/gg-report" --noisy=overload_ \
    --check-bench="$FRESH/compile_speed.json:$ROOT/BENCH_compile_speed.json" \
    --check-bench="$FRESH/phase_breakdown.json:$ROOT/BENCH_phase_breakdown.json" \
    --check-bench="$FRESH/code_quality.json:$ROOT/BENCH_code_quality.json" \
    --check-bench="$FRESH/server_throughput.json:$ROOT/BENCH_server_throughput.json"
