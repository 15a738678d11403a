#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — keep the two in sync. Mapping
# (CI job -> what this script runs, same presets and ctest labels):
#
#   build-test   cmake --preset ci-{gcc,clang}-{debug,release}; full ctest;
#                ctest -L analysis.   Matrix legs whose compiler is not
#                installed are skipped with a note.
#   asan         cmake --preset asan; full ctest.   (gcc or clang)
#   ubsan        cmake --preset ubsan; full ctest (UBSan alone, no ASan
#                interposition).
#   tsan-sweep   cmake --preset tsan; ctest --preset tsan-sweep (includes the
#                sharded-kernel determinism matrix) + shard-lockstep ocn-diff
#                smokes at shards {2,4} — 16x16 clean and 4x4 chaos
#                kill_link — under TSan with tsan.supp (kept empty).
#   lint         cmake --build <dir> --target lint (clang-tidy; soft-fail in
#                CI, skipped here when clang-tidy is not installed).
#   analyze-smoke  scripts/lint_determinism.py (hard fail) + ocn-analyze over
#                the quick config matrix at shards {1,2,4} with the radix
#                sweep, plus the --break corruptions which must be refused.
#   bench-smoke  quick benches with --json, compared against bench/baselines/
#                by scripts/bench_compare.py (e13 numeric, m1 schema-only
#                plus the saturation-cell Mflit/s floor).
#   soa-smoke    router-pool suite (tests/test_soa: quick matrix in lockstep
#                against the reference model, quiescence audit, arbiter
#                rotation tables) + ocn-analyze --matrix.
#   chaos-smoke  quick fault-injection campaign (bench_e15_chaos) vs
#                bench/baselines/e15_quick.json.
#   diff-smoke   lockstep reference-model campaign (ocn-diff) over the quick
#                config matrix (incl. link-death cells) x a small seed set,
#                plus replay of the checked-in minimized regression trace,
#                plus the same matrix refereed 1-shard vs 4-shard;
#                fails on any divergence.
#   perfbench-smoke  scripts/perfbench_smoke.py: builds perfbench/ into
#                .bench_build/ and runs each workload once (seed 1, 1 s,
#                untraced); fails unless every result is correct with 0
#                failed operations, and unless traced light64 does the same
#                kernel work at its shard count and at 1 shard.
#
# Extras that CI runs implicitly via the test suite, kept from the original
# hygiene gate: the ocn-verify positive/negative smoke.
#
# Usage:  scripts/check.sh [--fast]
#   --fast   only the first available matrix leg, no sanitizers. For quick
#            pre-commit runs; the full script is the true CI mirror.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

have() { command -v "$1" >/dev/null 2>&1; }

run_matrix_leg() {
  local preset="$1"
  echo "== [build-test] preset $preset =="
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j"$(nproc)"
  ctest --preset "$preset"
  ctest --test-dir "build-$preset" -L analysis --output-on-failure
}

FIRST_BUILD=""
for compiler in gcc clang; do
  case "$compiler" in
    gcc) tool=g++ ;;
    clang) tool=clang++ ;;
  esac
  if ! have "$tool"; then
    echo "== [build-test] $tool not installed; skipping ci-$compiler-{debug,release} (CI runs them) =="
    continue
  fi
  for build_type in debug release; do
    run_matrix_leg "ci-$compiler-$build_type"
    [[ -z "$FIRST_BUILD" ]] && FIRST_BUILD="build-ci-$compiler-$build_type"
    if [[ "$FAST" == 1 ]]; then break 2; fi
  done
done
if [[ -z "$FIRST_BUILD" ]]; then
  echo "no usable C++ compiler found (need g++ or clang++)" >&2
  exit 1
fi

if [[ "$FAST" == 0 ]]; then
  echo "== [asan] AddressSanitizer + UBSan =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$(nproc)"
  ctest --preset asan

  echo "== [ubsan] UndefinedBehaviorSanitizer alone =="
  cmake --preset ubsan >/dev/null
  cmake --build --preset ubsan -j"$(nproc)"
  ctest --preset ubsan

  echo "== [tsan-sweep] ThreadSanitizer, sweep-labelled tests =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$(nproc)"
  export TSAN_OPTIONS="suppressions=$PWD/tsan.supp"
  ctest --preset tsan-sweep

  echo "== [tsan-sweep] shard-lockstep smokes under TSan =="
  for shards in 2 4; do
    ./build-tsan/examples/ocn-diff --shards "$shards" --radix 16 \
      --cell baseline --seeds 1 --trace-cycles 200 --quiet
    ./build-tsan/examples/ocn-diff --shards "$shards" \
      --cell chaos-baseline --seeds 1 --trace-cycles 200 --quiet
  done
else
  echo "== --fast: skipping asan, ubsan and tsan-sweep (CI runs them) =="
fi

if have clang-tidy; then
  echo "== [lint] clang-tidy =="
  cmake --build "$FIRST_BUILD" --target lint
else
  echo "== [lint] clang-tidy not installed; skipping (CI soft-fails it) =="
fi

echo "== [analyze-smoke] determinism lint =="
python3 scripts/lint_determinism.py

echo "== [analyze-smoke] concurrency-safety analyzer over the config matrix =="
cmake --build "$FIRST_BUILD" --target ocn-analyze >/dev/null
"./$FIRST_BUILD/examples/ocn-analyze" --matrix --quick --quiet
"./$FIRST_BUILD/examples/ocn-analyze" --matrix --quiet

echo "== [analyze-smoke] broken partitions must be refused =="
for kind in zero-latency-cross global-mutator; do
  if "./$FIRST_BUILD/examples/ocn-analyze" --shards 2 --break "$kind" --quiet; then
    echo "expected the analyzer to refuse --break $kind" >&2
    exit 1
  fi
done
if "./$FIRST_BUILD/examples/ocn-analyze" --shards 2 --link-latency 0 --quiet; then
  echo "expected the analyzer to refuse link latency 0" >&2
  exit 1
fi

echo "== ocn-verify: paper baseline must prove deadlock freedom =="
"./$FIRST_BUILD/examples/ocn-verify" --quiet

echo "== ocn-verify: dateline-disabled radix-6 torus must find the cycle =="
if "./$FIRST_BUILD/examples/ocn-verify" --topology torus --no-vc-parity --radix 6 --quiet; then
  echo "expected the verifier to reject this config" >&2
  exit 1
fi

echo "== [bench-smoke] quick benches vs committed baselines =="
BENCH_OUT="$FIRST_BUILD/bench-out"
mkdir -p "$BENCH_OUT"
"./$FIRST_BUILD/bench/bench_e13_load_latency" --quick --json "$BENCH_OUT/e13_quick.json" >/dev/null
"./$FIRST_BUILD/bench/bench_m1_micro" --quick --json "$BENCH_OUT/m1_micro.json" >/dev/null
python3 scripts/bench_compare.py --run "$BENCH_OUT/e13_quick.json" \
  --baseline bench/baselines/e13_quick.json --tolerance 0.05
python3 scripts/bench_compare.py --run "$BENCH_OUT/m1_micro.json" \
  --baseline bench/baselines/m1_micro.json --schema-only \
  --min-metric mflits_per_sec.saturation64=0.001

echo "== [soa-smoke] router-pool suite (quick matrix vs reference model) + analyzer matrix =="
cmake --build "$FIRST_BUILD" --target test_soa >/dev/null
"./$FIRST_BUILD/tests/test_soa"
"./$FIRST_BUILD/examples/ocn-analyze" --matrix --quick --quiet

echo "== [chaos-smoke] quick fault-injection campaign vs committed baseline =="
"./$FIRST_BUILD/bench/bench_e15_chaos" --quick --json "$BENCH_OUT/e15_quick.json" >/dev/null
python3 scripts/bench_compare.py --run "$BENCH_OUT/e15_quick.json" \
  --baseline bench/baselines/e15_quick.json --tolerance 0.05

echo "== [diff-smoke] lockstep reference-model campaign =="
"./$FIRST_BUILD/examples/ocn-diff" --seeds 10 --trace-cycles 300 --quiet
"./$FIRST_BUILD/examples/ocn-diff" --shards 4 --seeds 10 --trace-cycles 300 --quiet
"./$FIRST_BUILD/examples/ocn-diff" \
  --replay tests/data/lockstep_chaos_regression.trace \
  --kill-node 0 --kill-port row+ --kill-cycle 60

echo "== [perfbench-smoke] every benchmark workload once, checked correct =="
python3 scripts/perfbench_smoke.py

echo "All checks passed."
