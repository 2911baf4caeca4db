#!/usr/bin/env sh
# CI entry point: tier-1 verify plus a bench-compile-only job.
# Usage: ./ci.sh [build-dir-prefix]   (default: build-ci)
set -eu

PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> Job 1: configure + build + ctest (-Werror + extra warning wall)"
cmake -B "${PREFIX}" -S . -DECTHUB_WERROR=ON -DECTHUB_EXTRA_WARNINGS=ON \
  -DECTHUB_BUILD_BENCH=OFF
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure --no-tests=error -j "${JOBS}"

# Job 2 flips the bench gate on in the same tree, so the module libraries
# from job 1 are reused and only the bench binaries compile fresh (under the
# same -Werror + extra-warnings wall).
echo "==> Job 2: bench compile-only (-Werror + extra warning wall)"
cmake -B "${PREFIX}" -S . -DECTHUB_WERROR=ON -DECTHUB_EXTRA_WARNINGS=ON \
  -DECTHUB_BUILD_BENCH=ON
cmake --build "${PREFIX}" -j "${JOBS}"

# Job 3 runs the tier-1 suite under ASan + UBSan in a separate tree: the
# fleet runner executes hubs across a thread pool, so every push exercises
# the threaded code under the sanitizers.
echo "==> Job 3: ASan+UBSan tier-1"
cmake -B "${PREFIX}-asan" -S . -DECTHUB_SANITIZE=ON -DECTHUB_BUILD_BENCH=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}-asan" -j "${JOBS}"
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir "${PREFIX}-asan" \
  --output-on-failure --no-tests=error -j "${JOBS}"

# Job 4 rebuilds under ThreadSanitizer and runs the sim-engine suite (the
# threaded per-hub runner, the barrier-synchronized lockstep crew, the
# four-way run/lockstep×1/coordinator-GEMM/worker-GEMM identity harness and
# the coupled-metro identity harness — LockstepDeterminism.* and
# CouplingBus.* match the filter below), the vectorized rollout collector's
# bit-identity suite (VecCollector*, whose crew shards env stepping and
# row-block act_rows GEMMs across threads), the process-sharding suite
# (Shard*, whose driver forks worker processes that spawn their own thread
# pools, plus the ExactSum register the merged reports ride on) and the
# decision-service suite (Serve*, whose worker micro-batches concurrent
# decide(obs) callers into one decide_rows forward) and the
# DRL/metro/sharding/serving smokes, so every push exercises the lockstep
# barriers, the concurrent row-block decide_rows/act_rows paths, the
# slot-barrier CouplingBus exchange, the fork/merge shard path and the
# request-batching queue under TSan as well as ASan (the ASan job above runs
# the full suite including the smokes).
echo "==> Job 4: TSan lockstep (test_sim + collector + DRL/metro smokes)"
cmake -B "${PREFIX}-tsan" -S . -DECTHUB_SANITIZE=thread -DECTHUB_BUILD_BENCH=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
TSAN_OPTIONS=halt_on_error=1 ctest --test-dir "${PREFIX}-tsan" \
  -R 'Scenario|MixSeed|PolicyFactory|FleetJobs|FleetRunner|Lockstep|CouplingBus|AggregateReport|VecCollector|DrlZoo|Shard|ExactSum|Serve|city_sweep_drl|city_sweep_metro|city_sweep_shard|decision_server' \
  --output-on-failure --no-tests=error -j "${JOBS}"

# Job 5 is the static-analysis gate:
#  (a) ecthub_lint — the in-repo invariant linter (determinism / hot-path
#      allocation hygiene / header hygiene) over src/, failing on any finding
#      not excused by tools/lint_allowlist.txt, and failing on allowlist
#      entries that no longer match real source lines (stale entries);
#  (b) header self-containment — every src/**/*.hpp compiled standalone
#      (twice, for guard idempotency) via the generated-TU object target;
#  (c) GCC -fanalyzer compile-only over the leaf modules (common, nn,
#      battery, weather).  GCC 12's analyzer does not model std::allocator,
#      so three libstdc++-internal false-positive classes are suppressed with
#      justification (see tools/lint_allowlist.txt header and README "Static
#      analysis"); every other -Wanalyzer-* check is a hard error.
echo "==> Job 5: invariant lint + header self-containment + GCC analyzer"
cmake --build "${PREFIX}" -j "${JOBS}" --target ecthub_lint ecthub_header_check
"${PREFIX}/tools/ecthub_lint" --allowlist tools/lint_allowlist.txt \
  --check-allowlist src

for f in src/common/*.cpp src/nn/*.cpp src/battery/*.cpp src/weather/*.cpp; do
  g++ -std=c++20 -Isrc -O1 -c "$f" -o /dev/null \
    -fanalyzer -Werror \
    -Wno-analyzer-use-of-uninitialized-value \
    -Wno-analyzer-null-dereference \
    -Wno-analyzer-possible-null-dereference
done
echo "    analyzer pass clean over common/nn/battery/weather"

# Job 6 is the benchmark's smoke test: it builds perfbench/ against this
# checkout in its own tree and runs every benchmark workload at a tiny shape,
# so a change that breaks the benchmark's serial-reference or replay checks
# (or drops a metric) fails CI instead of the next timed run.
echo "==> Job 6: perfbench smoke"
CARGO_TARGET_DIR="${PREFIX}-perfbench" python3 perfbench/smoke.py

echo "==> CI green"
