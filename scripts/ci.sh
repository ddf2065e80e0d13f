#!/usr/bin/env bash
# CI driver: build and test the correctness flavors
# (docs/CHECKING.md, docs/HARNESS.md). Fails on the first problem.
#
#   1. release     — tier-1: the default RelWithDebInfo build + ctest
#   2. asan-ubsan  — AddressSanitizer + UBSan, LSQ_DCHECK on
#   3. checker     — LSQ_CHECKER=ON: every simulation shadow-executed
#                    against the memory-ordering oracle; also runs
#                    `bench/paper --only fig7` under the oracle
#   4. tsan        — ThreadSanitizer on harness_test + obs_test +
#                    sample_test: the sweep engine and the checkpoint
#                    writers under a race detector
#   4b. mcm-smoke  — memory-consistency litmus grid
#                    (docs/CONSISTENCY.md): tools/lsqmcm runs every
#                    scenario across the full design grid under the
#                    ordering oracle (zero forbidden outcomes, zero
#                    mismatches, probe squashes demonstrably firing,
#                    gated by scripts/check_mcm_smoke.py), the litmus
#                    JobPool fan-out runs under ThreadSanitizer, and
#                    an idle probe agent (--probe-rate 0) must leave
#                    lsqsim output byte-identical while an active one
#                    must deliver probes
#   5. bench-smoke — the whole `bench/paper` evaluation with
#                    LSQSCALE_JOBS=4 vs a serial run; table and CSV
#                    output must be byte-identical (the harness
#                    determinism contract). Also the sampling demo
#                    (docs/SAMPLING.md): a sampled `paper --only fig7`
#                    subset must be >= 3x faster than full detail with
#                    every cell's IPC within 2%. (The lsqbench smoke
#                    check, `lsqbench/run.py --smoke`, is the
#                    lsqbench_smoke ctest, so every flavor runs it.)
#   6. trace-smoke — LSQ_TRACE=ON build + ctest; traced runs must be
#                    bit-identical to untraced runs across three design
#                    points, the Konata export must round-trip, and
#                    lsqtrace must render the stall table
#   6b. metrics-smoke — host profiler (docs/OBSERVABILITY.md):
#                    profiled runs (--host-profile) must be
#                    bit-identical to plain runs across the same three
#                    design points, `lsqtrace hostprof` must render each
#                    hostprof tree, the trees must pass
#                    scripts/check_metrics_smoke.py validate, the
#                    ABBA-median instrumentation overhead must stay
#                    under 2%, and a fresh host-throughput trajectory
#                    must append records that pass
#                    scripts/check_host_throughput.py
#   7. coverage    — LSQ_COVERAGE=ON build + ctest, then
#                    scripts/coverage_report.py prints line coverage
#                    per src/ subdir (soft-fails under the threshold)
#   8. crash-smoke — the robustness story end to end
#                    (docs/ROBUSTNESS.md): an uninjected
#                    process-isolated `paper --only fig7` sweep must be
#                    byte-identical to thread mode; then deterministic
#                    SIGSEGV, hang and (under the checker build)
#                    corrupt-lsq faults are injected at a cycle that
#                    splits the grid — only the long-running cells may
#                    be poisoned, each with signal/heartbeat
#                    provenance, and the sweep must exit nonzero
#   9. lint        — the lsqlint analyzer (python3 -m tools.lsqlint)
#                    standalone (also a ctest in every flavor above, so
#                    this is a fast final recheck)
#  10. analyze     — deep static-analysis pass (docs/STATIC_ANALYSIS.md):
#                    the tests/lintfix fixture self-test and clang-tidy
#                    over compile_commands.json when the binary is
#                    available (gcc-only containers skip that step)
#
# Usage: scripts/ci.sh [jobs]     (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

banner() { printf '\n=== %s ===\n' "$*"; }

run_flavor() {
    local name="$1"; shift
    local dir="build-ci-$name"
    banner "flavor: $name (configure)"
    cmake -B "$dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" \
        >/dev/null
    banner "flavor: $name (build)"
    cmake --build "$dir" -j "$JOBS"
    banner "flavor: $name (ctest)"
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_flavor release
run_flavor asan-ubsan -DLSQ_ASAN=ON -DLSQ_UBSAN=ON
run_flavor checker -DLSQ_CHECKER=ON

banner "flavor: checker (paper --only fig7 under the oracle)"
LSQSCALE_INSTS="${LSQSCALE_CI_BENCH_INSTS:-20000}" \
    ./build-ci-checker/bench/paper --only fig7

banner "flavor: tsan (harness/obs/sample tests under ThreadSanitizer)"
cmake -B build-ci-tsan -S . -DLSQ_TSAN=ON >/dev/null
cmake --build build-ci-tsan -j "$JOBS" \
    --target harness_test obs_test sample_test
./build-ci-tsan/tests/harness_test
./build-ci-tsan/tests/obs_test
./build-ci-tsan/tests/sample_test

banner "flavor: mcm-smoke (litmus grid under the oracle, TSan, probe bit-identity)"
MCM_DIR="build-ci-release/mcm-smoke"
MCM_SEEDS="${LSQSCALE_CI_MCM_SEEDS:-16}"
MCM_ITERS="${LSQSCALE_CI_MCM_ITERS:-64}"
MCM_INSTS="${LSQSCALE_CI_BENCH_INSTS:-20000}"
rm -rf "$MCM_DIR"
mkdir -p "$MCM_DIR"

# Full design grid, every scenario, ordering oracle attached (the
# checker build compiles the same hooks, so run it there for depth).
./build-ci-checker/tools/lsqmcm --seeds "$MCM_SEEDS" \
    --iters "$MCM_ITERS" --json >"$MCM_DIR/grid.json"
python3 scripts/check_mcm_smoke.py grid "$MCM_DIR/grid.json"

# The litmus engine's per-seed JobPool fan-out under ThreadSanitizer.
cmake --build build-ci-tsan -j "$JOBS" --target lsqmcm
./build-ci-tsan/tools/lsqmcm --seeds 4 --iters 16 --threads 4 >/dev/null

# Probe non-perturbation: attaching an idle agent (--probe-rate 0)
# must not change a single output byte; an active schedule must
# actually reach the LSQ.
./build-ci-release/tools/lsqsim --insts "$MCM_INSTS" --json \
    >"$MCM_DIR/plain.json" 2>/dev/null
./build-ci-release/tools/lsqsim --insts "$MCM_INSTS" --probe-rate 0 \
    --json >"$MCM_DIR/idle.json" 2>/dev/null
diff "$MCM_DIR/plain.json" "$MCM_DIR/idle.json" || {
    echo "mcm-smoke: idle probe agent perturbed the run" >&2
    exit 1
}
./build-ci-release/tools/lsqsim --insts "$MCM_INSTS" --probe-rate 5 \
    --json >"$MCM_DIR/probed.json" 2>/dev/null
python3 scripts/check_mcm_smoke.py probed "$MCM_DIR/probed.json"

banner "flavor: bench-smoke (parallel sweep byte-identical to serial)"
SMOKE_INSTS="${LSQSCALE_CI_BENCH_INSTS:-20000}"
SMOKE_DIR="build-ci-release/bench-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR/serial" "$SMOKE_DIR/parallel"
LSQSCALE_INSTS="$SMOKE_INSTS" LSQSCALE_JOBS=1 \
    LSQSCALE_CSV_DIR="$SMOKE_DIR/serial" \
    ./build-ci-release/bench/paper \
    >"$SMOKE_DIR/serial/table.txt" 2>/dev/null
LSQSCALE_INSTS="$SMOKE_INSTS" LSQSCALE_JOBS=4 \
    LSQSCALE_CSV_DIR="$SMOKE_DIR/parallel" \
    LSQSCALE_JSON_DIR="$SMOKE_DIR/parallel" \
    ./build-ci-release/bench/paper \
    >"$SMOKE_DIR/parallel/table.txt" 2>/dev/null
diff -r --exclude='BENCH_*.json' "$SMOKE_DIR/serial" "$SMOKE_DIR/parallel"
python3 -c "import json,glob,sys; \
    [json.load(open(p)) for p in \
     glob.glob('$SMOKE_DIR/parallel/BENCH_*.json')] or \
    sys.exit('bench-smoke: no BENCH_*.json emitted')"

banner "flavor: bench-smoke (host-throughput trajectory appended)"
# Append a record to the committed repo-root trajectory
# (schema lsqscale-host-throughput-trajectory-v1): three pinned design
# points, simulated cycles/sec and committed insts/sec plus the
# host-profiler per-phase breakdown. The wall-clock fields are
# host-dependent, so the guard only rejects catastrophic regressions
# relative to the recorded history at the same instruction count.
./build-ci-release/bench/host_throughput
python3 scripts/check_host_throughput.py BENCH_host_throughput.json

banner "flavor: bench-smoke (sampled paper --only fig7 >=3x faster, cells within 2%)"
# Checkpoint/fast-forward sampling demo (docs/SAMPLING.md): rerun the
# Figure 7 sweep on a benchmark subset at a window long enough for the
# estimator's variance to settle, once in full detail and once under
# LSQSCALE_SAMPLE — no per-bench changes — then require >=3x wall-clock
# speedup with every cell's IPC within 2% of full detail.
SAMPLE_INSTS="${LSQSCALE_CI_SAMPLE_INSTS:-2000000}"
SAMPLE_SPEC="${LSQSCALE_CI_SAMPLE_SPEC:-2800:400:400}"
SAMPLE_BENCH="${LSQSCALE_CI_SAMPLE_BENCH:-gzip,mcf,twolf,equake,swim}"
rm -rf "$SMOKE_DIR/full" "$SMOKE_DIR/sampled"
mkdir -p "$SMOKE_DIR/full" "$SMOKE_DIR/sampled"
LSQSCALE_BENCH="$SAMPLE_BENCH" LSQSCALE_INSTS="$SAMPLE_INSTS" \
    LSQSCALE_JOBS=1 LSQSCALE_JSON_DIR="$SMOKE_DIR/full" \
    ./build-ci-release/bench/paper --only fig7 >/dev/null 2>&1
LSQSCALE_BENCH="$SAMPLE_BENCH" LSQSCALE_INSTS="$SAMPLE_INSTS" \
    LSQSCALE_JOBS=1 LSQSCALE_SAMPLE="$SAMPLE_SPEC" \
    LSQSCALE_JSON_DIR="$SMOKE_DIR/sampled" \
    ./build-ci-release/bench/paper --only fig7 >/dev/null 2>&1
python3 scripts/check_sampling.py \
    "$SMOKE_DIR/full/BENCH_paper.json" \
    "$SMOKE_DIR/sampled/BENCH_paper.json" \
    --min-speedup 3.0 --max-cell-error 2.0

banner "flavor: trace-smoke (tracing on, timing bit-identical)"
run_flavor trace -DLSQ_TRACE=ON
TRACE_DIR="build-ci-trace/trace-smoke"
TRACE_INSTS="${LSQSCALE_CI_BENCH_INSTS:-20000}"
rm -rf "$TRACE_DIR"
mkdir -p "$TRACE_DIR"
POINTS=(
    ""
    "--all-techniques"
    "--segments 4 --lq 28 --sq 28 --ports 1"
)
for i in "${!POINTS[@]}"; do
    # shellcheck disable=SC2086  # word-split the design-point flags
    ./build-ci-trace/tools/lsqsim --insts "$TRACE_INSTS" ${POINTS[$i]} \
        --json >"$TRACE_DIR/plain_$i.json"
    # shellcheck disable=SC2086
    ./build-ci-trace/tools/lsqsim --insts "$TRACE_INSTS" ${POINTS[$i]} \
        --trace-out "$TRACE_DIR/point_$i.evtrace" \
        --trace-konata "$TRACE_DIR/point_$i.konata" \
        --interval-stats 1000 \
        --interval-json "$TRACE_DIR/point_$i.intervals.json" \
        --json >"$TRACE_DIR/traced_$i.json"
    diff "$TRACE_DIR/plain_$i.json" "$TRACE_DIR/traced_$i.json" || {
        echo "trace-smoke: design point $i not bit-identical" >&2
        exit 1
    }
    ./build-ci-trace/tools/lsqtrace konata \
        "$TRACE_DIR/point_$i.evtrace" --check >/dev/null
    python3 -c "import json; json.load(open('$TRACE_DIR/point_$i.intervals.json'))"
done
./build-ci-trace/tools/lsqtrace stalls "$TRACE_DIR/point_2.evtrace" \
    | grep -q "segment search pipelining" || {
    echo "trace-smoke: stall table missing attribution rows" >&2
    exit 1
}

banner "flavor: metrics-smoke (host-profile bit-identity, tree validation, overhead)"
METRICS_DIR="build-ci-release/metrics-smoke"
METRICS_INSTS="${LSQSCALE_CI_BENCH_INSTS:-20000}"
rm -rf "$METRICS_DIR"
mkdir -p "$METRICS_DIR"
MPOINTS=(
    ""
    "--all-techniques"
    "--segments 4 --lq 28 --sq 28 --ports 1"
)
for i in "${!MPOINTS[@]}"; do
    # shellcheck disable=SC2086  # word-split the design-point flags
    ./build-ci-release/tools/lsqsim --insts "$METRICS_INSTS" \
        ${MPOINTS[$i]} --json >"$METRICS_DIR/plain_$i.json" 2>/dev/null
    # shellcheck disable=SC2086
    ./build-ci-release/tools/lsqsim --insts "$METRICS_INSTS" \
        ${MPOINTS[$i]} --host-profile \
        --host-profile-json "$METRICS_DIR/hostprof_$i.json" \
        --json >"$METRICS_DIR/profiled_$i.json" 2>/dev/null
    diff "$METRICS_DIR/plain_$i.json" "$METRICS_DIR/profiled_$i.json" || {
        echo "metrics-smoke: design point $i not bit-identical" >&2
        exit 1
    }
    ./build-ci-release/tools/lsqtrace hostprof \
        "$METRICS_DIR/hostprof_$i.json" \
        | grep -q "host profile" || {
        echo "metrics-smoke: lsqtrace hostprof render failed ($i)" >&2
        exit 1
    }
    python3 scripts/check_metrics_smoke.py validate \
        "$METRICS_DIR/hostprof_$i.json"
done
# The overhead gate needs runs long enough that process startup and
# timer quantization do not drown a ~1% effect, so it keeps its own
# instruction count rather than the shrinkable bench one.
python3 scripts/check_metrics_smoke.py overhead \
    --lsqsim ./build-ci-release/tools/lsqsim \
    --insts "${LSQSCALE_METRICS_OVERHEAD_INSTS:-200000}"

# A fresh trajectory in the smoke dir: two appends, then the validator
# and a dry-run of the regression guard (a fresh file has exactly one
# prior record at the same instruction count).
LSQSCALE_INSTS="$METRICS_INSTS" LSQSCALE_JSON_DIR="$METRICS_DIR" \
    ./build-ci-release/bench/host_throughput >/dev/null
LSQSCALE_INSTS="$METRICS_INSTS" LSQSCALE_JSON_DIR="$METRICS_DIR" \
    ./build-ci-release/bench/host_throughput >/dev/null
python3 scripts/check_host_throughput.py \
    "$METRICS_DIR/BENCH_host_throughput.json" --min-records 2 --dry-run

banner "flavor: coverage (gcov line coverage per src/ subdir)"
run_flavor coverage -DLSQ_COVERAGE=ON
python3 scripts/coverage_report.py build-ci-coverage

banner "flavor: crash-smoke (isolation bit-identity, fault campaigns)"
CRASH_DIR="build-ci-release/crash-smoke"
CRASH_INSTS="${LSQSCALE_CI_BENCH_INSTS:-20000}"
CRASH_BENCH="${LSQSCALE_CI_CRASH_BENCH:-gzip,mcf,twolf,equake,swim}"
rm -rf "$CRASH_DIR"
mkdir -p "$CRASH_DIR/thread" "$CRASH_DIR/process" \
    "$CRASH_DIR/injected" "$CRASH_DIR/hang" "$CRASH_DIR/corrupt"

# Uninjected process-isolated sweep: byte-identical to thread mode
# across fig7's four design points (table and CSV; the JSON carries
# wall times).
LSQSCALE_BENCH="$CRASH_BENCH" LSQSCALE_INSTS="$CRASH_INSTS" \
    LSQSCALE_JOBS=2 LSQSCALE_CSV_DIR="$CRASH_DIR/thread" \
    LSQSCALE_JSON_DIR="$CRASH_DIR/thread" \
    ./build-ci-release/bench/paper --only fig7 \
    >"$CRASH_DIR/thread/table.txt" 2>/dev/null
LSQSCALE_BENCH="$CRASH_BENCH" LSQSCALE_INSTS="$CRASH_INSTS" \
    LSQSCALE_JOBS=2 LSQSCALE_ISOLATION=process \
    LSQSCALE_CSV_DIR="$CRASH_DIR/process" \
    LSQSCALE_JSON_DIR="$CRASH_DIR/process" \
    ./build-ci-release/bench/paper --only fig7 \
    >"$CRASH_DIR/process/table.txt" 2>/dev/null
diff -r --exclude='BENCH_*.json' "$CRASH_DIR/thread" "$CRASH_DIR/process"

# Pick a trigger cycle that splits the grid: short cells finish before
# it (and must stay healthy under injection), long cells hit the fault.
CRASH_CYC=$(python3 scripts/check_crash_smoke.py pick-cycle \
    "$CRASH_DIR/process/BENCH_paper.json")

# SIGSEGV campaign. The sweep must exit nonzero yet still emit the
# healthy cells with crash provenance on the rest.
rc=0
LSQSCALE_BENCH="$CRASH_BENCH" LSQSCALE_INSTS="$CRASH_INSTS" \
    LSQSCALE_JOBS=2 LSQSCALE_ISOLATION=process \
    LSQSCALE_INJECT="crash:0:$CRASH_CYC" \
    LSQSCALE_JSON_DIR="$CRASH_DIR/injected" \
    ./build-ci-release/bench/paper --only fig7 \
    >"$CRASH_DIR/injected/table.txt" 2>/dev/null || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "crash-smoke: injected sweep exited 0" >&2
    exit 1
fi
python3 scripts/check_crash_smoke.py check-campaign \
    "$CRASH_DIR/process/BENCH_paper.json" \
    "$CRASH_DIR/injected/BENCH_paper.json" \
    "$CRASH_CYC" --kind crash

# Hang campaign: the heartbeat watchdog must reap the long cells as
# TimedOut while the short ones stay healthy.
rc=0
LSQSCALE_BENCH="$CRASH_BENCH" LSQSCALE_INSTS="$CRASH_INSTS" \
    LSQSCALE_JOBS=2 LSQSCALE_ISOLATION=process \
    LSQSCALE_INJECT="hang:0:$CRASH_CYC" LSQSCALE_WATCHDOG_MS=2000 \
    LSQSCALE_JSON_DIR="$CRASH_DIR/hang" \
    ./build-ci-release/bench/paper --only fig7 >/dev/null 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "crash-smoke: hung sweep exited 0" >&2
    exit 1
fi
python3 scripts/check_crash_smoke.py check-campaign \
    "$CRASH_DIR/process/BENCH_paper.json" \
    "$CRASH_DIR/hang/BENCH_paper.json" \
    "$CRASH_CYC" --kind hang

# Corruption campaign under the checker build: corrupt-lsq fires early
# in every cell; the ordering oracle must catch the observable ones
# (SIGABRT) and nothing else may go wrong. bzip/parser/vpr alias
# enough for detection to be deterministic at these settings.
rc=0
LSQSCALE_BENCH="bzip,parser,vpr" LSQSCALE_INSTS="$CRASH_INSTS" \
    LSQSCALE_JOBS=2 LSQSCALE_ISOLATION=process \
    LSQSCALE_INJECT="corrupt-lsq:1:1000" \
    LSQSCALE_JSON_DIR="$CRASH_DIR/corrupt" \
    ./build-ci-checker/bench/paper --only fig7 >/dev/null 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "crash-smoke: corrupted sweep exited 0" >&2
    exit 1
fi
python3 scripts/check_crash_smoke.py check-corrupt \
    "$CRASH_DIR/corrupt/BENCH_paper.json"

banner "flavor: lint"
python3 -m tools.lsqlint

banner "flavor: analyze (tests/lintfix fixture self-test)"
python3 tests/lintfix/run_fixtures.py

if command -v clang-tidy >/dev/null 2>&1; then
    banner "flavor: analyze (clang-tidy over compile_commands.json)"
    git ls-files 'src/*.cc' | xargs clang-tidy -p build-ci-release --quiet
else
    banner "flavor: analyze (clang-tidy not installed; step skipped)"
fi

banner "all flavors green"
