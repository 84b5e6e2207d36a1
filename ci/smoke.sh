#!/usr/bin/env bash
# Smoke tests shared between CI and local runs.
#
#   ci/smoke.sh <step> [<step>...]
#   ci/smoke.sh all
#
# Each step is one end-to-end check of a subsystem at test scale; the CI
# matrix invokes them one step per workflow step so failures stay readable,
# and a local `ci/smoke.sh all` reproduces the full matrix body. Steps that
# check a machine-readable marker only print it after their internal
# byte-identity assertions have passed, so the greps below gate correctness,
# not just liveness.
set -euo pipefail
cd "$(dirname "$0")/.."

REPRODUCE=(cargo run --release --bin reproduce --)

step_pipeline() {
    "${REPRODUCE[@]}" --scale test --threads 2 sec6
}

step_stream() {
    "${REPRODUCE[@]}" --scale test --threads 2 --json --stream sec6
    test -f BENCH_stream_sec6.json
}

step_monitor() {
    cargo run --release --example live_monitor -- --chunks 8 --columns 120
}

step_zoom() {
    # run_zoom_sweep aborts unless every frame is byte-identical under the scan,
    # pyramid and default engines; the marker line only prints after those
    # checks.
    "${REPRODUCE[@]}" --scale test --threads 2 zoom-sweep | tee zoom_smoke.txt
    grep -q '# scan, pyramid and default engine byte-identical:' zoom_smoke.txt
}

step_store() {
    # run_store_bench asserts the lazy first frame and every capped frame
    # byte-identical to the fully resident session before it reports; the
    # marker line only prints after those checks.
    "${REPRODUCE[@]}" --scale test --threads 2 --json store | tee store_smoke.txt
    grep -q 'all byte-identical to the fully resident session' store_smoke.txt
    test -f BENCH_store.json
    # The one tier switch reaches the checksum: pinned off, the store ran on
    # the table tier (the stable-no-simd CI leg proves it end to end).
    case "${AFTERMATH_NO_SIMD:-0}" in
    "" | 0) grep -Eq '^# crc tier: (clmul|table)$' store_smoke.txt ;;
    *) grep -q '^# crc tier: table$' store_smoke.txt ;;
    esac
}

step_serve() {
    # Drives N concurrent TCP clients against the analysis server and checks
    # every response byte-for-byte against a direct in-process session; the
    # marker only prints when all of them matched.
    "${REPRODUCE[@]}" --scale test --threads 2 --json --serve | tee serve_smoke.txt
    grep -q 'every response byte-identical to the direct session' serve_smoke.txt
    test -f BENCH_serve.json
}

step_lint() {
    # The fixture carries one instance of every finish-surviving defect class;
    # the run must find them, repair to a clean trace, and emit the
    # machine-readable report.
    "${REPRODUCE[@]}" --lint --trace crates/bench/fixtures/corrupted.trace --json
    test -f BENCH_lint.json
    grep -q '"repaired_clean": true' BENCH_lint.json
    grep -q '"L002-unclosed-interval": 1' BENCH_lint.json
}

step_chaos() {
    # Replays the serve load generator under seeded fault injection (tier
    # faults, severed and killed connections) plus a salvage-open of a
    # deliberately corrupted store. The markers only print when no panic
    # escaped containment and every successful answer was byte-identical.
    "${REPRODUCE[@]}" --scale test --threads 2 --json --chaos | tee chaos_smoke.txt
    grep -q 'no panic escaped containment' chaos_smoke.txt
    grep -q 'byte-identical to the fault-free direct session' chaos_smoke.txt
    grep -q 'covered-span answers byte-identical to the undamaged trace' chaos_smoke.txt
    test -f BENCH_chaos.json
}

step_e2e() {
    # The interaction-level benchmark, built and run the way BENCHMARK.json
    # runs it (a package of its own), all four workloads for 2 s each: a
    # fresh store session per cycle, a served store capped at half its size,
    # a served memory-backed trace (the report, the NUMA frames and the
    # connect path through the server) and an in-process walk of distinct
    # views. Every answer is checked against a resident session before the
    # result line says `"correct": true`.
    local workload
    for workload in cold_open store_pressure serve_shared navigate; do
        cargo run --release --quiet --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 0 | tee e2e_smoke.txt
        grep -q '"correct": true' e2e_smoke.txt
    done
}

ALL_STEPS=(pipeline stream monitor zoom store serve lint chaos e2e)

if [ "$#" -eq 0 ]; then
    echo "usage: ci/smoke.sh <step>... | all" >&2
    echo "steps: ${ALL_STEPS[*]}" >&2
    exit 2
fi

steps=("$@")
if [ "${steps[0]}" = "all" ]; then
    steps=("${ALL_STEPS[@]}")
fi

for step in "${steps[@]}"; do
    case "$step" in
    pipeline | stream | monitor | zoom | store | serve | lint | chaos | e2e)
        echo "== smoke: $step"
        "step_$step"
        ;;
    *)
        echo "ci/smoke.sh: unknown step '$step' (steps: ${ALL_STEPS[*]})" >&2
        exit 2
        ;;
    esac
done
