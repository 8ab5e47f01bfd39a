#!/usr/bin/env bash
# Scheduling-flake loop: run the tests whose assertions depend on thread
# scheduling (three integration binaries, the executor's scheduling-counter,
# lane-rule and job fan-out unit tests, the cancelled-batch lane test, and the
# feature cache's lane-budget and cancelled-build tests) N times,
# pinned to one CPU with
# `taskset -c 0`, where a starved reader or helper lane shows up as a
# failure. Then run them once more unpinned while one busy loop per CPU
# competes for every core, so a test that only passes on an idle machine
# shows up too.
#
# Usage: scripts/flake.sh N
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:?usage: scripts/flake.sh N}"
if ! command -v taskset >/dev/null 2>&1; then
    echo "flake.sh: taskset not found; skipping the single-CPU loop"
    exit 0
fi

tests=(--test snapshot_stress --test serve_pin --test obs_pin)
lib_tests=(
    exec::tests::scheduling_counters_single_vs_multi_lane
    exec::tests::nested_fan_out_in_a_held_pool_runs_inline
    exec::tests::nested_fan_out_gets_a_returned_sibling_lane
    exec::tests::nested_fan_out_in_a_helper_gets_the_returned_caller_lane
    exec::tests::nested_fan_out_offers_only_unreserved_lanes
    exec::tests::lane_zero_panic_in_nested_fan_out_releases_every_lane
    exec::tests::helper_lane_panic_releases_its_lane
    exec::tests::job_short_circuit_leaves_the_pool_untouched
    exec::tests::job_token_tripped_in_an_item_stops_further_claims
    exec::tests::job_lane_scratch_is_built_at_most_once_per_lane
    batch::tests::cancelled_round_releases_every_lane
    prepare::tests::prepare_under_an_empty_lane_budget_enqueues_nothing
    prepare::tests::cancelled_prepare_leaves_no_entry_and_no_blocked_waiter
)
cargo test -q --no-run "${tests[@]}"
cargo test -q --no-run -p harmony-core --lib
for i in $(seq 1 "$runs"); do
    echo "==> flake run $i/$runs (taskset -c 0)"
    taskset -c 0 cargo test -q "${tests[@]}"
    taskset -c 0 cargo test -q -p harmony-core --lib -- "${lib_tests[@]}"
done

cpus="$(nproc)"
load_pids=()
stop_load() {
    if ((${#load_pids[@]})); then
        kill "${load_pids[@]}" 2>/dev/null || true
        wait "${load_pids[@]}" 2>/dev/null || true
    fi
}
trap stop_load EXIT
for _ in $(seq 1 "$cpus"); do
    (while :; do :; done) &
    load_pids+=("$!")
done
echo "==> flake run under background load ($cpus busy loops)"
cargo test -q "${tests[@]}"
cargo test -q -p harmony-core --lib -- "${lib_tests[@]}"
