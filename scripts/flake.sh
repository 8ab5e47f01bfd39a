#!/usr/bin/env bash
# Scheduling-flake loop: run the tests whose assertions depend on thread
# scheduling (three integration binaries and the executor's
# scheduling-counter unit test) N times, pinned to one CPU with
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
cargo test -q --no-run "${tests[@]}"
cargo test -q --no-run -p harmony-core --lib
for i in $(seq 1 "$runs"); do
    echo "==> flake run $i/$runs (taskset -c 0)"
    taskset -c 0 cargo test -q "${tests[@]}"
    taskset -c 0 cargo test -q -p harmony-core --lib exec::tests::scheduling_counters_single_vs_multi_lane
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
cargo test -q -p harmony-core --lib exec::tests::scheduling_counters_single_vs_multi_lane
