#!/usr/bin/env bash
# Mutation gate for the pins. Each scripts/mutants/NAME.patch plants one
# recorded bug, and NAME.killers names the tests that must catch it: one
# `cargo test` argument list per line, `#` lines are comments. For every
# mutant the script restores a copy of the tree, applies the patch (a patch
# that no longer applies fails; the change that moved the code refreshes
# it), builds and runs only its killers, and fails if they all pass: the
# mutant survived. The line `expect: survive` marks the self-test, a patch
# that changes nothing, which the script must report as a survivor.
#
# First every killer must pass on the unpatched copy and run at least one
# test, so that a kill is the patch's doing.
#
# All mutants share one copy and one cargo target dir under target/mutants,
# so each one rebuilds only what its patch touches.
#
# Usage: scripts/mutants.sh   (runs every scripts/mutants/*.patch)
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
dir="$root/scripts/mutants"
work="$root/target/mutants"
tree="$work/tree"
log="$work/killer.log"
export CARGO_TARGET_DIR="$work/target"
# The copy sits inside this repository: stop git at the work dir, so
# `git apply` patches the copy as a plain tree.
export GIT_CEILING_DIRECTORIES="$work"

names=()
for patch in "$dir"/*.patch; do
    name=$(basename "$patch" .patch)
    if [[ ! -f $dir/$name.killers ]]; then
        echo "mutants.sh: no killers for '$name'" >&2
        exit 2
    fi
    names+=("$name")
done

killers() {
    grep -v -e '^#' -e '^expect: survive$' -e '^[[:space:]]*$' "$dir/$1.killers"
}

expects_survival() {
    grep -qx 'expect: survive' "$dir/$1.killers"
}

# Build, then run, one killer line in the copy, with cargo's output in
# $log. Returns 2 if the build fails and 1 if a test fails.
run_killer() {
    local -a args build=()
    read -r -a args <<<"$1"
    for arg in "${args[@]}"; do
        [[ $arg == -- ]] && break
        build+=("$arg")
    done
    (cd "$tree" && cargo test -q --no-run "${build[@]}") </dev/null >"$log" 2>&1 || return 2
    (cd "$tree" && cargo test -q "${args[@]}") </dev/null >"$log" 2>&1 || return 1
}

# The copy keeps the files' modification times, so the shared target dir
# rebuilds only what changed. The files any patch touches are copied afresh
# (with a new time) before every run, so an earlier mutant's build is never
# taken for a fresh one.
mapfile -t patched < <(sed -n 's|^+++ b/||p' "$dir"/*.patch | sort -u)
restore() {
    for file in "${patched[@]}"; do
        cp "$root/$file" "$tree/$file"
    done
}

started=$SECONDS
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null |
    tar -xf - -C "$tree"
restore

echo "==> killers on the unpatched tree"
declare -A checked=()
for name in "${names[@]}"; do
    while IFS= read -r line; do
        [[ -n ${checked[$line]:-} ]] && continue
        checked[$line]=1
        if ! run_killer "$line"; then
            cat "$log"
            echo "mutants.sh: killer fails without any mutant: $line" >&2
            exit 1
        fi
        if ! grep -q 'test result: ok\. [1-9]' "$log"; then
            echo "mutants.sh: killer runs no test: $line" >&2
            exit 1
        fi
    done < <(killers "$name")
done

failed=0
for name in "${names[@]}"; do
    restore
    if ! git -C "$tree" apply "$dir/$name.patch"; then
        echo "FAIL $name: the patch no longer applies"
        failed=1
        continue
    fi
    killer=""
    while IFS= read -r line; do
        status=0
        run_killer "$line" || status=$?
        if ((status == 2)); then
            cat "$log"
            echo "FAIL $name: the mutant does not build"
            failed=1
            continue 2
        elif ((status == 1)); then
            killer=$line
            break
        fi
    done < <(killers "$name")
    if expects_survival "$name"; then
        if [[ -n $killer ]]; then
            echo "FAIL $name: the self-test was killed by: $killer"
            failed=1
        else
            echo "ok   $name survives, as it must"
        fi
    elif [[ -n $killer ]]; then
        echo "ok   $name killed by: $killer"
    else
        echo "FAIL $name survived its killers"
        failed=1
    fi
done
restore
echo "==> ${#names[@]} mutants in $((SECONDS - started)) s"
exit "$failed"
