#!/usr/bin/env bash
# Byte-compare the deterministic figure set of the working tree with a
# git revision.
#
# Usage: tools/cmp_figs.sh [--full] [REF]
#
# Extracts REF (default HEAD) with `git archive` into a temporary
# directory and builds it and the working tree in Release. Then it runs
# every figure of the set in its own directory in both trees and cmp's
# each stdout and every BENCH_*.json the figure wrote. Exit status: 0
# when every output is byte-identical and every figure exited 0 in both
# trees, 1 on any difference or nonzero exit, 2 on a usage or build
# error.
#
# The set is the simulated figures whose output depends only on the
# code: fig_calibration --smoke, fig_barrier --smoke, fig_regret
# --smoke, fig_numa, fig_rwlock, fig_wait_reactive,
# fig_policy_competitive and fig_policy_hysteresis (about three minutes
# per tree on a 4-core host). --full adds the default fig_calibration
# and fig_regret runs, which take several minutes more.
#
# It also builds the end-to-end benchmark (bench/e2e) out of tree in
# both trees, as CI does, runs each of its four workloads with --seed=1
# --seconds=1, and cmp's the simulated figures of each run: the
# sim_cycles_per_op and sim_op_p99_cycles lines. The native half of a
# run is host noise and is not compared. This adds about a minute per
# tree, most of it the rw_phases simulation.
#
# Environment: CMP_FIGS_JOBS sets the build parallelism (default 2);
# CMP_FIGS_KEEP=1 keeps the temporary directory for inspection.
set -euo pipefail

full=0
ref=HEAD
for arg in "$@"; do
    case "$arg" in
    --full) full=1 ;;
    -h | --help)
        sed -n '2,30p' "$0"
        exit 0
        ;;
    -*)
        echo "cmp_figs: unknown option $arg" >&2
        exit 2
        ;;
    *) ref=$arg ;;
    esac
done

root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
    echo "cmp_figs: $ref is not a commit" >&2
    exit 2
fi

figs=(
    "fig_calibration --smoke"
    "fig_barrier --smoke"
    "fig_regret --smoke"
    "fig_numa"
    "fig_rwlock"
    "fig_wait_reactive"
    "fig_policy_competitive"
    "fig_policy_hysteresis"
)
if [ "$full" -eq 1 ]; then
    figs+=("fig_calibration" "fig_regret")
fi
targets=$(for f in "${figs[@]}"; do echo "${f%% *}"; done | sort -u)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/cmp_figs.XXXXXX")
if [ "${CMP_FIGS_KEEP:-0}" = 1 ]; then
    echo "cmp_figs: keeping $tmp"
else
    trap 'rm -rf "$tmp"' EXIT
fi

mkdir -p "$tmp/ref-src"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref-src"

build() {  # build SRC_DIR BUILD_DIR LOG
    if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
        # shellcheck disable=SC2086  # one target per word
        cmake --build "$2" -j"${CMP_FIGS_JOBS:-2}" --target $targets &&
        cmake -S "$1/bench/e2e" -B "$2-e2e" -DCMAKE_BUILD_TYPE=Release &&
        cmake --build "$2-e2e" -j"${CMP_FIGS_JOBS:-2}"; } >"$3" 2>&1; then
        echo "cmp_figs: build of $1 failed, see $3" >&2
        CMP_FIGS_KEEP=1
        trap - EXIT
        exit 2
    fi
}
echo "cmp_figs: building $ref and the working tree (Release)"
build "$tmp/ref-src" "$tmp/ref-build" "$tmp/ref-build.log"
build "$root" "$tmp/cur-build" "$tmp/cur-build.log"

e2e_workloads=(mutex_hot mutex_light rw_phases barrier_phases)

run_set() {  # run_set BUILD_DIR OUT_DIR
    local fig dir rc
    for fig in "${figs[@]}"; do
        dir="$2/${fig// /}"
        mkdir -p "$dir"
        rc=0
        # shellcheck disable=SC2086  # binary name plus its flags
        (cd "$dir" && "$1"/$fig >stdout.txt 2>stderr.txt) || rc=$?
        echo "$rc" >"$dir/rc.txt"
    done
    for w in "${e2e_workloads[@]}"; do
        dir="$2/e2e-$w"
        mkdir -p "$dir"
        rc=0
        "$1-e2e/bench_e2e" --workload="$w" --seed=1 --seconds=1 \
            >"$dir/out.txt" 2>"$dir/stderr.txt" || rc=$?
        echo "$rc" >"$dir/rc.txt"
        grep -E '^sim_(cycles_per_op|op_p99_cycles) ' "$dir/out.txt" \
            >"$dir/sim.txt" || true
    done
}

echo "cmp_figs: running the figure set in $ref"
run_set "$tmp/ref-build" "$tmp/out-ref"
echo "cmp_figs: running the figure set in the working tree"
run_set "$tmp/cur-build" "$tmp/out-cur"

status=0
exits() {  # exits REF_OUT CUR_OUT: the nonzero exit statuses of a run pair
    local p=""
    [ "$(cat "$1/rc.txt")" = 0 ] || p="exits $(cat "$1/rc.txt") in $ref;"
    [ "$(cat "$2/rc.txt")" = 0 ] ||
        p="$p exits $(cat "$2/rc.txt") in the working tree;"
    echo "$p"
}
report() {  # report LABEL PROBLEMS: one verdict line, every problem named
    local p=${2# }
    printf '  %-26s %s\n' "$1" "${p:-identical}"
    [ -z "$p" ] || status=1
}
for fig in "${figs[@]}"; do
    label=${fig// /}
    a="$tmp/out-ref/$label"
    b="$tmp/out-cur/$label"
    problems=$(exits "$a" "$b")
    files=$(cd "$tmp" && ls "out-ref/$label" "out-cur/$label" |
        grep '^BENCH_.*\.json$' | sort -u || true)
    for f in stdout.txt $files; do
        cmp -s "$a/$f" "$b/$f" || problems="$problems $f differs;"
    done
    report "$fig" "$problems"
done
for w in "${e2e_workloads[@]}"; do
    a="$tmp/out-ref/e2e-$w"
    b="$tmp/out-cur/e2e-$w"
    problems=$(exits "$a" "$b")
    if [ "$(wc -l <"$b/sim.txt")" -ne 2 ]; then
        problems="$problems no sim figures in the working tree;"
    elif ! cmp -s "$a/sim.txt" "$b/sim.txt"; then
        problems="$problems sim figures differ;"
    fi
    report "e2e $w" "$problems"
done

if [ "$status" -eq 0 ]; then
    echo "cmp_figs: every output is identical to $ref"
else
    echo "cmp_figs: differences found (rerun with CMP_FIGS_KEEP=1 to inspect)"
fi
exit "$status"
