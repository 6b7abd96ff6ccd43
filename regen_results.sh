#!/bin/sh
# Regenerate every artifact under results/ with the release lsvconv-cli.
#
# The plan comes from `lsvconv-cli regen --list`: one
# `<command> <artifact> [args]` line per artifact, in the order of the
# binary's experiment table. Every experiment's defaults are the arguments
# regen runs it with, so the listed args are output paths only.
#
# Steps run sequentially: each experiment already parallelizes internally
# over host threads, and a strict order lets the shared layer store dedup
# work across steps (an early sweep's slices are store hits for every later
# step that sweeps the same layers) instead of racing to simulate the same
# point twice. Each step writes to a .tmp file that is only moved into
# place on success, and stderr goes to results/logs/<command>.log — a
# failing step can neither leave a truncated CSV nor pollute one with
# diagnostics. The report runs last, over the finished artifacts.
#
# Layer store: every step shares the content-addressed layer-result store
# at $LSV_STORE_DIR (default results/.layer-store). The store is wiped
# before the run so committed CSVs always come from a cold, fully
# re-simulated pass — set KEEP_STORE=1 to reuse a previous run's entries
# (warm regen, seconds instead of minutes). Per-step store counters land in
# results/logs/<command>.store.json and per-step wall times in
# results/logs/regen_times.txt.
set -eu
cd "$(dirname "$0")"
CLI=./target/release/lsvconv-cli
mkdir -p results results/logs

LSV_STORE_DIR=${LSV_STORE_DIR:-results/.layer-store}
export LSV_STORE_DIR
if [ "${KEEP_STORE:-0}" != "1" ]; then
    rm -rf "$LSV_STORE_DIR"
fi
mkdir -p "$LSV_STORE_DIR"
TIMES=results/logs/regen_times.txt
: >"$TIMES"

run() {
    # run <command> <artifact> [args...]
    cmd=$1
    out=$2
    shift 2
    t0=$(date +%s%N)
    if LSV_STORE_STATS="results/logs/$cmd.store.json" \
        "$CLI" "$cmd" "$@" </dev/null >"results/$out.tmp" 2>"results/logs/$cmd.log"; then
        t1=$(date +%s%N)
        echo "$cmd $(((t1 - t0) / 1000000))ms" >>"$TIMES"
        mv "results/$out.tmp" "results/$out"
    else
        rc=$?
        rm -f "results/$out.tmp"
        echo "regen: $cmd failed (rc=$rc), stderr in results/logs/$cmd.log" >&2
        return "$rc"
    fi
}

# The whole plan is read before the first step runs. bench-serving's listed
# args write its JSON (schema-validated by the command itself) and its
# time series; only the CSV goes through the tmp-and-move stdout path.
PLAN=$("$CLI" regen --list)
while read -r cmd out args; do
    # $args is deliberately unquoted: it holds space-separated words.
    run "$cmd" "$out" $args
done <<EOF
$PLAN
EOF
echo ALL_DONE
