#!/usr/bin/env bash
# Parent-vs-child host benchmark, the protocol every performance claim in
# CHANGES.md is read from (choosing-metrics §8): the parent revision and the
# working tree are exported into two temporary checkouts with their own
# target directories, both are built, and the benchmark is run in pairs that
# alternate which side goes first, all in one session.
#
# One run of a side is one pass over the workloads of BENCHMARK.json, each
# started as `benchmark/run.sh --workload W --seed S --seconds RUN --trace 0`
# from that side's checkout — the per-workload form `benchmark/run.sh run`
# starts for every workload, used directly because its last line of output
# is the run's JSON object (`correct`, `attempted`, `failed`, `metrics`).
#
# Prints one markdown table: for every workload and end-to-end metric every
# run of both sides, median and quartiles, the child's median against the
# parent's in per cent next to the metric's bound from BENCHMARK.json, the
# pairs the child won (ties count for neither) and the row's status, by
# choosing-metrics §6.5 and §8, first rule that holds:
#   gain        the child won at least 9 in 10 of the pairs and the medians
#               differ by more than the parent's interquartile range;
#   worse       the child's median is worse than the parent's by more than
#               the bound;
#   unresolved  the parent's interquartile range is wider than the bound
#               (of its median), and not every child run beats every parent
#               run;
#   no change   otherwise.
# Then the operations that failed or answered wrongly on each side. With --traced, one traced run a
# side follows the pairs and every per-layer metric is printed side by side.
#
# It edits nothing under benchmark/, and sets no variable but
# CARGO_TARGET_DIR (the harness refuses WD_THREADS, WD_TRACE and
# WD_FAULT_RATE). Checkouts and build output go under ${TMPDIR:-/tmp} and are
# removed on exit; the raw result lines stay behind (their path is printed
# last). Ten pairs take about 40 minutes after the two builds.
#
# Usage: scripts/bench_pair.sh <parent-rev> [--pairs N] [--seed S] [--traced]
#   e.g. scripts/bench_pair.sh HEAD --pairs 10 --seed 20260929
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> [--pairs N] [--seed S] [--traced]" >&2
    exit 2
}

[ "$#" -ge 1 ] || usage
parent_rev=$1
shift
pairs=10
seed=20260929
traced=0
while [ "$#" -gt 0 ]; do
    case "$1" in
        --pairs) pairs=${2:?--pairs needs a count}; shift 2 ;;
        --seed) seed=${2:?--seed needs a number}; shift 2 ;;
        --traced) traced=1; shift ;;
        *) usage ;;
    esac
done

cd "$(dirname "$0")/.."
git rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null ||
    { echo "not a revision: $parent_rev" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/wd-bench-pair.XXXXXX")
trap 'rm -rf "$work/parent" "$work/child" "$work/parent-target" "$work/child-target"' EXIT
runs=$work/runs.jsonl
mkdir "$work/parent" "$work/child"

# The parent as committed; the child as the working tree stands (tracked and
# untracked files, nothing ignored, nothing that was deleted).
git archive --format=tar "$parent_rev" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done | tar --null -T - -cf - | tar -x -C "$work/child"

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
manifest=$PWD/BENCHMARK.json

for side in parent child; do
    echo "building $side ..." >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# run_side SIDE PAIR TRACE: one pass over the workloads, one JSON line each.
run_side() {
    local side=$1 pair=$2 trace=$3 w last
    for w in "${workloads[@]}"; do
        echo "pair $pair: $side $w (trace $trace)" >&2
        last=$(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
            benchmark/run.sh --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | tail -n 1) || last=
        # A run that died or printed no result is a failed run of one unit.
        jq -ce --arg side "$side" --arg w "$w" --argjson pair "$pair" \
            --argjson trace "$trace" \
            '{side: $side, workload: $w, pair: $pair, trace: $trace} + .' \
            <<<"$last" >>"$runs" 2>/dev/null ||
            jq -cn --arg side "$side" --arg w "$w" --argjson pair "$pair" \
                --argjson trace "$trace" \
                '{side: $side, workload: $w, pair: $pair, trace: $trace,
                  correct: false, attempted: 1, failed: 1, metrics: {}}' >>"$runs"
    done
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order=(parent child); else order=(child parent); fi
    for side in "${order[@]}"; do
        run_side "$side" "$pair" 0
    done
done
if [ "$traced" -eq 1 ]; then
    run_side parent 0 1
    run_side child 0 1
fi

echo
echo "parent $(git rev-parse --short "$parent_rev") vs working tree," \
    "seed $seed, $pairs pairs, $seconds s a workload, alternating order"
echo
jq -rs --slurpfile manifest "$manifest" '
  def sig($digits): if . == 0 then 0 else . as $x
    | pow(10; $digits - 1 - ($x | fabs | log10 | floor)) as $m | ($x * $m | round) / $m end;
  def sig: sig(4);
  def quantile($p): sort as $s | (($s | length) - 1) * $p
    | floor as $i | (. - $i) as $f
    | $s[$i] + (($s[$i + 1] // $s[$i]) - $s[$i]) * $f;
  def values($side; $w; $m):
    [.[] | select(.trace == 0 and .side == $side and .workload == $w)
         | .metrics[$m].value // empty];
  def cell: "\(map(sig | tostring) | join(" ")) (\(quantile(0.5) | sig);"
    + " \(quantile(0.25) | sig)–\(quantile(0.75) | sig))";
  . as $runs
  | "| workload | metric | parent: runs (median; quartiles) | child: runs (median; quartiles)"
    + " | child median worse by (bound); − = better | pairs won by child | status |",
    "|---|---|---|---|---|---|---|",
    ( $manifest[0].workloads[].name as $w
    | $manifest[0].end_to_end[] as $m
    | ($runs | values("parent"; $w; $m.name)) as $p
    | ($runs | values("child"; $w; $m.name)) as $c
    | select(($p | length) > 0 and ($c | length) > 0)
    | (if $m.better == "lower" then 1 else -1 end) as $dir
    | ((($c | quantile(0.5)) - ($p | quantile(0.5))) / ($p | quantile(0.5)) * $dir) as $worse
    | ([($p | length), ($c | length)] | min) as $pairs
    | ([range(0; $pairs) | select(($c[.] - $p[.]) * $dir < 0)] | length) as $won
    | (($p | quantile(0.75)) - ($p | quantile(0.25))) as $iqr
    | (if $won >= 0.9 * $pairs and $worse < 0
          and (($c | quantile(0.5)) - ($p | quantile(0.5)) | fabs) > $iqr then "gain"
       elif $worse > $m.bound then "worse"
       elif $iqr > $m.bound * ($p | quantile(0.5) | fabs)
          and (($c | map(. * $dir) | max) < ($p | map(. * $dir) | min) | not) then "unresolved"
       else "no change" end) as $status
    | "| \($w) | \($m.name) | \($p | cell) | \($c | cell)"
      + " | \(if $worse > 0 then "+" else "" end)\(($worse * 1000 | round) / 10) %"
      + " (\($m.bound * 100) %) | \($won) of \($pairs) | \($status) |" ),
    "",
    ( ("parent", "child") as $side
    | [$runs[] | select(.side == $side)] as $mine
    | "\($side): \($mine | length) workload runs, \($mine | map(.attempted) | add) operations,"
      + " failed \($mine | map(.failed) | add),"
      + " runs with a wrong or missing answer \($mine | map(select(.correct | not)) | length)" ),
    ( select(any($runs[]; .trace == 1))
    | "", "| workload | per-layer metric (traced run) | parent | child |", "|---|---|---|---|",
      ( $manifest[0].workloads[].name as $w
      | ($runs[] | select(.trace == 1 and .side == "parent" and .workload == $w) | .metrics) as $p
      | ($runs[] | select(.trace == 1 and .side == "child" and .workload == $w) | .metrics) as $c
      | $p | keys[] as $k
      | "| \($w) | \($k) | \($p[$k].value | sig(7))"
        + " | \($c[$k].value // "absent" | if type == "number" then sig(7) else . end) |" ) )
' "$runs"
echo
echo "raw result lines: $runs"
