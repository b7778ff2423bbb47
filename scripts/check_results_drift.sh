#!/usr/bin/env bash
# Results drift check: regenerate EVERY checked-in artifact in results/
# and byte-diff it against the committed copy.
#
# Every generator prints only deterministic numbers (the analytic model,
# exact drill counts, paper quotations; host timings live in benchmark/),
# so any diff is real drift: a code change that silently moved a number.
#
# Usage: scripts/check_results_drift.sh [table2 fig6 ...]
#   With no arguments, checks every results/*.txt that has a matching
#   wd-bench bin. Environment (WD_FAULT_RATE etc.) passes through, so CI
#   can run the same check under fault injection.
set -euo pipefail

# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

if [ "$#" -gt 0 ]; then
    names=("$@")
else
    names=()
    for f in results/*.txt; do
        if [ ! -e "$f" ]; then
            echo "MISSING  results/*.txt (no checked-in artifacts at all)" >&2
            exit 1
        fi
        names+=("$(basename "$f" .txt)")
    done
fi

for name in "${names[@]}"; do
    artifact="results/$name.txt"
    bin="$(wd_bin_for "$name")"
    if [ ! -f "$artifact" ]; then
        echo "MISSING  $artifact (no checked-in artifact)"
        fail=1
        continue
    fi
    if [ ! -f "crates/bench/src/bin/$bin.rs" ]; then
        echo "NO-BIN   $name (expected generator crates/bench/src/bin/$bin.rs; remove the artifact or add the bin)"
        fail=1
        continue
    fi
    fresh="$(mktemp "/tmp/drift_${name}_fresh.XXXXXX")"
    if ! cargo run --release -q -p wd-bench --bin "$bin" >"$fresh"; then
        echo "GEN-FAIL $name (bin $bin exited nonzero)"
        rm -f "$fresh"
        fail=1
        continue
    fi
    if diff -u "$artifact" "$fresh" >"/tmp/drift_$name.diff" 2>&1; then
        echo "OK       $name"
    else
        echo "DRIFT    $name"
        cat "/tmp/drift_$name.diff"
        fail=1
    fi
    rm -f "$fresh"
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "results drift detected: regenerate with" \
         "'cargo run --release -p wd-bench --bin <bin> > results/<name>.txt'" >&2
fi
exit "$fail"
