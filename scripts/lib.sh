#!/usr/bin/env bash
# Shared helpers for the CI check scripts. Source from a sibling script:
#
#   . "$(dirname "$0")/lib.sh"
#
# Sourcing cd's to the repo root and initialises the `fail` accumulator.
# Every helper records failures in $fail instead of exiting, so one run
# reports every missing signal at once; scripts finish with `exit "$fail"`.

# Repo root is one level above scripts/, wherever the caller lives.
cd "$(dirname "${BASH_SOURCE[0]}")/.." || exit 1

fail=0

# wd_need PATTERN DESCRIPTION FILE
#   Grep-assert one signal in a captured log.
wd_need() {
    if grep -q "$1" "$3"; then
        echo "OK       $2"
    else
        echo "MISSING  $2 (pattern: $1)" >&2
        fail=1
    fi
}

# wd_expect_eq ACTUAL EXPECTED DESCRIPTION
#   Exact-value assert for deterministic counts.
wd_expect_eq() {
    if [ "$1" = "$2" ]; then
        echo "OK       $3 = $2"
    else
        echo "FAIL     $3 = '$1', expected $2" >&2
        fail=1
    fi
}

# wd_bin_for ARTIFACT
#   The wd-bench bin that generates results/ARTIFACT.txt: a same-named bin,
#   or one of the service bins mapped here.
wd_bin_for() {
    case "$1" in
        serve_latency)  echo "serve_bench" ;;
        net_serve)      echo "net_bench" ;;
        guard_overhead) echo "guard_bench" ;;
        arena_speedup)  echo "alloc_bench" ;;
        shard_scaling)  echo "shard_bench" ;;
        graph_compile)  echo "graph_bench" ;;
        *)              echo "$1" ;;
    esac
}

# wd_counter NAME FILE
#   Value of the first machine-readable `counter NAME = V` line a wd-trace
#   summary emitted into FILE (empty if absent). String-prefix match, so
#   dots in counter names are not regex metacharacters.
wd_counter() {
    awk -v c="counter $1 = " 'index($0, c) == 1 { print substr($0, length(c) + 1); exit }' "$2"
}
