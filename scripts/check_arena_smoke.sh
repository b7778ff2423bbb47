#!/usr/bin/env bash
# Arena smoke check: the scratch-arena hot path, end to end. Runs the
# alloc_bench drills — the modeled >=1.2x speedup gate, the steady-state
# zero-heap-allocation drill, and the 256-byte exhaustion drill (bit-identity
# against the context's own arena asserted in-binary) — under full tracing,
# and asserts the exact `arena.*` lease-accounting counters. The drills are
# single-threaded and structural, so every count below is deterministic:
# seven keyswitches of 12 leases each at l = 2, K = 1 — the INTT'd input
# (l+1 = 3), both accumulators (2·(l+2) = 8) and the one scratch limb of the
# limb-major inner product; base conversion leases nothing and ModDown
# writes into its output — one warm-up and four warm ones on the sized
# arena, then one on the context's own arena and one on the 256-byte arena.
# All twelve slabs of a keyswitch are live at once, so a first keyswitch on
# an arena is 12 fresh allocations and every later one 12 reuses; every slab
# is N words = 512 bytes, so the 256-byte arena parks nothing. Any change to
# the lease discipline (a new scratch buffer, a lost reuse, a fallback where
# none belongs) moves one of them and fails here.
# Finishes with a results-drift diff of the committed
# results/arena_speedup.txt.
#
# Usage: scripts/check_arena_smoke.sh
#   Runs under WD_TRACE=full; exits nonzero on any missing signal, wrong
#   count, or artifact drift.
set -euo pipefail

# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

log=/tmp/wd_arena_smoke.log      # stdout: the artifact-shaped report
trace=/tmp/wd_arena_smoke.trace  # stderr: the wd-trace summary

if ! WD_TRACE=full \
    cargo run --release -q -p wd-bench --bin alloc_bench \
    >"$log" 2>"$trace"; then
    echo "FAIL alloc_bench exited nonzero:" >&2
    cat "$log" "$trace" >&2
    exit 1
fi

# The run's own end-state assertions (including the >=1.2x modeled-speedup
# gate and the exhaustion bit-identity check) all passed.
wd_need "^PASS:" "alloc_bench PASS line" "$log"
wd_need "steady-state heap allocations per op: 0" \
    "steady-state zero-alloc line" "$log"
wd_need "output bit-identical to keyswitch under the context's own arena" \
    "exhaustion bit-identity line" "$log"

# Exact lease accounting for the whole run (single-threaded, structural,
# host-independent). lease = reuse + fresh + fallback + bypass.
wd_expect_eq "$(wd_counter arena.lease "$trace")" 84 \
    "arena.lease (total scratch leases)"
wd_expect_eq "$(wd_counter arena.reuse "$trace")" 48 \
    "arena.reuse (steady-state shelf hits)"
wd_expect_eq "$(wd_counter arena.fresh "$trace")" 24 \
    "arena.fresh (warm-up allocations parked on return)"
# Only the 256-byte exhaustion drill may overflow the retention cap.
wd_expect_eq "$(wd_counter arena.fallback "$trace")" 12 \
    "arena.fallback (exhaustion drill only)"
# No drill disables an arena, so nothing bypasses the shelves (a counter
# that never fired is absent from the summary and reads as empty).
bypass="$(wd_counter arena.bypass "$trace")"
wd_expect_eq "${bypass:-0}" 0 \
    "arena.bypass (no drill disables an arena)"

# Pooling must not move a single committed number: regenerate the artifact
# and diff it against the checked-in copy (measured lines ~HOST-masked).
if scripts/check_results_drift.sh arena_speedup; then
    echo "OK       results/arena_speedup.txt drift-free"
else
    echo "FAIL     results/arena_speedup.txt drifted" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo
    echo "arena smoke failed; report at $log, trace summary at $trace" >&2
fi
exit "$fail"
