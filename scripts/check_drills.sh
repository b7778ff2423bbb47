#!/usr/bin/env bash
# Drill runner: the six service bins, end to end. Each row of the table
# below runs its bin once under WD_TRACE=full and the fault environment
# the drill was written for, byte-diffs the bin's stdout against the
# committed artifact (which also carries every in-binary assertion: a
# failed gate or drill exits nonzero before printing PASS), and checks
# the wd-trace summary on stderr against the row. Every drill is
# deterministic, so every expected value is exact and any change to what
# a drill exercises (a new scratch buffer, an op on the wrong lane, an
# extra rescale, a lost counter) fails here, naming the row.
#
# Usage: scripts/check_drills.sh [artifact ...]
#   With no arguments, runs every row; otherwise the named rows (the
#   artifact names scripts/check_results_drift.sh accepts). Exits nonzero
#   on any failure.
set -euo pipefail

# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

# artifact | fault environment | trace checks. A check is `name=value`
# (the exact counter value; `name=` means the counter never fired) or
# `name?` (a counter, histogram or gauge of that name is in the summary).
drills=(
    # Shedding and admission drills: every serve.* signal reaches the
    # summary under light injection.
    "serve_latency | WD_FAULT_RATE=0.02 WD_FAULT_SEED=42 |
        serve.enqueued? serve.completed? serve.shed? serve.rejected?
        serve.batches? serve.batch_size? serve.latency_us? serve.queue_depth?"
    # 4 connections x 8 frames. Per-tenant lossless drain: alice = 16 TCP
    # + 1 quota-drill hold + 4 churn, bob = 16 TCP + 4 churn; the quota
    # refusal once, and the 1-byte churn budget evicts on each of the 8
    # alternating leases after the first.
    "net_serve | WD_FAULT_RATE=0.02 |
        serve.net.accepted=4 serve.net.frames=32
        serve.tenant.alice.enqueued=21 serve.tenant.alice.completed=21
        serve.tenant.bob.enqueued=20 serve.tenant.bob.completed=20
        serve.tenant.alice.rejected=1 serve.keycache.evictions=7
        serve.keycache.misses?"
    # One quarantine, one wedge declared, respawned and re-queued without a
    # restart-storm degrade, one breaker trip and its one typed refusal.
    "guard_overhead | WD_FAULT_RATE=0.05 |
        serve.keycache.quarantined=1 serve.guard.wedge_injected=1
        serve.guard.wedged=1 fault.worker_restarts=1 serve.guard.requeued?
        serve.guard.degraded= serve.guard.breaker_open=1
        serve.guard.breaker_shed=1 serve.tenant.bob.rejected=1"
    # Seven keyswitches of 12 leases each (l = 2, K = 1: the INTT'd input
    # l+1 = 3, both accumulators 2(l+2) = 8, one scratch limb), all live at
    # once: a first keyswitch on an arena is 12 fresh, every later one 12
    # reuses. One warm-up and four warm ones on the sized arena, one on the
    # context's own; every 512-byte slab overflows the 256-byte arena.
    "arena_speedup | |
        arena.lease=84 arena.reuse=48 arena.fresh=24 arena.fallback=12
        arena.bypass="
    # The 49-node demo compiled twice (SET-C model, small-ring drill): 19
    # waves, 7 auto-rescales and 6 auto-relins a compile, nothing to CSE
    # or prune; the drill executes 19 waves of 46 non-input steps 3 times,
    # and every computed value but the one output a run is dropped early.
    "graph_compile | |
        graph.nodes=98 graph.waves=38 graph.inserted_rescales=14
        graph.inserted_relins=12 graph.cse_hits=0 graph.pruned=0
        graph.exec.programs=3 graph.exec.waves=57 graph.exec.ops=138
        graph.exec.released=135"
    # The three policy-drill placements; nothing is served sharded.
    "shard_scaling | |
        place.placements=3"
)

# present NAME FILE: a counter, histogram or gauge named NAME is in FILE.
present() {
    awk -v n="$1" '($1 == "counter" || $1 == "hist" || $1 == "gauge") && $2 == n { f = 1 }
        END { exit !f }' "$2"
}

wanted=" $* "
ran=()
for row in "${drills[@]}"; do
    IFS='|' read -r artifact faults checks <<<"$(tr '\n' ' ' <<<"$row")"
    read -r artifact <<<"$artifact"
    read -ra checks <<<"$checks" # split on blanks, no globbing of `name?`
    if [ "$#" -gt 0 ] && [[ "$wanted" != *" $artifact "* ]]; then
        continue
    fi
    ran+=("$artifact")
    out="/tmp/wd_drill_$artifact.out"
    trace="/tmp/wd_drill_$artifact.trace"
    # shellcheck disable=SC2086 # the fault environment is VAR=value words
    if ! env $faults WD_TRACE=full \
        cargo run --release -q -p wd-bench --bin "$(wd_bin_for "$artifact")" \
        >"$out" 2>"$trace"; then
        echo "FAIL     $artifact: bin exited nonzero (stdout $out, stderr $trace)" >&2
        tail -n 20 "$trace" >&2
        fail=1
        continue
    fi
    if diff -u "results/$artifact.txt" "$out" >&2; then
        echo "OK       $artifact: stdout byte-identical to results/$artifact.txt"
    else
        echo "DRIFT    $artifact: stdout differs from results/$artifact.txt" >&2
        fail=1
    fi
    for check in "${checks[@]}"; do
        case "$check" in
            *\?)
                if present "${check%\?}" "$trace"; then
                    echo "OK       $artifact: ${check%\?} present"
                else
                    echo "MISSING  $artifact: ${check%\?} (trace summary at $trace)" >&2
                    fail=1
                fi
                ;;
            *=*)
                wd_expect_eq "$(wd_counter "${check%%=*}" "$trace")" "${check#*=}" \
                    "$artifact: ${check%%=*}"
                ;;
            *)
                echo "BAD-ROW  $artifact: check '$check' is neither name=value nor name?" >&2
                fail=1
                ;;
        esac
    done
done

for name in "$@"; do
    if [[ " ${ran[*]} " != *" $name "* ]]; then
        echo "NO-ROW   $name (not a service artifact; see the table in $0)" >&2
        fail=1
    fi
done
exit "$fail"
