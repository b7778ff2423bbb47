#!/usr/bin/env bash
# Shard smoke check: the multi-device placement path, end to end. Runs the
# shard_bench drills — the modeled 1/2/4/8-device scaling curve with its
# >=1.6x 2-device gate, the placement-policy coverage drill, and the real
# 2-device sharded serving drill (bit-identity asserted in-binary) — under
# full tracing, and asserts the exact `place.device.*` placement counters.
# Every section of the bench is deterministic, so every count below is
# exact in --quick mode; any change to placement (an op landing on the
# wrong lane, a lost device counter, a placement that stops happening)
# moves one of them and fails here. Finishes with a results-drift diff of
# the committed results/shard_scaling.txt.
#
# Usage: scripts/check_shard_smoke.sh
#   Runs under WD_TRACE=full; exits nonzero on any missing signal, wrong
#   count, or artifact drift.
set -euo pipefail

# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

log=/tmp/wd_shard_smoke.log      # stdout: the artifact-shaped report
trace=/tmp/wd_shard_smoke.trace  # stderr: the wd-trace summary

if ! WD_TRACE=full \
    cargo run --release -q -p wd-bench --bin shard_bench -- --quick \
    >"$log" 2>"$trace"; then
    echo "FAIL shard_bench exited nonzero:" >&2
    cat "$log" "$trace" >&2
    exit 1
fi

# The run's own end-state assertions (the >=1.6x 2-device gate, full
# placement coverage, and the serving bit-identity check) all passed.
wd_need "^PASS:" "shard_bench PASS line" "$log"
wd_need "modeled 2-device speedup on nvlink3" "scaling gate line" "$log"
wd_need "responses: 8/8 bit-identical to the unsharded HADD" \
    "sharded serving bit-identity line" "$log"
wd_need "device 1: batches 1, ops 4, depth 0, alive true" \
    "device-1 HEALTH line" "$log"

# Exact placement accounting for the whole quick run: three policy-drill
# placements and the one placement the served batch gets, inside the
# executor (the serving layer places nothing itself).
wd_expect_eq "$(wd_counter place.placements "$trace")" 4 \
    "place.placements (3 policy drills + the served batch)"
# The 8-op serving batch round-robins exactly in half across two devices;
# the executor that ran the lanes is what counts them.
wd_expect_eq "$(wd_counter place.device.0.batches "$trace")" 1 \
    "place.device.0.batches"
wd_expect_eq "$(wd_counter place.device.0.ops "$trace")" 4 \
    "place.device.0.ops"
wd_expect_eq "$(wd_counter place.device.1.batches "$trace")" 1 \
    "place.device.1.batches"
wd_expect_eq "$(wd_counter place.device.1.ops "$trace")" 4 \
    "place.device.1.ops"
# No device is lost and nothing degrades to the unsharded fallback: those
# counters only fire on the degrade ladder, so they must be absent.
for gone in place.device_lost place.degraded; do
    if grep -q "counter $gone" "$trace"; then
        echo "FAIL     $gone fired (drills run fault-disabled)" >&2
        fail=1
    else
        echo "OK       $gone absent (no device loss, no degrade)"
    fi
done

# Sharding must not move a single committed number: regenerate the artifact
# and diff it against the checked-in copy (the bench is fully modeled, so
# the diff is exact).
if scripts/check_results_drift.sh shard_scaling; then
    echo "OK       results/shard_scaling.txt drift-free"
else
    echo "FAIL     results/shard_scaling.txt drifted" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo
    echo "shard smoke failed; report at $log, trace summary at $trace" >&2
fi
exit "$fail"
