#!/usr/bin/env bash
# Single entry point of the host benchmark.
#
#   benchmark/run.sh                         whole suite, development seed
#   benchmark/run.sh run --seed 7 --traced   suite plus per-layer metrics and traces
#   benchmark/run.sh run --seed 7 --quick    every code path in seconds, records nothing
#   benchmark/run.sh repeat --sets 2 --seed 7
#   benchmark/run.sh --workload ops_setb --seed 7 --seconds 20 --trace 0
#   benchmark/run.sh test                    the harness's own unit tests
set -euo pipefail
cd "$(dirname "$0")"
if [ "$#" -eq 0 ]; then
  set -- run --seed 20260929
fi
if [ "$1" = "test" ]; then
  exec cargo test --release --quiet --offline
fi
exec cargo run --release --quiet --offline -- "$@"
