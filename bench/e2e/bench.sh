#!/usr/bin/env bash
# One benchmark run from the root of a source checkout:
#
#   bash bench/e2e/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <json>]
#
# Configures and builds bench_e2e from source into build-e2e/ (incremental
# after the first run; build output goes to stderr), then runs it. With
# --trace 1 and no --spans, the span trace lands in build-e2e/traces/.
# The last line of standard output is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/build-e2e"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" --target bench_e2e >&2

workload=""
seed=1
spans=""
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) workload="${args[i + 1]}" ;;
    --seed) seed="${args[i + 1]}" ;;
    --spans) spans="${args[i + 1]}" ;;
  esac
done
if [[ -z "$spans" ]]; then
  mkdir -p "$build/traces"
  args+=(--spans "$build/traces/$workload-seed$seed.trace.json")
fi
exec "$build/bench_e2e" "${args[@]}"
