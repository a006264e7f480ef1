#!/usr/bin/env bash
# Build the benchmark from source and run it, from the repository root:
#
#   bash twbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#   bash twbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# "all" runs steady, bulk, failover and sim-n64 in turn and exits
# non-zero if any of them fails its correctness checks. Build output
# goes to stderr, so the last line of stdout is the result.
set -u
cd "$(dirname "$0")/.." || exit 2

# dune's shared cache lives in the home directory; write only inside
# the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./twbench/main.exe 1>&2 || exit 2
exe=./_build/default/twbench/main.exe

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [ "${args[i]}" = "--workload" ] && [ "${args[i + 1]:-}" = "all" ]; then
    status=0
    for w in steady bulk failover sim-n64; do
      args[i + 1]=$w
      "$exe" "${args[@]}" || status=1
    done
    exit $status
  fi
done
exec "$exe" "$@"
