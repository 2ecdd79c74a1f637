#!/usr/bin/env bash
# Build the benchmark and the node binary from this checkout, then run
# the benchmark with the given arguments (see README.md). Run it from
# the root of the checkout:
#   bash vsbench/run.sh --workload mcast_n32 --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# build output goes to stderr: the last line of stdout is the result
dune build --root . ./vsbench/vsbench.exe ./bin/vsgc_node.exe 1>&2
exec ./_build/default/vsbench/vsbench.exe "$@"
