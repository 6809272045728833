#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the JSON result.  The shared dune cache is off so the
# build reads and writes nothing outside the checkout.
set -euo pipefail
dune build --root . --cache=disabled --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
