#!/bin/sh
# Build qnet_serve and the benchmark from source, then run the benchmark.
# Run from the repository root:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh selftest
# Build output goes to stderr; the last line of stdout is the result.
set -eu
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/qnet_serve.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
