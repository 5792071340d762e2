#!/bin/sh
# Benchmark entry point: builds the report CLI, the daemon and
# dpmr_bench from source, then runs dpmr_bench with the given
# arguments, e.g.
#
#   sh bench/e2e/bench.sh --workload grid-cold --seed 7 --seconds 15 --trace 0
#
# Run it from the root of the source tree.
set -eu

if [ ! -f dune-project ] || [ ! -f bin/dpmr_cli.ml ] || [ ! -f bin/dpmr_serve.ml ]; then
  echo "bench.sh: run from the root of the DPMR source tree" >&2
  exit 2
fi

targets="bin/dpmr_cli.exe bin/dpmr_serve.exe bench/e2e/dpmr_bench.exe"
# the build's own output goes to stderr: stdout ends with the result line
if command -v dune >/dev/null 2>&1; then
  dune build --root . $targets 1>&2
else
  opam exec -- dune build --root . $targets 1>&2
fi
exec ./_build/default/bench/e2e/dpmr_bench.exe "$@"
