#!/usr/bin/env bash
# Benchmark entry point.  Run from the root of a source checkout:
#
#   bash perfbench/run.sh --workload replay-facesim --seed 1 --seconds 20 --trace 0
#
# Builds racedet and the harness from this checkout, then runs one
# measurement.  The last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . bin/racedet.exe perfbench/dgbench.exe 1>&2
exec ./_build/default/perfbench/dgbench.exe \
  --racedet ./_build/default/bin/racedet.exe "$@"
