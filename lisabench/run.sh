#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash lisabench/run.sh --workload scan-synth --seed 1 --seconds 20 --trace 0
# Run from the repository root.  Builds into ./_build with the shared
# dune cache off, so nothing is written outside the checkout.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib || ! -f lisabench/dune ]]; then
  echo "lisabench: run from the root of a LISA checkout (dune-project, lib/ and lisabench/ needed)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./lisabench/main.exe >&2
LISABENCH_NPROC="$(nproc 2>/dev/null || echo 1)" exec ./_build/default/lisabench/main.exe "$@"
