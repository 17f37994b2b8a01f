#!/usr/bin/env bash
# Compare two checkouts on one LISA benchmark workload, pair by pair:
#
#   bash tools/bench_pair.sh --base DIR --change DIR --workload scan-synth \
#     --seed 42 --pairs 10 [--seconds 25] [--out DIR]
#
# Each pair runs `lisabench/run.sh --trace 0` once in each checkout, with
# that checkout's own benchmark, so each side measures its own code.  Odd
# pairs run the base first and even pairs the change first, so a drift
# in the host's speed falls on both sides alike.  Every run's output is
# kept as OUT/base-I.txt and OUT/change-I.txt (OUT defaults to a fresh
# temporary directory).  At the end, tools/bench_pair_stats prints, for
# each end-to-end metric of this checkout's BENCHMARK.json, both sides'
# median and quartiles and how many pairs the change won and lost.
# Exit 0 when every run was correct with no failed operation, 1 when
# one was not, 2 on a usage error.  Run it from the repository root.
set -euo pipefail

usage() {
  sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

base="" change="" workload="" seed="" pairs="" seconds=25 out=""
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --base) base=$2 ;;
    --change) change=$2 ;;
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --out) out=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ -n $base && -n $change && -n $workload && -n $seed && -n $pairs ]] || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
for dir in "$base" "$change"; do
  [[ -f $dir/lisabench/run.sh ]] || { echo "bench_pair: $dir has no lisabench/run.sh" >&2; exit 2; }
done
if [[ ! -f BENCHMARK.json || ! -f tools/bench_pair_stats.ml ]]; then
  echo "bench_pair: run from the root of a LISA checkout" >&2
  exit 2
fi
[[ -n $out ]] || out=$(mktemp -d)
mkdir -p "$out"
DUNE_CACHE=disabled dune build --root . --display quiet ./tools/bench_pair_stats.exe

run() { # side dir pair
  echo "bench_pair: pair $3/$pairs: $1" >&2
  (cd "$2" && bash lisabench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) >"$out/$1-$3.txt"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run base "$base" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run base "$base" "$i"
  fi
done

echo "workload $workload, seed $seed, $pairs pairs of ${seconds} s runs; outputs in $out"
./_build/default/tools/bench_pair_stats.exe BENCHMARK.json "$out" "$pairs"
