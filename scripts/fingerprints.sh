#!/usr/bin/env bash
# fingerprints: MD5s of the outputs a refactor must leave bit-identical.
#
#   - relaxed-greedy spanners (`topoctl build`) at n = 10^4, seeds 1-3;
#   - greedy, ft and ft-vertex spanners at n = 1500;
#   - the Dist_greedy engine's `topoctl rounds` table at n = 800;
#   - `topoctl simulate --full-protocol` at n = 60.
#
# One line per artifact, `<name> <md5>`. Run it on two checkouts and
# diff the outputs: any difference is a behaviour change. Instances and
# topologies are written to a mktemp dir, removed on exit.
set -euo pipefail

dune build bin/topoctl.exe
TOPOCTL=$(pwd)/_build/default/bin/topoctl.exe
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

md5() { md5sum "$1" | cut -d' ' -f1; }

gen() { "$TOPOCTL" generate -n "$1" --seed "$2" -o "$WORK/$3" >/dev/null; }

for seed in 1 2 3; do
  gen 10000 "$seed" "n10000s$seed.ubg"
  "$TOPOCTL" build "$WORK/n10000s$seed.ubg" --algo relaxed \
    -o "$WORK/relaxed$seed.topo" >/dev/null
  echo "relaxed n=10000 seed=$seed $(md5 "$WORK/relaxed$seed.topo")"
done

gen 1500 1 n1500.ubg
for algo in greedy ft ft-vertex; do
  "$TOPOCTL" build "$WORK/n1500.ubg" --algo "$algo" \
    -o "$WORK/$algo.topo" >/dev/null
  echo "$algo n=1500 $(md5 "$WORK/$algo.topo")"
done

gen 800 1 n800.ubg
"$TOPOCTL" rounds "$WORK/n800.ubg" >"$WORK/rounds.txt"
echo "rounds n=800 $(md5 "$WORK/rounds.txt")"

gen 60 1 n60.ubg
"$TOPOCTL" simulate "$WORK/n60.ubg" --full-protocol >"$WORK/simulate.txt"
echo "simulate --full-protocol n=60 $(md5 "$WORK/simulate.txt")"
