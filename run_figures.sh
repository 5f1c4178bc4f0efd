#!/bin/sh
# Regenerates every figure at --quick scale into bench_results/.
set -x
mkdir -p bench_results
for f in fig7 fig12 fig8 fig9 fig14 fig2 fig13 fig11 fig10 ablate; do
  cargo run --release -p utps-bench --bin $f -- --quick > bench_results/$f.txt 2>&1
done
echo ALL-FIGURES-DONE
