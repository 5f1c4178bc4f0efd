#!/bin/sh
# Regenerates every figure at --quick scale into bench_results/.
set -x
mkdir -p bench_results
cargo build --release -p utps-bench || exit 1
for f in fig7 fig12 fig8 fig9 fig14 fig2 fig13 fig11 fig10 ablate; do
  target/release/utps-fig $f --quick > bench_results/$f.txt 2>&1
done
echo ALL-FIGURES-DONE
