#!/bin/bash
# Regenerates every paper table plus the extension experiments at the
# recorded scale (1.0). Outputs land in results/ next to this script.
# The binaries are built once up front, so each results/*.txt holds only
# the experiment's own output, not cargo's build lines.
set -ex
cd "$(dirname "$0")"
cargo build --release -p ceaff-bench
bin="${CARGO_TARGET_DIR:-target}/release"
for t in table2_stats table3_cross_lingual table4_mono_lingual table5_ablation table6_ranking runtime extensions; do
  "$bin/$t" --scale 1.0 --json results/$t.json > results/$t.txt 2>&1
done
for s in seed theta dim; do
  "$bin/sweeps" --sweep $s --scale 1.0 --json results/sweep_$s.json > results/sweep_$s.txt 2>&1
done
echo ALL_EXPERIMENTS_DONE
