#!/bin/sh
# Rebuilds every file under results/ from the current source, at the
# default seed (42) and the default trace lengths. Every file is
# deterministic, so a clean tree stays clean:
#
#     scripts/regenerate-results.sh && git diff --exit-code results/
#
# About a minute on a two-core machine with the build cached (the
# per-workload figure loops share one trace pool).
set -eu
cd "$(dirname "$0")/.."
cargo build --release -q -p esd-cli -p esd-server
bin=target/release

for figure in fig_all fig01_dup_rate fig02_worst_case fig03_content_locality \
    fig08_collisions fig18_cache_sweep ablation_counter_cache ablation_extended \
    ablation_mixed ablation_selective ablation_sensitivity ablation_wear_leveling; do
    "$bin/esd-cli" fig "$figure" > "results/$figure.txt"
done

# The recovery curve and the service curve of EXPERIMENTS.md.
for every in 16 64 256 1024 0; do
    "$bin/esd-cli" run --app demo --accesses 200000 --scheme esd \
        --crash-at 150000:mapping-update --journal-every "$every" | grep 'recovery:'
done > results/ablation_recovery.txt
for tenants in 2 4 8; do for qps in 250000 1000000 4000000; do
    "$bin/esd-serve" --tenants "$tenants" --qps "$qps" --requests 2000
done; done > results/ablation_service.txt
