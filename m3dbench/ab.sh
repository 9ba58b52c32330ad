#!/usr/bin/env bash
# Interleaved A/B of the benchmark between a base commit and the working
# tree, on this host:
#
#   bash m3dbench/ab.sh BASE_REF [workload]
#
# The base is exported with `git archive`, the working tree as its
# tracked and untracked (not ignored) files, each into its own directory
# under `mktemp -d`; both run the working tree's benchmark code and
# BENCHMARK.json, so only the program under test differs. PAIRS pairs
# (default 10, at least 10) run on seeds SEED, SEED+1, ... (default 1),
# both sides of a pair on the same seed, alternating which side runs
# first. The report is `m3dbench compare`: per workload and end-to-end
# metric, each side's median and quartiles, the change's wins over the
# seed-paired base runs, and a verdict — "gain" needs nine tenths of the
# pairs and a median difference beyond the base's interquartile distance;
# "REGRESSED" is worse than the BENCHMARK.json bound; "unresolved" is
# worse inside a base spread wider than the bound. The exit status is
# compare's. Nothing is written into the repository.
set -euo pipefail

base_ref=${1:?usage: bash m3dbench/ab.sh BASE_REF [workload]}
workload=${2:-}
pairs=${PAIRS:-10}
seed=${SEED:-1}
if (( pairs < 10 )); then
    echo "ab.sh: PAIRS=$pairs; the 9-of-10 rule needs at least 10 pairs" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/change"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$tmp/change"
rm -rf "$tmp/base/m3dbench"
cp -R "$tmp/change/m3dbench" "$tmp/base/m3dbench"
cp "$tmp/change/BENCHMARK.json" "$tmp/base/BENCHMARK.json"

args=(--trace 0)
if [[ -n $workload ]]; then
    args+=(--workload "$workload")
fi
for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    order=(base change)
    if (( i % 2 )); then
        order=(change base)
    fi
    for side in "${order[@]}"; do
        echo "ab.sh: pair $((i + 1))/$pairs seed $s: $side" >&2
        if ! (cd "$tmp/$side" && bash m3dbench/run.sh "${args[@]}" --seed "$s" \
            --out "$tmp/$side.json" >"$tmp/$side.log" 2>&1); then
            echo "ab.sh: the $side run failed:" >&2
            tail -20 "$tmp/$side.log" >&2
            exit 1
        fi
    done
done
echo "base $(git -C "$root" rev-parse "$base_ref"); change: the working tree over $(git -C "$root" rev-parse HEAD)"
"$tmp/change/.bench_build/m3dbench" compare -spec "$tmp/change/BENCHMARK.json" \
    "$tmp/base.json" "$tmp/change.json"
