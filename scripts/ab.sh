#!/usr/bin/env bash
# A/B a benchmark workload between a parent commit and the working tree, by
# the rule of the choosing-metrics guide (§8): alternating pairs, a fresh seed
# per pair, medians, quartiles and a win count per end-to-end metric.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10]
#
# Builds both sides' `benchmark/` package (release, offline, locked) into
# $AB_DIR (default ${TMPDIR:-/tmp}/dcf-ab) — the parent from a `git archive`
# of <parent-ref>, the change from the working tree as it is — and runs each
# side's driver command, `--workload W --seed N --seconds 20 --trace 0`, from
# $AB_DIR. Nothing is written inside the repository. Needs bash, git, cargo
# and python3. AB_SECONDS overrides the run length for a smoke test; a claim
# is made at the 20 s BENCHMARK.json fixes.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
seconds=${AB_SECONDS:-20}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${AB_DIR:-${TMPDIR:-/tmp}/dcf-ab}
commit=$(git -C "$repo" rev-parse --verify "$ref^{commit}")

mkdir -p "$dir"
if [[ "$(cat "$dir/parent.commit" 2>/dev/null)" != "$commit" ]]; then
    rm -rf "$dir/parent-src"
    mkdir -p "$dir/parent-src"
    git -C "$repo" archive "$commit" | tar -x -C "$dir/parent-src"
    echo "$commit" >"$dir/parent.commit"
fi
build() { # <source root> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --locked \
        --manifest-path "$1/benchmark/Cargo.toml" 1>&2
}
build "$dir/parent-src" "$dir/parent-target"
build "$repo" "$dir/change-target"

run() { # <side> <seed>: appends the result object to <workload>.<side>.jsonl
    (cd "$dir" && "$dir/$1-target/release/dcf-benchmark" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1) >>"$dir/$workload.$1.jsonl"
}
: >"$dir/$workload.parent.jsonl"
: >"$dir/$workload.change.jsonl"
for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((RANDOM * 32768 + RANDOM))
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        echo "pair $pair/$pairs seed $seed: $side" >&2
        run "$side" "$seed"
    done
done

python3 -c '
import json, sys
from statistics import median, quantiles

def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]

parent, change = load(sys.argv[1]), load(sys.argv[2])
contract = json.load(open(sys.argv[5]))
higher_is_better = {m["name"] for m in contract["end_to_end"] if m["better"] == "higher"}
print("%s: %d pairs, parent %s vs working tree" % (sys.argv[3], len(parent), sys.argv[4][:12]))
for side, runs in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    wrong = sum(not r["correct"] for r in runs)
    print("  %s: %d of %d operations failed, %d runs with a wrong output" % (side, failed, attempted, wrong))
row = "  %-18s%40s%40s  %6s  %s"
print(row % ("metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"))
for name in sorted(parent[0]["metrics"]):
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    cols = []
    for xs in (p, c):
        q1, _, q3 = quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        cols.append("%.6g [%.6g, %.6g]" % (median(xs), q1, q3))
    sign = 1 if name in higher_is_better else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    ratio = median(c) / median(p) if median(p) else float("nan")
    print(row % (name, cols[0], cols[1], "%.2f" % ratio, "%d/%d" % (wins, len(p) - ties)))
' "$dir/$workload.parent.jsonl" "$dir/$workload.change.jsonl" "$workload" "$commit" \
    "$repo/BENCHMARK.json"
