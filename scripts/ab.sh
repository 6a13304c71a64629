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
# $AB_DIR. The one file written inside the repository is BENCH_trajectory.jsonl
# at its root: each run appends one JSON line per end-to-end metric (change,
# parent, workload, metric, both medians, both [q1, q3], pairs, wins, failed
# and attempted operations per side) and never rewrites earlier lines. With
# fewer than 6 pairs, an end-to-end metric whose parent quartiles span more than
# 2x (q3 > 2 q1) gets a SWING line: re-run that workload with at least 6 pairs
# before reporting it. Needs bash, git, cargo and python3. AB_SECONDS overrides
# the run length for a smoke test; a claim is made at the 20 s BENCHMARK.json
# fixes.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
seconds=${AB_SECONDS:-20}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${AB_DIR:-${TMPDIR:-/tmp}/dcf-ab}
commit=$(git -C "$repo" rev-parse --verify "$ref^{commit}")
change=$(git -C "$repo" describe --always --dirty)

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
workload, commit, described = sys.argv[3], sys.argv[4], sys.argv[7]
contract = json.load(open(sys.argv[5]))
end_to_end = {m["name"] for m in contract["end_to_end"]}
higher_is_better = {m["name"] for m in contract["end_to_end"] if m["better"] == "higher"}
print("%s: %d pairs, parent %s vs working tree" % (workload, len(parent), commit[:12]))
counts = {}
for side, runs in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    wrong = sum(not r["correct"] for r in runs)
    counts[side] = (failed, attempted)
    print("  %s: %d of %d operations failed, %d runs with a wrong output" % (side, failed, attempted, wrong))
row = "  %-18s%40s%40s  %6s  %s"
print(row % ("metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"))
with open(sys.argv[6], "a") as trajectory:
    for name in sorted(parent[0]["metrics"]):
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        stats = []
        for xs in (p, c):
            q1, _, q3 = quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            stats.append((median(xs), [q1, q3]))
        sign = 1 if name in higher_is_better else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        ratio = stats[1][0] / stats[0][0] if stats[0][0] else float("nan")
        cols = ["%.6g [%.6g, %.6g]" % (m, q[0], q[1]) for m, q in stats]
        print(row % (name, cols[0], cols[1], "%.2f" % ratio, "%d/%d" % (wins, len(p) - ties)))
        q1, q3 = stats[0][1]
        if name in end_to_end and len(p) < 6 and q3 > 2 * q1:
            print("  SWING: %s parent quartiles [%.6g, %.6g] span more than 2x; "
                  "re-run with >= 6 pairs" % (name, q1, q3))
        if name in end_to_end:
            trajectory.write(json.dumps({
                "source": "scripts/ab.sh", "change": described, "parent": commit,
                "workload": workload, "metric": name,
                "parent_median": stats[0][0], "change_median": stats[1][0],
                "parent_quartiles": stats[0][1], "change_quartiles": stats[1][1],
                "pairs": len(p), "wins": wins,
                "parent_failed": counts["parent"][0], "parent_attempted": counts["parent"][1],
                "change_failed": counts["change"][0], "change_attempted": counts["change"][1],
            }) + "\n")
' "$dir/$workload.parent.jsonl" "$dir/$workload.change.jsonl" "$workload" "$commit" \
    "$repo/BENCHMARK.json" "$repo/BENCH_trajectory.jsonl" "$change"
