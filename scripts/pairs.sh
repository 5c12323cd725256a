#!/usr/bin/env bash
# Runs one benchmark workload alternately on a parent commit and on the
# working tree, N runs a side, in driver mode: `qsbench --workload W
# --seed 42 --seconds S --trace 0`, with S the `run_seconds` of
# BENCHMARK.json. Prints one JSON record per run on stdout, in the shape of
# the BENCH_*-pairs.jsonl files, and a summary on stderr: for each
# end-to-end metric, each side's median and IQR, how many pairs each side
# won, and a flag on a side whose runs fall into two clusters (the way
# `hit_json` does on two vCPUs).
#
# Usage: scripts/pairs.sh W N [PARENT] >> BENCH_<pr>-pairs.jsonl
#   W       a workload name from BENCHMARK.json
#   N       how many pairs to run (a gain is only marked "met" from 10 on)
#   PARENT  the commit to compare with (default HEAD~1)
#
# The parent is extracted with `git archive` into .bench_build/pairs-<commit>
# and built there; the directory is kept, so a later batch against the same
# parent does not rebuild it. The change side is the working tree as it
# stands, uncommitted edits included. Odd pairs run the parent first and
# even pairs the change first, so neither side always runs second.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 || ! $2 =~ ^[0-9]+$ ]]; then
    echo "usage: scripts/pairs.sh W N [PARENT]" >&2
    exit 2
fi
workload=$1
pairs=$2
parent=$(git rev-parse --short "${3:-HEAD~1}")
seed=42
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

parent_dir=.bench_build/pairs-$parent
if [[ ! -d $parent_dir ]]; then
    rm -rf "$parent_dir.partial"
    mkdir -p "$parent_dir.partial"
    git archive "$parent" | tar -x -C "$parent_dir.partial"
    mv "$parent_dir.partial" "$parent_dir"
fi
echo "pairs: building $parent and the working tree" >&2
cargo build --release --quiet --manifest-path "$parent_dir/bench/Cargo.toml"
cargo build --release --quiet --manifest-path bench/Cargo.toml

batch="$workload: $pairs alternated pairs against $parent, seed $seed"
records=$(mktemp)
trap 'rm -f "$records"' EXIT

# One driver-mode run of `side`; appends its record to stdout and $records.
run() {
    local pair=$1 side=$2 bin commit result
    if [[ $side == parent ]]; then
        bin=$parent_dir/bench/target/release/qsbench
        commit=$parent
    else
        bin=bench/target/release/qsbench
        commit=change
    fi
    result=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    if [[ $result != \{* ]]; then
        echo "pairs: pair $pair, $side: the run printed no result" >&2
        exit 1
    fi
    printf '{"batch": "%s", "pair": %d, "side": "%s", "commit": "%s", "workload": "%s", "seed": %d, "seconds": %s, "trace": 0, "result": %s}\n' \
        "$batch" "$pair" "$side" "$commit" "$workload" "$seed" "$seconds" "$result" |
        tee -a "$records"
    echo "pairs: pair $pair/$pairs, $side done" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2 == 1)); then
        run "$pair" parent
        run "$pair" change
    else
        run "$pair" change
        run "$pair" parent
    fi
done

python3 - "$records" "$batch" >&2 <<'EOF'
import json
import sys

better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {"parent": {}, "change": {}}
for line in open(sys.argv[1]):
    rec = json.loads(line)
    runs[rec["side"]][rec["pair"]] = rec["result"]["metrics"]


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def two_clusters(xs):
    """Whether the widest gap between sorted runs splits them into two
    groups of at least a quarter of the runs each (and at least three) and
    spans more than half their range. Needs eight runs or more."""
    xs = sorted(xs)
    if len(xs) < 8 or xs[-1] == xs[0]:
        return False
    gap, at = max((b - a, i + 1) for i, (a, b) in enumerate(zip(xs, xs[1:])))
    least = max(3, len(xs) // 4)
    return gap > 0.5 * (xs[-1] - xs[0]) and min(at, len(xs) - at) >= least


pairs = sorted(set(runs["parent"]) & set(runs["change"]))
print(f"{sys.argv[2]}: median (IQR) per side; wins = pairs the side did better in")
print(f"{'metric':<18} {'parent':>24} {'change':>24} {'wins p/c':>9}  claim")
for name, direction in better.items():
    p = [runs["parent"][i][name]["value"] for i in pairs if name in runs["parent"][i]]
    c = [runs["change"][i][name]["value"] for i in pairs if name in runs["change"][i]]
    if len(p) != len(pairs) or len(c) != len(pairs) or not pairs:
        continue
    sign = 1 if direction == "higher" else -1
    change_wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    parent_wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    piqr = quantile(p, 0.75) - quantile(p, 0.25)
    ciqr = quantile(c, 0.75) - quantile(c, 0.25)
    # The bar a claimed gain must clear: at least ten pairs, better in
    # nine of ten, and a median shift wider than the parent's IQR.
    met = (
        len(pairs) >= 10
        and change_wins * 10 >= 9 * len(pairs)
        and sign * (cm - pm) > piqr
    )
    flags = "".join(f" [{side} two clusters]" for side, xs in (("parent", p), ("change", c)) if two_clusters(xs))
    print(
        f"{name:<18} {pm:>12.6g} ({piqr:>9.4g}) {cm:>12.6g} ({ciqr:>9.4g}) "
        f"{parent_wins:>4}/{change_wins:<4}  {'met' if met else '-'}{flags}"
    )
EOF
