#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: a parent revision against
# the working tree, for example
#
#   bash scripts/bench-ab.sh HEAD~1 10 1
#
# arguments: <parent-rev> [pairs, default 10] [seed, default 1].
#
# Run it from the repository root. The parent is checked out as a git
# worktree under .bench_build/ and removed on exit. Each pair runs
# `bash perfbench/run.sh --workload all` once in each tree at the
# benchmark's run length (run_seconds in BENCHMARK.json), alternating
# which side goes first. The summary prints, per workload and
# end-to-end metric, each side's median [Q1, Q3] over the pairs and how
# many pairs the working tree won (ties count for neither side).
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bash scripts/bench-ab.sh <parent-rev> [pairs] [seed]" >&2
	exit 2
fi
rev=$1 pairs=${2:-10} seed=${3:-1}
root=$PWD
out="$root/.bench_build/ab"
wt="$root/.bench_build/ab-parent"
secs=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)

cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT

mkdir -p "$out"
rm -f "$out"/*.json
git worktree add --detach "$wt" "$rev" >/dev/null

# side runs one benchmark pass in tree $2 and keeps its last output
# line - the JSON verdict - as $out/$1-$3.json.
side() {
	echo "pair $3: $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload all --seed "$seed" --seconds "$secs" --trace 0) |
		tail -n 1 >"$out/$1-$3.json"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		side parent "$wt" "$i"
		side change "$root" "$i"
	else
		side change "$root" "$i"
		side parent "$wt" "$i"
	fi
done

python3 - "$out" "$pairs" BENCHMARK.json <<'PY'
import json, statistics, sys

out, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))

def load(side):
    return [json.load(open(f"{out}/{side}-{i}.json")) for i in range(1, pairs + 1)]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

parent, change = load("parent"), load("change")
for side, runs in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"{side}: {failed} of {attempted} ops failed, correct in {sum(r['correct'] for r in runs)}/{pairs} runs")

def cell(q1, med, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

print(f"\n{'workload':<12} {'metric':<16} {'parent median [Q1, Q3]':<32} {'change median [Q1, Q3]':<32} {'delta':>7} {'wins':>6}  note")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        key = f"{w['name']}.{m['name']}"
        p = [r["metrics"][key]["value"] for r in parent]
        c = [r["metrics"][key]["value"] for r in change]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        delta = (cmed - pmed) / pmed if pmed else 0.0
        note = ""
        if sign * delta < -m["bound"]:
            note = f"worse than bound {m['bound']:.0%}"
        elif wins >= 0.9 * pairs and abs(cmed - pmed) > pq3 - pq1 and sign * delta > 0:
            note = "gain"
        print(f"{w['name']:<12} {m['name']:<16} {cell(pq1, pmed, pq3):<32} {cell(cq1, cmed, cq3):<32} {delta:>+7.1%} {wins:>3}/{pairs:<2}  {note}")
PY
