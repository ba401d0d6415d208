#!/usr/bin/env bash
# Interleaved benchmark pairs: a parent revision against the working tree.
#
#   bash scripts/benchpairs.sh <parent-rev> <workload> <pairs> [first-seed]
#
# Checks the parent revision out into a temporary git worktree, then runs
# `bash bench/run.sh` once at the parent and once at the working tree per
# pair, alternating which side runs first (pair i uses seed first-seed+i-1,
# default 1, and a 25 s window). Each side appends its run records to its
# own NDJSON file under .bench_pairs/ (emptied first); the script ends by
# printing `bench/run.sh compare` over the two. Each side builds the
# benchmark from its own tree.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> [first-seed]" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 first=${4:-1}
seconds=25

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/parent" "$parent" >/dev/null

out="$root/.bench_pairs"
mkdir -p "$out"
parent_runs="$out/$workload.parent.ndjson"
change_runs="$out/$workload.change.ndjson"
: >"$parent_runs"
: >"$change_runs"

run() { # side seed
	local dir=$root runs=$change_runs
	if [ "$1" = parent ]; then
		dir=$tmp/parent runs=$parent_runs
	fi
	echo "pair seed $2: $1" >&2
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 --json "$runs" >/dev/null)
}

for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
done
(cd "$root" && bash bench/run.sh compare "$parent_runs" "$change_runs")
