#!/usr/bin/env bash
# Interleaved benchmark pairs: a parent revision against the working tree.
#
#   bash scripts/benchpairs.sh <parent-rev> <workload|all> <pairs> [first-seed]
#
# Clones the repository into a temporary directory (`git clone --shared
# --no-checkout`, which borrows the objects and writes nothing under the
# repository's .git) and checks the parent revision out there detached,
# then runs `bash bench/run.sh` once at the parent and once at the working
# tree per pair, alternating which side runs first (pair i uses seed
# first-seed+i-1, default 1, and a 25 s window). Each side appends its run
# records to its own NDJSON file under .bench_pairs/ (emptied first); the
# script ends by printing `bench/run.sh compare` over the two. Each side
# builds the benchmark from its own tree. The workload `all` runs every
# workload BENCHMARK.json lists, in its order, and prints one compare
# table per workload.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload|all> <pairs> [first-seed]" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 first=${4:-1}
seconds=25

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git clone --quiet --shared --no-checkout "$root" "$tmp/parent"
git -C "$tmp/parent" checkout --quiet --detach "$rev"

out="$root/.bench_pairs"
mkdir -p "$out"

run() { # workload side seed
	local dir=$root runs=$out/$1.change.ndjson
	if [ "$2" = parent ]; then
		dir=$tmp/parent runs=$out/$1.parent.ndjson
	fi
	echo "$1 pair seed $3: $2" >&2
	(cd "$dir" && bash bench/run.sh --workload "$1" --seed "$3" \
		--seconds "$seconds" --trace 0 --json "$runs" >/dev/null)
}

pairs_of() { # workload
	local i seed
	: >"$out/$1.parent.ndjson"
	: >"$out/$1.change.ndjson"
	for ((i = 0; i < pairs; i++)); do
		seed=$((first + i))
		if ((i % 2 == 0)); then
			run "$1" parent "$seed"
			run "$1" change "$seed"
		else
			run "$1" change "$seed"
			run "$1" parent "$seed"
		fi
	done
	(cd "$root" && bash bench/run.sh compare "$out/$1.parent.ndjson" "$out/$1.change.ndjson")
}

workloads=("$workload")
if [ "$workload" = all ]; then
	mapfile -t workloads < <(sed -n '/"workloads": \[/,/\]/s/.*"name": "\([^"]*\)".*/\1/p' "$root/BENCHMARK.json")
fi
for w in "${workloads[@]}"; do
	if [ "$workload" = all ]; then
		echo "== $w"
	fi
	pairs_of "$w"
done
