#!/usr/bin/env bash
# Runs the loopmap benchmark in alternating parent/change pairs and
# summarizes them. From the repository root:
#
#   bash scripts/benchpairs.sh [--base REV] [--head REV] [--pairs N]
#       [--out FILE]
#
# The run length and the workloads come from BENCHMARK.json (run_seconds
# and workloads), so every run has the benchmark's own shape.
#
# --base (default HEAD) is the parent. The change is --head, or, without
# it, the working tree: tracked and untracked files that .gitignore does
# not exclude, less any tracked file deleted but not yet removed from
# the index. Each side is extracted (git archive for a revision) and
# built under .bench_build/pairs/<side>. For every seed 1..N and workload
# both sides run perfbench/run.sh with --trace 0; odd seeds run the parent
# first, even seeds the change. Every run's output is kept under
# .bench_build/pairs/results, and the summary — per end-to-end metric,
# each side's median and quartiles and the number of pairs the change
# won — is printed and written to --out (default BENCH.json).
set -euo pipefail

base=HEAD
head=
pairs=10
out=BENCH.json
while [ $# -gt 0 ]; do
	case "$1" in
	--base) base="$2"; shift 2 ;;
	--head) head="$2"; shift 2 ;;
	--pairs) pairs="$2"; shift 2 ;;
	--out) out="$2"; shift 2 ;;
	*) echo "benchpairs: unknown argument $1" >&2; exit 2 ;;
	esac
done

root="$(git rev-parse --show-toplevel)"
cd "$root"
plan="$(go run ./scripts/benchpairs -bench BENCHMARK.json -plan)"
read -r seconds workloads <<<"$plan"
work="$root/.bench_build/pairs"
rm -rf "$work"
mkdir -p "$work/base/src" "$work/head/src" "$work/results"

git archive "$(git rev-parse "$base")" | tar -x -C "$work/base/src"
if [ -n "$head" ]; then
	git archive "$(git rev-parse "$head")" | tar -x -C "$work/head/src"
	headname="$(git rev-parse --short "$head")"
else
	# A tracked file deleted in the working tree (not yet git rm'd) is
	# still listed; skip it, as the change does not have it.
	git ls-files -z --cached --others --exclude-standard |
		while IFS= read -r -d '' f; do
			if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
		done |
		xargs -0 tar -c -f - | tar -x -C "$work/head/src"
	headname="working tree"
fi
basename="$(git rev-parse --short "$base")"

# run <side> <workload> <seed>: one run of a side (the first one builds).
run() {
	local res="$work/results/$2-$3-$1.txt"
	if ! (cd "$work/$1/src" && CARGO_TARGET_DIR="$work/$1/build" \
		bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) >"$res"; then
		echo "benchpairs: $2 seed $3 $1 failed; see $res" >&2
		exit 1
	fi
	echo "benchpairs: $2 seed $3 $1 done" >&2
}

for seed in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$w" "$seed"
			run head "$w" "$seed"
		else
			run head "$w" "$seed"
			run base "$w" "$seed"
		fi
	done
done

go run ./scripts/benchpairs -results "$work/results" -bench BENCHMARK.json \
	-base "$basename" -head "$headname" -out "$out"
