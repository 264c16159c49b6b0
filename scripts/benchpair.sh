#!/usr/bin/env bash
# Paired benchmark runs of one workload: the tree of a git ref against the
# working tree.
#
#   scripts/benchpair.sh <ref> <workload> <pairs>
#
# Exports <ref> into a temporary directory and runs <pairs> pairs of
# `benchmark/run.sh -workload <workload> -trace 0`, one side from that
# tree and one from the working tree, each building its own harness.
# Both sides of pair i use seed i, and the side that runs first
# alternates (ABBA), so a linear drift of the host cancels. For every
# end-to-end metric in BENCHMARK.json it prints each pair's ratio
# (working tree over ref), the median of the ratios, how many pairs got
# better by the metric's own direction, each side's median value, and
# the interquartile range of the ref's runs.
# A run that fails a chunk is reported and stops the script. There is no
# host calibration: keep the host otherwise idle while it runs.
set -euo pipefail

if [ $# -ne 3 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: $0 <ref> <workload> <pairs>" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3
command -v jq >/dev/null || { echo "benchpair: jq is required" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/ref" "$tmp/out"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

# run <tree> <seed> <file>: one run, its closing JSON line kept in file.
run() {
	bash "$1/benchmark/run.sh" -workload "$workload" -seed "$2" -trace 0 -out "$tmp/out" >"$3.log" 2>&1 || true
	tail -n 1 "$3.log" >"$3"
	if ! jq -e '.correct == true and .failed == 0' "$3" >/dev/null 2>&1; then
		echo "benchpair: run in $1 (seed $2) failed; its output:" >&2
		cat "$3.log" >&2
		exit 1
	fi
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run "$tmp/ref" "$i" "$tmp/a.$i"
		run "$root" "$i" "$tmp/b.$i"
	else
		run "$root" "$i" "$tmp/b.$i"
		run "$tmp/ref" "$i" "$tmp/a.$i"
	fi
	echo "pair $i of $pairs done" >&2
done

echo "$workload: $pairs pairs, ratio = working tree / $ref"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" | while read -r name better; do
	for i in $(seq 1 "$pairs"); do
		a=$(jq -r --arg m "$name" '.metrics[$m].value // "nan"' "$tmp/a.$i")
		b=$(jq -r --arg m "$name" '.metrics[$m].value // "nan"' "$tmp/b.$i")
		echo "$a $b"
	done | awk -v name="$name" -v better="$better" '
		# quantile sorts v[1..n] and interpolates between its order
		# statistics.
		function quantile(v, n, q,    i, j, t, h) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
			h = 1 + (n - 1) * q
			i = int(h)
			return i >= n ? v[n] : v[i] + (h - i) * (v[i+1] - v[i])
		}
		{
			a[NR] = $1; b[NR] = $2
			if ($1 + 0 == 0) { line = line " n/a"; next }
			r[++n] = $2 / $1
			line = line sprintf(" %.3f", $2 / $1)
			if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) won++
		}
		END {
			printf "%-22s ratios%s\n", name, line
			printf "%-22s median ratio %s, better in %d of %d, median %.4g -> %.4g, ref IQR %.4g\n", "",
				n ? sprintf("%.3f", quantile(r, n, 0.5)) : "n/a", won, NR,
				quantile(a, NR, 0.5), quantile(b, NR, 0.5), quantile(a, NR, 0.75) - quantile(a, NR, 0.25)
		}'
done
