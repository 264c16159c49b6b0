#!/usr/bin/env bash
# Paired benchmark runs of one workload, or of every workload: the tree of
# a git ref against the working tree.
#
#   scripts/benchpair.sh <ref> <workload|all> <pairs>
#
# Exports <ref> into a temporary directory and runs <pairs> pairs of
# `benchmark/run.sh -workload <workload> -trace 0`, one side from that
# tree and one from the working tree, each building its own harness.
# `all` does this for every workload in BENCHMARK.json, one after the
# other. Both sides of pair i use seed i, and the side that runs first
# alternates (ABBA), so a linear drift of the host cancels. For every
# end-to-end metric in BENCHMARK.json it prints each pair's ratio
# (working tree over ref), the median of the ratios, how many pairs got
# better by the metric's own direction, each side's median value, the
# interquartile range of the ref's runs, and a verdict against the
# metric's bound in BENCHMARK.json:
#   better        at least 9 in 10 pairs better, and the medians differ
#                 by more than the ref's IQR;
#   worse         the working tree's median is worse than the ref's by
#                 more than the bound;
#   unresolved    the ref's IQR exceeds the bound times its median, so
#                 the runs spread too widely to tell;
#   inside bound  otherwise.
# Then it prints each side's median cores_used = cpu_s_per_gb ×
# goodput_mbps / 1000, the cores the run kept busy.
# A run that fails a chunk is reported and stops the script. There is no
# host calibration: keep the host otherwise idle while it runs.
set -euo pipefail

if [ $# -ne 3 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: $0 <ref> <workload|all> <pairs>" >&2
	exit 2
fi
ref=$1 pairs=$3
command -v jq >/dev/null || { echo "benchpair: jq is required" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
workloads=$2
if [ "$workloads" = all ]; then
	workloads=$(jq -r '.workloads[].name' "$root/BENCHMARK.json")
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/ref" "$tmp/out"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

# run <tree> <workload> <seed> <file>: one run, its closing JSON line
# kept in file.
run() {
	bash "$1/benchmark/run.sh" -workload "$2" -seed "$3" -trace 0 -out "$tmp/out" >"$4.log" 2>&1 || true
	tail -n 1 "$4.log" >"$4"
	if ! jq -e '.correct == true and .failed == 0' "$4" >/dev/null 2>&1; then
		echo "benchpair: $2 run in $1 (seed $3) failed; its output:" >&2
		cat "$4.log" >&2
		exit 1
	fi
}

# quantile sorts v[1..n] and interpolates between its order statistics.
quantile='
function quantile(v, n, q,    i, j, t, h) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	h = 1 + (n - 1) * q
	i = int(h)
	return i >= n ? v[n] : v[i] + (h - i) * (v[i+1] - v[i])
}'

# values <workload> <jq expression>: "ref working-tree" per pair.
values() {
	for i in $(seq 1 "$pairs"); do
		echo "$(jq -r "$2 // \"nan\"" "$tmp/$1.a.$i") $(jq -r "$2 // \"nan\"" "$tmp/$1.b.$i")"
	done
}

for workload in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run "$tmp/ref" "$workload" "$i" "$tmp/$workload.a.$i"
			run "$root" "$workload" "$i" "$tmp/$workload.b.$i"
		else
			run "$root" "$workload" "$i" "$tmp/$workload.b.$i"
			run "$tmp/ref" "$workload" "$i" "$tmp/$workload.a.$i"
		fi
		echo "$workload: pair $i of $pairs done" >&2
	done

	echo "$workload: $pairs pairs, ratio = working tree / $ref"
	jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" | while read -r name better bound; do
		values "$workload" ".metrics[\"$name\"].value" | awk -v name="$name" -v better="$better" -v bound="$bound" "$quantile"'
			{
				a[NR] = $1; b[NR] = $2
				if ($1 + 0 == 0) { line = line " n/a"; next }
				r[++n] = $2 / $1
				line = line sprintf(" %.3f", $2 / $1)
				if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) won++
			}
			END {
				iqr = quantile(a, NR, 0.75) - quantile(a, NR, 0.25)
				ma = quantile(a, NR, 0.5); mb = quantile(b, NR, 0.5)
				gap = mb - ma; if (gap < 0) gap = -gap
				if (better == "higher") worse = mb < ma * (1 - bound)
				else worse = mb > ma * (1 + bound)
				if (10 * won >= 9 * NR && gap > iqr) verdict = "better"
				else if (worse) verdict = "worse"
				else if (iqr > bound * ma) verdict = "unresolved"
				else verdict = "inside bound"
				printf "%-22s ratios%s\n", name, line
				printf "%-22s median ratio %s, better in %d of %d, median %.4g -> %.4g, ref IQR %.4g: %s\n", "",
					n ? sprintf("%.3f", quantile(r, n, 0.5)) : "n/a", won, NR, ma, mb, iqr, verdict
			}'
	done
	values "$workload" '.metrics.cpu_s_per_gb.value * .metrics.goodput_mbps.value / 1000' | awk "$quantile"'
		{ a[NR] = $1; b[NR] = $2 }
		END { printf "%-22s median %.3f -> %.3f\n", "cores_used", quantile(a, NR, 0.5), quantile(b, NR, 0.5) }'
done
