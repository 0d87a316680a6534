#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark: a reference commit
# against the working tree, on the same host in the same minutes.
#
#   tools/benchcmp.sh <ref> <workload> [pairs] [seed]
#
# <ref> is any commit-ish; <workload> one of the names in BENCHMARK.json.
# Both sides are exported into their own directories, with no network and
# no change to this repository: <ref> with `git archive`, the working tree
# as its tracked and untracked, non-ignored files. Each side then builds its
# own copy of the benchmark, and `bash perfbench/run.sh --workload W --seed S
# --seconds T --trace 0` runs `pairs` times per side (default 10, seed
# default 1), alternating which side goes first in each pair.
#
# For every end-to-end metric in BENCHMARK.json it prints both sides'
# median and quartiles and how many pairs the working tree won, in the
# metric's "better" direction, and whether the median gap exceeds the
# reference's interquartile range. It also reports whether every run
# printed the same `# digest` line, and exits 1 if any run failed, if any
# end-to-end metric's median on the working tree is worse than the
# reference's by more than that metric's BENCHMARK.json bound, if a digest
# the reference prints on every run differs on the working tree, or if the
# two sides share no digest at all.
#
# The timed phase is the run_seconds of BENCHMARK.json. BENCHCMP_DIR names
# the directory for the exports, build caches and run logs, which is then
# kept; by default a temporary directory is used and removed on exit.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
	echo "usage: tools/benchcmp.sh <ref> <workload> [pairs] [seed]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$ref^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
if ! grep -q "\"name\": \"$workload\"" BENCHMARK.json; then
	echo "benchcmp: unknown workload $workload (see BENCHMARK.json)" >&2
	exit 2
fi

if [[ -n ${BENCHCMP_DIR:-} ]]; then
	dir=$BENCHCMP_DIR
	mkdir -p "$dir"
else
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
fi
dir=$(cd "$dir" && pwd)
rm -rf "$dir/ref" "$dir/new" "$dir/logs"
mkdir -p "$dir/ref" "$dir/new" "$dir/logs"

git archive --format=tar "$sha" | tar -x -C "$dir/ref"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -x -C "$dir/new"

# run <side> <index>: one benchmark run, its output kept as a log.
run() {
	local log=$dir/logs/$1-$2.txt
	if ! (cd "$dir/$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log" 2>"$log.err"; then
		echo "benchcmp: $1 run $2 failed; see $log.err" >&2
		return 1
	fi
}

echo "# benchcmp $workload: ref $ref ($sha) vs working tree, $pairs pairs, seed $seed, --seconds $seconds"
failed=0
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="ref new"; else order="new ref"; fi
	for side in $order; do
		run "$side" "$i" || failed=$((failed + 1))
	done
	echo "# pair $i/$pairs done ($order)" >&2
done

# One row per end-to-end metric: name, better, bound, then each side's
# values in pair order (missing runs are skipped pairwise). The table ends
# in a non-zero status when a median is worse than its bound allows.
if ! sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json |
	while read -r name better bound; do
		printf '%s %s %s' "$name" "$better" "$bound"
		for side in ref new; do
			printf ' |'
			for ((i = 1; i <= pairs; i++)); do
				v=$(awk -v m="$name" '$1 == "metric" && $2 == m { print $3 }' "$dir/logs/$side-$i.txt" 2>/dev/null)
				printf ' %s' "${v:-NA}"
			done
		done
		printf '\n'
	done |
	awk '
	function sortq(a, n,   i, j, t) {
		for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	}
	function q(a, n, p,   h, lo) {
		h = (n - 1) * p + 1; lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	BEGIN {
		printf "%-16s %-6s %12s %12s %12s | %12s %12s %12s | %5s %7s %-7s %s\n",
			"metric", "better", "ref_q1", "ref_med", "ref_q3", "new_q1", "new_med", "new_q3", "wins", "ratio", "gap>IQR", "bound"
	}
	{
		name = $1; better = $2; bound = $3; side = 0
		for (k = 4; k <= NF; k++) {
			if ($k == "|") { side++; idx = 0; continue }
			idx++
			if (side == 1) r[idx] = $k; else v[idx] = $k
		}
		na = 0; nb = 0; wins = 0; pairsn = 0
		for (i = 1; i <= idx; i++) {
			if (r[i] == "NA" || v[i] == "NA") continue
			pairsn++
			A[++na] = r[i] + 0; B[++nb] = v[i] + 0
			if ((better == "lower" && v[i] + 0 < r[i] + 0) || (better == "higher" && v[i] + 0 > r[i] + 0)) wins++
		}
		if (pairsn == 0) { printf "%-16s %-6s no complete pairs\n", name, better; next }
		sortq(A, na); sortq(B, nb)
		rq1 = q(A, na, .25); rm = q(A, na, .5); rq3 = q(A, na, .75)
		nq1 = q(B, nb, .25); nm = q(B, nb, .5); nq3 = q(B, nb, .75)
		gap = nm - rm; if (gap < 0) gap = -gap
		ratio = rm != 0 ? nm / rm : 0
		worse = rm != 0 && ((better == "lower" && ratio > 1 + bound) || (better == "higher" && ratio < 1 - bound))
		if (worse) regressed++
		printf "%-16s %-6s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %2d/%-2d %7.3f %-7s %s\n",
			name, better, rq1, rm, rq3, nq1, nm, nq3, wins, pairsn, ratio, (gap > rq3 - rq1 ? "yes" : "no"),
			(worse ? "WORSE>" : "ok<=") bound
	}
	END { exit regressed > 0 }'; then
	echo "# benchcmp: a median is worse than its BENCHMARK.json bound"
	failed=$((failed + 1))
fi

# A workload with fixed work prints one digest on every run. One that runs
# until --seconds have passed (service-mixed stores as many fresh results as
# fit) can print a different digest per run on either side; then the sides
# can only be compared by the digests they share.
digests() { cat "$dir"/logs/"$1"-*.txt 2>/dev/null | sed -n 's/^# digest //p' | sort -u; }
ref_d=$(digests ref) new_d=$(digests new)
n_ref=$(grep -c . <<<"$ref_d" || true) n_new=$(grep -c . <<<"$new_d" || true)
if [[ $n_ref -eq 1 && $ref_d == "$new_d" ]]; then
	echo "# digest: identical across all runs: $ref_d"
elif [[ $n_ref -gt 1 ]]; then
	shared=$(comm -12 <(printf '%s\n' "$ref_d") <(printf '%s\n' "$new_d") | grep -c . || true)
	echo "# digest: varies between the reference's own runs: $n_ref distinct on ref, $n_new on the working tree, $shared on both"
	if ((shared == 0)); then
		echo "# digest: DIFFERENT: the working tree shares none of the reference's digests"
		failed=$((failed + 1))
	fi
else
	echo "# digest: DIFFERENT: ref printed ${ref_d:-none}; the working tree printed:"
	printf '%s\n' "${new_d:-none}"
	failed=$((failed + 1))
fi
if ((failed)); then
	echo "# benchcmp: $failed failed run(s), bound violation or digest mismatch" >&2
	exit 1
fi
