#!/usr/bin/env bash
# The A/B protocol of bench/README.md ("Claiming a gain later"), scripted:
#
#   scripts/ab.sh <base-ref> <workload> [seed]        (or: make ab BASE=… W=… [SEED=…])
#
# checks <base-ref> and the checkout out into temporary git worktrees, runs
# ten alternating pairs (base change, change base, …) of
#
#   bench/run.sh --workload W --seed N --seconds 18 --trace 0
#
# and prints, per end-to-end metric, both sides' medians and interquartile
# ranges, how many pairs each side won, and a verdict by the README's rule:
# a side is better only if it wins at least nine tenths of the pairs (ties
# count for neither) and the medians lie further apart than the base's own
# interquartile range. Every metric is lower-is-better. Every run's numbers
# are printed as they arrive, so a report can show all of them.
#
# The change side is the checkout as `git stash create` sees it: HEAD plus the
# staged and unstaged edits to tracked files (`git add` a new file to have it
# measured), so a change can be sized before it is committed. Both sides
# always build and run from worktrees under $TMPDIR.
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: $0 <base-ref> <workload> [seed]" >&2; exit 2; }
base_ref=$1 workload=$2 seed=${3:-1}
pairs=10 secs=18 # the protocol's; secs is the driver's run length

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	for side in base change; do
		[ -d "$tmp/$side" ] && git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null
	done
	rm -rf "$tmp"
	git -C "$root" worktree prune
}
trap cleanup EXIT

change_ref=$(git -C "$root" stash create)
git -C "$root" worktree add --quiet --detach "$tmp/base" "$base_ref"
git -C "$root" worktree add --quiet --detach "$tmp/change" "${change_ref:-HEAD}"
echo "base:   $(git -C "$root" rev-parse --short "$base_ref") ($base_ref)"
echo "change: $(git -C "$root" rev-parse --short HEAD)${change_ref:+ + uncommitted edits}"
echo "workload $workload, seed $seed, $pairs pairs of ${secs}-s runs"

# run <side>: one benchmark run in the side's worktree; appends "<metric>
# <value>" lines to $tmp/<side>.runs, one block per run in run order, plus
# "failed <n>".
run() {
	local side=$1 line
	line=$(bash "$tmp/$side/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1)
	{
		echo "failed $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")"
		grep -o '"[A-Za-z_0-9]*":{"value":[^,}]*' <<<"$line" | sed 's/"\([^"]*\)":{"value":/\1 /'
	} | tee -a "$tmp/$side.runs" | awk -v s="$side" '{ printf "%s %s=%.6g", (NR == 1 ? "  " s ":" : ""), $1, $2 } END { print "" }'
}

for i in $(seq "$pairs"); do
	echo "pair $i"
	if [ $((i % 2)) -eq 1 ]; then
		run base; run change
	else
		run change; run base
	fi
done

# quartiles <side> <metric>: "median q1 q3" over the side's runs.
quartiles() {
	awk -v m="$2" '$1 == m { print $2 }' "$tmp/$1.runs" | sort -g | awk '
		{ v[NR] = $1 }
		function q(f,   h, lo) { h = (NR - 1) * f + 1; lo = int(h); return lo < NR ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[NR] }
		END { print q(0.5), q(0.25), q(0.75) }'
}

echo
echo "failed rounds: base $(awk '$1 == "failed" { n += $2 } END { print n + 0 }' "$tmp/base.runs"), change $(awk '$1 == "failed" { n += $2 } END { print n + 0 }' "$tmp/change.runs")"
printf '%-20s %12s %12s %12s %12s %9s %11s  %s\n' metric "base p50" "base IQR" "change p50" "change IQR" "Δ p50" "wins b/c" verdict
for metric in $(awk '$1 != "failed" { print $1 }' "$tmp/base.runs" | sort -u); do
	read -r bm bq1 bq3 <<<"$(quartiles base "$metric")"
	read -r cm cq1 cq3 <<<"$(quartiles change "$metric")"
	paste <(awk -v m="$metric" '$1 == m { print $2 }' "$tmp/base.runs") \
		<(awk -v m="$metric" '$1 == m { print $2 }' "$tmp/change.runs") |
		awk -v m="$metric" -v bm="$bm" -v biqr="$(awk "BEGIN { print $bq3 - $bq1 }")" \
			-v cm="$cm" -v ciqr="$(awk "BEGIN { print $cq3 - $cq1 }")" '
			$2 < $1 { cw++ } $1 < $2 { bw++ }
			END {
				d = cm - bm; if (d < 0) d = -d
				verdict = "no difference shown"
				if (d > biqr && cw >= 0.9 * NR) verdict = "change better"
				if (d > biqr && bw >= 0.9 * NR) verdict = "change WORSE"
				printf "%-20s %12.6g %12.4g %12.6g %12.4g %+8.1f%% %5d/%-5d  %s\n", m, bm, biqr, cm, ciqr, (bm ? 100 * (cm - bm) / bm : 0), bw, cw, verdict
			}'
done
