#!/usr/bin/env bash
# Paired before/after runs of the end-to-end benchmark (perfbench).
#
# Builds perfbench at a base revision (checked out in a throwaway git
# worktree under the git-ignored .bench_build/) and at the working tree,
# then runs N pairs per workload through the unchanged perfbench/run.sh.
# Pair i uses seed SEED0+i on both sides and alternates which side runs
# first. It prints, per workload and metric, the median of each side,
# the change/base ratio, the base's quartile spread, and on how many
# pairs the change was better; then the failed share of passes and
# set-ups and whether the loss digests matched pair by pair.
#
# Run from anywhere inside the checkout:
#
#   make bench-pair BASE=HEAD~1 N=10
#   BASE=main WORKLOADS=mf-tcp TRACE=1 bash scripts/bench-pair.sh
#
# Environment (empty means the default):
#   BASE         git revision to compare against          (HEAD)
#   N            pairs per workload                        (10)
#   WORKLOADS    space-separated workload names            (mf-tcp slr-served lda-ckpt)
#   RUN_SECONDS  perfbench --seconds                       (20, BENCHMARK.json's run_seconds)
#   SEED0        seed of the first pair                    (1)
#   TRACE        perfbench --trace: 0 end to end, 1 per layer (0)
#
# Raw run logs stay in .bench_build/pair/<workload>-<side>-seed<n>.log.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"
base="${BASE:-HEAD}"
n="${N:-10}"
workloads="${WORKLOADS:-mf-tcp slr-served lda-ckpt}"
secs="${RUN_SECONDS:-20}"
seed0="${SEED0:-1}"
trace="${TRACE:-0}"

rev="$(git rev-parse --verify "$base^{commit}")"
out="$root/.bench_build/pair"
wt="$out/base-$rev"
mkdir -p "$out"
cleanup() { git worktree remove --force "$wt" >/dev/null 2>&1 || true; }
trap cleanup EXIT
cleanup
git worktree add --detach "$wt" "$rev" >/dev/null 2>&1

# run SIDE DIR WORKLOAD SEED: one perfbench run, logged; a failed run
# leaves its log without a result line.
run() {
	local log="$out/$3-$1-seed$4.log"
	echo "  $3 seed $4 $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$secs" --trace "$trace") >"$log" 2>&1 ||
		echo "    run failed, see $log" >&2
}

echo "bench-pair: base ${base} (${rev:0:12}) vs working tree, $n pairs, --seconds $secs --trace $trace" >&2
for w in $workloads; do
	for ((i = 0; i < n; i++)); do
		seed=$((seed0 + i))
		if ((i % 2 == 0)); then
			run base "$wt" "$w" "$seed"
			run change "$root" "$w" "$seed"
		else
			run change "$root" "$w" "$seed"
			run base "$wt" "$w" "$seed"
		fi
	done
done

# One "side seed metric value" row per metric of every run.
rows() {
	local w="$1" side seed log
	for side in base change; do
		for ((i = 0; i < n; i++)); do
			seed=$((seed0 + i))
			log="$out/$w-$side-seed$seed.log"
			tail -n 1 "$log" | grep -o '"[a-z0-9_.]*":{"value":[^,}]*' |
				sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
				while read -r metric value; do echo "$side $seed $metric $value"; done
		done
	done
}

# median, lower and upper quartile of the numbers on stdin.
quartiles() {
	sort -g | awk '{ v[NR] = $1 }
		function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
		END { if (NR) printf "%s %s %s\n", q(0.5), q(0.25), q(0.75) }'
}

# Direction of every metric BENCHMARK.json declares: "name higher|lower".
directions="$(sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' BENCHMARK.json)"

printf '\n%-12s %-32s %14s %14s %8s %8s %6s\n' workload metric base_median change_median ratio base_iqr better
for w in $workloads; do
	data="$(rows "$w")"
	for metric in $(echo "$data" | awk '{ print $3 }' | sort -u); do
		better="$(echo "$directions" | awk -v m="$metric" '$1 == m { print $2 }')"
		read -r bmed blo bhi <<<"$(echo "$data" | awk -v m="$metric" '$1 == "base" && $3 == m { print $4 }' | quartiles)"
		read -r cmed _ _ <<<"$(echo "$data" | awk -v m="$metric" '$1 == "change" && $3 == m { print $4 }' | quartiles)"
		wins="$(echo "$data" | awk -v m="$metric" -v b="$better" '$3 == m { v[$1, $2] = $4 + 0; s[$2] = 1 }
			END {
				for (k in s) {
					if (!(("base", k) in v) || !(("change", k) in v)) continue
					t++
					if ((b == "higher" && v["change", k] > v["base", k]) || (b == "lower" && v["change", k] < v["base", k])) w++
				}
				printf "%d/%d", w, t
			}')"
		awk -v w="$w" -v m="$metric" -v b="$bmed" -v c="$cmed" -v lo="$blo" -v hi="$bhi" -v wins="$wins" -v dir="$better" 'BEGIN {
			r = (b != 0) ? sprintf("%.3f", c / b) : "-"
			iqr = (b != 0) ? sprintf("%.3f", (hi - lo) / b) : "-"
			if (dir == "") wins = "-"
			printf "%-12s %-32s %14.6g %14.6g %8s %8s %6s\n", w, m, b, c, r, iqr, wins }'
	done
done

# failed SIDE WORKLOAD: "failed/attempted" passes and set-ups over the
# side's runs; a run that produced no result counts as one failed
# attempt.
failed() {
	local att=0 fail=0 res a f
	for ((i = 0; i < n; i++)); do
		res="$(tail -n 1 "$out/$2-$1-seed$((seed0 + i)).log")"
		a="$(echo "$res" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')"
		f="$(echo "$res" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
		att=$((att + ${a:-1})) fail=$((fail + ${f:-1}))
	done
	echo "$fail/$att"
}

# field SIDE WORKLOAD SEED KEY: a key=value field of the run's
# loss_digest or summary line.
field() {
	sed -n "s/^\(loss_digest\|summary\) .*$4=\([^ ]*\).*/\2/p" "$out/$2-$1-seed$3.log" | head -n 1
}

printf '\n%-12s %-10s %-10s %-14s %s\n' workload base_fail change_fail digests_match "last_bit_diff_setups per seed (base | change)"
for w in $workloads; do
	match=0 bb="" cb=""
	for ((i = 0; i < n; i++)); do
		seed=$((seed0 + i))
		db="$(field base "$w" "$seed" sha256)"
		if [[ -n "$db" && "$db" == "$(field change "$w" "$seed" sha256)" ]]; then match=$((match + 1)); fi
		bb+="$(field base "$w" "$seed" last_bit_diff_setups) " cb+="$(field change "$w" "$seed" last_bit_diff_setups) "
	done
	printf '%-12s %-10s %-10s %-14s %s| %s\n' "$w" "$(failed base "$w")" "$(failed change "$w")" "$match/$n" "$bb" "$cb"
done
