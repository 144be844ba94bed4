#!/usr/bin/env bash
# Paired A/B runs of one benchmark workload on two checkouts of this repo.
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload> [pairs] [seed]
#
# Builds each checkout's benchmark with the command BENCHMARK.json declares
# (each into its own benchmark/target), then runs <pairs> pairs (default 10)
# of one parent run and one change run, alternating which side goes first,
# at BENCHMARK.json's run_seconds and the given seed (default 7). Prints
# every run's failed/attempted count and timed repetitions, its end-to-end
# metrics, then per metric each side's quartiles and
# median, the ratio of the medians, in how many pairs the change read
# better (ties count for neither side) and whether the medians differ by
# more than the parent's own inter-quartile range — the two conditions a
# claimed gain must meet. Last comes the regression verdict against the
# metric's `bound` in BENCHMARK.json: `ok` when every change run beats
# every parent run; else `unresolved` when the parent's IQR exceeds the
# bound times its median (the spread is too wide to tell); else `WORSE`
# when the change's median is worse than the parent's by more than the
# bound, and `ok` when it is not. The failed share (summed failed over
# summed attempted operations) gets its own verdict: `WORSE` when the
# change's is above the parent's, else `ok`. Needs jq.
#
# Building rewrites each checkout's benchmark/Cargo.lock; the script puts
# the committed file back (`git checkout`) after the builds and on exit, and
# says so on stderr.
#
# Both checkouts are run with the *change* checkout's BENCHMARK.json (a
# change that claims a gain may not edit it, so the two agree). Result lines
# are kept under $BENCH_PAIRS_OUT (default: a fresh temp dir).
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-7}
contract="$change/BENCHMARK.json"
out=${BENCH_PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"

mapfile -t cmd < <(jq -r '.command[]' "$contract")
seconds=$(jq -r '.run_seconds' "$contract")
jq -e --arg w "$workload" '.workloads | any(.name == $w)' "$contract" >/dev/null || {
    echo "unknown workload '$workload'; BENCHMARK.json has:" \
        "$(jq -r '[.workloads[].name] | join(" ")' "$contract")" >&2
    exit 2
}

# `cargo run … --` with `run` swapped for `build` and the trailing `--`
# dropped: the same profile and flags, so the timed `cargo run`s find
# everything fresh.
build=()
for word in "${cmd[@]}"; do
    case "$word" in
    run) build+=(build) ;;
    --) ;;
    *) build+=("$word") ;;
    esac
done
# Cargo re-resolves benchmark/Cargo.lock on every build or run, and the
# checked-in lock still lists dependencies `wcc-sketch` no longer has, so
# each invocation rewrites it. Put the committed file back in every checkout
# that is a git work tree, after the builds and again on exit, so a
# comparison leaves both trees as it found them.
restore_locks() {
    for dir in "$parent" "$change"; do
        if git -C "$dir" ls-files --error-unmatch benchmark/Cargo.lock >/dev/null 2>&1 &&
            ! git -C "$dir" diff --quiet -- benchmark/Cargo.lock; then
            git -C "$dir" checkout -- benchmark/Cargo.lock
            echo "note: restored $dir/benchmark/Cargo.lock, which cargo rewrote" >&2
        fi
    done
}
trap restore_locks EXIT
for dir in "$parent" "$change"; do
    echo "building $dir" >&2
    (cd "$dir" && "${build[@]}")
done
restore_locks

run_one() { # <dir> <side> <pair index>
    (cd "$1" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) 2>"$out/$2_$3.err" | tail -n 1 >"$out/$2_$3.json"
    jq -e '.metrics' "$out/$2_$3.json" >/dev/null || {
        echo "$2 run $3 printed no result line; stderr in $out/$2_$3.err" >&2
        exit 1
    }
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_one "$parent" parent "$i"
        run_one "$change" change "$i"
    else
        run_one "$change" change "$i"
        run_one "$parent" parent "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

echo "workload $workload, seed $seed, $pairs pairs of ${seconds} s runs (odd pairs parent first, even pairs change first)"
echo "parent: $parent"
echo "change: $change"
echo "nproc: $(nproc)"
echo
# The repetition count comes from the workload's "N timed repetitions"
# stderr line: a metric that grows with the repetitions kept (peak_rss_mb
# on stream_churn) can only be read next to it.
echo "failed / attempted [timed repetitions, - where the workload prints none] per run:"
for side in parent change; do
    printf '  %-7s' "$side"
    for i in $(seq 1 "$pairs"); do
        reps=$(sed -nE 's/^ *([0-9]+) timed repetitions.*/\1/p' "$out/${side}_$i.err" | tail -n 1)
        printf ' %s [%s]' "$(jq -r '"\(.failed)/\(.attempted)"' "$out/${side}_$i.json")" "${reps:--}"
    done
    echo
done
# A larger share of failed operations rejects a change on its own, whatever
# the metrics say: sum each side's runs and compare the shares.
shares=()
for side in parent change; do
    files=()
    for i in $(seq 1 "$pairs"); do files+=("$out/${side}_$i.json"); done
    shares+=("$(jq -rs '"\(map(.failed) | add) \(map(.attempted) | add)"' "${files[@]}")")
done
awk -v P="${shares[0]}" -v C="${shares[1]}" 'BEGIN {
    split(P, p, " "); split(C, c, " ")
    ps = p[2] > 0 ? p[1] / p[2] : 0; cs = c[2] > 0 ? c[1] / c[2] : 0
    printf "failed share: parent %d/%d (%.4g), change %d/%d (%.4g)   verdict: %s\n",
        p[1], p[2], ps, c[1], c[2], cs, (cs > ps ? "WORSE" : "ok")
}'
echo
jq -r '.end_to_end[] | "\(.name) \(.unit) \(.better) \(.bound)"' "$contract" |
    while read -r name unit better bound; do
        p=() c=()
        for i in $(seq 1 "$pairs"); do
            p+=("$(jq -r --arg m "$name" '.metrics[$m].value' "$out/parent_$i.json")")
            c+=("$(jq -r --arg m "$name" '.metrics[$m].value' "$out/change_$i.json")")
        done
        echo "$name [$unit, $better is better]"
        echo "  parent runs: ${p[*]}"
        echo "  change runs: ${c[*]}"
        awk -v better="$better" -v bound="$bound" -v P="${p[*]}" -v C="${c[*]}" '
            function quantile(sorted, n, q,    pos, lo, frac) {
                pos = q * (n - 1) + 1; lo = int(pos); frac = pos - lo
                return lo >= n ? sorted[n] : sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
            }
            function sort(a, n,    i, j, t) {
                for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
            }
            BEGIN {
                n = split(P, p, " "); split(C, c, " ")
                for (i = 1; i <= n; i++) {
                    if (c[i] + 0 == p[i] + 0) ties++
                    else if ((better == "lower") == (c[i] + 0 < p[i] + 0)) wins++
                    ps[i] = p[i] + 0; cs[i] = c[i] + 0
                }
                sort(ps, n); sort(cs, n)
                pq1 = quantile(ps, n, 0.25); pmed = quantile(ps, n, 0.5); pq3 = quantile(ps, n, 0.75)
                cq1 = quantile(cs, n, 0.25); cmed = quantile(cs, n, 0.5); cq3 = quantile(cs, n, 0.75)
                gap = cmed - pmed; if (gap < 0) gap = -gap
                ratio = pmed != 0 ? sprintf("x%.3f", cmed / pmed) : "n/a"
                versus = gap > pq3 - pq1 ? ">" : "<="
                printf "  parent q1 %.6g  median %.6g  q3 %.6g\n", pq1, pmed, pq3
                printf "  change q1 %.6g  median %.6g  q3 %.6g\n", cq1, cmed, cq3
                printf "  change/parent median %s   change better in %d of %d pairs (%d ties)   |median gap| %s parent IQR\n", ratio, wins, n, ties, versus
                # A spread wider than the bound cannot tell a regression
                # (worse by more than the bound) from noise, unless the
                # worst change run beats the best parent run.
                lower = better == "lower"
                dominates = lower ? cs[n] < ps[1] : cs[1] > ps[n]
                worse = lower ? cmed > pmed * (1 + bound) : cmed < pmed * (1 - bound)
                spread = pmed != 0 ? (pq3 - pq1) / (pmed < 0 ? -pmed : pmed) : (pq3 > pq1 ? 1e308 : 0)
                verdict = dominates ? "ok" : spread > bound ? "unresolved" : worse ? "WORSE" : "ok"
                printf "  regression verdict: %s   (bound %g, parent IQR/median %.3g)\n", verdict, bound, spread
            }'
    done
echo
echo "result lines: $out"
