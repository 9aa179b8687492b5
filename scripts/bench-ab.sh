#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark declared in BENCHMARK.json.
#
# Builds fleetbench twice, from a clean `git archive` of each ref's
# committed files into its own source and target directory, then runs the
# BENCHMARK.json command PAIRS times per side and workload, alternating
# which side goes first in each pair. The run length is BENCHMARK.json's
# run_seconds on both sides. For every end-to-end metric it prints each
# side's median and quartiles, the change in the median, how many pairs
# the head side won (ties count for neither) and whether the medians
# differ by more than the base side's interquartile range. The verdict
# also says when the change in the median passes the metric's "bound"
# from BENCHMARK.json (a relative change, either way): a head that is
# worse past its bound fails the benchmark check. It also reports
# whether both sides printed the same fingerprint and summary digest,
# which a host-only change must leave alone.
#
# usage: scripts/bench-ab.sh BASE_REF [HEAD_REF [PAIRS [SEED [WORKLOAD...]]]]
#
# HEAD_REF defaults to HEAD, PAIRS to 10, SEED to 1 and the workloads to
# every workload in BENCHMARK.json. Sources, builds, logs and raw results
# go to target/bench-ab/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench-ab.sh BASE_REF [HEAD_REF [PAIRS [SEED [WORKLOAD...]]]]"
base_ref=${1:?$usage}
head_ref=${2:-HEAD}
pairs=${3:-10}
seed=${4:-1}
shift $(($# < 4 ? $# : 4))
run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
if [ $# -gt 0 ]; then
    workloads="$*"
else
    workloads=$(grep -o '"name": *"[a-z_]*", *"why"' BENCHMARK.json |
        sed 's/"name": *"\([a-z_]*\)".*/\1/')
fi
# The command array, e.g. cargo run --release ... --manifest-path fleetbench/Cargo.toml --
read -r -a command <<<"$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')"
# End-to-end metrics are the entries that carry a bound: "name better bound".
metrics=$(grep '"bound"' BENCHMARK.json |
    sed 's/.*"name": *"\([a-z_0-9]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/')

out=target/bench-ab
mkdir -p "$out"
out=$(cd "$out" && pwd)
results="$out/results.tsv"
: >"$results"

prepare() { # side ref
    local src="$out/src-$1"
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$2" | tar -x -C "$src"
    echo "building $1 ($2 = $(git rev-parse --short "$2"))" >&2
    (cd "$src" && CARGO_TARGET_DIR="$out/build-$1" "${command[0]}" build --release --offline \
        --quiet --manifest-path fleetbench/Cargo.toml)
}

run() { # side workload pair
    local log="$out/run-$2-$3-$1.log"
    # fleetbench exits non-zero on an incorrect run; report it and keep
    # its metrics rather than abandoning the whole A/B.
    if ! (cd "$out/src-$1" && CARGO_TARGET_DIR="$out/build-$1" "${command[@]}" \
        --workload "$2" --seed "$seed" --seconds "$run_seconds" --trace 0) >"$log"; then
        echo "run $1 $2 pair $3 failed; see $log" >&2
    fi
    local json ids
    json=$(tail -n 1 "$log")
    ids=$(grep -o 'fingerprint=[0-9a-f]* summary_digest=[0-9a-f]*' "$log" | head -n 1 || true)
    printf '%s\t%s\t%s\tids\t%s\n' "$2" "$3" "$1" "$ids" >>"$results"
    while read -r name _; do
        local value
        value=$(grep -o "\"$name\": {\"value\": [-0-9.e+]*" <<<"$json" | sed 's/.*: //')
        printf '%s\t%s\t%s\t%s\t%s\n' "$2" "$3" "$1" "$name" "$value" >>"$results"
    done <<<"$metrics"
}

prepare base "$base_ref"
prepare head "$head_ref"
for w in $workloads; do
    for p in $(seq 1 "$pairs"); do
        echo "workload $w pair $p/$pairs" >&2
        if [ $((p % 2)) -eq 1 ]; then
            run base "$w" "$p"
            run head "$w" "$p"
        else
            run head "$w" "$p"
            run base "$w" "$p"
        fi
    done
done

echo "A/B: base $base_ref vs head $head_ref, seed $seed, $run_seconds s per run, $pairs pairs"
METRICS=$metrics awk -F'\t' '
function sortn(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Quantile by linear interpolation between order statistics.
function q(a, n, p,   h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
BEGIN {
    nm = split(ENVIRON["METRICS"], m, "\n")
    for (i = 1; i <= nm; i++) {
        split(m[i], f, " "); name[i] = f[1]; better[f[1]] = f[2]; bound[f[1]] = f[3]
    }
}
$4 == "ids" { ids[$1, $3] = ids[$1, $3] == "" || ids[$1, $3] == $5 ? $5 : "MIXED"; next }
{
    v[$1, $4, $3, $2] = $5
    if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
    if ($2 > np) np = $2
}
END {
    for (k = 1; k <= nw; k++) {
        w = order[k]
        same = ids[w, "base"] == ids[w, "head"] && ids[w, "base"] != "MIXED"
        printf "\n%s  (%s; %s)\n", w, same ? "same fingerprint and summary digest" : "FINGERPRINT OR DIGEST DIFFERS", ids[w, "head"]
        printf "  metric, base median [q1, q3], head median [q1, q3], change in median, head wins, verdict\n"
        for (i = 1; i <= nm; i++) {
            x = name[i]; nb = nh = wins = 0
            for (p = 1; p <= np; p++) {
                if ((w, x, "base", p) in v && v[w, x, "base", p] != "") b[++nb] = v[w, x, "base", p] + 0
                if ((w, x, "head", p) in v && v[w, x, "head", p] != "") h[++nh] = v[w, x, "head", p] + 0
                if (nb == p && nh == p) {
                    d = h[p] - b[p]
                    if ((better[x] == "higher" && d > 0) || (better[x] == "lower" && d < 0)) wins++
                }
            }
            if (nb == 0 || nh == 0) continue
            sortn(b, nb); sortn(h, nh)
            mb = q(b, nb, 0.5); mh = q(h, nh, 0.5); iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
            change = mb != 0 ? (mh - mb) / mb * 100 : 0
            diff = mh - mb; if (diff < 0) diff = -diff
            verdict = diff == 0 ? "identical" : diff > iqr ? \
                (((better[x] == "higher") == (mh > mb)) ? "better, beyond base IQR" : "worse, beyond base IQR") : "within base IQR"
            # The merge rule: a relative change in the median past the bound.
            if (mb != 0 ? diff / (mb < 0 ? -mb : mb) > bound[x] : diff > 0)
                verdict = verdict sprintf("; %s past its %g%% bound", \
                    ((better[x] == "higher") == (mh > mb)) ? "better" : "WORSE", bound[x] * 100)
            printf "  %-16s %11.6g [%.6g, %.6g]  %11.6g [%.6g, %.6g] %+8.2f%% %3d/%-2d %s\n", \
                x, mb, q(b, nb, 0.25), q(b, nb, 0.75), mh, q(h, nh, 0.25), q(h, nh, 0.75), change, wins, np, verdict
            delete b; delete h
        }
    }
}' "$results"
echo
echo "raw results: $results"
