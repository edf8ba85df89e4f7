#!/usr/bin/env bash
# Compares two commits with the repository benchmark (BENCHMARK.json), by the
# protocol of crates/bench/src/bin/benchmark/README.md, "Comparing two
# commits", unattended:
#
#   1. exports the parent with `git archive` and the working tree (its
#      tracked and unignored files as they are on disk) with `tar`, and
#      builds each copy's benchmark into its own CARGO_TARGET_DIR, so a
#      build never touches the checkout;
#   2. runs N seeded pairs per workload, each run BENCHMARK.json's
#      run_seconds long, alternating which side runs first;
#   3. prints, for every end-to-end metric x workload, the parent -> change
#      medians, the pairs the change won and both sides' quartile spread
#      (IQR as a share of the median), with a verdict: "gain" (the change won
#      at least 9 in 10 of all pairs run, the medians are further apart than
#      the parent's IQR and no larger share of operations failed than at the
#      parent),
#      "unresolved" (the parent's own IQR exceeds the metric's bound and not
#      every change run beats every parent run), "regressed" (the change's
#      median is worse than the parent's by more than the bound) or "ok".
#      A pair where either run failed or reported correct=false counts as
#      lost and feeds no median or IQR;
#   4. makes one traced run (--trace 1) per side and workload and prints the
#      per-layer metrics side by side.
#
# usage: scripts/bench_pair.sh [--parent REV] [--pairs N] [--first-seed S]
#            [--workloads a,b] [--out DIR] [--no-trace]
#
#   --parent REV     baseline revision (default HEAD)
#   --pairs N        pairs per workload (default 10)
#   --first-seed S   seeds S .. S+N-1 (default 1)
#   --workloads L    comma-separated subset (default: every BENCHMARK.json workload)
#   --out DIR        builds, raw result lines and traces (default: a new temporary directory)
#   --no-trace       skip step 4
#
# The change is always the working tree; check a commit out to measure it.
# The benchmark files (BENCHMARK.json, crates/bench/src/bin/benchmark/) must
# be identical on both sides; the script refuses to compare otherwise. It
# needs git, tar, cargo and python3, and exits non-zero when a run failed.

set -euo pipefail

parent=HEAD pairs=10 first_seed=1 workloads="" out="" trace=1
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --first-seed) first_seed=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --no-trace) trace=0; shift ;;
        -h | --help) sed -n '2,/^$/s/^# \{0,1\}//p' "$0"; exit 0 ;;
        *) echo "bench_pair: unknown argument '$1' (see --help)" >&2; exit 2 ;;
    esac
done

root=$(git rev-parse --show-toplevel)
spec=$root/BENCHMARK.json
manifest=crates/bench/src/bin/benchmark/Cargo.toml
if ! git -C "$root" diff --quiet "$parent" -- BENCHMARK.json crates/bench/src/bin/benchmark; then
    echo "bench_pair: the benchmark files differ between $parent and the working tree" >&2
    exit 1
fi
field() { python3 -c "import json, sys; d = json.load(open(sys.argv[1])); print($1)" "$spec"; }
seconds=$(field 'd["run_seconds"]')
workloads=${workloads:-$(field '",".join(w["name"] for w in d["workloads"])')}
IFS=, read -r -a workload_list <<<"$workloads"
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")}
mkdir -p "$out/raw" "$out/run-parent" "$out/run-change"

# Cargo rewrites a stale Cargo.lock in the tree it builds, so neither side
# builds in the checkout: a rewritten lock there would make the next run
# refuse to compare.
rm -rf "$out/src-parent" "$out/src-change"
mkdir -p "$out/src-parent" "$out/src-change"
git -C "$root" archive "$parent" | tar -x -C "$out/src-parent"
(
    cd "$root"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do
            if [ -e "$f" ]; then printf '%s\0' "$f"; fi # deleted files are not copied
        done |
        tar --null -T - -c
) | tar -x -C "$out/src-change"
parent_label=$(git -C "$root" rev-parse --short "$parent")

for side in parent change; do
    src=$out/src-$side
    echo "bench_pair: building the $side side" >&2
    (cd "$src" && CARGO_TARGET_DIR="$out/target-$side" \
        cargo build --release --quiet --offline --manifest-path "$manifest")
done

failed_runs=0
run() { # <side> <workload> <seed> <trace>
    local stem=$out/raw/$2-$1-$3-trace$4
    local extra=()
    [ "$4" = 1 ] && extra=(--out "$out/trace-$1-$2")
    if ! (cd "$out/run-$1" && "$out/target-$1/release/benchmark" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace "$4" "${extra[@]}") >"$stem.txt" 2>"$stem.err"; then
        echo "bench_pair: $1 $2 seed $3 (trace $4) failed; see $stem.txt" >&2
        failed_runs=$((failed_runs + 1))
    fi
}

for w in "${workload_list[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        order=(parent change)
        ((i % 2 == 1)) && order=(change parent)
        for side in "${order[@]}"; do
            run "$side" "$w" "$seed" 0
        done
        echo "bench_pair: $w pair $((i + 1))/$pairs (seed $seed) done" >&2
    done
done
if [ "$trace" = 1 ]; then
    for w in "${workload_list[@]}"; do
        for side in parent change; do
            run "$side" "$w" "$first_seed" 1
        done
    done
fi

python3 - "$out" "$spec" "$workloads" "$pairs" "$first_seed" "$trace" "$parent_label" "working tree" <<'PY'
import json
import math
import sys

out, spec_path, workloads, pairs, first, traced, plabel, clabel = sys.argv[1:9]
spec = json.load(open(spec_path))
workloads, pairs, first = workloads.split(","), int(pairs), int(first)


def quantile(values, q):
    # Linear interpolation between order statistics, as the benchmark's stats.rs.
    s = sorted(values)
    rank = q * (len(s) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def result(side, workload, seed, trace):
    """The run's result line, or None when it is missing or not JSON."""
    try:
        with open(f"{out}/raw/{workload}-{side}-{seed}-trace{trace}.txt") as f:
            return json.loads(f.read().strip().splitlines()[-1])
    except (OSError, IndexError, ValueError):
        return None


def value(r, name):
    m = r and r.get("metrics", {}).get(name)
    return None if m is None else m["value"]


def valid(r):
    return r is not None and r.get("correct", False) is True


def pct(x):
    return f"{100 * x:+.1f} %"


print(f"\nparent {plabel} -> change {clabel}: {pairs} pairs per workload, "
      f"seeds {first}-{first + pairs - 1}, alternating order")
print("Δ is the change's improvement over the parent's median (positive = better); "
      "IQR is the distance between the quartiles as a share of the median.\n")
print("| workload | metric | parent | change | Δ | change wins | IQR parent / change | verdict |")
print("|---|---|---:|---:|---:|---:|---:|---|")
health = []
for w in workloads:
    runs = {s: [result(s, w, first + i, 0) for i in range(pairs)] for s in ("parent", "change")}
    fail_share = {}
    for side, rs in runs.items():
        bad = sum(1 for r in rs if not valid(r))
        attempted = sum(r.get("attempted", 0) for r in rs if r)
        failed = sum(r.get("failed", 0) for r in rs if r)
        fail_share[side] = failed / attempted if attempted else 0.0
        health.append(f"{w} {side}: {bad} of {pairs} runs failed or incorrect, "
                      f"{failed} of {attempted} operations failed")
    # A faster change attempts more operations, so failures compare as shares.
    more_failures = fail_share["change"] > fail_share["parent"]
    # Only pairs where both runs are valid feed the statistics; the others
    # count as pairs the change lost.
    valid_pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if valid(p) and valid(c)]
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        both = [(value(p, name), value(c, name)) for p, c in valid_pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            print(f"| {w} | {name} | – | – | – | – | – | no data |")
            continue
        ps, cs = [p for p, _ in both], [c for _, c in both]
        pm, cm = quantile(ps, 0.5), quantile(cs, 0.5)
        p_iqr = quantile(ps, 0.75) - quantile(ps, 0.25)
        c_iqr = quantile(cs, 0.75) - quantile(cs, 0.25)
        better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
        wins = sum(1 for p, c in both if better(c, p))
        gain = (pm - cm if lower else cm - pm) / pm if pm else 0.0
        dominated = all(better(c, p) for c in cs for p in ps)
        if (wins >= math.ceil(0.9 * pairs) and abs(cm - pm) > p_iqr and better(cm, pm)
                and not more_failures):
            verdict = "gain"
        elif pm and p_iqr / pm > bound and not dominated:
            verdict = "unresolved"
        elif -gain > bound:
            verdict = "regressed"
        else:
            verdict = "ok"
        spread = f"{100 * p_iqr / pm:.1f} / {100 * c_iqr / cm:.1f} %" if pm and cm else "–"
        print(f"| {w} | {name} ({m['unit']}) | {pm:.4g} | {cm:.4g} | {pct(gain)} | "
              f"{wins}/{pairs} | {spread} | {verdict} |")
print()
for line in health:
    print(line)

if traced == "1":
    print("\nPer-layer metrics, one traced run per side (seed "
          f"{first}); ratio = change / parent.\n")
    print("| workload | metric | parent | change | ratio |")
    print("|---|---|---:|---:|---:|")
    for w in workloads:
        p, c = result("parent", w, first, 1), result("change", w, first, 1)
        for m in spec["per_layer"]:
            pv, cv = value(p, m["name"]), value(c, m["name"])
            if pv is None and cv is None:
                continue
            ratio = f"{cv / pv:.3f}" if pv and cv is not None else "–"
            fmt = lambda v: "–" if v is None else f"{v:.6g}"
            print(f"| {w} | {m['name']} ({m['unit']}) | {fmt(pv)} | {fmt(cv)} | {ratio} |")
print(f"\nraw result lines and traces: {out}")
PY

if [ "$failed_runs" -gt 0 ]; then
    echo "bench_pair: $failed_runs run(s) failed" >&2
    exit 1
fi
