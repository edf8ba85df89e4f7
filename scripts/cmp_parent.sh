#!/usr/bin/env bash
# Checks that the working tree prunes byte-identically to a parent revision:
# the same `wootz prune` runs on both sides must write equal `--out` results
# and equal journals, compared with `cmp`.
#
#   1. exports the parent with `git archive` and the working tree (its
#      tracked and unignored files as they are on disk) with `tar`, and
#      builds each copy's `wootz` into its own CARGO_TARGET_DIR, so a build
#      never touches the checkout;
#   2. writes one pruning problem — `wootz genmodel --classes 8`, six
#      sampled configurations of its four modules, a short solver, and two
#      objectives: `min ModelSize` under an accuracy bound (records accuracy
#      curves) and `max Accuracy` under a size bound (records none);
#   3. runs every explorer (fixed, taylor, bandit) x mode (baseline,
#      composability, hierarchical) x objective on both sides, once at
#      `--threads 1` and once at `--threads 2 --distributed 2`;
#   4. `cmp`s each run's `--out` and journal across the sides and prints one
#      line per difference. A journal that differs only in its first record
#      (the header) is reported as such: that is what a journal-identity
#      change looks like.
#
# usage: scripts/cmp_parent.sh [--parent REV] [--out DIR]
#
#   --parent REV   baseline revision (default HEAD)
#   --out DIR      builds, inputs and run outputs (default: a new temporary
#                  directory); reusing a DIR reuses its builds incrementally
#
# Exits 0 when every file is equal, 1 on any difference or failed run. It
# needs git, tar, cargo and od.

set -euo pipefail

parent=HEAD out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        -h | --help) sed -n '2,/^$/s/^# \{0,1\}//p' "$0"; exit 0 ;;
        *) echo "cmp_parent: unknown argument '$1' (see --help)" >&2; exit 2 ;;
    esac
done

root=$(git rev-parse --show-toplevel)
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/cmp_parent.XXXXXX")}
mkdir -p "$out"

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

for side in parent change; do
    echo "cmp_parent: building the $side side" >&2
    (cd "$out/src-$side" && CARGO_TARGET_DIR="$out/target-$side" \
        cargo build --release --quiet --offline -p wootz-cluster --bin wootz)
done

inputs=$out/inputs
rm -rf "$inputs"
mkdir -p "$inputs"
w=$out/target-change/release/wootz
"$w" genmodel --classes 8 --out "$inputs/model.prototxt" >/dev/null
"$w" sample --modules 4 --count 6 --seed 5 --out "$inputs/configs.json" >/dev/null
printf 'dataset: "flowers102"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\npretrain_iter: 8\neval_every: 10\nseed: 3\n' \
    >"$inputs/solver.prototxt"
printf 'min ModelSize\nconstraint Accuracy >= 0.1\n' >"$inputs/min_size.txt"
printf 'max Accuracy\nconstraint ModelSize <= 3100\n' >"$inputs/max_accuracy.txt"

# Length of a record file's first record: the 16-byte envelope plus the
# big-endian payload length at bytes 8..12 (PROTOCOL.md §2).
first_record_len() {
    local b
    read -r -a b <<<"$(od -An -tu1 -j8 -N4 "$1")"
    echo $((16 + (b[0] << 24) + (b[1] << 16) + (b[2] << 8) + b[3]))
}

differences=0 failed=0 runs=0
for objective in min_size max_accuracy; do
    for explorer in fixed taylor bandit; do
        for mode in baseline composability hierarchical; do
            for runtime in t1 d2; do
                name=$objective-$explorer-$mode-$runtime
                args=(--model model.prototxt --configs configs.json --solver solver.prototxt
                    --objective "$objective.txt" --mode "$mode" --explorer "$explorer")
                [ "$explorer" != fixed ] && args+=(--explorer-budget 8)
                case $runtime in
                    t1) args+=(--threads 1) ;;
                    d2) args+=(--threads 2 --distributed 2 --log-dir "logs-$name") ;;
                esac
                for side in parent change; do
                    dir=$out/run-$side
                    mkdir -p "$dir"
                    cp "$inputs"/* "$dir"/
                    rm -rf "$dir/$name".* "$dir/logs-$name"
                    if ! (cd "$dir" && "$out/target-$side/release/wootz" prune "${args[@]}" \
                        --journal "$name.journal" --out "$name.json") \
                        >"$dir/$name.stdout" 2>"$dir/$name.stderr"; then
                        echo "cmp_parent: $name failed on the $side side; see $dir/$name.stderr"
                        failed=$((failed + 1))
                    fi
                done
                runs=$((runs + 1))
                for file in "$name.json" "$name.journal"; do
                    a=$out/run-parent/$file b=$out/run-change/$file
                    [ -e "$a" ] && [ -e "$b" ] || continue
                    cmp -s "$a" "$b" && continue
                    differences=$((differences + 1))
                    what=""
                    if [ "${file##*.}" = journal ]; then
                        what=" (body)"
                        la=$(first_record_len "$a") lb=$(first_record_len "$b")
                        if cmp -s <(tail -c +$((la + 1)) "$a") <(tail -c +$((lb + 1)) "$b"); then
                            what=" (header record only)"
                        fi
                    fi
                    echo "cmp_parent: $file differs$what"
                done
            done
        done
    done
done

label=$(git -C "$root" rev-parse --short "$parent")
echo "cmp_parent: $runs runs per side against $label: $differences differences, $failed failed runs"
[ "$differences" = 0 ] && [ "$failed" = 0 ]
