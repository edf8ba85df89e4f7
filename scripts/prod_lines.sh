#!/usr/bin/env sh
# Production and test line counts of the Rust sources, at a revision and in
# the working tree, so "net lines removed" is a number anyone can reproduce.
#
#   scripts/prod_lines.sh [<rev>]      # <rev> defaults to HEAD
#
# Production lines are the `*.rs` files under `crates/*/src`, each cut at
# its first `#[cfg(test)]` line that is followed by a `mod` line: from there
# on the file counts as test lines. Test lines are those cut-off tails plus
# every `*.rs` file under `crates/*/tests` and `tests/`. The benchmark
# package (`crates/bench/src/bin/benchmark`, a standalone package with its
# own manifest) is counted in neither. Every physical line counts, blank
# lines and comments included. After the totals, every crate whose
# production count changed is listed with its own delta, so a change shows
# where its net lines went.
set -eu

cd "$(dirname "$0")/.."

rev=${1:-HEAD}
sha=$(git rev-parse --short --verify "$rev^{commit}")

# Prints "<crate> <production lines> <cut-off test lines>" for every crate
# of the source tree rooted at $1.
per_crate() {
    find "$1"/crates/*/src -name '*.rs' -not -path '*/src/bin/benchmark/*' |
        sort | xargs awk '
            FNR == 1 {
                cut = 0; prev = ""
                n = split(FILENAME, part, "/")
                for (i = 1; i < n; i++) if (part[i] == "crates") crate = part[i + 1]
            }
            !cut && prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ &&
                /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ {
                cut = 1; prod[crate]--; tail++
            }
            { if (cut) tail++; else prod[crate]++; prev = $0 }
            END {
                for (c in prod) printf "%s %d\n", c, prod[c]
                printf "~tail %d\n", tail
            }' | sort
}

# Prints "<production> <test>" from per_crate's lines ($2) and the tree ($1).
count() {
    prod=$(printf '%s\n' "$2" | awk '$1 != "~tail" { n += $2 } END { print n + 0 }')
    tail=$(printf '%s\n' "$2" | awk '$1 == "~tail" { print $2 }')
    files=$(find "$1"/crates/*/tests "$1"/tests -name '*.rs' 2>/dev/null | sort)
    tests=0
    if [ -n "$files" ]; then
        tests=$(printf '%s\n' "$files" | xargs cat | wc -l)
    fi
    echo "$prod $((tail + tests))"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# shellcheck disable=SC2046 # `tests` is one word, or nothing at all
git archive "$rev" crates $(git ls-tree --name-only "$rev" tests) | tar -x -C "$tmp"

rev_crates=$(per_crate "$tmp")
wt_crates=$(per_crate .)
set -- $(count "$tmp" "$rev_crates")
rev_prod=$1
rev_test=$2
set -- $(count . "$wt_crates")
wt_prod=$1
wt_test=$2

printf '%-22s %11s %11s\n' "" production test
printf '%-22s %11d %11d\n' "$rev ($sha)" "$rev_prod" "$rev_test"
printf '%-22s %11d %11d\n' "working tree" "$wt_prod" "$wt_test"
printf '%-22s %+11d %+11d\n' "change" $((wt_prod - rev_prod)) $((wt_test - rev_test))

# Crates present on either side, with the production lines that changed.
printf '%s\n%s\n' "$rev_crates" "$wt_crates" | awk -v nrev="$(printf '%s\n' "$rev_crates" | wc -l)" '
    $1 == "~tail" { next }
    NR <= nrev { before[$1] = $2; seen[$1] = 1; next }
    { after[$1] = $2; seen[$1] = 1 }
    END {
        for (c in seen) if (after[c] != before[c])
            printf "  crates/%-13s %11d -> %d (%+d)\n", c, before[c], after[c], after[c] - before[c]
    }' | sort
