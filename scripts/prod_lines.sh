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
# lines and comments included.
set -eu

cd "$(dirname "$0")/.."

rev=${1:-HEAD}
sha=$(git rev-parse --short --verify "$rev^{commit}")

# Prints "<production> <test>" for the source tree rooted at $1.
count() {
    root=$1
    prod=$(find "$root"/crates/*/src -name '*.rs' -not -path '*/src/bin/benchmark/*' |
        sort | xargs awk '
            FNR == 1 { cut = 0; prev = "" }
            !cut && prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ &&
                /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ {
                cut = 1; prod--; tail++
            }
            { if (cut) tail++; else prod++; prev = $0 }
            END { printf "%d %d\n", prod, tail }')
    files=$(find "$root"/crates/*/tests "$root"/tests -name '*.rs' 2>/dev/null | sort)
    tests=0
    if [ -n "$files" ]; then
        tests=$(printf '%s\n' "$files" | xargs cat | wc -l)
    fi
    set -- $prod
    echo "$1 $(($2 + tests))"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# shellcheck disable=SC2046 # `tests` is one word, or nothing at all
git archive "$rev" crates $(git ls-tree --name-only "$rev" tests) | tar -x -C "$tmp"

set -- $(count "$tmp")
rev_prod=$1
rev_test=$2
set -- $(count .)
wt_prod=$1
wt_test=$2

printf '%-22s %11s %11s\n' "" production test
printf '%-22s %11d %11d\n' "$rev ($sha)" "$rev_prod" "$rev_test"
printf '%-22s %11d %11d\n' "working tree" "$wt_prod" "$wt_test"
printf '%-22s %+11d %+11d\n' "change" $((wt_prod - rev_prod)) $((wt_test - rev_test))
