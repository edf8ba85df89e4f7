#!/usr/bin/env sh
# Local verification gate: the tier-1 gate plus what it does not cover.
#
#   scripts/verify.sh
#
# Tier-1 (must stay green): release build + full workspace test suite. The
# end-to-end contracts (any runtime, thread count, explorer, store
# temperature, kill point or damaged journal lands on the same result) are
# part of it: crates/cluster/tests/contracts.rs drives the real binaries.
# Then: the release-mode wootz-par and kernel-oracle tests, a workspace-wide
# `cargo fmt --check`, a warnings-as-errors `cargo clippy --all-targets`
# and `cargo doc --no-deps` over the crates/* packages (so the public API
# stays documented — see OBSERVABILITY.md and the crate-level rustdoc of
# wootz-obs), and the benchmark package's own tests.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== release: cargo test --release -q -p wootz-par =="
# The pool's determinism tests under optimization: one closure must give the
# same bits inline and as a dispatched pool task.
cargo test --release -q -p wootz-par

echo "== release: kernel oracle at every kernel level =="
# The GEMM core against the scalar loops it replaced, bit for bit, at every
# micro-kernel level this CPU supports, as the optimizer compiles it.
cargo test --release -q -p wootz-tensor --test kernel_oracle

echo "== fmt: cargo fmt --check (whole workspace) =="
cargo fmt --check

# The lint and docs gates cover the `crates/*` workspace members, their
# package list read from the manifests, so a new crate is held to both
# the day it lands. (The vendored stand-ins are workspace members too,
# but they are not this project's code: the vendored proptest's own tests
# fail clippy, and their docs are not this project's API.)
packages=$(for manifest in crates/*/Cargo.toml; do
    sed -n '/^\[package\]/,/^\[/ s/^name *= *"\([^"]*\)".*/-p \1/p' "$manifest"
done)

echo "== lint: cargo clippy --all-targets (warnings are errors, every crates/* member) =="
# `--no-deps` lints the named packages only, not the vendored crates they
# depend on.
# shellcheck disable=SC2086 # one word per `-p <package>`
cargo clippy -q --all-targets --no-deps $packages -- -D warnings

echo "== docs: cargo doc --no-deps (warnings are errors, every crates/* member) =="
# shellcheck disable=SC2086 # one word per `-p <package>`
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q $packages

echo "== benchmark package: unit tests + the --smoke integration test =="
# The repository benchmark (BENCHMARK.json) is a standalone package that
# compiles against the public API of every crate; running its tests here
# makes an API break against it fail this gate instead of the benchmark
# pipeline. (~1 min: the --smoke test runs all four workloads tiny.)
# Cargo rewrites the package's Cargo.lock when it is stale; the lock is put
# back afterwards so the gate leaves the checkout as it found it (committing
# a refreshed lock is a benchmark change of its own).
lock=crates/bench/src/bin/benchmark/Cargo.lock
saved=$(mktemp)
cp "$lock" "$saved"
status=0
cargo test -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml || status=$?
cmp -s "$saved" "$lock" || cp "$saved" "$lock"
rm -f "$saved"
[ "$status" -eq 0 ] || exit "$status"

echo "verify.sh: all gates passed"
