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
# `cargo fmt --check`, a warnings-as-errors `cargo doc --no-deps` (so the
# public API stays documented — see OBSERVABILITY.md and the crate-level
# rustdoc of wootz-obs), and the benchmark package's own tests.
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

echo "== docs: cargo doc --no-deps (warnings are errors, every crates/* member) =="
# The package list is read from the `crates/*` workspace members, so a new
# crate is held to the gate the day it lands. (The vendored stand-ins are
# workspace members too, but their docs are not this project's API.)
packages=$(for manifest in crates/*/Cargo.toml; do
    sed -n '/^\[package\]/,/^\[/ s/^name *= *"\([^"]*\)".*/-p \1/p' "$manifest"
done)
# shellcheck disable=SC2086 # one word per `-p <package>`
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q $packages

echo "== benchmark package: unit tests + the --smoke integration test =="
# The repository benchmark (BENCHMARK.json) is a standalone package that
# compiles against the public API of every crate; running its tests here
# makes an API break against it fail this gate instead of the benchmark
# pipeline. (~1 min: the --smoke test runs all four workloads tiny.)
cargo test -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "verify.sh: all gates passed"
