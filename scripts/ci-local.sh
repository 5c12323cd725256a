#!/usr/bin/env bash
# Runs locally, in .github/workflows/ci.yml order, every step of the CI
# jobs `fmt + clippy`, `qsdnn-lint`, `build + test`, `kernels (release)`
# and `qsbench smoke` (none of them needs the network), and stops at the
# first failing step. Each command is the job's own, unchanged. Not run
# here: the jobs that start a CLI server on fixed ports (`non-default
# platform e2e`, `metrics exposition smoke`, `flight recorder smoke`).
# tests/ci_local.rs holds the step names, order, commands and environments
# here to those in ci.yml.
#
# Usage: scripts/ci-local.sh
# A full run builds the workspace in debug and release and the separate
# bench/ workspace in release; allow 20-35 min on two cores. The REPRODUCTION.json step rewrites that file in the working
# tree, as CI does in its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    local name=$1
    shift
    echo "==> ${name}"
    if ! "$@"; then
        echo "ci-local: FAILED at '${name}'" >&2
        exit 1
    fi
}

reproduction_is_current() {
    cargo run --release -q -p qsdnn-cli -- reproduce > REPRODUCTION.json
    git diff --exit-code REPRODUCTION.json
}

# fmt + clippy
step "rustfmt" cargo fmt --check
step "clippy" cargo clippy --workspace --all-targets -- -D warnings
step "clippy (library crates, tightened)" \
    cargo clippy -p qsdnn -p qsdnn-engine -p qsdnn-gemm -p qsdnn-lint \
    -p qsdnn-nn -p qsdnn-obs -p qsdnn-pbqp -p qsdnn-primitives \
    -p qsdnn-serve -p qsdnn-tensor --lib -- \
    -W clippy::dbg_macro -W clippy::todo -W clippy::print_stderr \
    -D warnings

# qsdnn-lint
step "static analysis (zero findings)" cargo run -p qsdnn-lint --release

# build + test
step "build (release)" cargo build --release
step "test" cargo test -q
step "test serve (release)" cargo test -p qsdnn-serve --release -q
step "c1k smoke (release, poll)" \
    cargo test -p qsdnn-serve --release --test c1k_e2e -q -- --ignored
step "REPRODUCTION.json is current" reproduction_is_current
step "metrics e2e (release)" cargo test -p qsdnn-serve --release --test metrics_e2e -q
step "docs" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# kernels (release)
step "test tensor, primitives and engine (release)" \
    cargo test --release -q -p qsdnn-tensor -p qsdnn-primitives -p qsdnn-engine

# qsbench smoke
step "every workload for one second, traced and verified" bench/smoke.sh

echo "ci-local: all steps passed"
