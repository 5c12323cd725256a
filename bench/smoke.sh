#!/usr/bin/env bash
# Every workload for one second each, traced, with one set-up: asserts
# that every metric a workload should report is present, that no
# operation failed, and that the traffic checks hold. Under 60 s; meant
# for CI.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path bench/Cargo.toml -- run --smoke "$@"
