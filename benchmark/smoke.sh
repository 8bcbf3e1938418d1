#!/usr/bin/env bash
# Smoke test of the benchmark: builds it, checks that the committed
# BENCHMARK.json is what the harness's tables generate, then runs all four
# workloads — traced and untraced — at tiny scale through the same code
# paths as a full run (`--smoke`, a few seconds in all). Extra arguments go
# to the harness (e.g. `--seed 7`).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
diff <("${run[@]}" --print-contract) BENCHMARK.json
"${run[@]}" --smoke "$@"
