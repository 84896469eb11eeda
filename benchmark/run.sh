#!/usr/bin/env bash
# The benchmark's single entry point, named by BENCHMARK.json:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh            # every workload, traced, one set
#   bash benchmark/run.sh --aa       # two sets, held to the bounds
#   bash benchmark/run.sh --smoke    # scales / 16, three cycles
#
# Builds the benchmark package (and, through its path dependency, the
# repository) from source, offline, then runs it from the repository
# root. A set CARGO_TARGET_DIR is honoured; otherwise the build goes to
# benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- "$@"
