#!/usr/bin/env bash
# Checks the hot-path rule (DESIGN.md §6) on an optimised build: the
# engine's bursts make no out-of-line call per simulated instruction.
#
# Lists the calls each copy of `Engine<C,O>::pass` makes in the benchmark
# binary, with nm and objdump, and fails if
#   * the binary has no `Engine<C,O>::pass` symbol, or
#   * a `pass` calls one of the per-instruction functions out of line:
#     `CommitUnit::step_master`, `private_instr_cost`, `boundary_at_dist`
#     or `StepInfo::record_writes`.
# Anything else may stay a call: per-task-event functions, the L2 path
# (`CmpCost::instr_cost`), `CommitUnit::recover` (once per recovery
# segment), `Storage::{load_bytes, store_bytes}` and the store closure of
# `record_writes`.
#
# Usage (from anywhere in the repository, after building the benchmark,
# e.g. with `bash benchmark/run.sh --smoke`):
#   bash tools/hot_path_calls.sh [BINARY]
# BINARY defaults to benchmark/target/release/mssp-benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-benchmark/target/release/mssp-benchmark}
forbidden='CommitUnit.*::step_master|private_instr_cost|boundary_at_dist|record_writes'

# One "address size" line per copy of `pass`, one copy per engine type.
syms=$(nm -C -S --defined-only "$bin" | grep 'Engine<C,O>::pass' | cut -d' ' -f1,2 || true)
if [ -z "$syms" ]; then
    echo "hot_path_calls: no Engine<C,O>::pass symbol in $bin" >&2
    exit 1
fi

status=0
while read -r addr size; do
    # Direct calls only: an indirect call through the GOT goes to libc.
    calls=$(objdump -d --no-show-raw-insn -C --start-address="0x$addr" \
        --stop-address="$(printf 0x%x $((16#$addr + 16#$size)))" "$bin" |
        grep -o 'call  *[0-9a-f]* <.*>' | sed 's/^call  *[0-9a-f]* //' |
        sort | uniq -c || true)
    echo "Engine<C,O>::pass at 0x$addr (0x$size bytes) calls:"
    echo "$calls"
    if bad=$(grep -v 'closure' <<<"$calls" | grep -E "$forbidden"); then
        echo "hot_path_calls: pass at 0x$addr makes a per-instruction call out of line:" >&2
        echo "$bad" >&2
        status=1
    fi
done <<<"$syms"
exit $status
