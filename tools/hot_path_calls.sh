#!/usr/bin/env bash
# Checks the hot-path rule (DESIGN.md §6) on an optimised build: the
# engine's bursts make no out-of-line call per simulated instruction.
#
# Lists the calls each copy of `Engine<C,O>::pass` makes in the benchmark
# binary, with nm, objdump and readelf: direct calls, and calls through
# the GOT, which is how a function another crate compiled out of line is
# called. It fails if
#   * the binary has no `Engine<C,O>::pass` symbol (then it lists the
#     calls of `Engine<C,O>::run_returning_cost`, which `pass` was inlined
#     into, and names the forbidden ones among them), or
#   * a `pass` calls one of the per-instruction functions out of line:
#     `CommitUnit::step_master`, `private_instr_cost`, `boundary_at_dist`,
#     `StepInfo::record_writes`, `SegmentRules::retire` or
#     `BoundarySet::contains` (which `mssp-distill` defines, so only its
#     `#[inline]` keeps it in the slave burst).
# Anything else may stay a call: per-task-event functions, the L2 path
# (`CmpCost::instr_cost`), `CommitUnit::recover` (once per recovery
# segment), `Storage::{load_bytes, store_bytes}`, a slave's masked word
# path (`TaskStorage::{load_word_masked, store_word_masked,
# read_cell_masked}`), panics and the store closure of `record_writes`.
#
# Usage (from anywhere in the repository, after building the benchmark,
# e.g. with `bash benchmark/run.sh --smoke`):
#   bash tools/hot_path_calls.sh [BINARY]
# BINARY defaults to benchmark/target/release/mssp-benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-benchmark/target/release/mssp-benchmark}
forbidden='CommitUnit.*::step_master|private_instr_cost|boundary_at_dist|record_writes'
forbidden+='|SegmentRules.*::retire|BoundarySet::contains'

# One "address size" line per copy of the function named by $1.
symbols() {
    nm -C -S --defined-only "$bin" | grep -F "Engine<C,O>::$1" | cut -d' ' -f1,2 || true
}

# One "slot <name>" line per GOT slot that holds the address of a
# function of the binary: a function another crate compiled out of line
# (not generic, not `#[inline]`) is called through its slot, not directly.
# Slots of libc functions hold no such address and are left out.
got_names() {
    awk '
        FNR == NR { addr = $1; sub(/^0+/, "", addr); $1 = $2 = ""; sub(/^ +/, "")
                    name[addr] = "<" $0 ">"; next }
        $3 == "R_X86_64_RELATIVE" { slot = $1; addr = $4
                                    sub(/^0+/, "", slot); sub(/^0+/, "", addr)
                                    if (addr in name) print slot, name[addr] }
    ' <(nm -C --defined-only "$bin") <(readelf -rW "$bin")
}
got=$(got_names)

# The calls the function at address $1, of size $2, makes, direct or
# through the GOT, with their counts.
calls_of() {
    objdump -d --no-show-raw-insn -C --start-address="0x$1" \
        --stop-address="$(printf 0x%x $((16#$1 + 16#$2)))" "$bin" |
        awk '
            FNR == NR { slot = $1; $1 = ""; sub(/^ /, ""); via[slot] = $0; next }
            /call +[0-9a-f]+ </ { sub(/.*call +[0-9a-f]+ /, ""); print; next }
            /call +\*0x[0-9a-f]+\(%rip\)/ { split($0, at, "# "); split(at[2], gs, " ")
                                             if (gs[1] in via) print via[gs[1]] }
        ' <(printf '%s\n' "$got") - |
        sort | uniq -c
}

# Lists the calls of each copy of `Engine<C,O>::$1` and names the
# forbidden ones; returns 1 if any copy makes one.
check() {
    local status=0 addr size calls bad
    while read -r addr size; do
        calls=$(calls_of "$addr" "$size")
        echo "Engine<C,O>::$1 at 0x$addr (0x$size bytes) calls:"
        echo "$calls"
        if bad=$(grep -v 'closure' <<<"$calls" | grep -E "$forbidden"); then
            echo "hot_path_calls: $1 at 0x$addr makes a per-instruction call out of line:" >&2
            echo "$bad" >&2
            status=1
        fi
    done <<<"$(symbols "$1")"
    return $status
}

if [ -z "$(symbols pass)" ]; then
    echo "hot_path_calls: no Engine<C,O>::pass symbol in $bin" >&2
    # The compiler inlined `pass` into its caller: name what that makes
    # out of line instead.
    if [ -n "$(symbols run_returning_cost)" ]; then
        check run_returning_cost || true
    fi
    exit 1
fi
check pass
