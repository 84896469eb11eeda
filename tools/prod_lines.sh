#!/usr/bin/env bash
# Counts production lines of Rust source: for each `.rs` file under
# `crates/*/src` and `src/`, the non-blank lines that do not start with
# `//` (doc comments included), up to the file's first `#[cfg(test)]`.
# Prints one line per file, then one total per crate.
#
# Usage (from anywhere in the repository): bash tools/prod_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

for src in crates/*/src src; do
    if [ "$src" = src ]; then crate=mssp; else crate="mssp-$(basename "$(dirname "$src")")"; fi
    total=0
    while IFS= read -r file; do
        n=$(count "$file")
        printf '%6d  %s\n' "$n" "$file"
        total=$((total + n))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%6d  %s (total)\n' "$total" "$crate"
done
