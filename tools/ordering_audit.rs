//! Ordering audit: every `Ordering::` use on the transport hot path must
//! justify itself.
//!
//! The lock-free files (`ring.rs`, `threaded.rs`, and the arena) encode
//! their correctness argument in memory orderings, and an ordering
//! without a rationale is exactly the kind of line a later
//! refactor weakens "because the test still passed". This test walks the
//! audited files and fails if any code line mentioning `Ordering::` lacks
//! a `// why:` comment — on the same line, or anywhere in the contiguous
//! comment block immediately above it.
//!
//! The model checker (`crates/check`) proves the orderings are sufficient;
//! this audit keeps the human-readable argument attached to each one.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Files under the workspace root whose `Ordering::` uses are audited.
const AUDITED: &[&str] = &[
    "crates/core/src/ring.rs",
    "crates/core/src/threaded.rs",
    "crates/core/src/adaptive.rs",
    "crates/machine/src/arena.rs",
];

/// True when the code portion of `line` (text left of any `//`) uses an
/// `Ordering::` variant. Mentions inside comments or docs don't count.
fn code_uses_ordering(line: &str) -> bool {
    let code = match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    };
    code.contains("Ordering::")
}

fn has_why(line: &str) -> bool {
    line.contains("// why:")
}

/// True when the contiguous run of comment-only lines directly above
/// `idx` contains a `// why:` marker (multi-line justifications put the
/// marker at the top of the block).
fn block_above_has_why(lines: &[&str], idx: usize) -> bool {
    lines[..idx]
        .iter()
        .rev()
        .take_while(|prev| prev.trim_start().starts_with("//"))
        .any(|prev| has_why(prev))
}

#[test]
fn every_hot_path_ordering_has_a_why_comment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = String::new();
    let mut audited_uses = 0usize;

    for rel in AUDITED {
        let path = root.join(rel);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("ordering_audit: cannot read {}: {e}", path.display()));
        let lines: Vec<&str> = text.lines().collect();
        for (idx, line) in lines.iter().enumerate() {
            if !code_uses_ordering(line) {
                continue;
            }
            audited_uses += 1;
            let justified = has_why(line) || block_above_has_why(&lines, idx);
            if !justified {
                writeln!(violations, "  {}:{}: {}", rel, idx + 1, line.trim()).unwrap();
            }
        }
    }

    assert!(
        violations.is_empty(),
        "Ordering:: uses without an adjacent `// why:` justification \
         (same line or in the comment block above):\n{violations}\
         Every memory ordering on the audited hot path must state what \
         it synchronizes with; see DESIGN.md §6d for the model."
    );

    // The audit must be looking at real uses — if the hot path ever moves
    // and these files stop containing orderings, this test should be
    // re-pointed rather than silently passing on nothing.
    assert!(
        audited_uses >= 10,
        "ordering_audit: only {audited_uses} Ordering:: uses found across \
         audited files; the audit list in tools/ordering_audit.rs is stale"
    );
}
