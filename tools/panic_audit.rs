//! Panic audit: every `unwrap()`, `expect(`, `panic!(` and `unreachable!(`
//! in the library code of the crates an MSSP run executes must say why it
//! cannot fire.
//!
//! The paper's guarantee is that only verify/commit matters for
//! correctness, so no master, however wrong, and no input a caller can
//! build may panic the library. A panic site is either a documented
//! contract (`# Panics` on a constructor) or an invariant the code upholds
//! elsewhere, and in both cases a reader should not have to rediscover
//! which. This test walks the audited sources and fails on any code line
//! that calls one of the four without a `// why:` comment: on the same
//! line, or anywhere in the contiguous comment block directly above it.
//! Test modules (from a `#[cfg(test)]` that opens a `mod`) are skipped.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Source directories, relative to the workspace root, whose non-test
/// code is audited. Each must hold at least one `.rs` file.
const AUDITED: &[&str] = &[
    "crates/isa/src",
    "crates/machine/src",
    "crates/distill/src",
    "crates/core/src",
    "crates/analysis/src",
    "crates/sim/src",
    "crates/timing/src",
    "crates/lint/src",
    "crates/stats/src",
    "crates/workloads/src",
];

/// The calls that panic on a broken assumption.
const PANICS: &[&str] = &["unwrap()", "expect(", "panic!(", "unreachable!("];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True when the code portion of `line` (text left of any `//`) calls one
/// of [`PANICS`] as a whole word: `unwrap_or(` and `should_panic` do not
/// count, and neither do mentions in comments or docs.
fn code_panics(line: &str) -> bool {
    let code = match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    };
    PANICS.iter().any(|call| {
        code.match_indices(call).any(|(at, _)| {
            !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })
}

fn has_why(line: &str) -> bool {
    line.contains("// why:")
}

/// True when the contiguous run of comment-only lines directly above
/// `idx` contains a `// why:` marker.
fn block_above_has_why(lines: &[&str], idx: usize) -> bool {
    lines[..idx]
        .iter()
        .rev()
        .take_while(|prev| prev.trim_start().starts_with("//"))
        .any(|prev| has_why(prev))
}

/// The number of lines before `lines`' test module: the first
/// `#[cfg(test)]` whose next non-blank line opens a `mod`.
fn production_len(lines: &[&str]) -> usize {
    (0..lines.len())
        .find(|&i| {
            lines[i].trim() == "#[cfg(test)]"
                && lines[i + 1..]
                    .iter()
                    .find(|l| !l.trim().is_empty())
                    .is_some_and(|l| l.trim_start().starts_with("mod "))
        })
        .unwrap_or(lines.len())
}

#[test]
fn every_library_panic_has_a_why_comment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = String::new();
    let mut sites = 0usize;
    for dir in AUDITED {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        assert!(
            !files.is_empty(),
            "panic_audit: {dir} holds no .rs file; the list in tools/panic_audit.rs is stale"
        );
        files.sort();
        for path in files {
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("panic_audit: cannot read {}: {e}", path.display()));
            let lines: Vec<&str> = text.lines().collect();
            for (idx, line) in lines[..production_len(&lines)].iter().enumerate() {
                if !code_panics(line) {
                    continue;
                }
                sites += 1;
                if !(has_why(line) || block_above_has_why(&lines, idx)) {
                    let rel = path.strip_prefix(root).unwrap_or(&path);
                    writeln!(
                        violations,
                        "  {}:{}: {}",
                        rel.display(),
                        idx + 1,
                        line.trim()
                    )
                    .unwrap();
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "unwrap()/expect(/panic!(/unreachable!( without an adjacent `// why:` comment \
         (same line or in the comment block above):\n{violations}\
         Say in one line why the call cannot fire (the invariant that holds, \
         or the documented `# Panics` contract), or remove it."
    );
    // Matching nothing at all would mean the patterns or the test-module
    // cut broke, not that the code is clean of panics.
    assert!(sites > 0, "panic_audit: no panic site found at all");
}

#[test]
fn the_matcher_sees_calls_not_names() {
    assert!(code_panics("let x = y.unwrap();"));
    assert!(code_panics("    .expect(\"reason\");"));
    assert!(code_panics("std::panic!(\"boom\")"));
    assert!(code_panics("_ => unreachable!(\"no\"),"));
    assert!(!code_panics("let x = y.unwrap_or(0);"));
    assert!(!code_panics("self.expect_token(\"(\")?;"));
    assert!(!code_panics("#[should_panic(expected = \"x\")]"));
    assert!(!code_panics("/// let x = y.unwrap();"));
    assert!(!code_panics("foo(); // falls back to unwrap()"));
}
