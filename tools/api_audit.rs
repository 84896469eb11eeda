//! API audit: every `pub fn` of a library crate must have a caller
//! outside that crate's library sources.
//!
//! A public function nothing outside its crate names is surface with no
//! user: every later refactor has to keep it working, and every reader has
//! to learn it, for nobody. This test collects each `pub fn` declared in
//! the library sources (`src/`, without `src/bin/`) of every workspace
//! crate and of the facade, and fails on any whose name appears in no
//! `.rs` file outside those sources: no other crate, no binary (the
//! crate's own `src/bin/` included), test, example, tool, or the
//! benchmark package's `benchmark/src`.
//!
//! The match is by name, so a common name called on some other type still
//! passes; the compiler's `dead_code` lint covers that side once such a
//! function is crate-private. There is no allowlist: a function only its
//! own crate calls is `pub(crate)`, or private.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories, relative to the workspace root, whose `.rs` files can hold
/// a caller.
const CALLER_ROOTS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "tools",
    "benchmark/src",
];

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `src/` directory of every library: each workspace crate with a
/// `src/lib.rs`, and the facade at the root.
fn library_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("api_audit: cannot list crates/")
        .flatten()
        .map(|e| e.path().join("src"))
        .filter(|src| src.join("lib.rs").is_file())
        .collect();
    crates.sort();
    dirs.extend(crates);
    dirs
}

/// Whether `file` is part of the library whose sources live in `src`.
fn in_library(file: &Path, src: &Path) -> bool {
    file.starts_with(src) && !file.starts_with(src.join("bin"))
}

/// The function name a `pub fn` line declares, if `line` is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Every identifier-shaped token of `text`.
fn identifiers(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect()
}

#[test]
fn every_library_pub_fn_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this = root.join(file!());
    let mut files = Vec::new();
    for dir in CALLER_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names no function it audits, so it is not a caller.
    files.retain(|f| *f != this);
    let texts: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let text = fs::read_to_string(&f)
                .unwrap_or_else(|e| panic!("api_audit: cannot read {}: {e}", f.display()));
            (f, text)
        })
        .collect();
    let names: Vec<HashSet<&str>> = texts.iter().map(|(_, t)| identifiers(t)).collect();

    let mut audited = 0usize;
    let mut violations = String::new();
    for src in library_dirs(root) {
        let called_outside = |name: &str| {
            texts
                .iter()
                .zip(&names)
                .any(|((f, _), idents)| !in_library(f, &src) && idents.contains(name))
        };
        for (file, text) in texts.iter().filter(|(f, _)| in_library(f, &src)) {
            for (idx, line) in text.lines().enumerate() {
                let Some(name) = pub_fn_name(line) else {
                    continue;
                };
                audited += 1;
                if !called_outside(name) {
                    let rel = file.strip_prefix(root).unwrap_or(file);
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
        "`pub fn`s whose name no file outside their crate's library sources \
         mentions:\n{violations}\
         Make each `pub(crate)` (or private), or delete it if nothing calls it."
    );
    // The walk must be seeing the libraries; a moved layout should fail
    // loudly rather than pass on nothing.
    assert!(audited > 100, "api_audit: only {audited} `pub fn`s found");
}
