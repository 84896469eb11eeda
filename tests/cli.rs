//! End-to-end tests of the `mssp` command-line tool.

use std::process::Command;

fn mssp(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mssp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn workloads_lists_the_suite() {
    let (stdout, _, ok) = mssp(&["workloads"]);
    assert!(ok);
    for name in ["gzip_like", "eon_like", "twolf_like"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn run_reports_checksum() {
    let (stdout, _, ok) = mssp(&["run", "gap_like", "300"]);
    assert!(ok);
    assert!(stdout.contains("checksum(s1):"));
    assert!(stdout.contains("instructions:"));
}

#[test]
fn run_adaptive_reports_the_controller() {
    // The run profiles the very input it runs, so nothing diverges from
    // the training profile and nothing is recompiled.
    let (stdout, stderr, ok) = mssp(&["run", "gap_like", "300", "--adaptive"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains("  adaptive: 0 hot-swaps (0 tasks abandoned), 0 failures, 0 rejected"),
        "{stdout}"
    );
    assert!(stdout.contains("windows observed, 0 divergent"), "{stdout}");
}

#[test]
fn asm_accepts_a_source_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("mssp_cli_test.s");
    std::fs::write(&path, "main: addi a0, zero, 5\n halt\n").unwrap();
    let (stdout, _, ok) = mssp(&["asm", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("addi a0, zero, 5"));
}

#[test]
fn profile_shows_branch_summary() {
    let (stdout, _, ok) = mssp(&["profile", "mcf_like"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("weighted branch bias"));
    assert!(stdout.contains("hottest branches"));
}

#[test]
fn distill_prints_all_levels() {
    let (stdout, _, ok) = mssp(&["distill", "gap_like"]);
    assert!(ok);
    for level in ["none", "conservative", "aggressive"] {
        assert!(stdout.contains(level), "missing {level}");
    }
}

#[test]
fn distill_stats_prints_per_pass_deltas() {
    let (stdout, _, ok) = mssp(&["distill", "gap_like", "--stats"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("pass pipeline (aggressive):"), "{stdout}");
    for pass in ["const-fold", "copy-prop", "dce", "jump-thread"] {
        assert!(stdout.contains(pass), "missing {pass} delta: {stdout}");
    }
    assert!(stdout.contains("iterations"), "{stdout}");
}

#[test]
fn lint_is_clean_on_a_workload() {
    let (stdout, _, ok) = mssp(&["lint", "gzip_like"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("== gzip_like =="));
    assert!(stdout.contains("0 errors"));
}

#[test]
fn lint_all_emits_json_per_workload() {
    let (stdout, _, ok) = mssp(&["lint", "all", "--json"]);
    assert!(ok, "{stdout}");
    // One JSON object per bundled workload, all error-free.
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 10, "expected every workload, got {lines:?}");
    for line in lines {
        assert!(line.starts_with("{\"target\":\""), "{line}");
        assert!(line.contains("\"errors\":0"), "{line}");
    }
}

#[test]
fn lint_json_escapes_the_target_path() {
    let dir = std::env::temp_dir().join("mssp_cli_lint_escape");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("a\"b\\c.s");
    std::fs::write(&path, "main: addi a0, zero, 5\n halt\n").unwrap();
    let target = path.to_str().unwrap();
    let (stdout, stderr, ok) = mssp(&["lint", target, "--json"]);
    assert!(ok, "{stdout}{stderr}");
    let escaped = target.replace('\\', "\\\\").replace('"', "\\\"");
    assert!(
        stdout.starts_with(&format!("{{\"target\":\"{escaped}\",\"report\":{{")),
        "{stdout}"
    );
}

#[test]
fn profile_counts_the_instructions_run_retires() {
    let count = |args: &[&str], label: &str| {
        let (stdout, stderr, ok) = mssp(args);
        assert!(ok, "{stdout}{stderr}");
        let line = stdout.lines().find_map(|l| l.strip_prefix(label));
        line.unwrap_or_else(|| panic!("no `{label}` line: {stdout}"))
            .trim()
            .parse::<u64>()
            .unwrap()
    };
    let profiled = count(&["profile", "gap_like"], "dynamic instructions:");
    assert!(profiled > 0);
    assert_eq!(profiled, count(&["run", "gap_like"], "instructions:"));
}

#[test]
fn lint_rejects_unknown_target() {
    let (_, stderr, ok) = mssp(&["lint", "no_such_thing"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn unknown_target_fails_cleanly() {
    let (_, stderr, ok) = mssp(&["run", "no_such_thing"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn missing_subcommand_prints_usage() {
    let (_, stderr, ok) = mssp(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn bad_arguments_are_errors() {
    for args in [
        &["run", "gap_like", "abc"][..],
        &["exec", "gap_like", "1e3"],
        &["run", "gap_like", "--stat"],
        &["run", "gap_like", "--no-predictor"],
        &["run", "gap_like", "300", "extra"],
        &["distill", "gap_like", "--tier"],
        &["lint", "gzip_like", "--jsn"],
        &["asm", "gap_like", "300"],
        &["workloads", "all"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mssp"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
