//! BENCH — online adaptive re-distillation benchmark.
//!
//! Runs phase-shifting workloads whose behaviour diverges mid-run from
//! the training profile, once with the offline distillation frozen and
//! once with the adaptive controller hot-swapping re-distillations from
//! the live profile, and emits the comparison as `BENCH_adaptive.json`.
//! A stationary half runs standard workloads on their training inputs
//! and checks the controller never fires. CI regenerates
//! `results/BENCH_adaptive.json` with this binary, gates armed, and
//! fails the build if adaptation stops paying for itself, starts
//! recompiling on stationary behaviour, or the file differs. Every
//! workload runs at its default scale.
//!
//! ```text
//! bench_adaptive [--json] [--out PATH]
//!                [--min-squash-improvement X] [--min-speedup-improvement X]
//!                [--require-swap] [--max-stationary-recompilations N]
//! ```
//!
//! * `--json` — emit JSON (to stdout, or to `--out PATH`); otherwise a
//!   human-readable table is printed.
//! * `--min-speedup-improvement X` — exit non-zero if any phase
//!   workload's `adaptive / frozen` cycle-speedup ratio falls below `X`.
//! * `--min-squash-improvement X` — exit non-zero if any phase
//!   workload's `frozen / adaptive` squash-rate improvement falls below
//!   `X`.
//! * `--require-swap` — exit non-zero if any phase workload installed no
//!   hot-swap (the shift went undetected).
//! * `--max-stationary-recompilations N` — exit non-zero if any
//!   stationary workload attempted more than `N` recompiles, counting
//!   installed, failed and rejected ones alike (default gate when
//!   passed: 0 means "never fire on training-like behaviour").
//!
//! The dyn ratio is reported but not gated: it is not monotonic in
//! goodness on phase workloads, because a frozen master that goes Lost
//! post-shift executes almost nothing and scores a flattering ratio
//! while delivering sub-1.0 speedup.

use std::process::ExitCode;

use mssp_bench::{
    adaptive_dyn_improvement, collect_adaptive_records, collect_stationary_records, emit,
    parse_args, print_header, render_adaptive_json,
};
use mssp_stats::{fmt3, Table};

const FLAGS: [(&str, bool); 6] = [
    ("--json", false),
    ("--out", true),
    ("--min-squash-improvement", true),
    ("--min-speedup-improvement", true),
    ("--require-swap", false),
    ("--max-stationary-recompilations", true),
];

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_adaptive: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measures, reports and gates; `Ok(false)` when a gate failed.
fn run() -> Result<bool, String> {
    let flags = parse_args(&FLAGS, std::env::args().skip(1))?;
    let out: Option<String> = flags.value("--out")?;
    let min_squash_improvement: Option<f64> = flags.value("--min-squash-improvement")?;
    let min_speedup_improvement: Option<f64> = flags.value("--min-speedup-improvement")?;
    let max_stationary_recompilations: Option<u64> =
        flags.value("--max-stationary-recompilations")?;

    let records = collect_adaptive_records();
    let stationary = collect_stationary_records();

    if flags.has("--json") {
        emit(&render_adaptive_json(&records, &stationary), out.as_deref())?;
    } else {
        print_header("BENCH", "Online adaptive re-distillation benchmark", "");
        let mut table = Table::new(vec![
            "benchmark",
            "dyn frozen",
            "dyn adapt",
            "sq/1k frozen",
            "sq/1k adapt",
            "swaps",
            "speedup frozen",
            "speedup adapt",
        ]);
        for r in &records {
            table.row(vec![
                r.name.clone(),
                fmt3(r.frozen_dyn_ratio),
                fmt3(r.adaptive_dyn_ratio),
                format!("{:.1}", r.frozen_squash_per_1k),
                format!("{:.1}", r.adaptive_squash_per_1k),
                r.swaps_installed.to_string(),
                fmt3(r.speedup_frozen),
                fmt3(r.speedup_adaptive),
            ]);
        }
        println!("{}", table.render());
        println!(
            "geomean dyn improvement:    {:.3}",
            adaptive_dyn_improvement(&records)
        );
        let mut st = Table::new(vec!["stationary", "recompilations", "swaps", "divergent"]);
        for r in &stationary {
            st.row(vec![
                r.name.clone(),
                r.recompilations.to_string(),
                r.swaps_installed.to_string(),
                r.divergent_windows.to_string(),
            ]);
        }
        println!("{}", st.render());
    }

    let mut failed = false;
    if let Some(floor) = min_squash_improvement {
        for r in &records {
            // An adaptive rate of zero is infinite improvement; only a
            // still-squashing run can fall below the floor.
            let improvement = if r.adaptive_squash_per_1k == 0.0 {
                f64::INFINITY
            } else {
                r.frozen_squash_per_1k / r.adaptive_squash_per_1k
            };
            if improvement < floor {
                eprintln!(
                    "bench_adaptive: {} squash improvement {:.2}x \
                     ({:.1}/1k -> {:.1}/1k) below floor {:.2}x",
                    r.name, improvement, r.frozen_squash_per_1k, r.adaptive_squash_per_1k, floor
                );
                failed = true;
            }
        }
    }
    if let Some(floor) = min_speedup_improvement {
        for r in &records {
            let improvement = if r.speedup_frozen == 0.0 {
                f64::INFINITY
            } else {
                r.speedup_adaptive / r.speedup_frozen
            };
            if improvement < floor {
                eprintln!(
                    "bench_adaptive: {} speedup improvement {:.3}x \
                     ({:.3} -> {:.3}) below floor {:.3}x",
                    r.name, improvement, r.speedup_frozen, r.speedup_adaptive, floor
                );
                failed = true;
            }
        }
    }
    if flags.has("--require-swap") {
        for r in &records {
            if r.swaps_installed == 0 {
                eprintln!(
                    "bench_adaptive: {} installed no hot-swap — the phase \
                     shift went undetected",
                    r.name
                );
                failed = true;
            }
        }
    }
    if let Some(ceiling) = max_stationary_recompilations {
        for r in &stationary {
            if r.recompilations > ceiling {
                eprintln!(
                    "bench_adaptive: stationary {} attempted {} recompilations \
                     (ceiling {ceiling})",
                    r.name, r.recompilations
                );
                failed = true;
            }
        }
    }
    Ok(!failed)
}
