//! BENCH — machine-readable speedup benchmark.
//!
//! Measures every workload's speedup and distilled/original dynamic
//! instruction ratio (against a DCE-only baseline pipeline) and emits the
//! result as `BENCH_speedup.json`, so the distiller's perf trajectory is
//! tracked across PRs. CI regenerates `results/BENCH_speedup.json` with
//! this binary, gates armed, and fails the build on a regression or a
//! diff. Every workload runs at its default scale.
//!
//! ```text
//! bench_speedup [--json] [--out PATH] [--min-speedup X]
//!               [--max-squash-per-1k X] [--min-squash-improvement X]
//! ```
//!
//! * `--json` — emit JSON (to stdout, or to `--out PATH`); otherwise a
//!   human-readable table is printed.
//! * `--min-speedup X` — exit non-zero if any workload's speedup falls
//!   below `X`.
//! * `--max-squash-per-1k X` — exit non-zero if any squash-prone workload
//!   (one whose attack-off baseline squashes) still squashes more than `X`
//!   per 1k tasks in the headline run.
//! * `--min-squash-improvement X` — exit non-zero if any squash-prone
//!   workload's `baseline / headline` squash-rate ratio falls below `X`.

use std::process::ExitCode;

use mssp_bench::{collect_speedup_records, emit, parse_args, print_header, render_speedup_json};
use mssp_stats::{fmt3, geomean, Table};

/// Workloads the squash-rate gates apply to: the squash-prone set whose
/// attack-off baseline squashes at the default scale.
const SQUASH_GATED: [&str; 4] = ["mcf_like", "vpr_like", "gcc_like", "twolf_like"];

const FLAGS: [(&str, bool); 5] = [
    ("--json", false),
    ("--out", true),
    ("--min-speedup", true),
    ("--max-squash-per-1k", true),
    ("--min-squash-improvement", true),
];

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_speedup: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measures, reports and gates; `Ok(false)` when a gate failed.
fn run() -> Result<bool, String> {
    let flags = parse_args(&FLAGS, std::env::args().skip(1))?;
    let out: Option<String> = flags.value("--out")?;
    let min_speedup: Option<f64> = flags.value("--min-speedup")?;
    let max_squash_per_1k: Option<f64> = flags.value("--max-squash-per-1k")?;
    let min_squash_improvement: Option<f64> = flags.value("--min-squash-improvement")?;

    let records = collect_speedup_records();

    if flags.has("--json") {
        emit(&render_speedup_json(&records), out.as_deref())?;
    } else {
        print_header("BENCH", "Machine-readable speedup benchmark", "");
        let mut table = Table::new(vec![
            "benchmark",
            "speedup",
            "dyn ratio",
            "dce-only ratio",
            "squash/1k",
            "sq/1k base",
            "slices",
        ]);
        for r in &records {
            table.row(vec![
                r.name.clone(),
                fmt3(r.speedup),
                fmt3(r.dyn_ratio),
                fmt3(r.dyn_ratio_dce_only),
                format!("{:.1}", r.squash_per_1k_tasks),
                format!("{:.1}", r.squash_per_1k_tasks_baseline),
                r.slices_emitted.to_string(),
            ]);
        }
        println!("{}", table.render());
        let ratios: Vec<f64> = records.iter().map(|r| r.dyn_ratio).collect();
        let baselines: Vec<f64> = records.iter().map(|r| r.dyn_ratio_dce_only).collect();
        let speedups: Vec<f64> = records.iter().map(|r| r.speedup).collect();
        println!("geomean speedup:            {:.3}", geomean(&speedups));
        println!("geomean dyn ratio:          {:.3}", geomean(&ratios));
        println!("geomean dyn ratio (dce):    {:.3}", geomean(&baselines));
    }

    let mut failed = false;
    if let Some(floor) = min_speedup {
        for r in &records {
            if r.speedup < floor {
                eprintln!(
                    "bench_speedup: {} speedup {:.3} below floor {:.3}",
                    r.name, r.speedup, floor
                );
                failed = true;
            }
        }
    }
    let gated = records
        .iter()
        .filter(|r| SQUASH_GATED.contains(&r.name.as_str()));
    if let Some(ceiling) = max_squash_per_1k {
        for r in gated.clone() {
            if r.squash_per_1k_tasks > ceiling {
                eprintln!(
                    "bench_speedup: {} squash rate {:.2}/1k above ceiling {:.2}/1k",
                    r.name, r.squash_per_1k_tasks, ceiling
                );
                failed = true;
            }
        }
    }
    if let Some(floor) = min_squash_improvement {
        for r in gated {
            // A headline rate of zero is infinite improvement; only a
            // still-squashing run can fall below the floor.
            let improvement = if r.squash_per_1k_tasks == 0.0 {
                f64::INFINITY
            } else {
                r.squash_per_1k_tasks_baseline / r.squash_per_1k_tasks
            };
            if improvement < floor {
                eprintln!(
                    "bench_speedup: {} squash improvement {:.2}x \
                     ({:.2}/1k -> {:.2}/1k) below floor {:.2}x",
                    r.name,
                    improvement,
                    r.squash_per_1k_tasks_baseline,
                    r.squash_per_1k_tasks,
                    floor
                );
                failed = true;
            }
        }
    }
    Ok(!failed)
}
