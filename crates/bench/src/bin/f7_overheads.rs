//! F7 — overhead sensitivity: geomean speedup as the MSSP-specific
//! latencies (checkpoint spawn, dispatch, verify, commit, squash) scale
//! from 0× to 8× their reference values. The paper argues MSSP tolerates
//! substantial overhead because verification is off the critical path.

use mssp_bench::{evaluate, harness_scale, print_header};
use mssp_distill::DistillConfig;
use mssp_stats::{geomean, Table};
use mssp_timing::{OverheadConfig, TimingConfig};
use mssp_workloads::workloads;

fn main() {
    let factors = [0u64, 1, 2, 4, 8];
    print_header(
        "F7",
        "Speedup vs. protocol overhead scale",
        "all overheads (spawn/dispatch/verify/commit/squash) multiplied by the factor",
    );
    let mut table = Table::new(vec!["overhead x", "geomean speedup", "min", "max"]);
    for &f in &factors {
        let base = OverheadConfig::default();
        let overhead = OverheadConfig {
            spawn: base.spawn * f,
            dispatch: base.dispatch * f,
            verify_base: base.verify_base * f,
            commit_base: base.commit_base * f,
            cells_per_cycle: base.cells_per_cycle,
            squash: base.squash * f,
        };
        let tcfg = TimingConfig {
            overhead,
            ..TimingConfig::default()
        };
        let mut speeds = Vec::new();
        for w in workloads() {
            let e = evaluate(w, harness_scale(w, 4), &DistillConfig::default(), &tcfg);
            speeds.push(e.speedup);
        }
        table.row(vec![
            format!("{f}x"),
            format!("{:.3}", geomean(&speeds)),
            format!(
                "{:.3}",
                speeds.iter().copied().fold(f64::INFINITY, f64::min)
            ),
            format!("{:.3}", speeds.iter().copied().fold(0.0, f64::max)),
        ]);
    }
    println!("{}", table.render());
}
