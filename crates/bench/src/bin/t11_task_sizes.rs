//! T11 — committed task-size distribution: histogram of per-task
//! instruction counts for three representative workloads. Complements F5:
//! the boundary-selection + crossing-grouping machinery should produce
//! tasks concentrated near the configured target, with phase-dependent
//! spread.

use mssp_bench::{prepare, print_header};
use mssp_core::{Engine, Event, UnitCost};
use mssp_distill::DistillConfig;
use mssp_stats::{Histogram, Summary};
use mssp_timing::TimingConfig;
use mssp_workloads::Workload;

fn main() {
    let tcfg = TimingConfig::default();
    let dcfg = DistillConfig::default();
    print_header(
        "T11",
        "Committed task-size distribution",
        &format!("target task size {}", dcfg.target_task_size),
    );
    for name in ["gzip_like", "gap_like", "mcf_like"] {
        let w = Workload::by_name(name).expect("known");
        let program = w.program(w.default_scale / 2);
        let (d, _) = prepare(&program, &dcfg);
        let mut samples = Vec::new();
        let observer = |_: u64, event: Event<'_>| {
            if let Event::Commit { instructions, .. } = event {
                samples.push(instructions as f64);
            }
        };
        Engine::observed(&program, &d, tcfg.engine, UnitCost, observer)
            .run()
            .expect("runs");
        let summary = Summary::of(&samples);
        println!(
            "{name}: {} tasks | mean {:.0} | min {:.0} | max {:.0} | stddev {:.0}",
            summary.n, summary.mean, summary.min, summary.max, summary.stddev
        );
        let mut h = Histogram::new(0.0, 1024.0, 16);
        for &s in &samples {
            h.add(s);
        }
        for (lo, hi, count) in h.iter_bins() {
            if count > 0 {
                let bar = "#".repeat((60 * count as usize / summary.n).max(1));
                println!("  [{lo:>4.0},{hi:>4.0})  {count:>6}  {bar}");
            }
        }
        if h.overflow() > 0 {
            println!("  [1024, ..)  {:>6}", h.overflow());
        }
        println!();
    }
}
