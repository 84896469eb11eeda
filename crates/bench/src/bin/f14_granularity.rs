//! F14 — verification-granularity ablation: byte-masked vs whole-word
//! live-in tracking. Word granularity makes sub-word stores
//! read-modify-write their containing word, so adjacent tasks writing
//! neighbouring bytes falsely conflict — the false-sharing problem the
//! paper's fine-grain verify hardware avoids.

use mssp_bench::{prepare, print_header};
use mssp_distill::DistillConfig;
use mssp_stats::Table;
use mssp_timing::{run_baseline, run_mssp, speedup, TimingConfig};
use mssp_workloads::workloads;

fn main() {
    let tcfg = TimingConfig::default();
    let dcfg = DistillConfig::default();
    print_header(
        "F14",
        "Byte-masked vs word-granular live-in tracking",
        "speedup (squash events per 1000 tasks); byte-heavy benchmarks suffer most",
    );
    let mut table = Table::new(vec!["benchmark", "byte-masked", "word-granular"]);
    for w in workloads() {
        let program = w.program(w.default_scale);
        let (d, _) = prepare(&program, &dcfg);
        let base = run_baseline(&program, &tcfg, u64::MAX).expect("baseline");
        let mut row = vec![w.name.to_string()];
        for word_granular in [false, true] {
            let mut cfg = tcfg;
            cfg.engine.word_granular_live_ins = word_granular;
            let run = run_mssp(&program, &d, &cfg).expect("runs");
            let s = &run.run.stats;
            row.push(format!(
                "{:.3} ({:.1})",
                speedup(base.cycles, run.run.cycles),
                1000.0 * s.squash_events() as f64 / s.spawned_tasks.max(1) as f64
            ));
        }
        table.row(row);
    }
    println!("{}", table.render());
}
