//! F16 — the squash-rate attack, decomposed: live-in value prediction
//! and distiller pre-computation slices each target a different squash
//! cause. Three configurations per squash-prone workload:
//!
//! - `off`: default distillation, predictor disabled (the PR-8 engine);
//! - `pred`: default distillation, predictor enabled — value prediction
//!   alone, so its hit/miss and per-component accuracy are visible;
//! - `full`: slice-feedback redistillation plus predictor — the
//!   headline configuration `bench_speedup` gates on.
//!
//! Spawn-guard vetoes convert would-be wrong-path squash storms into
//! cheap master restarts; the component columns show which predictor
//! (last-value, stride, finite-context) carried the accuracy.

use mssp_bench::{harness_scale, prepare, print_header, slice_feedback_run, squash_per_1k_tasks};
use mssp_distill::{distill, DistillConfig};
use mssp_stats::Table;
use mssp_timing::{run_mssp, TimingConfig};

const TARGETS: [&str; 4] = ["mcf_like", "vpr_like", "gcc_like", "twolf_like"];

fn main() {
    print_header(
        "F16",
        "Live-in value prediction + pre-computation slices vs squash rate",
        "off = PR-8 engine; pred = predictor only; full = slices + predictor",
    );
    let tcfg = TimingConfig::default();
    let dcfg = DistillConfig::default();
    let mut table = Table::new(vec![
        "benchmark",
        "sq/1k off",
        "sq/1k pred",
        "sq/1k full",
        "vetoes",
        "pred hit/miss",
        "acc",
        "best component",
    ]);
    for name in TARGETS {
        let w = mssp_workloads::Workload::by_name(name).expect("workload exists");
        let program = w.program(harness_scale(w, 1));
        let (distilled, mut profile) = prepare(&program, &dcfg);
        let off = slice_feedback_run(&program, &distilled, &tcfg, &mut profile);
        let pred = run_mssp(&program, &distilled, &tcfg).expect("pred run");
        let sliced = distill(&program, &profile, &dcfg).expect("redistill");
        let full = run_mssp(&program, &sliced, &tcfg).expect("full run");

        assert_eq!(
            off.state.reg(mssp_workloads::CHECKSUM_REG),
            full.run.state.reg(mssp_workloads::CHECKSUM_REG),
            "all configurations must reach the same architected checksum"
        );

        let report = pred.run.predictor_report;
        let best = if report.context_correct >= report.stride_correct
            && report.context_correct >= report.last_value_correct
        {
            "context"
        } else if report.stride_correct >= report.last_value_correct {
            "stride"
        } else {
            "last-value"
        };
        table.row(vec![
            name.to_string(),
            format!("{:.1}", squash_per_1k_tasks(&off.stats)),
            format!("{:.1}", squash_per_1k_tasks(&pred.run.stats)),
            format!("{:.1}", squash_per_1k_tasks(&full.run.stats)),
            full.run.stats.spawn_vetoes.to_string(),
            format!(
                "{}/{}",
                pred.run.stats.predictor_hits, pred.run.stats.predictor_misses
            ),
            format!("{:.3}", report.best_accuracy()),
            format!(
                "{best} (lv {} / st {} / fc {} of {})",
                report.last_value_correct,
                report.stride_correct,
                report.context_correct,
                report.observations
            ),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Guards veto doomed spawns before they ship (wrong-path squashes\n\
         become master restarts). On these workloads the residual live-in\n\
         mismatches are one-shot phase transitions, so the predictor's\n\
         confidence never saturates and it rightly declines to override —\n\
         the override/rescue path is exercised by the engine unit tests.\n\
         `full` is the configuration BENCH_speedup gates on."
    );
}
