//! F16 — the squash-rate attack: distiller pre-computation slices
//! against the squash causes of the squash-prone workloads. Two
//! configurations per workload:
//!
//! - `off`: default distillation, no slice feedback;
//! - `full`: slice-feedback redistillation — the headline configuration
//!   `bench_speedup` gates on.
//!
//! Spawn-guard vetoes convert would-be wrong-path squash storms into
//! cheap master restarts.

use mssp_bench::{harness_scale, prepare, print_header, slice_feedback_run, squash_per_1k_tasks};
use mssp_distill::{distill, DistillConfig};
use mssp_stats::Table;
use mssp_timing::{run_mssp, TimingConfig};

const TARGETS: [&str; 4] = ["mcf_like", "vpr_like", "gcc_like", "twolf_like"];

fn main() {
    print_header(
        "F16",
        "Pre-computation slices vs squash rate",
        "off = default distillation; full = slice-feedback redistillation",
    );
    let tcfg = TimingConfig::default();
    let dcfg = DistillConfig::default();
    let mut table = Table::new(vec!["benchmark", "sq/1k off", "sq/1k full", "vetoes"]);
    for name in TARGETS {
        let w = mssp_workloads::Workload::by_name(name).expect("workload exists");
        let program = w.program(harness_scale(w, 1));
        let (distilled, mut profile) = prepare(&program, &dcfg);
        let off = slice_feedback_run(&program, &distilled, &tcfg, &mut profile);
        let sliced = distill(&program, &profile, &dcfg).expect("redistill");
        let full = run_mssp(&program, &sliced, &tcfg).expect("full run");

        assert_eq!(
            off.state.reg(mssp_workloads::CHECKSUM_REG),
            full.run.state.reg(mssp_workloads::CHECKSUM_REG),
            "both configurations must reach the same architected checksum"
        );

        table.row(vec![
            name.to_string(),
            format!("{:.1}", squash_per_1k_tasks(&off.stats)),
            format!("{:.1}", squash_per_1k_tasks(&full.run.stats)),
            full.run.stats.spawn_vetoes.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Guards veto doomed spawns before they ship (wrong-path squashes\n\
         become master restarts); live-in slices recompute the hard\n\
         live-ins the feedback run squashed on. `full` is the\n\
         configuration BENCH_speedup gates on."
    );
}
