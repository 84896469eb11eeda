//! F15 — adaptive sequential fallback (dual-mode operation): when the
//! distiller is deliberately mis-configured (asserting weakly-biased
//! branches, so the master mispredicts constantly), the engine can detect
//! squash storms and take the master offline for stretches of sequential
//! execution. The paper notes real MSSP hardware can always revert to
//! sequential mode; this experiment shows the adaptive version recovering
//! most of the loss.

use mssp_bench::{prepare, print_header};
use mssp_distill::DistillConfig;
use mssp_stats::Table;
use mssp_timing::{run_baseline, run_mssp, speedup, TimingConfig};
use mssp_workloads::workloads;

fn main() {
    let tcfg = TimingConfig::default();
    // A pathological distiller: assert anything with >= 65% bias.
    let bad_dcfg = DistillConfig {
        assert_bias: 0.65,
        ..DistillConfig::default()
    };
    print_header(
        "F15",
        "Adaptive sequential fallback under a pathological distiller",
        "assert threshold lowered to 0.65: the master mispredicts wholesale",
    );
    let mut table = Table::new(vec![
        "benchmark",
        "good master",
        "bad, no throttle",
        "bad, throttled",
        "throttle events",
    ]);
    for w in workloads() {
        let program = w.program(w.default_scale / 2);
        let base = run_baseline(&program, &tcfg, u64::MAX).expect("baseline");
        let (good_d, _) = prepare(&program, &DistillConfig::default());
        let (bad_d, _) = prepare(&program, &bad_dcfg);

        let good = run_mssp(&program, &good_d, &tcfg).expect("runs");
        let bad = run_mssp(&program, &bad_d, &tcfg).expect("runs");
        let mut throttled_cfg = tcfg;
        throttled_cfg.engine.throttle_threshold = 4;
        throttled_cfg.engine.throttle_window = 64;
        throttled_cfg.engine.throttle_duration = 32;
        let saved = run_mssp(&program, &bad_d, &throttled_cfg).expect("runs");
        table.row(vec![
            w.name.to_string(),
            format!("{:.3}", speedup(base.cycles, good.run.cycles)),
            format!("{:.3}", speedup(base.cycles, bad.run.cycles)),
            format!("{:.3}", speedup(base.cycles, saved.run.cycles)),
            saved.run.stats.throttle_events.to_string(),
        ]);
    }
    println!("{}", table.render());
}
