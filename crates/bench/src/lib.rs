//! # mssp-bench
//!
//! The experiment harness: shared plumbing used by the per-table /
//! per-figure binaries (`t1_workloads`, `f2_distillation`, `f3_speedup`,
//! ...) that regenerate the evaluation of the MSSP paper.
//!
//! Each binary prints one table or bar-figure in a uniform format; see
//! `EXPERIMENTS.md` at the repository root for the experiment index and
//! recorded results. Everything here is a function of the simulated
//! machine: host time is measured under `benchmark/` and nowhere else.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Display;
use std::str::FromStr;

use mssp_analysis::Profile;
use mssp_core::{
    AdaptiveConfig, AdaptiveController, EngineConfig, EngineStats, Recompiler, SquashReason,
    SquashSample,
};
use mssp_distill::{distill, DistillConfig, DistillStats, Distilled};
use mssp_isa::Program;
use mssp_lint::{redistill_validated, LintConfig};
use mssp_machine::{Cell, SeqMachine};
use mssp_stats::json::Json::{Array, Int, Num, Object, Str};
use mssp_timing::{
    run_baseline, run_mssp, run_mssp_with_engine_setup, speedup, BaselineRun, TimingConfig,
    TimingRun,
};
use mssp_workloads::{Workload, CHECKSUM_REG, TRAIN_SEED};

/// A complete measurement of one workload under one configuration.
#[derive(Debug)]
pub struct Evaluation {
    /// The workload evaluated.
    pub workload: &'static Workload,
    /// Scale used.
    pub scale: u64,
    /// Sequential dynamic instruction count.
    pub seq_instructions: u64,
    /// Baseline uniprocessor timing run.
    pub baseline: BaselineRun,
    /// MSSP timing run.
    pub mssp: TimingRun,
    /// Static distillation statistics.
    pub distill: DistillStats,
    /// Number of task boundaries selected.
    pub boundary_count: usize,
    /// MSSP speedup over the baseline.
    pub speedup: f64,
}

/// Profiles, distills and measures one workload.
///
/// # Panics
///
/// Panics on any pipeline failure — the harness treats those as fatal
/// (they indicate a broken build, not a measurement).
#[must_use]
pub fn evaluate(
    workload: &'static Workload,
    scale: u64,
    dcfg: &DistillConfig,
    tcfg: &TimingConfig,
) -> Evaluation {
    let program = workload.program(scale);
    let (distilled, profile) = prepare(&program, dcfg);
    let baseline = run_baseline(&program, tcfg, u64::MAX).expect("baseline runs");
    let mssp = run_mssp(&program, &distilled, tcfg).expect("mssp runs");
    assert_eq!(
        baseline.state.reg(CHECKSUM_REG),
        mssp.run.state.reg(CHECKSUM_REG),
        "{}: checksum mismatch — correctness bug",
        workload.name
    );
    Evaluation {
        workload,
        scale,
        seq_instructions: profile.dynamic_instructions(),
        speedup: speedup(baseline.cycles, mssp.run.cycles),
        distill: distilled.stats(),
        boundary_count: distilled.boundaries().len(),
        baseline,
        mssp,
    }
}

/// Profiles and distills a program, returning both artifacts.
#[must_use]
pub fn prepare(program: &Program, dcfg: &DistillConfig) -> (Distilled, Profile) {
    let profile = Profile::collect(program, u64::MAX).expect("profiling run");
    let distilled = distill(program, &profile, dcfg).expect("distillation");
    (distilled, profile)
}

/// Like [`evaluate`], but *cross-input*: the profile is collected on the
/// workload's training input ([`TRAIN_SEED`]) while distillation target
/// and measurement use the reference input — the paper's train/ref
/// methodology. Both binaries share one text layout (only data-generation
/// constants differ), so the PC-keyed profile transfers.
///
/// # Panics
///
/// Panics on pipeline failures or if the train/ref text layouts diverge.
#[must_use]
pub fn evaluate_cross_input(
    workload: &'static Workload,
    scale: u64,
    dcfg: &DistillConfig,
    tcfg: &TimingConfig,
) -> Evaluation {
    let eval_program = workload.program(scale);
    let train_program = workload.program_with_seed(scale, TRAIN_SEED);
    assert_eq!(
        train_program.len(),
        eval_program.len(),
        "{}: train/ref text layouts diverged",
        workload.name
    );
    let profile = Profile::collect(&train_program, u64::MAX).expect("training run");
    let distilled = distill(&eval_program, &profile, dcfg).expect("distillation");
    let baseline = run_baseline(&eval_program, tcfg, u64::MAX).expect("baseline runs");
    let mssp = run_mssp(&eval_program, &distilled, tcfg).expect("mssp runs");
    assert_eq!(
        baseline.state.reg(CHECKSUM_REG),
        mssp.run.state.reg(CHECKSUM_REG),
        "{}: checksum mismatch — correctness bug",
        workload.name
    );
    Evaluation {
        workload,
        scale,
        seq_instructions: baseline.instructions,
        speedup: speedup(baseline.cycles, mssp.run.cycles),
        distill: distilled.stats(),
        boundary_count: distilled.boundaries().len(),
        baseline,
        mssp,
    }
}

/// One workload's row in the machine-readable speedup benchmark
/// (`BENCH_speedup.json`): the numbers that track the perf trajectory of
/// the distiller across PRs.
#[derive(Debug, Clone)]
pub struct SpeedupRecord {
    /// Workload name.
    pub name: String,
    /// Scale the workload ran at.
    pub scale: u64,
    /// MSSP speedup over the uniprocessor baseline (default distillation).
    pub speedup: f64,
    /// Distilled/original dynamic instruction ratio (master instructions /
    /// committed instructions) under the default pass pipeline. Lower is
    /// better; this is the distiller's primary quality signal.
    pub dyn_ratio: f64,
    /// The same ratio with the pipeline reduced to liveness DCE only —
    /// the distiller's behaviour before the optimizing pass pipeline — so
    /// every record carries its own improvement baseline.
    pub dyn_ratio_dce_only: f64,
    /// Squash events per thousand spawned tasks in the headline run
    /// (slice-feedback distillation, live-in predictor on).
    pub squash_per_1k_tasks: f64,
    /// The same rate with the squash-rate attack disabled — feedback-free
    /// distillation (no slices) and the predictor off — so every record
    /// carries its own squash-rate improvement baseline.
    pub squash_per_1k_tasks_baseline: f64,
    /// Verified live-in predictor accuracy in the headline run
    /// (hits / (hits + misses); `0` when nothing was injected).
    pub predictor_accuracy: f64,
    /// Pre-computation slices the feedback distillation emitted.
    pub slices_emitted: usize,
    /// Static instructions in the original text.
    pub static_original: usize,
    /// Static instructions in the distilled text (default pipeline).
    pub static_distilled: usize,
}

/// Measures every bundled workload at its default scale and returns
/// one [`SpeedupRecord`] per workload, in bundle order.
///
/// Each workload runs the full squash-rate-attack pipeline: a
/// feedback-free measurement run with the live-in predictor off
/// establishes the baseline squash rate and collects squash samples,
/// those samples are threaded back into the profile as slice feedback
/// ([`apply_slice_feedback`]), and the headline numbers come from a
/// re-distillation carrying pre-computation slices, run with the
/// predictor on.
///
/// # Panics
///
/// Panics on any harness failure (broken build, not a measurement).
#[must_use]
pub fn collect_speedup_records() -> Vec<SpeedupRecord> {
    let tcfg = TimingConfig::default();
    let default_cfg = DistillConfig::default();
    let dce_only_cfg = DistillConfig {
        passes: mssp_distill::PassConfig::dce_only(),
        ..DistillConfig::default()
    };
    mssp_workloads::workloads()
        .iter()
        .map(|w| {
            let scale = w.default_scale;
            let program = w.program(scale);
            // Attack-off baseline: feedback-free distillation (no
            // slices), predictor disabled, squash samples recorded.
            let (distilled_off, mut profile) = prepare(&program, &default_cfg);
            let off_engine = EngineConfig {
                enable_predictor: false,
                ..tcfg.engine
            };
            let off =
                run_mssp_with_engine_setup(&program, &distilled_off, &tcfg, off_engine, |e| {
                    e.enable_squash_samples(512);
                })
                .expect("baseline mssp run");
            let squash_per_1k_tasks_baseline = squash_per_1k_tasks(&off.run.stats);
            // Thread the observed squashes back as slice feedback and
            // re-distill: this is where spawn guards and live-in slices
            // are born.
            apply_slice_feedback(
                &mut profile,
                off.run.squash_samples.as_deref().unwrap_or(&[]),
            );
            let distilled = distill(&program, &profile, &default_cfg).expect("distillation");
            // Headline run: slices + predictor on.
            let baseline = run_baseline(&program, &tcfg, u64::MAX).expect("baseline runs");
            let mssp = run_mssp(&program, &distilled, &tcfg).expect("mssp runs");
            assert_eq!(
                baseline.state.reg(CHECKSUM_REG),
                mssp.run.state.reg(CHECKSUM_REG),
                "{}: checksum mismatch — correctness bug",
                w.name
            );
            let dce = evaluate(w, scale, &dce_only_cfg, &tcfg);
            let stats = &mssp.run.stats;
            SpeedupRecord {
                name: w.name.to_string(),
                scale,
                speedup: speedup(baseline.cycles, mssp.run.cycles),
                dyn_ratio: stats.master_instructions as f64 / stats.committed_instructions as f64,
                dyn_ratio_dce_only: dyn_ratio(&dce),
                squash_per_1k_tasks: squash_per_1k_tasks(stats),
                squash_per_1k_tasks_baseline,
                predictor_accuracy: stats.predictor_accuracy(),
                slices_emitted: distilled.stats().slices_emitted,
                static_original: distilled.stats().original_static,
                static_distilled: distilled.stats().distilled_static,
            }
        })
        .collect()
}

/// Squash events per thousand spawned tasks; `0` for spawn-free runs.
#[must_use]
pub fn squash_per_1k_tasks(stats: &EngineStats) -> f64 {
    if stats.spawned_tasks == 0 {
        0.0
    } else {
        1000.0 * stats.squash_events() as f64 / stats.spawned_tasks as f64
    }
}

/// Threads squash observations from a measurement run back into the
/// profile as slice feedback — the distiller's input for the
/// pre-computation slice pass. Live-in mismatch register cells become
/// hard live-ins; wrong-path events record the architected PC the master
/// failed to predict.
pub fn apply_slice_feedback(profile: &mut Profile, samples: &[SquashSample]) {
    for s in samples {
        match s.reason {
            SquashReason::LiveInMismatch => {
                for &(cell, _, _) in &s.cells {
                    if let Cell::Reg(r) = cell {
                        profile.mark_hard_live_in(r);
                    }
                }
            }
            SquashReason::WrongPath => profile.mark_wrong_path(s.arch_pc),
            SquashReason::Overrun | SquashReason::Fault => {}
        }
    }
}

/// Master-instructions / committed-instructions for one evaluation — the
/// distilled/original dynamic instruction ratio.
#[must_use]
pub fn dyn_ratio(e: &Evaluation) -> f64 {
    e.mssp.run.stats.master_instructions as f64 / e.mssp.run.stats.committed_instructions as f64
}

/// Renders [`SpeedupRecord`]s as the `BENCH_speedup.json` document.
#[must_use]
pub fn render_speedup_json(records: &[SpeedupRecord]) -> String {
    let geo = |f: fn(&SpeedupRecord) -> f64| {
        Num(mssp_stats::geomean(
            &records.iter().map(f).collect::<Vec<_>>(),
        ))
    };
    let workloads = records.iter().map(|r| {
        Object(vec![
            ("name", Str(r.name.clone())),
            ("scale", Int(r.scale)),
            ("speedup", Num(r.speedup)),
            ("dyn_ratio", Num(r.dyn_ratio)),
            ("dyn_ratio_dce_only", Num(r.dyn_ratio_dce_only)),
            ("squash_per_1k_tasks", Num(r.squash_per_1k_tasks)),
            (
                "squash_per_1k_tasks_baseline",
                Num(r.squash_per_1k_tasks_baseline),
            ),
            ("predictor_accuracy", Num(r.predictor_accuracy)),
            ("slices_emitted", Int(r.slices_emitted as u64)),
            ("static_original", Int(r.static_original as u64)),
            ("static_distilled", Int(r.static_distilled as u64)),
        ])
    });
    Object(vec![
        ("schema", Str("mssp-bench-speedup/v3".into())),
        ("workloads", Array(workloads.collect())),
        ("geomean_speedup", geo(|r| r.speedup)),
        ("geomean_dyn_ratio", geo(|r| r.dyn_ratio)),
        ("geomean_dyn_ratio_dce_only", geo(|r| r.dyn_ratio_dce_only)),
    ])
    .render()
}

/// One phase-shifting workload's row in the adaptive re-distillation
/// benchmark (`BENCH_adaptive.json`): a frozen offline distillation vs
/// the online adaptive loop on an input whose behaviour shifts mid-run.
#[derive(Debug, Clone)]
pub struct AdaptiveRecord {
    /// Phase workload name.
    pub name: String,
    /// Scale (phase A iterations) the workload ran at.
    pub scale: u64,
    /// Phase B (post-shift) iterations.
    pub phase_b: u64,
    /// Whole-run dyn-instruction ratio of the frozen offline
    /// distillation (master instructions / committed instructions; the
    /// squash storm after the shift re-executes master work, inflating
    /// it).
    pub frozen_dyn_ratio: f64,
    /// Whole-run squash rate of the frozen run.
    pub frozen_squash_per_1k: f64,
    /// Whole-run dyn-instruction ratio with online adaptation.
    pub adaptive_dyn_ratio: f64,
    /// Whole-run squash rate with online adaptation.
    pub adaptive_squash_per_1k: f64,
    /// Dyn ratio accumulated up to the first hot-swap.
    pub pre_swap_dyn_ratio: f64,
    /// Dyn ratio accumulated after the last hot-swap.
    pub post_swap_dyn_ratio: f64,
    /// Squash rate up to the first hot-swap.
    pub pre_swap_squash_per_1k: f64,
    /// Squash rate after the last hot-swap.
    pub post_swap_squash_per_1k: f64,
    /// Fast-tier recompilations installed.
    pub recompilations_fast: u64,
    /// Full-tier recompilations installed.
    pub recompilations_full: u64,
    /// Hot-swaps installed.
    pub swaps_installed: u64,
    /// Candidates rejected by the segmentation pin or the lint gate.
    pub candidates_rejected: u64,
    /// Recompile attempts that errored outright.
    pub recompile_failures: u64,
    /// Committed-task count at the first swap (0 when none installed).
    pub first_swap_at_tasks: u64,
    /// Cycle speedup of the frozen run over the uniprocessor baseline.
    pub speedup_frozen: f64,
    /// Cycle speedup of the adaptive run over the same baseline.
    pub speedup_adaptive: f64,
}

/// One stationary workload's row in the adaptive benchmark: behaviour
/// matching the training profile must trigger no recompilation at all.
#[derive(Debug, Clone)]
pub struct StationaryRecord {
    /// Workload name (from the standard bundle).
    pub name: String,
    /// Scale the workload ran at.
    pub scale: u64,
    /// Recompilations triggered (gated to zero).
    pub recompilations: u64,
    /// Hot-swaps installed (gated to zero).
    pub swaps_installed: u64,
    /// Windows the controller flagged divergent.
    pub divergent_windows: u64,
}

/// Standard-bundle workloads used for the stationary (no-false-trigger)
/// half of the adaptive benchmark.
pub const STATIONARY_WORKLOADS: [&str; 3] = ["gzip_like", "gap_like", "mcf_like"];

/// Builds the adaptive loop's recompiler: the pinned-boundary pipeline
/// behind `mssp-lint`'s full soundness gate, so every candidate the
/// executor may install passed `distill_validated`'s lint battery.
#[must_use]
pub fn validated_recompiler(program: &Program, distilled: &Distilled) -> Recompiler {
    let program = program.clone();
    let dcfg = DistillConfig::default();
    let lcfg = LintConfig::default();
    let boundaries = distilled.boundaries().clone();
    let crossings = distilled.crossings_per_task().max(1);
    Box::new(move |profile, tier| {
        redistill_validated(
            &program,
            profile,
            &dcfg,
            tier,
            &boundaries,
            crossings,
            &lcfg,
        )
        .map_err(|e| e.to_string())
    })
}

fn stats_dyn_ratio(stats: &EngineStats) -> f64 {
    if stats.committed_instructions == 0 {
        0.0
    } else {
        stats.master_instructions as f64 / stats.committed_instructions as f64
    }
}

/// Dyn ratio of the stats delta `late - early` (a window of one run).
fn slice_dyn_ratio(early: &EngineStats, late: &EngineStats) -> f64 {
    let committed = late
        .committed_instructions
        .saturating_sub(early.committed_instructions);
    if committed == 0 {
        0.0
    } else {
        late.master_instructions
            .saturating_sub(early.master_instructions) as f64
            / committed as f64
    }
}

/// Squash rate of the stats delta `late - early`.
fn slice_squash_per_1k(early: &EngineStats, late: &EngineStats) -> f64 {
    let spawned = late.spawned_tasks.saturating_sub(early.spawned_tasks);
    if spawned == 0 {
        0.0
    } else {
        1000.0 * late.squash_events().saturating_sub(early.squash_events()) as f64 / spawned as f64
    }
}

/// Measures every phase-shifting workload at its default scale: the
/// offline profile is collected on the training input (`phase_b =
/// 0`, blind to the shift), then the reference input (`phase_b = scale`)
/// runs once with that distillation frozen and once with the online
/// adaptive loop hot-swapping re-distillations from the live profile.
///
/// # Panics
///
/// Panics on any harness failure, including a checksum mismatch between
/// any run and the uniprocessor baseline (a correctness bug, not a
/// measurement).
#[must_use]
pub fn collect_adaptive_records() -> Vec<AdaptiveRecord> {
    let tcfg = TimingConfig::default();
    let dcfg = DistillConfig::default();
    mssp_workloads::phase_workloads()
        .iter()
        .map(|w| {
            let scale = w.default_scale;
            let phase_b = scale;
            let train = w.phase_program(scale, 0);
            let reference = w.phase_program(scale, phase_b);
            let profile = Profile::collect(&train, Profile::UNBOUNDED).expect("training run");
            let distilled = distill(&reference, &profile, &dcfg).expect("distillation");
            let baseline = run_baseline(&reference, &tcfg, u64::MAX).expect("baseline runs");

            let frozen = run_mssp(&reference, &distilled, &tcfg).expect("frozen mssp run");
            assert_eq!(
                baseline.state.reg(CHECKSUM_REG),
                frozen.run.state.reg(CHECKSUM_REG),
                "{}: frozen checksum mismatch - correctness bug",
                w.name
            );

            let controller =
                AdaptiveController::new(AdaptiveConfig::default(), &distilled, &profile);
            let recompiler = validated_recompiler(&reference, &distilled);
            let adaptive =
                run_mssp_with_engine_setup(&reference, &distilled, &tcfg, tcfg.engine, move |e| {
                    e.enable_adaptive(controller, recompiler);
                })
                .expect("adaptive mssp run");
            assert_eq!(
                baseline.state.reg(CHECKSUM_REG),
                adaptive.run.state.reg(CHECKSUM_REG),
                "{}: adaptive checksum mismatch - correctness bug",
                w.name
            );
            let stats = adaptive.run.stats;
            let report = adaptive
                .run
                .adaptive
                .as_ref()
                .expect("adaptive run carries a report");
            let zero = EngineStats::default();
            let (pre, post) = match (report.swaps.first(), report.swaps.last()) {
                (Some(first), Some(last)) => (first.stats, last.stats),
                // No swap installed: the whole run is "pre".
                _ => (stats, stats),
            };
            AdaptiveRecord {
                name: w.name.to_string(),
                scale,
                phase_b,
                frozen_dyn_ratio: stats_dyn_ratio(&frozen.run.stats),
                frozen_squash_per_1k: squash_per_1k_tasks(&frozen.run.stats),
                adaptive_dyn_ratio: stats_dyn_ratio(&stats),
                adaptive_squash_per_1k: squash_per_1k_tasks(&stats),
                pre_swap_dyn_ratio: slice_dyn_ratio(&zero, &pre),
                post_swap_dyn_ratio: slice_dyn_ratio(&post, &stats),
                pre_swap_squash_per_1k: slice_squash_per_1k(&zero, &pre),
                post_swap_squash_per_1k: slice_squash_per_1k(&post, &stats),
                recompilations_fast: report.recompilations_fast,
                recompilations_full: report.recompilations_full,
                swaps_installed: stats.swaps_installed,
                candidates_rejected: report.candidates_rejected,
                recompile_failures: report.recompile_failures,
                first_swap_at_tasks: report.swaps.first().map_or(0, |m| m.at_committed_tasks),
                speedup_frozen: speedup(baseline.cycles, frozen.run.cycles),
                speedup_adaptive: speedup(baseline.cycles, adaptive.run.cycles),
            }
        })
        .collect()
}

/// Runs [`STATIONARY_WORKLOADS`] with the adaptive loop armed on inputs
/// that match their training profile: the controller must stay quiet.
///
/// # Panics
///
/// Panics on harness failures (broken build, not a measurement).
#[must_use]
pub fn collect_stationary_records() -> Vec<StationaryRecord> {
    let tcfg = TimingConfig::default();
    STATIONARY_WORKLOADS
        .iter()
        .map(|name| {
            let w = Workload::by_name(name).expect("stationary workload exists");
            let scale = w.default_scale;
            let program = w.program(scale);
            let (distilled, profile) = prepare(&program, &DistillConfig::default());
            let controller =
                AdaptiveController::new(AdaptiveConfig::default(), &distilled, &profile);
            let recompiler = validated_recompiler(&program, &distilled);
            let run =
                run_mssp_with_engine_setup(&program, &distilled, &tcfg, tcfg.engine, move |e| {
                    e.enable_adaptive(controller, recompiler);
                })
                .expect("stationary adaptive run");
            let report = run
                .run
                .adaptive
                .as_ref()
                .expect("adaptive run carries a report");
            StationaryRecord {
                name: (*name).to_string(),
                scale,
                recompilations: report.recompilations(),
                swaps_installed: run.run.stats.swaps_installed,
                divergent_windows: report.divergent_windows,
            }
        })
        .collect()
}

/// Geometric-mean frozen/adaptive dyn-ratio improvement across phase
/// records (> 1 means adaptation beat the frozen distillation).
#[must_use]
pub fn adaptive_dyn_improvement(records: &[AdaptiveRecord]) -> f64 {
    let col: Vec<f64> = records
        .iter()
        .map(|r| {
            if r.adaptive_dyn_ratio > 0.0 {
                r.frozen_dyn_ratio / r.adaptive_dyn_ratio
            } else {
                f64::INFINITY
            }
        })
        .collect();
    mssp_stats::geomean(&col)
}

/// Renders the adaptive benchmark as the `BENCH_adaptive.json` document.
#[must_use]
pub fn render_adaptive_json(records: &[AdaptiveRecord], stationary: &[StationaryRecord]) -> String {
    let phase_workloads = records.iter().map(|r| {
        Object(vec![
            ("name", Str(r.name.clone())),
            ("scale", Int(r.scale)),
            ("phase_b", Int(r.phase_b)),
            ("frozen_dyn_ratio", Num(r.frozen_dyn_ratio)),
            ("adaptive_dyn_ratio", Num(r.adaptive_dyn_ratio)),
            ("frozen_squash_per_1k", Num(r.frozen_squash_per_1k)),
            ("adaptive_squash_per_1k", Num(r.adaptive_squash_per_1k)),
            ("pre_swap_dyn_ratio", Num(r.pre_swap_dyn_ratio)),
            ("post_swap_dyn_ratio", Num(r.post_swap_dyn_ratio)),
            ("pre_swap_squash_per_1k", Num(r.pre_swap_squash_per_1k)),
            ("post_swap_squash_per_1k", Num(r.post_swap_squash_per_1k)),
            ("recompilations_fast", Int(r.recompilations_fast)),
            ("recompilations_full", Int(r.recompilations_full)),
            ("swaps_installed", Int(r.swaps_installed)),
            ("candidates_rejected", Int(r.candidates_rejected)),
            ("recompile_failures", Int(r.recompile_failures)),
            ("first_swap_at_tasks", Int(r.first_swap_at_tasks)),
            ("speedup_frozen", Num(r.speedup_frozen)),
            ("speedup_adaptive", Num(r.speedup_adaptive)),
        ])
    });
    let stationary_rows = stationary.iter().map(|r| {
        Object(vec![
            ("name", Str(r.name.clone())),
            ("scale", Int(r.scale)),
            ("recompilations", Int(r.recompilations)),
            ("swaps_installed", Int(r.swaps_installed)),
            ("divergent_windows", Int(r.divergent_windows)),
        ])
    });
    let max_stationary = stationary.iter().map(|r| r.recompilations).max();
    Object(vec![
        ("schema", Str("mssp-bench-adaptive/v2".into())),
        ("phase_workloads", Array(phase_workloads.collect())),
        ("stationary", Array(stationary_rows.collect())),
        (
            "geomean_dyn_improvement",
            Num(adaptive_dyn_improvement(records)),
        ),
        (
            "max_stationary_recompilations",
            Int(max_stationary.unwrap_or(0)),
        ),
    ])
    .render()
}

/// Sequential dynamic instruction count of a program.
#[must_use]
pub fn seq_instructions(program: &Program) -> u64 {
    let mut m = SeqMachine::boot(program);
    m.run(u64::MAX).expect("program runs");
    m.instructions()
}

/// The scale used by the experiment harness for each workload: the
/// default scale, shrunk by `divisor` for the quicker sweep experiments.
#[must_use]
pub fn harness_scale(workload: &Workload, divisor: u64) -> u64 {
    (workload.default_scale / divisor.max(1)).max(256)
}

/// Prints the standard experiment header.
pub fn print_header(id: &str, title: &str, params: &str) {
    println!("== {id}: {title} ==");
    if !params.is_empty() {
        println!("   {params}");
    }
    println!();
}

/// The flags a `bench_*` binary was started with.
#[derive(Debug)]
pub struct Flags(Vec<(&'static str, Option<String>)>);

/// Checks `args` (program name already skipped) against `table`, one
/// `(name, takes_value)` entry per flag the binary accepts.
///
/// # Errors
///
/// An argument that is not in the table, or a value-taking flag with
/// nothing after it.
pub fn parse_args(
    table: &[(&'static str, bool)],
    args: impl IntoIterator<Item = String>,
) -> Result<Flags, String> {
    let mut args = args.into_iter();
    let mut given = Vec::new();
    while let Some(arg) = args.next() {
        let &(name, takes_value) = table
            .iter()
            .find(|(name, _)| *name == arg)
            .ok_or_else(|| format!("unknown argument: {arg}"))?;
        let value = takes_value
            .then(|| {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            })
            .transpose()?;
        given.push((name, value));
    }
    Ok(Flags(given))
}

impl Flags {
    /// Whether `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(given, _)| *given == name)
    }

    /// The value given for `name`, `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// The value does not parse as a `T`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let given = self.0.iter().rev().find(|(given, _)| *given == name);
        given
            .and_then(|(_, value)| value.as_deref())
            .map(|value| value.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }
}

/// Writes a rendered document to the file `out`, or prints it when no
/// file was asked for.
///
/// # Errors
///
/// The file cannot be written.
pub fn emit(json: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_workloads::workloads;

    #[test]
    fn evaluate_produces_consistent_numbers() {
        let w = &workloads()[0];
        let eval = evaluate(
            w,
            1_024,
            &DistillConfig::default(),
            &TimingConfig::default(),
        );
        assert!(eval.speedup > 0.0);
        assert_eq!(
            eval.mssp.run.stats.committed_instructions,
            eval.baseline.instructions
        );
        assert!(eval.boundary_count > 0);
    }

    #[test]
    fn harness_scale_has_floor() {
        let w = &workloads()[0];
        assert_eq!(harness_scale(w, u64::MAX), 256);
        assert_eq!(harness_scale(w, 1), w.default_scale);
    }
}
