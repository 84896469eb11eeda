//! Epoch hot-swap parity: the discrete engine and the threaded executor
//! must agree when the adaptive controller swaps the distilled program
//! mid-run.
//!
//! A deterministic recompiler (redistilling from the *training* profile,
//! ignoring the live one, so both executors install byte-identical
//! candidates) plus a forced swap schedule pins the swap points to fixed
//! committed-task counts. The two executors must then agree on final
//! state, committed-task count, the full squash histogram, and the swap
//! markers themselves, at every worker count. A second suite leaves the
//! swap decision to the default controller on the phase-shifting
//! workloads, so swaps land in the middle of a live-in-mismatch squash
//! storm. Both executors recompile at the requesting task boundary, so
//! there too they must agree on final state, the commit, squash, recovery
//! and swap counters, and the swap markers.

use mssp::core::{run_threaded_adaptive, AdaptiveConfig, AdaptiveController, Recompiler};
use mssp::prelude::*;

/// A loop with multiplies and memory traffic, long enough for dozens of
/// tasks at the default granularity.
fn fixture() -> (Program, Distilled, Profile) {
    let p = assemble(
        "main:  addi s0, zero, 3000
         loop:  add  s1, s1, s0
                mul  t0, s0, s0
                add  s1, s1, t0
                sd   s1, -8(sp)
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    (p, d, profile)
}

/// A recompiler that ignores the live profile and redistills from a
/// fixed training profile: deterministic, so the discrete and threaded
/// executors install identical candidates at identical swap points.
fn deterministic_recompiler(p: &Program, d: &Distilled, training: &Profile) -> Recompiler {
    let program = p.clone();
    let profile = training.clone();
    let dcfg = DistillConfig::default();
    let pin = d.segmentation().clone();
    Box::new(move |_live| redistill(&program, &profile, &dcfg, &pin).map_err(|e| e.to_string()))
}

/// What both executors must agree on: the commit, squash, recovery and
/// swap counters, and each swap's commit point. Left out are
/// the in-flight counts (`spawned_tasks`, `squashed_tasks`,
/// `master_instructions`, `swap_abandoned_tasks`): how far speculation ran
/// ahead before a squash or a swap cut it off is up to the host's timing.
#[derive(Debug, PartialEq)]
struct Schedule {
    counters: Vec<(&'static str, u64)>,
    swaps: Vec<u64>,
}

fn schedule(s: &EngineStats, report: &AdaptiveReport) -> Schedule {
    let counters = vec![
        ("committed_tasks", s.committed_tasks),
        ("committed_instructions", s.committed_instructions),
        ("squashes_wrong_path", s.squashes_wrong_path),
        ("squashes_live_in", s.squashes_live_in),
        ("squashes_overrun", s.squashes_overrun),
        ("squashes_fault", s.squashes_fault),
        ("recovery_segments", s.recovery_segments),
        ("recovery_instructions", s.recovery_instructions),
        ("swaps_installed", s.swaps_installed),
    ];
    let swaps = report.swaps.iter().map(|m| m.at_committed_tasks).collect();
    Schedule { counters, swaps }
}

/// Forced swaps only — a schedule replaces the divergence detector, so the
/// controller cannot trigger on its own and perturb the schedule.
fn forced_config() -> AdaptiveConfig {
    AdaptiveConfig {
        force_swap_at: vec![6, 14],
    }
}

#[test]
fn forced_swaps_agree_across_executors() {
    let (p, d, training) = fixture();
    let mut seq = SeqMachine::boot(&p);
    seq.run(u64::MAX).unwrap();

    let discrete = {
        let ctl = AdaptiveController::new(forced_config(), &training);
        let rec = deterministic_recompiler(&p, &d, &training);
        let mut e = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
        e.enable_adaptive(ctl, rec);
        e.run().unwrap()
    };
    assert_eq!(discrete.state.reg(Reg::S1), seq.state().reg(Reg::S1));
    assert_eq!(discrete.stats.swaps_installed, 2, "{:?}", discrete.stats);
    let dreport = discrete.adaptive.as_ref().unwrap();

    for workers in [1usize, 2, 4, 8] {
        let ctl = AdaptiveController::new(forced_config(), &training);
        let rec = deterministic_recompiler(&p, &d, &training);
        let cfg = EngineConfig {
            num_slaves: workers,
            ..EngineConfig::default()
        };
        let run = run_threaded_adaptive(&p, &d, cfg, ctl, rec).unwrap();

        // Final architected state.
        assert_eq!(
            run.state.reg(Reg::S1),
            seq.state().reg(Reg::S1),
            "{workers} workers: committed state diverged"
        );
        assert_eq!(run.state.pc(), seq.state().pc());

        // Commit count and the full squash histogram.
        assert_eq!(
            run.stats.committed_tasks, discrete.stats.committed_tasks,
            "{workers} workers: committed-task count diverged"
        );
        assert_eq!(
            run.stats.committed_instructions,
            discrete.stats.committed_instructions
        );
        assert_eq!(
            run.stats.squashes_wrong_path,
            discrete.stats.squashes_wrong_path
        );
        assert_eq!(run.stats.squashes_live_in, discrete.stats.squashes_live_in);
        assert_eq!(run.stats.squashes_overrun, discrete.stats.squashes_overrun);
        assert_eq!(run.stats.squashes_fault, discrete.stats.squashes_fault);

        // The swap schedule itself: the same commit points.
        assert_eq!(run.stats.swaps_installed, 2, "{workers} workers");
        let report = run.adaptive.as_ref().unwrap();
        assert_eq!(report.swaps.len(), dreport.swaps.len());
        for (t, d_marker) in report.swaps.iter().zip(&dreport.swaps) {
            assert_eq!(
                t.at_committed_tasks, d_marker.at_committed_tasks,
                "{workers} workers: swap landed at a different commit point"
            );
        }
    }
}

#[test]
fn mid_storm_swap_preserves_state() {
    // Phase-shifting workloads far off their training profile: the frozen
    // distillation asserts away a branch that fires on every post-shift
    // iteration, so the run is a wall-to-wall live-in-mismatch squash
    // storm when the controller decides to swap. Divergence detection is
    // left on its defaults — the swaps land mid-storm, wherever the
    // windows put them.
    for w in mssp::workloads::phase_workloads() {
        // Long enough for the default windows to swap, three times each.
        let scale = 2000;
        let train = w.phase_program(scale, 0);
        let reference = w.phase_program(scale, scale);
        let profile = Profile::collect(&train, u64::MAX).unwrap();
        let d = distill(&reference, &profile, &DistillConfig::default()).unwrap();

        let mut seq = SeqMachine::boot(&reference);
        seq.run(u64::MAX).unwrap();

        let discrete = {
            let ctl = AdaptiveController::new(AdaptiveConfig::default(), &profile);
            let rec = deterministic_recompiler(&reference, &d, &profile);
            let mut e = Engine::new(&reference, &d, EngineConfig::default(), UnitCost);
            e.enable_adaptive(ctl, rec);
            e.run().unwrap()
        };
        assert_eq!(
            discrete.state.reg(CHECKSUM_REG),
            seq.state().reg(CHECKSUM_REG),
            "{}: discrete mid-storm swap corrupted state",
            w.name
        );
        assert!(discrete.stats.swaps_installed > 0, "{}: no swap", w.name);
        let expected = schedule(&discrete.stats, discrete.adaptive.as_ref().unwrap());

        for workers in [1usize, 2, 4, 8] {
            let ctl = AdaptiveController::new(AdaptiveConfig::default(), &profile);
            let rec = deterministic_recompiler(&reference, &d, &profile);
            let cfg = EngineConfig {
                num_slaves: workers,
                ..EngineConfig::default()
            };
            let run = run_threaded_adaptive(&reference, &d, cfg, ctl, rec).unwrap();
            assert_eq!(
                run.state.reg(CHECKSUM_REG),
                seq.state().reg(CHECKSUM_REG),
                "{} at {workers} workers: mid-storm swap corrupted state",
                w.name
            );
            assert_eq!(run.state.pc(), seq.state().pc());
            assert_eq!(
                schedule(&run.stats, run.adaptive.as_ref().unwrap()),
                expected,
                "{} at {workers} workers: the swap schedule diverged",
                w.name
            );
        }
    }
}
