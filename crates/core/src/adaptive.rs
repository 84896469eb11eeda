//! Online adaptive re-distillation: live profiling and the divergence
//! detector behind distilled-program hot-swap.
//!
//! The paper's soundness split — distillation is performance-only, the
//! verify/commit protocol alone guarantees correctness — makes replacing
//! the distilled program mid-run safe *by construction*: a hot-swap at a
//! task boundary abandons in-flight tasks exactly like a squash, and the
//! new master is just another untrusted prediction source. This module
//! supplies the policy side of that loop:
//!
//! * a **live [`Profile`]** fed from verified execution (recovery
//!   segments) plus squash feedback, with exponential decay so old
//!   program phases fade;
//! * a **divergence detector** comparing observed behaviour against the
//!   assumptions in the installed distillation (wrong-path/assert failure
//!   rate, overall squash rate, fraction of verified instructions landing
//!   in code the training profile called cold): a window that diverges
//!   requests one recompile with the full pass pipeline.
//!
//! The controller is executor-agnostic: executors feed it observations
//! and, at swap-safe points (task boundaries), let it service an
//! outstanding request by running the [`Recompiler`] inline, then report
//! the install back. Both executors recompile at the requesting boundary,
//! so they install the same swaps at the same commit points. Candidate
//! programs must keep the pinned boundary set and crossing grouping — the
//! controller rejects anything else — so a swap changes only the master's
//! fast path, never the slave protocol. The recompiler itself is injected
//! by callers (typically `mssp-lint`'s `validated_recompiler`, keeping
//! every candidate behind the full lint gate) so this crate stays
//! independent of the linter.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use mssp_analysis::Profile;
use mssp_distill::Distilled;
use mssp_machine::{Cell, Delta, MachineState, StepInfo};

use crate::protocol::{EngineStats, SquashReason};

/// A recompilation callback: given the controller's live profile,
/// produce a fresh distilled program (or a rendered error — lint
/// rejections land here). Callers wire this to `mssp-lint`'s
/// `validated_recompiler`, which captures the original program and the
/// pinned boundary set; the engine never learns about the linter.
pub type Recompiler = Box<dyn FnMut(&Profile) -> Result<Distilled, String> + Send>;

/// Tasks (committed + squashed) and recovery segments per evaluation
/// window.
pub(crate) const WINDOW_TASKS: u64 = 32;
/// Squash events within one window above which behaviour counts as
/// divergent from the installed distillation.
const MAX_SQUASHES_PER_WINDOW: u64 = 3;
/// Wrong-path squashes (failed branch assertions) within one window above
/// which behaviour counts as divergent, independent of the all-cause
/// squash budget.
const MAX_WRONG_PATH_PER_WINDOW: u64 = 2;
/// Fraction of a window's verified instructions executed at PCs the
/// training profile called cold (recovery segments walking code the
/// master's image elided) above which behaviour counts as divergent.
const MAX_COLD_FRACTION: f64 = 0.25;
/// Apply one [`Profile::decay`] round to the live profile every this many
/// windows.
const DECAY_EVERY_WINDOWS: u64 = 4;

/// What triggers a recompile. The default leaves it to the divergence
/// detector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveConfig {
    /// Forced swap schedule for differential testing: at each listed
    /// committed-task count, request a recompile. A non-empty schedule
    /// replaces the divergence detector: the controller then requests only
    /// the listed swaps.
    pub force_swap_at: Vec<u64>,
}

/// One hot-swap install, with the stats counters frozen at that moment
/// so before/after behaviour (dynamic-instruction ratio, squash rate)
/// can be split per swap.
#[derive(Debug, Clone, Copy)]
pub struct SwapMarker {
    /// Committed tasks at install time.
    pub at_committed_tasks: u64,
    /// Wall-clock microseconds from taking the request to install
    /// (recompile + validation + epoch bump).
    pub latency_micros: u64,
    /// Engine counters snapshotted at install.
    pub stats: EngineStats,
}

/// A recompiled program that passed validation and is ready to install.
pub(crate) struct SwapCandidate {
    pub program: Arc<Distilled>,
    /// Wall-clock microseconds from taking the request to validation.
    pub latency_micros: u64,
}

/// Summary of one adaptive run.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveReport {
    /// Recompilations the recompiler rejected (distillation error or
    /// lint-gate refusal).
    pub recompile_failures: u64,
    /// Candidates rejected for changing the pinned boundary set or the
    /// crossing grouping (must stay `0`; counted rather than asserted so
    /// a buggy recompiler degrades to the frozen program).
    pub candidates_rejected: u64,
    /// Hot-swaps actually installed, in order.
    pub swaps: Vec<SwapMarker>,
    /// Windows whose observed behaviour diverged from the installed
    /// distillation's assumptions.
    pub divergent_windows: u64,
    /// Evaluation windows completed.
    pub windows: u64,
}

/// The divergence detector and its recompile request. See the module docs
/// for the protocol; executors own one of these per adaptive run.
pub struct AdaptiveController {
    config: AdaptiveConfig,
    /// Live profile: seeded from the training profile (prior knowledge,
    /// decays away) and fed from verified recovery execution.
    live: Profile,
    /// PCs the training profile saw execute — the installed
    /// distillation's notion of "hot". Verified instructions outside
    /// this set are the cold-code divergence signal.
    hot_pcs: BTreeSet<u64>,
    /// Pinned task segmentation every candidate must preserve.
    boundaries: BTreeSet<u64>,
    crossings_per_task: u64,

    /// A recompile is requested; it runs at the next swap-safe point.
    pending: bool,
    committed_tasks: u64,
    next_forced: usize,

    window_tasks: u64,
    window_squashes: u64,
    window_wrong_path: u64,
    window_task_instrs: u64,
    window_recovery_instrs: u64,
    window_cold_instrs: u64,

    report: AdaptiveReport,
}

impl std::fmt::Debug for AdaptiveController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveController")
            .field("pending", &self.pending)
            .field("committed_tasks", &self.committed_tasks)
            .field("windows", &self.report.windows)
            .field("swaps", &self.report.swaps.len())
            .finish_non_exhaustive()
    }
}

impl AdaptiveController {
    /// Builds a controller for a run starting from `distilled` (whose
    /// boundary set and crossing grouping become the pinned segmentation)
    /// trained on `training_profile` (whose executed-PC set defines
    /// "hot", and which seeds the live profile as decaying prior
    /// knowledge).
    #[must_use]
    pub fn new(
        mut config: AdaptiveConfig,
        distilled: &Distilled,
        training_profile: &Profile,
    ) -> AdaptiveController {
        config.force_swap_at.sort_unstable();
        AdaptiveController {
            config,
            live: training_profile.clone(),
            hot_pcs: training_profile.iter_exec().map(|(pc, _)| pc).collect(),
            boundaries: distilled.boundaries().clone(),
            crossings_per_task: distilled.crossings_per_task().max(1),
            pending: false,
            committed_tasks: 0,
            next_forced: 0,
            window_tasks: 0,
            window_squashes: 0,
            window_wrong_path: 0,
            window_task_instrs: 0,
            window_recovery_instrs: 0,
            window_cold_instrs: 0,
            report: AdaptiveReport::default(),
        }
    }

    /// Feeds one verified instruction from a recovery segment into the
    /// live profile and the cold-code divergence signal. Recovery is the
    /// non-speculative path, so everything observed here is architected
    /// truth — exactly where a new program phase first shows up.
    pub(crate) fn observe_recovery_step(&mut self, info: &StepInfo) {
        if !info.halted {
            self.window_recovery_instrs += 1;
            if !self.hot_pcs.contains(&info.pc) {
                self.window_cold_instrs += 1;
            }
        }
        self.live.observe(info);
    }

    /// Records one completed recovery segment. Recovery segments advance
    /// the window clock like tasks do — otherwise a master lost in
    /// post-shift code (producing no tasks at all, only sequential
    /// recovery) would freeze the windows exactly when adaptation is
    /// most needed.
    pub(crate) fn observe_recovery_segment(&mut self) {
        self.bump_window();
    }

    /// Records one committed task (window clock + forced-swap schedule).
    pub(crate) fn observe_commit(&mut self, instructions: u64) {
        self.committed_tasks += 1;
        self.window_task_instrs += instructions;
        while let Some(&at) = self.config.force_swap_at.get(self.next_forced) {
            if self.committed_tasks < at {
                break;
            }
            self.next_forced += 1;
            self.pending = true;
        }
        self.bump_window();
    }

    /// Records the squash of a task that read `live_ins`, against `arch`:
    /// window counters plus slice feedback into the live profile
    /// (`mark_wrong_path` for failed assertions, `mark_hard_live_in` for
    /// the registers among the live-ins of a live-in mismatch; memory
    /// live-in footprints depend on executor timing, register live-ins do
    /// not).
    pub(crate) fn observe_squash(
        &mut self,
        reason: SquashReason,
        live_ins: &Delta,
        arch: &MachineState,
    ) {
        self.window_squashes += 1;
        if reason == SquashReason::WrongPath {
            self.window_wrong_path += 1;
            self.live.mark_wrong_path(arch.pc());
        } else if reason == SquashReason::LiveInMismatch {
            for (cell, _, _) in live_ins.mismatches_against(arch) {
                let Cell::Reg(reg) = cell else { continue };
                self.live.mark_hard_live_in(reg);
            }
        }
        self.bump_window();
    }

    /// Services the outstanding recompile request, if any, at a swap-safe
    /// point (a task boundary): runs `recompiler` on the live profile and
    /// returns a candidate that keeps the pinned segmentation, for the
    /// executor to install at this same boundary and report with
    /// [`AdaptiveController::note_swap_installed`]. A failed recompile or
    /// a rejected candidate is counted; the request is spent either way,
    /// so a later divergent window can retry.
    pub(crate) fn recompile(&mut self, recompiler: &mut Recompiler) -> Option<SwapCandidate> {
        if !std::mem::take(&mut self.pending) {
            return None;
        }
        let started = Instant::now();
        match recompiler(&self.live) {
            Ok(d) if self.keeps_segmentation(&d) => {
                return Some(SwapCandidate {
                    program: Arc::new(d),
                    latency_micros: started.elapsed().as_micros() as u64,
                });
            }
            Ok(_) => self.report.candidates_rejected += 1,
            Err(_) => self.report.recompile_failures += 1,
        }
        None
    }

    /// Whether `candidate` preserves the pinned task segmentation. A
    /// candidate that fails is dropped (and counted) — installing it
    /// would change the slave protocol mid-run.
    fn keeps_segmentation(&self, candidate: &Distilled) -> bool {
        *candidate.boundaries() == self.boundaries
            && candidate.crossings_per_task().max(1) == self.crossings_per_task
    }

    /// Reports a hot-swap install, freezing `stats` into the report so
    /// before/after behaviour can be split at this marker.
    pub(crate) fn note_swap_installed(&mut self, latency_micros: u64, stats: EngineStats) {
        self.report.swaps.push(SwapMarker {
            at_committed_tasks: self.committed_tasks,
            latency_micros,
            stats,
        });
        // The swap resets the behavioural baseline: stale window counts
        // describe the *previous* program.
        self.reset_window();
    }

    /// Consumes the controller into its report.
    #[must_use]
    pub(crate) fn into_report(self) -> AdaptiveReport {
        self.report
    }

    // ---- window machinery ------------------------------------------------

    fn bump_window(&mut self) {
        if !self.config.force_swap_at.is_empty() {
            return;
        }
        self.window_tasks += 1;
        if self.window_tasks >= WINDOW_TASKS {
            self.end_window();
        }
    }

    fn end_window(&mut self) {
        self.report.windows += 1;
        let verified = self.window_task_instrs + self.window_recovery_instrs;
        let cold_fraction = if verified == 0 {
            0.0
        } else {
            self.window_cold_instrs as f64 / verified as f64
        };
        let diverged = self.window_squashes > MAX_SQUASHES_PER_WINDOW
            || self.window_wrong_path > MAX_WRONG_PATH_PER_WINDOW
            || cold_fraction > MAX_COLD_FRACTION;
        if diverged {
            self.report.divergent_windows += 1;
            self.pending = true;
        }
        if self.report.windows.is_multiple_of(DECAY_EVERY_WINDOWS) {
            self.live.decay();
        }
        self.reset_window();
    }

    fn reset_window(&mut self) {
        self.window_tasks = 0;
        self.window_squashes = 0;
        self.window_wrong_path = 0;
        self.window_task_instrs = 0;
        self.window_recovery_instrs = 0;
        self.window_cold_instrs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use std::collections::BTreeMap;

    /// A controller pinned to a one-boundary loop, and a recompiler that
    /// answers every request with that pinned program.
    fn controller(config: AdaptiveConfig) -> (AdaptiveController, Recompiler) {
        let p = assemble(
            "main: addi s0, zero, 50
             loop: addi s1, s1, 1
                   addi s0, s0, -1
                   bnez s0, loop
                   halt",
        )
        .unwrap();
        let prof = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let boundary = p.symbol("loop").unwrap();
        let d = Distilled::from_parts(
            p.clone(),
            BTreeSet::from([boundary]),
            BTreeMap::from([(p.entry(), p.entry()), (boundary, boundary)]),
        );
        let ctl = AdaptiveController::new(config, &d, &prof);
        let rec: Recompiler = Box::new(move |_| Ok(d.clone()));
        (ctl, rec)
    }

    /// Whether `ctl` hands over a candidate at this boundary.
    fn serve(ctl: &mut AdaptiveController, rec: &mut Recompiler) -> bool {
        ctl.recompile(rec).is_some()
    }

    fn quiet_commits(ctl: &mut AdaptiveController, n: u64) {
        for _ in 0..n {
            ctl.observe_commit(100);
        }
    }

    /// Squashes, for `reason`, a task that read `live_ins`, against an
    /// architected state at `pc` with `s2 = 2`.
    fn squash(
        ctl: &mut AdaptiveController,
        reason: SquashReason,
        pc: u64,
        live_ins: &[(Cell, u64)],
    ) {
        let mut arch = MachineState::new();
        arch.set_pc(pc);
        arch.set_reg(Reg::S2, 2);
        ctl.observe_squash(reason, &live_ins.iter().copied().collect(), &arch);
    }

    /// One divergent window: four wrong-path squashes, then clean commits.
    fn divergent_window(ctl: &mut AdaptiveController) {
        for _ in 0..4 {
            squash(ctl, SquashReason::WrongPath, 0x1234, &[]);
        }
        quiet_commits(ctl, WINDOW_TASKS - 4);
    }

    #[test]
    fn stationary_behaviour_requests_nothing() {
        let (mut ctl, mut rec) = controller(AdaptiveConfig::default());
        quiet_commits(&mut ctl, 1000);
        assert!(!serve(&mut ctl, &mut rec));
        assert_eq!(ctl.report.divergent_windows, 0);
        assert!(ctl.report.windows > 10);
    }

    #[test]
    fn a_divergent_window_requests_one_recompile() {
        let (mut ctl, mut rec) = controller(AdaptiveConfig::default());
        divergent_window(&mut ctl);
        assert!(ctl.live.wrong_path_pcs().contains(&0x1234));
        assert!(serve(&mut ctl, &mut rec));
        assert!(!serve(&mut ctl, &mut rec), "request is one-shot");
        // Clean windows after it request nothing more.
        quiet_commits(&mut ctl, 4 * WINDOW_TASKS);
        assert!(!serve(&mut ctl, &mut rec));
    }

    #[test]
    fn a_storm_before_the_next_swap_safe_point_yields_one_candidate() {
        let (mut ctl, mut rec) = controller(AdaptiveConfig::default());
        for _ in 0..3 {
            divergent_window(&mut ctl);
        }
        assert_eq!(ctl.report.divergent_windows, 3);
        assert!(serve(&mut ctl, &mut rec));
        assert!(!serve(&mut ctl, &mut rec));
    }

    #[test]
    fn divergence_after_an_install_requests_again() {
        let (mut ctl, mut rec) = controller(AdaptiveConfig::default());
        divergent_window(&mut ctl);
        assert!(serve(&mut ctl, &mut rec));
        ctl.note_swap_installed(0, EngineStats::default());
        quiet_commits(&mut ctl, 2 * WINDOW_TASKS);
        assert!(!serve(&mut ctl, &mut rec));
        for _ in 0..4 {
            let live_ins = [(Cell::Reg(Reg::S2), 1), (Cell::Mem(4), 1)];
            squash(&mut ctl, SquashReason::LiveInMismatch, 0, &live_ins);
        }
        quiet_commits(&mut ctl, WINDOW_TASKS - 4);
        assert!(serve(&mut ctl, &mut rec));
        assert_eq!(ctl.live.hard_live_ins(), &BTreeSet::from([Reg::S2]));
        ctl.note_swap_installed(0, EngineStats::default());
        assert_eq!(ctl.report.swaps.len(), 2);
    }

    #[test]
    fn cold_code_fraction_alone_trips_divergence() {
        let (mut ctl, mut rec) = controller(AdaptiveConfig::default());
        // Recovery walks PCs the training profile never saw: 1200 of them
        // against the window's 32 x 100 committed instructions is more
        // than a quarter of what it verified.
        for i in 0..1200u64 {
            let info = StepInfo {
                pc: 0x9000 + i * 4,
                instr: mssp_isa::Instr::nop(),
                next_pc: 0x9000 + i * 4 + 4,
                halted: false,
                taken: None,
                mem: None,
            };
            ctl.observe_recovery_step(&info);
        }
        quiet_commits(&mut ctl, WINDOW_TASKS);
        assert!(serve(&mut ctl, &mut rec));
        assert_eq!(ctl.report.divergent_windows, 1);
    }

    #[test]
    fn failed_recompile_rearms_the_controller() {
        let (mut ctl, mut rec) = controller(AdaptiveConfig::default());
        divergent_window(&mut ctl);
        let mut failing: Recompiler = Box::new(|_| Err("lint".into()));
        assert!(!serve(&mut ctl, &mut failing));
        assert_eq!(ctl.report.recompile_failures, 1);
        // The next divergent window can retry.
        divergent_window(&mut ctl);
        assert!(serve(&mut ctl, &mut rec));
    }

    #[test]
    fn forced_schedule_fires_at_committed_task_counts() {
        let config = AdaptiveConfig {
            force_swap_at: vec![3, 6],
        };
        let (mut ctl, mut rec) = controller(config);
        quiet_commits(&mut ctl, 2);
        assert!(!serve(&mut ctl, &mut rec));
        quiet_commits(&mut ctl, 1);
        assert!(serve(&mut ctl, &mut rec));
        ctl.note_swap_installed(0, EngineStats::default());
        quiet_commits(&mut ctl, 2);
        assert!(!serve(&mut ctl, &mut rec));
        quiet_commits(&mut ctl, 1);
        assert!(serve(&mut ctl, &mut rec));
        assert_eq!(ctl.report.swaps[0].at_committed_tasks, 3);
    }

    #[test]
    fn unsorted_schedule_fires_every_entry_at_its_count() {
        let config = AdaptiveConfig {
            force_swap_at: vec![6, 3],
        };
        let (mut ctl, mut rec) = controller(config);
        quiet_commits(&mut ctl, 3);
        assert!(serve(&mut ctl, &mut rec));
        ctl.note_swap_installed(0, EngineStats::default());
        quiet_commits(&mut ctl, 3);
        assert!(serve(&mut ctl, &mut rec));
    }

    #[test]
    fn forced_schedule_replaces_the_detector() {
        let config = AdaptiveConfig {
            force_swap_at: vec![u64::MAX],
        };
        let (mut ctl, mut rec) = controller(config);
        // A storm that trips the default detector in its first window.
        for _ in 0..4 * WINDOW_TASKS {
            squash(&mut ctl, SquashReason::WrongPath, 0, &[]);
        }
        assert!(!serve(&mut ctl, &mut rec));
        assert_eq!(ctl.report.windows, 0);
    }

    #[test]
    fn candidate_validation_pins_segmentation() {
        let config = AdaptiveConfig {
            force_swap_at: vec![1],
        };
        let (mut ctl, _) = controller(config);
        quiet_commits(&mut ctl, 1);
        let p = assemble("main: halt").unwrap();
        let wrong = Distilled::from_parts(p, BTreeSet::from([0xdead]), BTreeMap::new());
        let mut moved: Recompiler = Box::new(move |_| Ok(wrong.clone()));
        assert!(!serve(&mut ctl, &mut moved));
        assert_eq!(ctl.report.candidates_rejected, 1);
        assert!(ctl.report.swaps.is_empty());
    }
}
