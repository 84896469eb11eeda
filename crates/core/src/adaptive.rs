//! Online adaptive re-distillation: live profiling, divergence detection
//! and the tier state machine behind distilled-program hot-swap.
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
//!   in code the training profile called cold);
//! * a **tier state machine** mirroring a JIT's compilation levels: on
//!   divergence request a cheap DCE-only recompile ([`Tier::Fast`]) for
//!   quick relief, then — once the live profile has been stable for a
//!   configurable number of windows — the full pipeline ([`Tier::Full`]).
//!
//! The controller is executor-agnostic and purely stateful: executors
//! feed it observations, poll [`AdaptiveController::take_request`] at
//! swap-safe points (task boundaries), run the [`Recompiler`] either
//! inline (discrete engine, synchronous threaded mode) or on a background
//! thread (threaded executor), and report installs back. Candidate
//! programs must keep the pinned boundary set and crossing grouping —
//! [`AdaptiveController::validate_candidate`] rejects anything else —
//! so a swap changes only the master's fast path, never the slave
//! protocol. The recompiler itself is injected by callers (typically
//! `mssp-lint`'s `redistill_validated`, keeping every candidate behind
//! the full lint gate) so this crate stays independent of the linter.

use std::collections::BTreeSet;

use mssp_analysis::Profile;
use mssp_distill::{Distilled, Tier};
use mssp_isa::Reg;
use mssp_machine::StepInfo;

use crate::protocol::{EngineStats, SquashReason};

/// A recompilation callback: given the controller's live profile and a
/// tier, produce a fresh distilled program (or a rendered error — lint
/// rejections land here). Callers wire this to `redistill_validated`
/// with the original program, distiller config and pinned boundary set
/// captured; the engine never learns about the linter.
pub type Recompiler = Box<dyn FnMut(&Profile, Tier) -> Result<Distilled, String> + Send>;

/// Controller thresholds and pacing.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Tasks (committed + squashed) per evaluation window.
    pub window_tasks: u64,
    /// Squash events within one window above which behaviour counts as
    /// divergent from the installed distillation.
    pub max_squashes_per_window: u64,
    /// Wrong-path squashes (failed branch assertions) within one window
    /// above which behaviour counts as divergent, independent of the
    /// all-cause squash budget.
    pub max_wrong_path_per_window: u64,
    /// Fraction of a window's verified instructions executed at PCs the
    /// training profile called cold (recovery segments walking code the
    /// master's image elided) above which behaviour counts as divergent.
    pub max_cold_fraction: f64,
    /// Consecutive non-divergent windows after a fast-tier install before
    /// the full-pipeline recompile is requested.
    pub stable_windows_for_full: u64,
    /// Apply one [`Profile::decay`] round to the live profile every this
    /// many windows (`0` disables decay).
    pub decay_every_windows: u64,
    /// Forced swap schedule for differential testing: at each listed
    /// committed-task count, request the paired tier regardless of the
    /// thresholds above. Entries must be sorted ascending.
    pub force_swap_at: Vec<(u64, Tier)>,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            window_tasks: 32,
            max_squashes_per_window: 3,
            max_wrong_path_per_window: 2,
            max_cold_fraction: 0.25,
            stable_windows_for_full: 2,
            decay_every_windows: 4,
            force_swap_at: Vec::new(),
        }
    }
}

/// Where the tier state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Running the offline distillation; divergence requests a fast-tier
    /// recompile.
    Watching,
    /// A recompile request is outstanding with the recompiler.
    Pending(Tier),
    /// A fast-tier program is installed; stable windows accumulate
    /// toward the full-tier recompile, divergence re-requests fast.
    FastInstalled,
    /// The full pipeline is installed; divergence restarts the cycle.
    FullInstalled,
}

/// One hot-swap install, with the stats counters frozen at that moment
/// so before/after behaviour (dynamic-instruction ratio, squash rate)
/// can be split per swap.
#[derive(Debug, Clone, Copy)]
pub struct SwapMarker {
    /// Which tier the installed program was compiled at.
    pub tier: Tier,
    /// Committed tasks at install time.
    pub at_committed_tasks: u64,
    /// Wall-clock microseconds from taking the request to install
    /// (recompile + validation + epoch bump).
    pub latency_micros: u64,
    /// Engine counters snapshotted at install.
    pub stats: EngineStats,
}

/// Summary of one adaptive run.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveReport {
    /// Fast-tier recompilations that produced a valid candidate.
    pub recompilations_fast: u64,
    /// Full-tier recompilations that produced a valid candidate.
    pub recompilations_full: u64,
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

impl AdaptiveReport {
    /// Total recompilations that produced a valid candidate.
    #[must_use]
    pub fn recompilations(&self) -> u64 {
        self.recompilations_fast + self.recompilations_full
    }

    /// Swaps installed.
    #[must_use]
    pub fn swaps_installed(&self) -> u64 {
        self.swaps.len() as u64
    }
}

/// The divergence detector and tier state machine. See the module docs
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

    phase: Phase,
    pending_request: Option<Tier>,
    stable_run: u64,
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
            .field("phase", &self.phase)
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
        config: AdaptiveConfig,
        distilled: &Distilled,
        training_profile: &Profile,
    ) -> AdaptiveController {
        AdaptiveController {
            config,
            live: training_profile.clone(),
            hot_pcs: training_profile.iter_exec().map(|(pc, _)| pc).collect(),
            boundaries: distilled.boundaries().clone(),
            crossings_per_task: distilled.crossings_per_task().max(1),
            phase: Phase::Watching,
            pending_request: None,
            stable_run: 0,
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
    pub fn observe_recovery_step(&mut self, info: &StepInfo) {
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
    pub fn observe_recovery_segment(&mut self) {
        self.bump_window();
    }

    /// Records one committed task (window clock + forced-swap schedule).
    pub fn observe_commit(&mut self, instructions: u64) {
        self.committed_tasks += 1;
        self.window_task_instrs += instructions;
        while let Some(&(at, tier)) = self.config.force_swap_at.get(self.next_forced) {
            if self.committed_tasks < at {
                break;
            }
            self.next_forced += 1;
            self.pending_request = Some(tier);
            self.phase = Phase::Pending(tier);
        }
        self.bump_window();
    }

    /// Records one squash event: window counters plus slice feedback into
    /// the live profile (`mark_wrong_path` for failed assertions,
    /// `mark_hard_live_in` for mispredicted registers).
    pub fn observe_squash(&mut self, reason: SquashReason, arch_pc: u64, mismatched: &[Reg]) {
        self.window_squashes += 1;
        if reason == SquashReason::WrongPath {
            self.window_wrong_path += 1;
            self.live.mark_wrong_path(arch_pc);
        }
        for &reg in mismatched {
            self.live.mark_hard_live_in(reg);
        }
        self.bump_window();
    }

    /// The outstanding recompile request, if any. Executors call this at
    /// swap-safe points (task boundaries) and hand the returned tier to
    /// the recompiler with a [`AdaptiveController::live_profile`]
    /// snapshot.
    pub fn take_request(&mut self) -> Option<Tier> {
        self.pending_request.take()
    }

    /// The live profile (snapshot/clone this for a background recompile).
    #[must_use]
    pub fn live_profile(&self) -> &Profile {
        &self.live
    }

    /// The pinned boundary set candidates must preserve.
    #[must_use]
    pub fn boundaries(&self) -> &BTreeSet<u64> {
        &self.boundaries
    }

    /// The pinned crossings-per-task grouping candidates must preserve.
    #[must_use]
    pub fn crossings_per_task(&self) -> u64 {
        self.crossings_per_task
    }

    /// Whether `candidate` preserves the pinned task segmentation. A
    /// candidate that fails is dropped (and counted) — installing it
    /// would change the slave protocol mid-run.
    #[must_use]
    pub fn validate_candidate(&self, candidate: &Distilled) -> bool {
        *candidate.boundaries() == self.boundaries
            && candidate.crossings_per_task().max(1) == self.crossings_per_task
    }

    /// Reports a recompilation outcome. On success the executor is
    /// expected to install the candidate and then call
    /// [`AdaptiveController::note_swap_installed`]; on failure the state
    /// machine re-arms so a later divergent window can retry.
    pub fn note_recompiled(&mut self, tier: Tier, ok: bool) {
        if ok {
            match tier {
                Tier::Fast => self.report.recompilations_fast += 1,
                Tier::Full => self.report.recompilations_full += 1,
            }
        } else {
            self.report.recompile_failures += 1;
            if self.phase == Phase::Pending(tier) {
                self.phase = Phase::Watching;
            }
        }
    }

    /// Reports a candidate rejected by
    /// [`AdaptiveController::validate_candidate`]; re-arms like a failed
    /// recompilation.
    pub fn note_candidate_rejected(&mut self, tier: Tier) {
        self.report.candidates_rejected += 1;
        if self.phase == Phase::Pending(tier) {
            self.phase = Phase::Watching;
        }
    }

    /// Reports a hot-swap install, freezing `stats` into the report so
    /// before/after behaviour can be split at this marker.
    pub fn note_swap_installed(&mut self, tier: Tier, latency_micros: u64, stats: EngineStats) {
        self.report.swaps.push(SwapMarker {
            tier,
            at_committed_tasks: self.committed_tasks,
            latency_micros,
            stats,
        });
        self.phase = match tier {
            Tier::Fast => Phase::FastInstalled,
            Tier::Full => Phase::FullInstalled,
        };
        self.stable_run = 0;
        // The swap resets the behavioural baseline: stale window counts
        // describe the *previous* program.
        self.reset_window();
    }

    /// The report so far (executors embed the final value in their run
    /// result).
    #[must_use]
    pub fn report(&self) -> &AdaptiveReport {
        &self.report
    }

    /// Consumes the controller into its report.
    #[must_use]
    pub fn into_report(self) -> AdaptiveReport {
        self.report
    }

    // ---- window machinery ------------------------------------------------

    fn bump_window(&mut self) {
        self.window_tasks += 1;
        if self.window_tasks >= self.config.window_tasks.max(1) {
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
        let diverged = self.window_squashes > self.config.max_squashes_per_window
            || self.window_wrong_path > self.config.max_wrong_path_per_window
            || cold_fraction > self.config.max_cold_fraction;
        if diverged {
            self.report.divergent_windows += 1;
        }
        match (self.phase, diverged) {
            // Divergence from any installed program requests quick relief.
            (Phase::Watching | Phase::FastInstalled | Phase::FullInstalled, true) => {
                self.stable_run = 0;
                self.pending_request = Some(Tier::Fast);
                self.phase = Phase::Pending(Tier::Fast);
            }
            // A stable stretch after fast relief earns the full pipeline.
            (Phase::FastInstalled, false) => {
                self.stable_run += 1;
                if self.stable_run >= self.config.stable_windows_for_full.max(1) {
                    self.pending_request = Some(Tier::Full);
                    self.phase = Phase::Pending(Tier::Full);
                }
            }
            _ => {}
        }
        if self.config.decay_every_windows > 0
            && self
                .report
                .windows
                .is_multiple_of(self.config.decay_every_windows)
        {
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
    use std::collections::BTreeMap;

    fn controller(config: AdaptiveConfig) -> AdaptiveController {
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
        AdaptiveController::new(config, &d, &prof)
    }

    fn quiet_commits(ctl: &mut AdaptiveController, n: u64) {
        for _ in 0..n {
            ctl.observe_commit(100);
        }
    }

    #[test]
    fn stationary_behaviour_requests_nothing() {
        let mut ctl = controller(AdaptiveConfig::default());
        quiet_commits(&mut ctl, 1000);
        assert!(ctl.take_request().is_none());
        assert_eq!(ctl.report().divergent_windows, 0);
        assert!(ctl.report().windows > 10);
    }

    #[test]
    fn squash_storm_requests_fast_then_stability_earns_full() {
        let config = AdaptiveConfig {
            window_tasks: 8,
            max_squashes_per_window: 2,
            stable_windows_for_full: 2,
            ..AdaptiveConfig::default()
        };
        let mut ctl = controller(config);
        // A divergent window: 4 wrong-path squashes among 8 tasks.
        for _ in 0..4 {
            ctl.observe_squash(SquashReason::WrongPath, 0x1234, &[]);
        }
        quiet_commits(&mut ctl, 4);
        assert_eq!(ctl.take_request(), Some(Tier::Fast));
        assert!(ctl.take_request().is_none(), "request is one-shot");
        assert!(ctl.live_profile().wrong_path_pcs().contains(&0x1234));
        // While pending, further windows request nothing.
        quiet_commits(&mut ctl, 16);
        assert!(ctl.take_request().is_none());
        // Install lands; two clean windows later the full tier is due.
        ctl.note_recompiled(Tier::Fast, true);
        ctl.note_swap_installed(Tier::Fast, 0, EngineStats::default());
        quiet_commits(&mut ctl, 16);
        assert_eq!(ctl.take_request(), Some(Tier::Full));
        ctl.note_recompiled(Tier::Full, true);
        ctl.note_swap_installed(Tier::Full, 0, EngineStats::default());
        assert_eq!(ctl.report().recompilations(), 2);
        assert_eq!(ctl.report().swaps_installed(), 2);
        // Re-divergence from the full program restarts the cycle.
        for _ in 0..4 {
            ctl.observe_squash(SquashReason::LiveInMismatch, 0, &[Reg::S2]);
        }
        quiet_commits(&mut ctl, 4);
        assert_eq!(ctl.take_request(), Some(Tier::Fast));
        assert!(ctl.live_profile().hard_live_ins().contains(&Reg::S2));
    }

    #[test]
    fn cold_code_fraction_alone_trips_divergence() {
        let config = AdaptiveConfig {
            window_tasks: 4,
            max_cold_fraction: 0.25,
            ..AdaptiveConfig::default()
        };
        let mut ctl = controller(config);
        // Recovery walks PCs the training profile never saw — enough of
        // them to dominate the window's 4 x 100 committed instructions.
        for i in 0..300u64 {
            let info = StepInfo {
                pc: 0x9000 + i * 4,
                instr: mssp_isa::Instr::Addi(Reg::ZERO, Reg::ZERO, 0),
                next_pc: 0x9000 + i * 4 + 4,
                halted: false,
                taken: None,
                mem: None,
            };
            ctl.observe_recovery_step(&info);
        }
        quiet_commits(&mut ctl, 4);
        assert_eq!(ctl.take_request(), Some(Tier::Fast));
        assert_eq!(ctl.report().divergent_windows, 1);
    }

    #[test]
    fn failed_recompile_rearms_the_state_machine() {
        let config = AdaptiveConfig {
            window_tasks: 4,
            max_squashes_per_window: 1,
            ..AdaptiveConfig::default()
        };
        let mut ctl = controller(config);
        for _ in 0..4 {
            ctl.observe_squash(SquashReason::WrongPath, 0, &[]);
        }
        assert_eq!(ctl.take_request(), Some(Tier::Fast));
        ctl.note_recompiled(Tier::Fast, false);
        assert_eq!(ctl.report().recompile_failures, 1);
        // Next divergent window can retry.
        for _ in 0..4 {
            ctl.observe_squash(SquashReason::WrongPath, 0, &[]);
        }
        assert_eq!(ctl.take_request(), Some(Tier::Fast));
    }

    #[test]
    fn forced_schedule_fires_at_committed_task_counts() {
        let config = AdaptiveConfig {
            force_swap_at: vec![(3, Tier::Fast), (6, Tier::Full)],
            ..AdaptiveConfig::default()
        };
        let mut ctl = controller(config);
        quiet_commits(&mut ctl, 2);
        assert!(ctl.take_request().is_none());
        quiet_commits(&mut ctl, 1);
        assert_eq!(ctl.take_request(), Some(Tier::Fast));
        ctl.note_recompiled(Tier::Fast, true);
        ctl.note_swap_installed(Tier::Fast, 0, EngineStats::default());
        quiet_commits(&mut ctl, 3);
        assert_eq!(ctl.take_request(), Some(Tier::Full));
        assert_eq!(ctl.report().swaps[0].at_committed_tasks, 3);
    }

    #[test]
    fn candidate_validation_pins_segmentation() {
        let ctl = controller(AdaptiveConfig::default());
        let p = assemble("main: halt").unwrap();
        let wrong = Distilled::from_parts(p, BTreeSet::from([0xdead]), BTreeMap::new());
        assert!(!ctl.validate_candidate(&wrong));
    }
}
