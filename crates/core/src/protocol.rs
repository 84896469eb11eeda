//! The MSSP protocol core: one sans-IO commit unit under two drivers.
//!
//! The paper rests correctness on a single in-order verify/commit unit.
//! This module is that unit's *policy*, written once: what a spawn, a
//! commit, a squash, a recovery segment and a hot-swap **mean** — which
//! counters move, what the value predictor learns, when the squash
//! throttle takes the master offline, when a recompiled program may be
//! installed. It performs no I/O, keeps no clock and owns no architected
//! state. The drivers decide **when**: [`crate::Engine`] raises the events
//! from virtual time, the threaded coordinator from ring messages.
//!
//! [`verify_and_commit`] is the single verdict oracle: both drivers call
//! it on the oldest finished task, and nothing else decides a commit.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use mssp_analysis::Profile;
use mssp_distill::{Distilled, Tier};
use mssp_isa::{Program, Reg};
use mssp_machine::{step, Cell, Delta, MachineState, StepInfo};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::engine::{EngineConfig, EngineError};
use crate::predictor::{Predictor, PredictorReport};
use crate::task::{RecoveryStorage, SegmentRules, Task, TaskEnd};

/// Why a squash happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashReason {
    /// The oldest task's start PC did not match the architected PC (the
    /// master predicted the wrong next task).
    WrongPath,
    /// A recorded live-in disagreed with architected state.
    LiveInMismatch,
    /// The task exceeded its instruction cap.
    Overrun,
    /// The task faulted (illegal PC).
    Fault,
}

/// The outcome of presenting the oldest finished task to the verify
/// unit — see [`verify_and_commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The task passed the memoization test: its writes were superimposed
    /// onto architected state and the PC advanced to `end_pc`.
    Commit {
        /// PC the architected state advanced to (the task's end PC).
        end_pc: u64,
        /// Whether the committed task executed `halt`.
        halted: bool,
    },
    /// The task failed verification; architected state is untouched.
    Squash(SquashReason),
}

/// The paper's verify/commit step, shared by the discrete-time [`crate::Engine`]
/// and the threaded executor so the two stay behaviorally identical.
///
/// The oldest task commits iff it started at the architected PC, ended at
/// a boundary or `halt`, and every recorded live-in matches architected
/// state (the memoization test). On success the task's writes are applied
/// as one superimposition and the PC advances; on any failure `arch` is
/// left untouched and the caller must squash all younger tasks and run
/// recovery.
pub fn verify_and_commit(arch: &mut MachineState, task: &Task, end: TaskEnd) -> VerifyOutcome {
    if task.start_pc != arch.pc() {
        return VerifyOutcome::Squash(SquashReason::WrongPath);
    }
    match end {
        TaskEnd::Overrun => VerifyOutcome::Squash(SquashReason::Overrun),
        TaskEnd::Fault => VerifyOutcome::Squash(SquashReason::Fault),
        TaskEnd::Boundary(end_pc) | TaskEnd::Halted(end_pc) => {
            // The verdict is order-free: it asks whether any live-in
            // disagrees, not which (`CommitUnit::squash`, which reports
            // them, uses `mismatches_against`).
            if !task.live_ins.consistent_with_state(arch) {
                return VerifyOutcome::Squash(SquashReason::LiveInMismatch);
            }
            arch.apply(&task.writes);
            arch.set_pc(end_pc);
            VerifyOutcome::Commit {
                end_pc,
                halted: matches!(end, TaskEnd::Halted(_)),
            }
        }
    }
}

/// Aggregate statistics of one MSSP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tasks spawned by the master.
    pub spawned_tasks: u64,
    /// Tasks that verified and committed.
    pub committed_tasks: u64,
    /// Instructions committed via tasks or recovery segments (equals the
    /// sequential instruction count of the program).
    pub committed_instructions: u64,
    /// Tasks squashed (all reasons).
    pub squashed_tasks: u64,
    /// Squash events caused by wrong-path task starts.
    pub squashes_wrong_path: u64,
    /// Squash events caused by live-in mismatches.
    pub squashes_live_in: u64,
    /// Of which events where a predictor-injected cell was among the
    /// mismatches (the predictor guessed wrong).
    pub squashes_live_in_predicted: u64,
    /// Of which events with no predictor involvement (the master's
    /// checkpoint was stale on its own).
    pub squashes_live_in_stale: u64,
    /// Squash events caused by task overruns.
    pub squashes_overrun: u64,
    /// Squash events caused by task faults.
    pub squashes_fault: u64,
    /// Non-speculative recovery segments executed.
    pub recovery_segments: u64,
    /// Instructions executed in recovery segments.
    pub recovery_instructions: u64,
    /// Distilled instructions executed by the master.
    pub master_instructions: u64,
    /// Original-program instructions executed speculatively by slaves.
    pub slave_instructions: u64,
    /// Speculative slave instructions discarded by squashes and hot-swaps.
    /// The threaded executor counts finished tasks only: what an abandoned
    /// worker had executed when it noticed the epoch bump is never reported.
    pub wasted_slave_instructions: u64,
    /// Sum over committed tasks of live-in cells (bandwidth proxy).
    pub live_in_cells: u64,
    /// Of which register cells.
    pub live_in_reg_cells: u64,
    /// Of which memory cells.
    pub live_in_mem_cells: u64,
    /// Sum over committed tasks of live-out cells.
    pub live_out_cells: u64,
    /// Largest committed live-in set.
    pub max_live_in_cells: u64,
    /// Cycles the master spent executing or spawning.
    pub master_busy_cycles: u64,
    /// Cycles slaves spent executing task instructions.
    pub slave_busy_cycles: u64,
    /// Cycles spent in recovery execution.
    pub recovery_busy_cycles: u64,
    /// Cycles the verify unit spent verifying and committing.
    pub verify_busy_cycles: u64,
    /// Times the adaptive throttle took the master offline.
    pub throttle_events: u64,
    /// Constant 0 — nothing increments it since worker-side
    /// pre-verification was removed; kept only because the benchmark
    /// ledger still reads it (`core.threaded.pre_verified_fraction`).
    pub pre_verified_tasks: u64,
    /// Full architected-state snapshots materialized for publication
    /// (threaded executor; squashes and chain-threshold crossings).
    pub snapshots_materialized: u64,
    /// Commits published to workers as an incremental write delta folded
    /// into the committed view instead of a fresh snapshot (threaded
    /// executor).
    pub deltas_published: u64,
    /// Live-in cells whose checkpoint value was overridden by the value
    /// predictor at spawn.
    pub predictor_overrides: u64,
    /// Predictor-injected cells that a committed task actually read (the
    /// prediction survived verification).
    pub predictor_hits: u64,
    /// Predictor-injected cells found among the mismatches of a live-in
    /// squash (the prediction was wrong).
    pub predictor_misses: u64,
    /// Spawns the master suppressed because a spawn-guard slice resolved
    /// an asserted branch against its assertion inside the task window
    /// (each veto hands the window to a sequential recovery segment).
    pub spawn_vetoes: u64,
    /// Fast-tier (DCE-only) adaptive recompilations that produced a
    /// valid, installed candidate.
    pub recompilations_fast: u64,
    /// Full-pipeline adaptive recompilations that produced a valid,
    /// installed candidate.
    pub recompilations_full: u64,
    /// Distilled-program hot-swaps installed at task boundaries.
    pub swaps_installed: u64,
    /// In-flight tasks abandoned by hot-swaps (counted separately from
    /// squashes: a swap is not a misprediction, and the squash-rate
    /// gates must not see it as one).
    pub swap_abandoned_tasks: u64,
}

impl EngineStats {
    /// Fraction of speculative slave work that was wasted.
    #[must_use]
    pub fn waste_fraction(&self) -> f64 {
        if self.slave_instructions == 0 {
            0.0
        } else {
            self.wasted_slave_instructions as f64 / self.slave_instructions as f64
        }
    }

    /// Fraction of verified predictor injections that turned out correct
    /// (`hits / (hits + misses)`); `0.0` when nothing was ever verified —
    /// never NaN, so a gate that compares it compares a number.
    #[must_use]
    pub fn predictor_accuracy(&self) -> f64 {
        let verified = self.predictor_hits + self.predictor_misses;
        if verified == 0 {
            0.0
        } else {
            self.predictor_hits as f64 / verified as f64
        }
    }

    /// Total squash events.
    #[must_use]
    pub fn squash_events(&self) -> u64 {
        self.squashes_wrong_path
            + self.squashes_live_in
            + self.squashes_overrun
            + self.squashes_fault
    }

    /// Fraction of committed instructions that came from (sequential)
    /// recovery segments rather than parallel tasks.
    #[must_use]
    pub fn recovery_fraction(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.recovery_instructions as f64 / self.committed_instructions as f64
        }
    }

    /// Constant — the verify unit compares every recorded live-in of
    /// every task, so this is `1.0` once a committed task presented one
    /// and `0.0` before (never NaN). Kept only because the benchmark
    /// ledger still reads it (`core.threaded.recheck_ratio`).
    #[must_use]
    pub fn recheck_ratio(&self) -> f64 {
        if self.live_in_cells == 0 {
            0.0
        } else {
            1.0
        }
    }
}

/// How the commit unit obtains recompiled candidates.
pub(crate) enum Recompile {
    /// Inline at the requesting task boundary. Blocks commits for the
    /// duration — deterministic, for the discrete engine and the
    /// differential tests.
    Inline(Recompiler),
    /// On a background thread, harvested at a later task boundary; the hot
    /// path never waits. Plain std `mpsc`: recompiles are rare
    /// control-plane events, not dispatch/commit traffic.
    Background {
        req_tx: mpsc::Sender<(Profile, Tier)>,
        res_rx: mpsc::Receiver<(Tier, Result<Distilled, String>)>,
        /// When the in-flight request was sent (latency accounting); also
        /// gates new sends, so at most one is outstanding.
        sent_at: Option<Instant>,
    },
}

impl Recompile {
    /// A background transport for `recompiler`, and the body of the thread
    /// that serves it until the transport is dropped.
    pub(crate) fn background(mut recompiler: Recompiler) -> (Recompile, impl FnOnce() + Send) {
        let (req_tx, req_rx) = mpsc::channel::<(Profile, Tier)>();
        let (res_tx, res_rx) = mpsc::channel();
        let thread_body = move || {
            while let Ok((profile, tier)) = req_rx.recv() {
                if res_tx.send((tier, recompiler(&profile, tier))).is_err() {
                    return;
                }
            }
        };
        let transport = Recompile::Background {
            req_tx,
            res_rx,
            sent_at: None,
        };
        (transport, thread_body)
    }
}

impl std::fmt::Debug for Recompile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recompile") // the recompiler is an opaque closure
    }
}

/// The adaptive loop's state: divergence controller + recompile transport.
#[derive(Debug)]
struct Adaptive {
    ctl: AdaptiveController,
    recompile: Recompile,
}

/// A recompiled program that passed validation and is ready to install.
pub(crate) struct SwapCandidate {
    pub program: Arc<Distilled>,
    pub tier: Tier,
    /// Wall-clock microseconds from taking the request to validation.
    pub latency_micros: u64,
}

/// What the driver does with the master after a recovery segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterRecovery {
    /// Reseed it from the now-consistent architected state.
    RestartMaster,
    /// The squash throttle is engaged: keep it offline and run the next
    /// segment sequentially too (the paper's dual-mode fallback).
    StayOffline,
}

/// The in-order verify/commit unit's policy state. Drivers raise events
/// on it and act on the answers; they write `stats` directly only for the
/// counters nobody else can know (their own cores' busy cycles and
/// instruction counts, the coordinator's snapshot counters, spawn vetoes
/// read off the master).
#[derive(Debug, Default)]
pub(crate) struct CommitUnit {
    pub stats: EngineStats,
    pub config: EngineConfig,
    /// Trained only on architected values at verify time, consulted at
    /// spawn — so per-epoch predictions are deterministic across drivers.
    predictor: Predictor,
    /// Squash events inside the throttle window, stamped with its clock.
    recent_squashes: VecDeque<u64>,
    /// Tasks processed (committed or squashed): the throttle's clock.
    tasks_processed: u64,
    /// Recovery segments still to run with the master offline.
    throttle_remaining: u64,
    adaptive: Option<Adaptive>,
}

impl CommitUnit {
    pub(crate) fn new(config: EngineConfig) -> CommitUnit {
        CommitUnit {
            config,
            ..CommitUnit::default()
        }
    }

    /// Turns on adaptive re-distillation.
    pub(crate) fn enable_adaptive(&mut self, controller: AdaptiveController, recompile: Recompile) {
        self.adaptive = Some(Adaptive {
            ctl: controller,
            recompile,
        });
    }

    /// The master spawned a task at `start_pc`. Confident live-in
    /// predictions go in at the overlay front — index 0 wins layered
    /// reads, so they override the master's checkpoint and, like any
    /// overlay-sourced read, are recorded as live-ins and verified at
    /// commit. Returns the injected cells (the task's `predicted` list).
    pub(crate) fn spawn(&mut self, start_pc: u64, overlay: &mut Vec<Arc<Delta>>) -> Vec<Cell> {
        self.stats.spawned_tasks += 1;
        // Never trained when `enable_predictor` is off, so never confident.
        let predictions = self.predictor.predict(start_pc);
        if predictions.is_empty() {
            return Vec::new();
        }
        let mut delta = Delta::new();
        let mut predicted = Vec::with_capacity(predictions.len());
        for &(reg, value) in &predictions {
            delta.set(Cell::Reg(reg), value);
            predicted.push(Cell::Reg(reg));
        }
        overlay.insert(0, Arc::new(delta));
        self.stats.predictor_overrides += predictions.len() as u64;
        predicted
    }

    /// `task` passed the memoization test and its writes are architected.
    pub(crate) fn commit(&mut self, task: &Task) {
        let live_ins = task.live_ins.len() as u64;
        let stats = &mut self.stats;
        stats.committed_tasks += 1;
        stats.committed_instructions += task.executed;
        stats.live_in_cells += live_ins;
        stats.live_in_reg_cells += task.live_ins.reg_cells() as u64;
        stats.live_in_mem_cells += task.live_ins.mem_cells() as u64;
        stats.live_out_cells += task.writes.len() as u64;
        stats.max_live_in_cells = stats.max_live_in_cells.max(live_ins);
        // A predicted cell the committed task actually read is a verified
        // hit (every live-in matched, or we would not be here); injections
        // the task never read count as neither hit nor miss.
        let hit = |c: &&Cell| task.live_ins.contains(**c);
        stats.predictor_hits += task.predicted.iter().filter(hit).count() as u64;
        self.tasks_processed += 1;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl.observe_commit(task.executed);
        }
    }

    /// The oldest task `failing` failed verification against `arch`; it
    /// and every younger task die: `(tasks, instructions)` of in-flight
    /// work. Returns the mismatching live-ins `(cell, predicted,
    /// architected)`, non-empty only for a live-in mismatch. The driver
    /// discards the tasks and starts a recovery segment.
    pub(crate) fn squash(
        &mut self,
        reason: SquashReason,
        failing: &Task,
        arch: &MachineState,
        (tasks, instructions): (u64, u64),
    ) -> Vec<(Cell, u64, u64)> {
        let stats = &mut self.stats;
        match reason {
            SquashReason::WrongPath => stats.squashes_wrong_path += 1,
            SquashReason::LiveInMismatch => stats.squashes_live_in += 1,
            SquashReason::Overrun => stats.squashes_overrun += 1,
            SquashReason::Fault => stats.squashes_fault += 1,
        }
        stats.squashed_tasks += tasks;
        stats.wasted_slave_instructions += instructions;
        let mut cells = Vec::new();
        if reason == SquashReason::LiveInMismatch {
            cells = failing.live_ins.mismatches_against(arch);
            // Attribute the event: did a predictor injection take part in
            // the failure, or was the master's checkpoint stale on its own?
            let missed = |p: &&Cell| cells.iter().any(|(c, _, _)| c == *p);
            let misses = failing.predicted.iter().filter(missed).count() as u64;
            if misses > 0 {
                stats.squashes_live_in_predicted += 1;
                stats.predictor_misses += misses;
            } else {
                stats.squashes_live_in_stale += 1;
            }
        }
        // Train-on-verified-only: the architected side of each mismatch is
        // committed truth. Register cells only — memory live-in footprints
        // depend on executor timing, register live-ins do not.
        let regs = cells.iter().filter_map(|&(c, _, truth)| match c {
            Cell::Reg(r) => Some((r, truth)),
            _ => None,
        });
        if self.config.enable_predictor {
            for (reg, truth) in regs.clone() {
                self.predictor.train(failing.start_pc, reg, truth);
            }
        }
        if let Some(ad) = &mut self.adaptive {
            let regs: Vec<Reg> = regs.map(|(r, _)| r).collect();
            ad.ctl.observe_squash(reason, arch.pc(), &regs);
        }
        self.throttle_on_squash();
        cells
    }

    /// The paper's dual-mode fallback: with a pathological master, more
    /// than `throttle_threshold` squashes within `throttle_window` tasks
    /// take it offline for `throttle_duration` recovery segments.
    fn throttle_on_squash(&mut self) {
        self.tasks_processed += 1;
        if self.config.throttle_threshold == 0 {
            return;
        }
        let now = self.tasks_processed;
        self.recent_squashes.push_back(now);
        while matches!(
            self.recent_squashes.front(),
            Some(&t) if t + self.config.throttle_window < now
        ) {
            self.recent_squashes.pop_front();
        }
        if self.recent_squashes.len() as u32 > self.config.throttle_threshold
            && self.throttle_remaining == 0
        {
            self.throttle_remaining = self.config.throttle_duration;
            self.stats.throttle_events += 1;
            self.recent_squashes.clear();
        }
    }

    /// A recovery segment of `executed` instructions committed. Only now,
    /// at a *consistent* architected point, may the master restart: at
    /// squash time it would read a torn mix of pre- and post-recovery
    /// values.
    pub(crate) fn recovered(&mut self, executed: u64) -> AfterRecovery {
        self.stats.recovery_segments += 1;
        self.stats.recovery_instructions += executed;
        self.stats.committed_instructions += executed;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl.observe_recovery_segment();
        }
        if self.throttle_remaining > 0 {
            self.throttle_remaining -= 1;
            AfterRecovery::StayOffline
        } else {
            AfterRecovery::RestartMaster
        }
    }

    /// Pumps the adaptive loop at a swap-safe point (a commit or the end
    /// of a recovery segment): harvests a finished background recompile,
    /// services a new request, and returns a validated candidate for the
    /// driver to install.
    pub(crate) fn poll_swap(&mut self) -> Option<SwapCandidate> {
        let Adaptive { ctl, recompile } = self.adaptive.as_mut()?;
        if let Recompile::Background {
            res_rx, sent_at, ..
        } = recompile
        {
            if let (Some(started), Ok((tier, result))) = (*sent_at, res_rx.try_recv()) {
                *sent_at = None;
                if let Some(candidate) = judge(ctl, tier, result, started) {
                    return Some(candidate);
                }
            }
        }
        let tier = ctl.take_request()?;
        match recompile {
            Recompile::Inline(recompiler) => {
                let started = Instant::now();
                let result = recompiler(ctl.live_profile(), tier);
                judge(ctl, tier, result, started)
            }
            Recompile::Background {
                req_tx, sent_at, ..
            } => {
                if sent_at.is_none() {
                    if req_tx.send((ctl.live_profile().clone(), tier)).is_ok() {
                        *sent_at = Some(Instant::now());
                    } else {
                        // The recompile thread is gone; re-arm so the run
                        // keeps going on the installed program.
                        ctl.note_recompiled(tier, false);
                    }
                }
                None
            }
        }
    }

    /// The driver installed `candidate`, abandoning `(tasks, instructions)`
    /// of in-flight work like a squash — its predictions came from the
    /// outgoing program — but a swap is not a misprediction: no squash is
    /// counted and no recovery segment runs.
    pub(crate) fn swap_installed(&mut self, candidate: &SwapCandidate, abandoned: (u64, u64)) {
        self.stats.swap_abandoned_tasks += abandoned.0;
        self.stats.wasted_slave_instructions += abandoned.1;
        self.stats.swaps_installed += 1;
        match candidate.tier {
            Tier::Fast => self.stats.recompilations_fast += 1,
            Tier::Full => self.stats.recompilations_full += 1,
        }
        if let Some(ad) = &mut self.adaptive {
            ad.ctl
                .note_swap_installed(candidate.tier, candidate.latency_micros, self.stats);
        }
    }

    /// Ends the run. Dropping the recompile transport here is what ends a
    /// background recompile thread.
    pub(crate) fn finish(self) -> (EngineStats, PredictorReport, Option<AdaptiveReport>) {
        let adaptive = self.adaptive.map(|ad| ad.ctl.into_report());
        (self.stats, self.predictor.report(), adaptive)
    }
}

/// Validates a recompile result and tells the controller how it went; a
/// rejected or failed recompile re-arms it for a later retry.
fn judge(
    ctl: &mut AdaptiveController,
    tier: Tier,
    result: Result<Distilled, String>,
    started: Instant,
) -> Option<SwapCandidate> {
    match result {
        Ok(d) if ctl.validate_candidate(&d) => {
            ctl.note_recompiled(tier, true);
            Some(SwapCandidate {
                program: Arc::new(d),
                tier,
                latency_micros: started.elapsed().as_micros() as u64,
            })
        }
        Ok(_) => {
            ctl.note_candidate_rejected(tier);
            None
        }
        Err(_) => {
            ctl.note_recompiled(tier, false);
            None
        }
    }
}

/// One non-speculative recovery segment: the original program run from
/// the architected PC to the next task end, its writes buffered and
/// committed atomically — forward progress however wrong the master is.
#[derive(Debug, Default)]
pub(crate) struct RecoverySegment {
    pc: u64,
    writes: Delta,
    executed: u64,
    crossings: u64,
}

impl RecoverySegment {
    /// A segment starting at the architected PC `pc`.
    pub(crate) fn new(pc: u64) -> RecoverySegment {
        RecoverySegment {
            pc,
            ..RecoverySegment::default()
        }
    }

    /// Executes one instruction against `arch`; `Some(end)` once the
    /// segment reached `halt` or its last boundary and is ready to
    /// [commit](RecoverySegment::commit). Recovery is verified execution,
    /// so every instruction feeds the adaptive controller's live profile.
    ///
    /// # Errors
    ///
    /// `RecoveryFault` if the original program faults (a genuine program
    /// error), `RecoveryLimit` past `rules.max_instrs` instructions.
    #[inline]
    pub(crate) fn step(
        &mut self,
        unit: &mut CommitUnit,
        program: &Program,
        arch: &MachineState,
        rules: &SegmentRules<'_>,
    ) -> Result<(StepInfo, Option<TaskEnd>), EngineError> {
        let mut storage = RecoveryStorage {
            writes: &mut self.writes,
            arch,
        };
        let info = step(&mut storage, program, self.pc).map_err(EngineError::RecoveryFault)?;
        if let Some(ad) = &mut unit.adaptive {
            ad.ctl.observe_recovery_step(&info);
        }
        if info.halted {
            return Ok((info, Some(TaskEnd::Halted(self.pc))));
        }
        self.executed += 1;
        self.pc = info.next_pc;
        if self.executed > rules.max_instrs {
            return Err(EngineError::RecoveryLimit);
        }
        let ended = rules.crossed(self.pc, &mut self.crossings);
        Ok((info, ended.then_some(TaskEnd::Boundary(self.pc))))
    }

    /// Applies the ended segment's writes and PC to `arch` atomically;
    /// returns the instructions executed, for [`CommitUnit::recovered`].
    pub(crate) fn commit(self, arch: &mut MachineState) -> u64 {
        arch.apply(&self.writes);
        arch.set_pc(self.pc);
        self.executed
    }

    /// Runs one whole segment from `arch`'s PC and commits it; returns the
    /// instructions executed and whether the program halted. Errors as
    /// [`RecoverySegment::step`].
    pub(crate) fn run(
        unit: &mut CommitUnit,
        program: &Program,
        arch: &mut MachineState,
        rules: &SegmentRules<'_>,
    ) -> Result<(u64, bool), EngineError> {
        let mut segment = RecoverySegment::new(arch.pc());
        let end = loop {
            if let (_, Some(end)) = segment.step(unit, program, arch, rules)? {
                break end;
            }
        };
        Ok((segment.commit(arch), matches!(end, TaskEnd::Halted(_))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::task::{BoundarySet, TaskId};
    use mssp_isa::asm::assemble;
    use std::collections::{BTreeMap, BTreeSet};

    /// A finished task as the verify unit sees it.
    fn task(
        start_pc: u64,
        executed: u64,
        live_ins: &[(Cell, u64)],
        writes: &[(Cell, u64)],
    ) -> Task {
        let mut t = Task::new(TaskId(0), start_pc, 0, Vec::new());
        t.executed = executed;
        t.live_ins = live_ins.iter().copied().collect();
        t.writes = writes.iter().copied().collect();
        t
    }

    const S1: Cell = Cell::Reg(Reg::S1);

    #[test]
    fn oracle_verdicts_follow_precedence_and_squashes_touch_nothing() {
        use SquashReason as R;
        use TaskEnd as E;
        use VerifyOutcome::{Commit, Squash};
        let mut base = MachineState::new();
        base.set_pc(0x100);
        base.set_reg(Reg::S1, 5);
        base.store_word(8, 7);
        let good: &[(Cell, u64)] = &[(S1, 5), (Cell::Mem(8), 7)];
        let bad: &[(Cell, u64)] = &[(S1, 5), (Cell::Mem(8), 6)];
        let writes = [(S1, 9), (Cell::Mem(8), 1), (Cell::Mem(9), 2)];
        let commit = |end_pc, halted| Commit { end_pc, halted };
        // (start PC, live-ins, end) -> verdict. Every squash row is wrong
        // in each way a later check could also catch, so reordering the
        // arms changes the reason.
        let table = [
            (0x104, bad, E::Overrun, Squash(R::WrongPath)),
            (0x104, bad, E::Fault, Squash(R::WrongPath)),
            (0x104, bad, E::Boundary(0x200), Squash(R::WrongPath)),
            (0x104, good, E::Halted(0x200), Squash(R::WrongPath)),
            (0x100, bad, E::Overrun, Squash(R::Overrun)),
            (0x100, bad, E::Fault, Squash(R::Fault)),
            (0x100, good, E::Overrun, Squash(R::Overrun)),
            (0x100, good, E::Fault, Squash(R::Fault)),
            (0x100, bad, E::Boundary(0x200), Squash(R::LiveInMismatch)),
            (0x100, bad, E::Halted(0x200), Squash(R::LiveInMismatch)),
            (0x100, good, E::Boundary(0x200), commit(0x200, false)),
            (0x100, good, E::Halted(0x208), commit(0x208, true)),
            (0x100, &[], E::Boundary(0x100), commit(0x100, false)),
        ];
        for (start_pc, live_ins, end, want) in table {
            let t = task(start_pc, 3, live_ins, &writes);
            let mut arch = base.clone();
            let got = verify_and_commit(&mut arch, &t, end);
            assert_eq!(got, want, "start {start_pc:#x}, end {end:?}");
            match want {
                Squash(_) => assert_eq!(arch, base, "{want:?} wrote to arch"),
                Commit { end_pc, .. } => {
                    let mut committed = base.clone();
                    committed.apply(&t.writes);
                    committed.set_pc(end_pc);
                    assert_eq!(arch, committed, "{want:?}");
                    assert_eq!((arch.reg(Reg::S1), arch.load_word(9)), (9, 2));
                }
            }
        }
    }

    #[test]
    fn oracle_compares_and_writes_bound_bytes_only() {
        let mut base = MachineState::new();
        base.set_pc(0x100);
        base.store_word(8, 0x1122_3344_5566_7788);
        base.store_word(9, 0xAAAA_AAAA_AAAA_AAAA);
        // The task read byte 0 of word 8 and wrote byte 1 of word 9.
        let mut t = task(0x100, 1, &[], &[]);
        t.live_ins.set_bytes(Cell::Mem(8), 0x88, 0x01);
        t.writes.set_bytes(Cell::Mem(9), 0xBB00, 0x02);

        // Bytes of the read word the task never read may change freely.
        let mut arch = base.clone();
        arch.store_word(8, 0xFFFF_FFFF_FFFF_FF88);
        let verdict = verify_and_commit(&mut arch, &t, TaskEnd::Boundary(0x200));
        let (end_pc, halted) = (0x200, false);
        assert_eq!(verdict, VerifyOutcome::Commit { end_pc, halted });
        assert_eq!(arch.load_word(9), 0xAAAA_AAAA_AAAA_BBAA, "other bytes kept");
        assert_eq!(arch.load_word(8), 0xFFFF_FFFF_FFFF_FF88);

        // The byte it did read may not.
        let mut arch = base.clone();
        arch.store_word(8, 0x1122_3344_5566_7789);
        let stale = arch.clone();
        let verdict = verify_and_commit(&mut arch, &t, TaskEnd::Boundary(0x200));
        assert_eq!(verdict, VerifyOutcome::Squash(SquashReason::LiveInMismatch));
        assert_eq!(arch, stale);
    }

    #[test]
    fn task_run_from_a_stale_snapshot_squashes_on_the_cell_it_read() {
        // What the threaded executor relies on: a worker may run from a
        // snapshot several commits old, and the oracle compares what it
        // read against *current* architected state.
        let p = assemble("main: ld t0, -8(sp)\n addi s1, t0, 1\n halt").unwrap();
        let boundaries = BoundarySet::default();
        let rules = SegmentRules {
            boundaries: &boundaries,
            crossings_per_task: 1,
            max_instrs: 100,
        };
        let mut arch = MachineState::boot(&p);
        let snapshot = arch.clone();
        let mut t = Task::new(TaskId(0), arch.pc(), 0, Vec::new());
        let end = t.run_segment(&p, &snapshot, &rules, || false);
        let TaskEnd::Halted(end_pc) = end else {
            panic!("{end:?}");
        };
        let read = Cell::Mem((arch.reg(Reg::SP) - 8) >> 3);
        assert!(t.live_ins.contains(read), "{:?}", t.live_ins);

        // Presented against the state it ran from, the task commits.
        let mut fresh = arch.clone();
        let verdict = verify_and_commit(&mut fresh, &t, end);
        let halted = true;
        assert_eq!(verdict, VerifyOutcome::Commit { end_pc, halted });
        assert_eq!(fresh.reg(Reg::S1), 1);

        // A commit it never saw wrote the cell: squash, nothing applied.
        arch.write_cell(read, 41);
        let before = arch.clone();
        let verdict = verify_and_commit(&mut arch, &t, end);
        assert_eq!(verdict, VerifyOutcome::Squash(SquashReason::LiveInMismatch));
        assert_eq!(arch, before);
    }

    #[test]
    fn scripted_events_produce_exact_stats() {
        let mut unit = CommitUnit::new(EngineConfig::default());
        let arch = MachineState::new();
        for _ in 0..3 {
            let mut overlay = Vec::new();
            assert!(unit.spawn(0x100, &mut overlay).is_empty());
            assert!(overlay.is_empty(), "an untrained predictor injects nothing");
        }
        let a = task(0x100, 10, &[(S1, 1), (Cell::Mem(8), 2)], &[(S1, 3)]);
        unit.commit(&a);
        let b = task(0x180, 7, &[], &[]);
        assert!(unit
            .squash(SquashReason::WrongPath, &b, &arch, (2, 11))
            .is_empty());
        assert_eq!(unit.recovered(20), AfterRecovery::RestartMaster);
        assert!(unit.poll_swap().is_none(), "no adaptive loop, no candidate");
        let expected = EngineStats {
            spawned_tasks: 3,
            committed_tasks: 1,
            committed_instructions: 30,
            squashed_tasks: 2,
            squashes_wrong_path: 1,
            recovery_segments: 1,
            recovery_instructions: 20,
            wasted_slave_instructions: 11,
            live_in_cells: 2,
            live_in_reg_cells: 1,
            live_in_mem_cells: 1,
            live_out_cells: 1,
            max_live_in_cells: 2,
            ..EngineStats::default()
        };
        assert_eq!(unit.stats, expected);
        let (stats, predictor, adaptive) = unit.finish();
        assert_eq!(stats, expected);
        assert_eq!(predictor.observations, 0);
        assert!(adaptive.is_none());
    }

    #[test]
    fn squash_storm_throttles_for_exactly_the_configured_duration() {
        let config = EngineConfig {
            throttle_threshold: 2,
            throttle_window: 8,
            throttle_duration: 3,
            ..EngineConfig::default()
        };
        let mut unit = CommitUnit::new(config);
        let arch = MachineState::new();
        let doomed = task(0x100, 5, &[], &[]);
        for _ in 0..2 {
            unit.squash(SquashReason::Overrun, &doomed, &arch, (1, 5));
            assert_eq!(unit.recovered(4), AfterRecovery::RestartMaster);
        }
        assert_eq!(unit.stats.throttle_events, 0, "at the threshold, not over");
        unit.squash(SquashReason::Fault, &doomed, &arch, (1, 5));
        assert_eq!(unit.stats.throttle_events, 1);
        for _ in 0..3 {
            assert_eq!(unit.recovered(4), AfterRecovery::StayOffline);
        }
        assert_eq!(unit.recovered(4), AfterRecovery::RestartMaster);
        assert_eq!(unit.stats.recovery_segments, 6);
        assert_eq!(unit.stats.squashes_overrun, 2);
        assert_eq!(unit.stats.squashes_fault, 1);

        // The same three squashes spread wider than the window never
        // count together.
        let mut unit = CommitUnit::new(config);
        for _ in 0..3 {
            unit.squash(SquashReason::Overrun, &doomed, &arch, (1, 5));
            for _ in 0..8 {
                unit.commit(&doomed);
            }
        }
        assert_eq!(unit.stats.throttle_events, 0);
        assert_eq!(unit.recovered(4), AfterRecovery::RestartMaster);
    }

    #[test]
    fn live_in_squash_trains_on_registers_only_and_attributes_the_blame() {
        let mut arch = MachineState::new();
        arch.set_reg(Reg::S1, 9);
        arch.store_word(16, 8);
        let mut unit = CommitUnit::new(EngineConfig::default());
        let stale = task(0x200, 5, &[(S1, 5), (Cell::Mem(16), 7)], &[]);
        let cells = unit.squash(SquashReason::LiveInMismatch, &stale, &arch, (1, 5));
        assert_eq!(cells, vec![(S1, 5, 9), (Cell::Mem(16), 7, 8)]);
        assert_eq!(unit.stats.squashes_live_in_stale, 1);
        assert_eq!(unit.predictor.report().cells, 1, "the memory cell is not");
        assert_eq!(unit.predictor.report().observations, 1);

        // The architected value repeats: the predictor grows confident and
        // overrides the master's checkpoint at the next spawn.
        for _ in 0..3 {
            unit.squash(SquashReason::LiveInMismatch, &stale, &arch, (1, 5));
        }
        let mut overlay = vec![Arc::new(Delta::new())];
        let predicted = unit.spawn(0x200, &mut overlay);
        assert_eq!(predicted, vec![S1]);
        assert_eq!(overlay.len(), 2);
        assert_eq!(overlay[0].get(S1), Some(9), "injected at the front");
        assert_eq!(unit.stats.predictor_overrides, 1);

        // A committed task that read the injected cell is a hit; one that
        // mismatches on it is a predicted squash and a miss.
        let mut reader = task(0x200, 5, &[(S1, 9)], &[]);
        reader.predicted = predicted;
        unit.commit(&reader);
        assert_eq!(unit.stats.predictor_hits, 1);
        arch.set_reg(Reg::S1, 10);
        unit.squash(SquashReason::LiveInMismatch, &reader, &arch, (1, 5));
        assert_eq!(unit.stats.squashes_live_in_predicted, 1);
        assert_eq!(unit.stats.predictor_misses, 1);
        assert_eq!(unit.stats.squashes_live_in_stale, 4);
        assert_eq!(unit.stats.squashes_live_in, 5);

        // Switched off, the predictor never learns and never injects.
        let mut off = CommitUnit::new(EngineConfig {
            enable_predictor: false,
            ..EngineConfig::default()
        });
        for _ in 0..4 {
            off.squash(SquashReason::LiveInMismatch, &stale, &arch, (1, 5));
        }
        assert_eq!(off.predictor.report().observations, 0);
        assert!(off.spawn(0x200, &mut Vec::new()).is_empty());
    }

    const LOOP: &str = "
        main: addi s0, zero, 3
        loop: addi s1, s1, 1
              addi s0, s0, -1
              bnez s0, loop
              halt";

    #[test]
    fn recovery_segment_ends_at_the_nth_crossing_and_commits_atomically() {
        let p = assemble(LOOP).unwrap();
        let loop_pc = p.symbol("loop").unwrap();
        let boundaries = BoundarySet::new(BTreeSet::from([loop_pc]));
        let rules = SegmentRules {
            boundaries: &boundaries,
            crossings_per_task: 2,
            max_instrs: 100,
        };
        let mut unit = CommitUnit::new(EngineConfig::default());
        let mut arch = MachineState::boot(&p);
        let boot = arch.clone();
        let mut segment = RecoverySegment::new(arch.pc());
        let mut steps = 0;
        let end = loop {
            steps += 1;
            let (info, end) = segment.step(&mut unit, &p, &arch, &rules).unwrap();
            assert!(!info.halted);
            assert_eq!(arch, boot, "writes stay buffered until the commit");
            if let Some(end) = end {
                break end;
            }
        };
        // Entry falls into `loop` (crossing 1); one iteration later the
        // back-edge crosses it again (crossing 2).
        assert_eq!((steps, end), (4, TaskEnd::Boundary(loop_pc)));
        assert_eq!(segment.commit(&mut arch), 4);
        assert_eq!(
            (arch.pc(), arch.reg(Reg::S1), arch.reg(Reg::S0)),
            (loop_pc, 1, 2)
        );

        // The rest of the program fits one long segment and halts.
        let far = SegmentRules {
            crossings_per_task: 100,
            ..rules
        };
        let (executed, halted) = RecoverySegment::run(&mut unit, &p, &mut arch, &far).unwrap();
        assert!(halted);
        assert_eq!((executed, arch.reg(Reg::S1)), (6, 3));
        assert_eq!(arch.pc(), loop_pc + 3 * mssp_isa::INSTR_BYTES, "halt PC");
    }

    #[test]
    fn recovery_segment_reports_the_cap_and_genuine_faults() {
        let p = assemble(LOOP).unwrap();
        let boundaries = BoundarySet::default();
        let rules = SegmentRules {
            boundaries: &boundaries,
            crossings_per_task: 1,
            max_instrs: 2,
        };
        let mut unit = CommitUnit::new(EngineConfig::default());
        let mut arch = MachineState::boot(&p);
        let mut segment = RecoverySegment::new(arch.pc());
        for _ in 0..2 {
            assert!(segment.step(&mut unit, &p, &arch, &rules).is_ok());
        }
        let capped = segment.step(&mut unit, &p, &arch, &rules);
        assert_eq!(capped.unwrap_err(), EngineError::RecoveryLimit);

        arch.set_pc(0xdead_0000);
        let fault = RecoverySegment::run(&mut unit, &p, &mut arch, &rules);
        assert!(matches!(fault, Err(EngineError::RecoveryFault(_))));
        assert_eq!(arch.pc(), 0xdead_0000, "a failed segment commits nothing");
    }

    #[test]
    fn rejected_and_failed_recompiles_each_rearm_the_controller() {
        let p = assemble(LOOP).unwrap();
        let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let boundary = p.symbol("loop").unwrap();
        let identity = BTreeMap::from([(p.entry(), p.entry()), (boundary, boundary)]);
        let pinned = Distilled::from_parts(p.clone(), BTreeSet::from([boundary]), identity.clone());
        let moved = Distilled::from_parts(p.clone(), BTreeSet::from([p.entry()]), identity);
        let config = AdaptiveConfig {
            window_tasks: 2,
            max_squashes_per_window: 0,
            ..AdaptiveConfig::default()
        };
        // Scripted recompiler: fails, returns a candidate that moved the
        // boundaries, then a valid one.
        let mut answers = vec![Ok(pinned.clone()), Ok(moved), Err("lint".to_string())];
        let recompiler: Recompiler = Box::new(move |_, _| answers.pop().unwrap());
        let mut unit = CommitUnit::new(EngineConfig::default());
        let controller = AdaptiveController::new(config, &pinned, &profile);
        unit.enable_adaptive(controller, Recompile::Inline(recompiler));

        let arch = MachineState::new();
        let doomed = task(boundary, 1, &[], &[]);
        let diverge = |unit: &mut CommitUnit| {
            for _ in 0..2 {
                unit.squash(SquashReason::WrongPath, &doomed, &arch, (1, 5));
            }
            unit.poll_swap()
        };
        assert!(diverge(&mut unit).is_none(), "failed recompile");
        assert!(diverge(&mut unit).is_none(), "rejected candidate");
        // Had either left the controller pending, this window would not
        // have raised a request and the recompiler would not have run.
        let candidate = diverge(&mut unit).expect("third recompile validates");
        assert_eq!(candidate.tier, Tier::Fast);
        unit.swap_installed(&candidate, (2, 9));
        assert_eq!(unit.stats.swaps_installed, 1);
        assert_eq!(unit.stats.recompilations_fast, 1);
        assert_eq!(unit.stats.swap_abandoned_tasks, 2);
        assert_eq!(unit.stats.wasted_slave_instructions, 6 * 5 + 9);
        let (stats, _, report) = unit.finish();
        let report = report.expect("adaptive run carries a report");
        assert_eq!(report.recompile_failures, 1);
        assert_eq!(report.candidates_rejected, 1);
        assert_eq!(report.recompilations_fast, 1);
        assert_eq!(report.swaps.len(), 1);
        assert_eq!(report.swaps[0].stats, stats, "marker froze the counters");
    }

    #[test]
    fn recheck_ratio_is_a_constant_and_never_nan() {
        // The ledger divides nothing by this, but it does take medians of
        // it: 0.0 with no live-in presented (never the 0/0 NaN), 1.0 after.
        assert_eq!(EngineStats::default().recheck_ratio(), 0.0);
        let mut unit = CommitUnit::new(EngineConfig::default());
        unit.commit(&task(0x100, 3, &[(S1, 1)], &[]));
        assert_eq!(unit.stats.recheck_ratio(), 1.0);
        assert_eq!(unit.stats.pre_verified_tasks, 0);
    }
}
