//! The MSSP protocol core: one sans-IO commit unit under two drivers.
//!
//! The paper rests correctness on a single in-order verify/commit unit.
//! This module is that unit, written once: what a spawn, a commit, a
//! squash, a recovery segment and a hot-swap **mean** — which counters
//! move, what becomes of the master, when the squash throttle keeps it
//! offline, when a recompiled program may be installed. It owns
//! architected state and the master, performs no I/O and keeps no clock.
//! The drivers decide **when**: [`crate::Engine`] raises the events from
//! virtual time, the threaded coordinator from worker results and its own
//! master slices.
//!
//! [`verify_and_commit`] is the single verdict oracle: both drivers call
//! it on the oldest finished task, and nothing else decides a commit.
//! The unit also owns where tasks end: it builds the run's `SegmentRules`
//! once from the offline distillation, and checks every hot-swap
//! candidate against that segmentation.
//! `CommitUnit::recover` is the single recovery loop: both drivers run a
//! segment through it, straight on architected state — a segment runs
//! alone, so its writes need no atomic commit — and the engine prices
//! each instruction in the closure it hands over.

use std::collections::VecDeque;
use std::sync::Arc;

use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{step, DeltaArena, MachineState, StepInfo};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::engine::{EngineConfig, EngineError};
use crate::master::{Master, MasterStall};
use crate::task::{SegmentRules, Task, TaskEnd, TaskId};

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
            // disagrees, not which (the adaptive controller and the
            // engine's squash samples name them with `mismatches_against`).
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
    /// Spawns the master suppressed because a spawn-guard slice resolved
    /// an asserted branch against its assertion inside the task window
    /// (each veto hands the window to a sequential recovery segment).
    pub spawn_vetoes: u64,
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

    /// Constant `0.0` — the live-in value predictor it measured was
    /// removed, since the distilled master already is the live-in
    /// predictor; kept only because the benchmark ledger still reads it
    /// (`core.engine.predictor_accuracy`).
    #[must_use]
    pub fn predictor_accuracy(&self) -> f64 {
        0.0
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

/// The adaptive loop's state: the divergence controller and the
/// recompiler it runs at the requesting boundary.
struct Adaptive {
    ctl: AdaptiveController,
    recompiler: Recompiler,
}

impl std::fmt::Debug for Adaptive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.ctl.fmt(f) // the recompiler is an opaque closure
    }
}

/// What the master does after a recovery segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterRecovery {
    /// The master runs on: a hot-swap ready here restarts it on the new
    /// program; otherwise it restarts from the now-consistent architected
    /// state unless it is still active.
    Resume,
    /// The program halted, or the squash throttle is engaged: the master
    /// stays offline and the next segment runs sequentially too (the
    /// paper's dual-mode fallback).
    StayOffline,
}

/// The in-order verify/commit unit: architected state, the master, and
/// the policy over both. Drivers raise events on it and act on the
/// answers; they write `stats` directly only for the counters nobody
/// else can know (their own cores' busy cycles and instruction counts,
/// the coordinator's snapshot counters).
#[derive(Debug)]
pub(crate) struct CommitUnit<'a> {
    pub stats: EngineStats,
    pub config: EngineConfig,
    /// Architected state: what tasks verify against and commit into.
    pub arch: MachineState,
    /// Live-in and write buffers of decided tasks, cleared, for the
    /// tasks to come.
    pub arena: DeltaArena,
    /// The original program: what tasks and recovery segments run.
    pub original: &'a Program,
    /// Where tasks and recovery segments end: the offline distillation's
    /// segmentation, which every hot-swap keeps, under the task cap.
    pub rules: SegmentRules<'a>,
    master: Master,
    /// The offline distilled program, and the latest hot-swap if any.
    offline: &'a Distilled,
    swapped: Option<Arc<Distilled>>,
    /// Master instructions since its last spawn or restart.
    since_spawn: u64,
    /// The task spawned last since the restart; its segment closes at the
    /// next spawn.
    last_spawned: Option<u64>,
    next_task_id: u64,
    /// Squash events inside the throttle window, stamped with its clock.
    recent_squashes: VecDeque<u64>,
    /// Tasks processed (committed or squashed): the throttle's clock.
    tasks_processed: u64,
    /// Recovery segments still to run with the master offline.
    throttle_remaining: u64,
    adaptive: Option<Adaptive>,
}

impl<'a> CommitUnit<'a> {
    /// A unit booted at `original`'s entry, with a master on `offline`
    /// seeded from the boot state, and the run's segment rules built from
    /// `offline`'s segmentation.
    pub(crate) fn new(original: &'a Program, offline: &'a Distilled, config: EngineConfig) -> Self {
        let arch = MachineState::boot(original);
        CommitUnit {
            stats: EngineStats::default(),
            config,
            master: Master::restart_at(offline, arch.pc(), true, arch.clone()),
            arch,
            arena: DeltaArena::new(),
            original,
            rules: SegmentRules {
                boundaries: offline.segmentation().boundaries(),
                crossings_per_task: offline.crossings_per_task(),
                max_instrs: config.max_task_instrs,
            },
            offline,
            swapped: None,
            since_spawn: 0,
            last_spawned: None,
            next_task_id: 0,
            recent_squashes: VecDeque::new(),
            tasks_processed: 0,
            throttle_remaining: 0,
            adaptive: None,
        }
    }

    /// Turns on adaptive re-distillation.
    pub(crate) fn enable_adaptive(&mut self, ctl: AdaptiveController, recompiler: Recompiler) {
        self.adaptive = Some(Adaptive { ctl, recompiler });
    }

    /// Whether the master waits to spawn a task.
    pub(crate) fn spawn_pending(&self) -> bool {
        self.master.pending_spawn().is_some()
    }

    /// Whether the master can act: it is active, and a pending spawn has
    /// `room` in the task window.
    #[inline]
    pub(crate) fn master_can_act(&self, room: bool) -> bool {
        self.master.status() == MasterStall::Active && (!self.spawn_pending() || room)
    }

    /// Executes and counts one master instruction on the installed
    /// program. Past the run-ahead bound without a spawn, marks the
    /// master lost instead: `None`. A master that cannot step (halted,
    /// lost, or with a spawn pending) gets `None` and is left as it was.
    ///
    /// Always inlined, with [`Master::step`]: a driver's burst calls it
    /// per instruction, and an out-of-line call hands the `StepInfo` back
    /// through the stack (DESIGN.md §6, "The hot-path rule").
    #[inline(always)]
    pub(crate) fn step_master(&mut self) -> Option<StepInfo> {
        if !self.master_can_act(false) {
            return None;
        }
        if self.since_spawn > self.config.master_runahead {
            self.master.mark_lost();
            return None;
        }
        let info = self
            .master
            .step(self.swapped.as_deref().unwrap_or(self.offline))?;
        self.stats.master_instructions += 1;
        self.since_spawn += 1;
        Some(info)
    }

    /// Turns the master's pending spawn into the next task, bound for
    /// `slave`: the master closes its segment, and the task's live-in and
    /// write buffers come from the arena. Also returns the cells of the
    /// master's newest checkpoint segment.
    pub(crate) fn spawn(&mut self, slave: usize) -> (Task, usize) {
        let (start, overlay) = self.master.take_spawn(self.last_spawned);
        let cells = overlay.first().map_or(0, |d| d.len());
        self.stats.spawned_tasks += 1;
        let id = TaskId(self.next_task_id);
        self.next_task_id += 1;
        let (live_ins, writes) = (self.arena.take(), self.arena.take());
        let task = Task::with_buffers(id, start, slave, overlay, live_ins, writes);
        self.last_spawned = Some(id.0);
        self.since_spawn = 0;
        (task, cells)
    }

    /// `task` passed the memoization test and its writes are architected:
    /// the master prunes the segments of the tasks up to it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if the commit spent the instruction budget.
    pub(crate) fn commit(&mut self, task: &Task) -> Result<(), EngineError> {
        let live_ins = task.live_ins.len() as u64;
        let stats = &mut self.stats;
        stats.committed_tasks += 1;
        stats.committed_instructions += task.executed;
        stats.live_in_cells += live_ins;
        stats.live_in_reg_cells += task.live_ins.reg_cells() as u64;
        stats.live_in_mem_cells += task.live_ins.mem_cells() as u64;
        stats.live_out_cells += task.writes.len() as u64;
        stats.max_live_in_cells = stats.max_live_in_cells.max(live_ins);
        self.tasks_processed += 1;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl.observe_commit(task.executed);
        }
        self.master.on_commit(task.id.0);
        self.within_budget()
    }

    /// The oldest task `failing` failed verification; it, every younger
    /// task and the master die: `(tasks, instructions)` of in-flight work.
    /// The driver discards the tasks and starts a recovery segment; the
    /// master stays lost until [`CommitUnit::recovered`].
    pub(crate) fn squash(
        &mut self,
        reason: SquashReason,
        failing: &Task,
        (tasks, instructions): (u64, u64),
    ) {
        let stats = &mut self.stats;
        match reason {
            SquashReason::WrongPath => stats.squashes_wrong_path += 1,
            SquashReason::LiveInMismatch => stats.squashes_live_in += 1,
            SquashReason::Overrun => stats.squashes_overrun += 1,
            SquashReason::Fault => stats.squashes_fault += 1,
        }
        stats.squashed_tasks += tasks;
        stats.wasted_slave_instructions += instructions;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl.observe_squash(reason, &failing.live_ins, &self.arch);
        }
        self.throttle_on_squash();
        self.master.mark_lost();
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

    /// Runs one non-speculative recovery segment: the original program
    /// from the architected PC to the next task end under the run's
    /// rules — `halt`, the crossing that reaches the quota, or the
    /// instructions left of the budget, in place of the task cap — executed
    /// straight on architected state, whose PC it leaves at the segment
    /// end. Forward progress however wrong the master is. A segment runs
    /// alone (the window is empty and the master offline), so no reader
    /// needs its writes to land atomically, and one cut at the budget has
    /// retired every instruction it ran. Recovery is verified execution:
    /// every instruction feeds the adaptive controller's live profile,
    /// then `on_step`. Returns the instructions executed and whether the
    /// program halted, for [`CommitUnit::recovered`].
    ///
    /// # Errors
    ///
    /// `RecoveryFault` if the original program faults (a genuine program
    /// error); architected state keeps the writes made before the fault,
    /// and its PC.
    pub(crate) fn recover(
        &mut self,
        mut on_step: impl FnMut(&StepInfo),
    ) -> Result<(u64, bool), EngineError> {
        let mut rules = self.rules;
        rules.max_instrs = self.config.max_instrs - self.stats.committed_instructions;
        let (mut pc, mut executed, mut crossings) = (self.arch.pc(), 0, 0);
        let end = loop {
            let info =
                step(&mut self.arch, self.original, pc).map_err(EngineError::RecoveryFault)?;
            if let Some(ad) = &mut self.adaptive {
                ad.ctl.observe_recovery_step(&info);
            }
            on_step(&info);
            if let Some(end) = rules.retire(&info, &mut pc, &mut executed, &mut crossings) {
                break end;
            }
        };
        self.arch.set_pc(pc);
        Ok((executed, matches!(end, TaskEnd::Halted(_))))
    }

    /// A recovery segment of `executed` instructions committed, halting
    /// the program or not. Only now, at a *consistent* architected point,
    /// may the master restart: at squash time it would read a torn mix of
    /// pre- and post-recovery values. Unless the program halted or the
    /// throttle keeps it offline, a ready hot-swap installs, which
    /// restarts the master on the new program; otherwise a master that is
    /// not active restarts on the installed one. An active master — with
    /// no slave, one whose first spawn waits forever — runs on untouched.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if the segment spent the instruction budget.
    pub(crate) fn recovered(
        &mut self,
        executed: u64,
        halted: bool,
    ) -> Result<AfterRecovery, EngineError> {
        self.stats.recovery_segments += 1;
        self.stats.recovery_instructions += executed;
        self.stats.committed_instructions += executed;
        self.within_budget()?;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl.observe_recovery_segment();
        }
        if self.throttle_remaining > 0 {
            self.throttle_remaining -= 1;
            return Ok(AfterRecovery::StayOffline);
        }
        if halted {
            return Ok(AfterRecovery::StayOffline);
        }
        // A recovery end is a consistent task boundary, the second swap
        // point beside commits; with the window empty, a swap abandons
        // nothing.
        if !self.swap(|| (0, 0)) && self.master.status() != MasterStall::Active {
            self.restart_master();
        }
        Ok(AfterRecovery::Resume)
    }

    /// The run's one budget check, made at every commit point: the run
    /// stops at the first one at or past `max_instrs`, with the
    /// architected state it reached.
    fn within_budget(&self) -> Result<(), EngineError> {
        let retired = self.stats.committed_instructions;
        if retired < self.config.max_instrs {
            return Ok(());
        }
        let state = Box::new(self.arch.clone());
        Err(EngineError::Budget { retired, state })
    }

    /// Pumps the adaptive loop at a swap-safe point (a commit or the end
    /// of a recovery segment): services a pending request by recompiling
    /// right here and installs a validated candidate. The master restarts
    /// on it from architected state, and the in-flight work, `(tasks,
    /// instructions)` from `in_flight`, asked only now, is abandoned like
    /// a squash's — its predictions came from the outgoing program — but
    /// a swap is not a misprediction: no squash is counted and no recovery
    /// segment runs. Returns whether a swap installed, so the driver
    /// discards its in-flight tasks.
    pub(crate) fn swap(&mut self, in_flight: impl FnOnce() -> (u64, u64)) -> bool {
        let Some(Adaptive { ctl, recompiler }) = &mut self.adaptive else {
            return false;
        };
        let Some(candidate) = ctl.recompile(recompiler) else {
            return false;
        };
        // Another segmentation would change where slaves end tasks mid-run.
        if candidate.program.segmentation() != self.offline.segmentation() {
            ctl.reject_candidate();
            return false;
        }
        self.swapped = Some(Arc::clone(&candidate.program));
        // First, so the swap marker's counters include the old master's vetoes.
        self.restart_master();
        let (tasks, instructions) = in_flight();
        self.stats.swap_abandoned_tasks += tasks;
        self.stats.wasted_slave_instructions += instructions;
        self.stats.swaps_installed += 1;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl
                .note_swap_installed(candidate.latency_micros, self.stats);
        }
        true
    }

    /// Reseeds the master from architected state on the installed program;
    /// the outgoing master's vetoes are counted.
    fn restart_master(&mut self) {
        self.stats.spawn_vetoes += self.master.take_vetoed_spawns();
        let program = self.swapped.as_deref().unwrap_or(self.offline);
        self.master = Master::restart_at(program, self.arch.pc(), true, self.arch.clone());
        self.since_spawn = 0;
        self.last_spawned = None;
    }

    /// Ends the run: the architected state it reached, its statistics with
    /// the master's last vetoes counted, and the adaptive report.
    pub(crate) fn finish(mut self) -> (MachineState, EngineStats, Option<AdaptiveReport>) {
        self.stats.spawn_vetoes += self.master.take_vetoed_spawns();
        let adaptive = self.adaptive.map(|ad| ad.ctl.into_report());
        (self.arch, self.stats, adaptive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveConfig, WINDOW_TASKS};
    use mssp_analysis::Profile;
    use mssp_distill::BoundarySet;
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use mssp_machine::Cell;
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

    const LOOP: &str = "
        main: addi s0, zero, 3
        loop: addi s1, s1, 1
              addi s0, s0, -1
              bnez s0, loop
              halt";

    /// `src` as its own distilled program, with the labels `boundaries`
    /// as task boundaries.
    fn identity(src: &str, boundaries: &[&str]) -> (Program, Distilled) {
        let p = assemble(src).unwrap();
        let pcs: BTreeSet<u64> = boundaries.iter().map(|b| p.symbol(b).unwrap()).collect();
        let mut map = BTreeMap::from([(p.entry(), p.entry())]);
        map.extend(pcs.iter().map(|&b| (b, b)));
        (p.clone(), Distilled::from_parts(p, pcs, map))
    }

    #[test]
    fn scripted_events_produce_exact_stats() {
        let (p, d) = identity(LOOP, &["loop"]);
        let mut unit = CommitUnit::new(&p, &d, EngineConfig::default());
        let a = task(0x100, 10, &[(S1, 1), (Cell::Mem(8), 2)], &[(S1, 3)]);
        unit.commit(&a).unwrap();
        let b = task(0x180, 7, &[], &[]);
        unit.squash(SquashReason::WrongPath, &b, (2, 11));
        assert_eq!(unit.recovered(20, false).unwrap(), AfterRecovery::Resume);
        assert!(!unit.swap(|| (1, 1)), "no adaptive loop, no swap");
        let expected = EngineStats {
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
        let (state, stats, adaptive) = unit.finish();
        assert_eq!(state, MachineState::boot(&p), "no task wrote to it");
        assert_eq!(stats, expected);
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
        let (p, d) = identity(LOOP, &["loop"]);
        let mut unit = CommitUnit::new(&p, &d, config);
        let doomed = task(0x100, 5, &[], &[]);
        for _ in 0..2 {
            unit.squash(SquashReason::Overrun, &doomed, (1, 5));
            assert_eq!(unit.recovered(4, false).unwrap(), AfterRecovery::Resume);
        }
        assert_eq!(unit.stats.throttle_events, 0, "at the threshold, not over");
        unit.squash(SquashReason::Fault, &doomed, (1, 5));
        assert_eq!(unit.stats.throttle_events, 1);
        for _ in 0..3 {
            let after = unit.recovered(4, false).unwrap();
            assert_eq!(after, AfterRecovery::StayOffline);
        }
        assert_eq!(unit.recovered(4, false).unwrap(), AfterRecovery::Resume);
        assert_eq!(unit.stats.recovery_segments, 6);
        assert_eq!(unit.stats.squashes_overrun, 2);
        assert_eq!(unit.stats.squashes_fault, 1);

        // The same three squashes spread wider than the window never
        // count together.
        let mut unit = CommitUnit::new(&p, &d, config);
        for _ in 0..3 {
            unit.squash(SquashReason::Overrun, &doomed, (1, 5));
            for _ in 0..8 {
                unit.commit(&doomed).unwrap();
            }
        }
        assert_eq!(unit.stats.throttle_events, 0);
        assert_eq!(unit.recovered(4, false).unwrap(), AfterRecovery::Resume);
    }

    /// The one restart rule both drivers follow: a squash loses the
    /// master, the throttle keeps it lost, the end of the first segment
    /// past the throttle restarts it there, and an active master runs on.
    #[test]
    fn squash_loses_the_master_and_only_a_lost_one_restarts() {
        let config = EngineConfig {
            throttle_threshold: 1,
            throttle_duration: 1,
            ..EngineConfig::default()
        };
        let (p, d) = identity(LOOP, &["loop"]);
        let mut unit = CommitUnit::new(&p, &d, config);
        let segment = |unit: &mut CommitUnit<'_>| {
            let (executed, halted) = unit.recover(|_| {}).unwrap();
            unit.recovered(executed, halted).unwrap()
        };
        // Booted with its first spawn pending, as a master with no slave
        // keeps it: active, so a segment's end leaves it as it was.
        let entry = Some(p.entry());
        assert_eq!(unit.master.pending_spawn(), entry);
        assert_eq!(segment(&mut unit), AfterRecovery::Resume);
        assert_ne!(unit.arch.pc(), p.entry());
        assert_eq!(unit.master.pending_spawn(), entry, "not restarted");

        let doomed = task(unit.arch.pc(), 1, &[], &[]);
        unit.squash(SquashReason::Overrun, &doomed, (1, 1));
        assert_eq!(unit.master.status(), MasterStall::Lost);
        unit.squash(SquashReason::Overrun, &doomed, (1, 1));
        assert_eq!(unit.stats.throttle_events, 1);
        assert_eq!(segment(&mut unit), AfterRecovery::StayOffline);
        assert_eq!(unit.master.status(), MasterStall::Lost, "throttled");
        assert_eq!(segment(&mut unit), AfterRecovery::Resume);
        assert_eq!(unit.master.status(), MasterStall::Active);
        assert_eq!(unit.master.pending_spawn(), Some(unit.arch.pc()));
    }

    /// A candidate ready at a segment's end restarts the lost master once,
    /// on the candidate.
    #[test]
    fn a_ready_candidate_restarts_the_master_on_itself() {
        let (p, d) = identity(LOOP, &["loop"]);
        let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let candidate = d.clone();
        let recompiler: Recompiler = Box::new(move |_| Ok(candidate.clone()));
        let swap_after_one = AdaptiveConfig {
            force_swap_at: vec![1],
        };
        let mut unit = CommitUnit::new(&p, &d, EngineConfig::default());
        let controller = AdaptiveController::new(swap_after_one, &profile);
        unit.enable_adaptive(controller, recompiler);
        unit.commit(&task(p.entry(), 2, &[], &[])).unwrap();
        unit.squash(SquashReason::WrongPath, &task(0, 1, &[], &[]), (1, 1));
        assert_eq!(unit.recovered(3, false).unwrap(), AfterRecovery::Resume);
        assert!(unit.swapped.is_some(), "the candidate is installed");
        assert_eq!(unit.master.status(), MasterStall::Active);
        assert_eq!(unit.master.pending_spawn(), Some(unit.arch.pc()));
        let (_, stats, report) = unit.finish();
        assert_eq!(stats.swaps_installed, 1);
        assert_eq!(report.expect("an adaptive run").swaps.len(), 1);
    }

    #[test]
    fn live_in_squash_reports_the_mismatches_in_cell_order() {
        let (p, d) = identity(LOOP, &["loop"]);
        let mut unit = CommitUnit::new(&p, &d, EngineConfig::default());
        unit.arch.set_reg(Reg::S1, 9);
        unit.arch.store_word(16, 8);
        let stale = task(0x200, 5, &[(S1, 5), (Cell::Mem(16), 7)], &[]);
        let cells = stale.live_ins.mismatches_against(&unit.arch);
        assert_eq!(cells, vec![(S1, 5, 9), (Cell::Mem(16), 7, 8)]);
        for _ in 0..4 {
            unit.squash(SquashReason::LiveInMismatch, &stale, (1, 5));
        }
        // A task that read the architected value commits; one that read a
        // value the architected state has since left squashes.
        let reader = task(0x200, 5, &[(S1, 9)], &[]);
        unit.commit(&reader).unwrap();
        unit.arch.set_reg(Reg::S1, 10);
        let cells = reader.live_ins.mismatches_against(&unit.arch);
        assert_eq!(cells, vec![(S1, 9, 10)]);
        unit.squash(SquashReason::LiveInMismatch, &reader, (1, 5));
        assert_eq!(unit.stats.squashes_live_in, 5);
        assert_eq!(
            (unit.stats.squashed_tasks, unit.stats.committed_tasks),
            (5, 1)
        );
        assert_eq!(unit.stats.wasted_slave_instructions, 25);
    }

    #[test]
    fn recovery_ends_at_the_nth_crossing_with_the_pc_there() {
        let (p, d) = identity(LOOP, &["loop"]);
        let d = d.with_crossings_per_task(2);
        let loop_pc = p.symbol("loop").unwrap();
        let mut unit = CommitUnit::new(&p, &d, EngineConfig::default());
        let mut steps = 0;
        let (executed, halted) = unit
            .recover(|info| {
                steps += 1;
                assert!(!info.halted);
            })
            .unwrap();
        // Entry falls into `loop` (crossing 1); one iteration later the
        // back-edge crosses it again (crossing 2).
        assert_eq!((steps, executed, halted), (4, 4, false));
        let arch = &unit.arch;
        assert_eq!(
            (arch.pc(), arch.reg(Reg::S1), arch.reg(Reg::S0)),
            (loop_pc, 1, 2)
        );

        // The rest of the program fits one long segment and halts.
        let far = d.clone().with_crossings_per_task(100);
        let mut unit = CommitUnit {
            arch: unit.arch,
            ..CommitUnit::new(&p, &far, EngineConfig::default())
        };
        let (executed, halted) = unit.recover(|_| {}).unwrap();
        assert!(halted);
        assert_eq!((executed, unit.arch.reg(Reg::S1)), (6, 3));
        let halt_pc = loop_pc + 3 * mssp_isa::INSTR_BYTES;
        assert_eq!(unit.arch.pc(), halt_pc);
    }

    /// A segment cut at the budget left keeps the non-speculative writes
    /// it made, and the unit reports the budget spent with the
    /// state reached: the sequential state after exactly the budget.
    #[test]
    fn recovery_segment_stops_at_the_budget_and_reports_genuine_faults() {
        let (p, d) = identity(LOOP, &[]);
        let config = EngineConfig {
            max_task_instrs: 1,
            max_instrs: 5,
            ..EngineConfig::default()
        };
        let mut unit = CommitUnit::new(&p, &d, config);
        let (executed, halted) = unit.recover(|_| {}).unwrap();
        assert_eq!(
            (executed, halted),
            (5, false),
            "the budget, not the task cap"
        );
        let Err(EngineError::Budget { retired, state }) = unit.recovered(5, false) else {
            panic!("the budget is spent");
        };
        let mut seq = mssp_machine::SeqMachine::boot(&p);
        seq.run(5).unwrap();
        assert_eq!((retired, &*state), (5, seq.state()));

        // Committed instructions count against it.
        let mut unit = CommitUnit::new(&p, &d, config);
        unit.commit(&task(0, 3, &[], &[])).unwrap();
        let (executed, _) = unit.recover(|_| {}).unwrap();
        assert_eq!(executed, 2);

        unit.arch.set_pc(0xdead_0000);
        let fault = unit.recover(|_| {});
        assert!(matches!(fault, Err(EngineError::RecoveryFault(_))));
        assert_eq!(
            unit.arch.pc(),
            0xdead_0000,
            "the PC stays at the faulting PC"
        );
    }

    #[test]
    fn rejected_and_failed_recompiles_each_rearm_the_controller() {
        let (p, pinned) = identity(LOOP, &["loop"]);
        let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let boundary = p.symbol("loop").unwrap();
        let identity_map = BTreeMap::from([(p.entry(), p.entry()), (boundary, boundary)]);
        let moved = Distilled::from_parts(p.clone(), BTreeSet::from([p.entry()]), identity_map);
        // Scripted recompiler: fails, returns a candidate that moved the
        // boundaries, then a valid one.
        let mut answers = vec![Ok(pinned.clone()), Ok(moved), Err("lint".to_string())];
        let recompiler: Recompiler = Box::new(move |_| answers.pop().unwrap());
        let mut unit = CommitUnit::new(&p, &pinned, EngineConfig::default());
        let controller = AdaptiveController::new(AdaptiveConfig::default(), &profile);
        unit.enable_adaptive(controller, recompiler);

        let doomed = task(boundary, 1, &[], &[]);
        let diverge = |unit: &mut CommitUnit<'_>| {
            for _ in 0..WINDOW_TASKS {
                unit.squash(SquashReason::WrongPath, &doomed, (1, 5));
            }
            unit.swap(|| (2, 9))
        };
        assert!(!diverge(&mut unit), "failed recompile");
        assert!(!diverge(&mut unit), "rejected candidate");
        // Had either left the controller pending, this window would not
        // have raised a request and the recompiler would not have run.
        assert!(diverge(&mut unit), "third recompile validates");
        assert_eq!(unit.master.status(), MasterStall::Active, "restarted");
        assert_eq!(unit.stats.swaps_installed, 1);
        assert_eq!(unit.stats.swap_abandoned_tasks, 2);
        assert_eq!(
            unit.stats.wasted_slave_instructions,
            3 * WINDOW_TASKS * 5 + 9
        );
        let (_, stats, report) = unit.finish();
        let report = report.expect("adaptive run carries a report");
        assert_eq!(report.recompile_failures, 1);
        assert_eq!(report.candidates_rejected, 1);
        assert_eq!(report.swaps.len(), 1);
        assert_eq!(report.swaps[0].stats, stats, "marker froze the counters");
    }

    /// A candidate must keep the offline segmentation: one that moves the
    /// boundary set, or keeps it and regroups its crossings, is dropped
    /// and counted, and nothing installs.
    #[test]
    fn candidate_validation_pins_segmentation() {
        let (p, d) = identity(LOOP, &["loop"]);
        let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let halt = assemble("main: halt").unwrap();
        let moved = Distilled::from_parts(halt, BTreeSet::from([0xdead]), BTreeMap::new());
        let regrouped = d.clone().with_crossings_per_task(2);
        assert_eq!(regrouped.boundaries(), d.boundaries());
        for wrong in [moved, regrouped] {
            let recompiler: Recompiler = Box::new(move |_| Ok(wrong.clone()));
            let force = AdaptiveConfig {
                force_swap_at: vec![1],
            };
            let mut unit = CommitUnit::new(&p, &d, EngineConfig::default());
            unit.enable_adaptive(AdaptiveController::new(force, &profile), recompiler);
            unit.commit(&task(p.entry(), 2, &[], &[])).unwrap();
            assert!(
                !unit.swap(|| (1, 1)),
                "a candidate with another segmentation"
            );
            assert!(unit.swapped.is_none());
            let (_, stats, report) = unit.finish();
            let report = report.expect("an adaptive run");
            assert_eq!(report.candidates_rejected, 1);
            assert!(report.swaps.is_empty());
            assert_eq!((stats.swaps_installed, stats.swap_abandoned_tasks), (0, 0));
        }
    }

    /// A master that cannot step is left as it was, whatever its run-ahead
    /// count: a pending spawn stays pending, a halted master stays halted.
    #[test]
    fn a_master_that_cannot_step_is_left_as_it_was() {
        let config = EngineConfig {
            master_runahead: 0,
            ..EngineConfig::default()
        };
        let spin = "main: addi s0, zero, 1\nloop: addi s1, s1, 1\nj loop";
        let (p, d) = identity(spin, &["loop"]);
        let mut unit = CommitUnit::new(&p, &d, config);
        let (task, _) = unit.spawn(0);
        assert_eq!(task.start_pc, unit.arch.pc(), "the boot spawn");
        assert!(unit.step_master().is_some(), "the step that arms a spawn");
        let armed = unit.master.pending_spawn();
        assert!(armed.is_some());
        assert!(unit.step_master().is_none());
        let pending = unit.master.pending_spawn();
        assert_eq!(pending, armed, "the spawn stays pending");
        assert_eq!(unit.master.status(), MasterStall::Active);
        assert_eq!(unit.stats.master_instructions, 1);

        let (p, d) = identity("main: halt", &[]);
        let mut unit = CommitUnit::new(&p, &d, config);
        unit.spawn(0);
        assert!(unit.step_master().is_some_and(|info| info.halted));
        assert!(unit.step_master().is_none());
        assert_eq!(unit.master.status(), MasterStall::Halted);
        assert_eq!(unit.stats.master_instructions, 1);
        assert_eq!(unit.stats.spawned_tasks, 1, "the spawn counts itself");
    }

    #[test]
    fn recheck_ratio_is_a_constant_and_never_nan() {
        // The ledger divides nothing by this, but it does take medians of
        // it: 0.0 with no live-in presented (never the 0/0 NaN), 1.0 after.
        assert_eq!(EngineStats::default().recheck_ratio(), 0.0);
        let (p, d) = identity(LOOP, &["loop"]);
        let mut unit = CommitUnit::new(&p, &d, EngineConfig::default());
        unit.commit(&task(0x100, 3, &[(S1, 1)], &[])).unwrap();
        assert_eq!(unit.stats.recheck_ratio(), 1.0);
        assert_eq!(unit.stats.pre_verified_tasks, 0);
    }
}
