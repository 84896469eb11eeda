//! The MSSP protocol core: one sans-IO commit unit under two drivers.
//!
//! The paper rests correctness on a single in-order verify/commit unit.
//! This module is that unit's *policy*, written once: what a spawn, a
//! commit, a squash, a recovery segment and a hot-swap **mean** — which
//! counters move, when the squash throttle takes the master offline,
//! when a recompiled program may be installed. It performs no I/O, keeps
//! no clock and owns no architected state. The drivers decide **when**: [`crate::Engine`] raises the events
//! from virtual time, the threaded coordinator from worker results and
//! its own master slices.
//!
//! [`verify_and_commit`] is the single verdict oracle: both drivers call
//! it on the oldest finished task, and nothing else decides a commit.

use std::collections::VecDeque;
use std::sync::Arc;

use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{step, Delta, DeltaArena, MachineState, StepInfo};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler, SwapCandidate};
use crate::engine::{EngineConfig, EngineError};
use crate::master::{Master, MasterStall};
use crate::task::{RecoveryStorage, SegmentRules, Task, TaskEnd, TaskId};

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
/// instruction counts, the coordinator's snapshot counters); the
/// [`MasterSeat`] writes the master's.
#[derive(Debug, Default)]
pub(crate) struct CommitUnit {
    pub stats: EngineStats,
    pub config: EngineConfig,
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
    pub(crate) fn enable_adaptive(&mut self, ctl: AdaptiveController, recompiler: Recompiler) {
        self.adaptive = Some(Adaptive { ctl, recompiler });
    }

    /// `task` passed the memoization test and its writes are architected
    /// in `arch`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if the commit spent the instruction budget.
    pub(crate) fn commit(&mut self, task: &Task, arch: &MachineState) -> Result<(), EngineError> {
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
        self.within_budget(arch)
    }

    /// The oldest task `failing` failed verification against `arch`; it
    /// and every younger task die: `(tasks, instructions)` of in-flight
    /// work. The driver discards the tasks and starts a recovery segment.
    pub(crate) fn squash(
        &mut self,
        reason: SquashReason,
        failing: &Task,
        arch: &MachineState,
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
            ad.ctl.observe_squash(reason, &failing.live_ins, arch);
        }
        self.throttle_on_squash();
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

    /// A recovery segment of `executed` instructions committed, leaving
    /// `arch`. Only now, at a *consistent* architected point, may the
    /// master restart: at squash time it would read a torn mix of pre- and
    /// post-recovery values.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if the segment spent the instruction budget.
    pub(crate) fn recovered(
        &mut self,
        executed: u64,
        arch: &MachineState,
    ) -> Result<AfterRecovery, EngineError> {
        self.stats.recovery_segments += 1;
        self.stats.recovery_instructions += executed;
        self.stats.committed_instructions += executed;
        self.within_budget(arch)?;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl.observe_recovery_segment();
        }
        if self.throttle_remaining > 0 {
            self.throttle_remaining -= 1;
            Ok(AfterRecovery::StayOffline)
        } else {
            Ok(AfterRecovery::RestartMaster)
        }
    }

    /// The run's one budget check, made at every commit point: the run
    /// stops at the first one at or past `max_instrs`, with the
    /// architected state `arch` it reached.
    fn within_budget(&self, arch: &MachineState) -> Result<(), EngineError> {
        let retired = self.stats.committed_instructions;
        if retired < self.config.max_instrs {
            return Ok(());
        }
        let state = Box::new(arch.clone());
        Err(EngineError::Budget { retired, state })
    }

    /// Pumps the adaptive loop at a swap-safe point (a commit or the end
    /// of a recovery segment): services a pending request by recompiling
    /// right here, and returns a validated candidate for the driver to
    /// install.
    pub(crate) fn poll_swap(&mut self) -> Option<SwapCandidate> {
        let Adaptive { ctl, recompiler } = self.adaptive.as_mut()?;
        ctl.recompile(recompiler)
    }

    /// The driver installed `candidate`, abandoning `(tasks, instructions)`
    /// of in-flight work like a squash — its predictions came from the
    /// outgoing program — but a swap is not a misprediction: no squash is
    /// counted and no recovery segment runs.
    pub(crate) fn swap_installed(&mut self, candidate: &SwapCandidate, abandoned: (u64, u64)) {
        self.stats.swap_abandoned_tasks += abandoned.0;
        self.stats.wasted_slave_instructions += abandoned.1;
        self.stats.swaps_installed += 1;
        if let Some(ad) = &mut self.adaptive {
            ad.ctl
                .note_swap_installed(candidate.latency_micros, self.stats);
        }
    }

    /// Ends the run.
    pub(crate) fn finish(self) -> (EngineStats, Option<AdaptiveReport>) {
        let adaptive = self.adaptive.map(|ad| ad.ctl.into_report());
        (self.stats, adaptive)
    }
}

/// The master as a driver holds it: the [`Master`] plus what both drivers
/// keep around it — the installed program (the offline one or the latest
/// hot-swap), the run-ahead bound, and the ids spawned tasks take.
#[derive(Debug)]
pub(crate) struct MasterSeat<'a> {
    pub master: Master,
    offline: &'a Distilled,
    swapped: Option<Arc<Distilled>>,
    runahead: u64,
    /// Master instructions since its last spawn or restart.
    since_spawn: u64,
    /// The task spawned last since the restart; its segment closes at the
    /// next spawn.
    last_spawned: Option<u64>,
    next_task_id: u64,
}

impl<'a> MasterSeat<'a> {
    /// A master booted on `distilled` at `arch`'s PC, seeded with `arch`.
    pub(crate) fn new(distilled: &'a Distilled, arch: &MachineState, runahead: u64) -> Self {
        MasterSeat {
            master: Master::restart_at(distilled, arch.pc(), true, arch.clone()),
            offline: distilled,
            swapped: None,
            runahead,
            since_spawn: 0,
            last_spawned: None,
            next_task_id: 0,
        }
    }

    /// The installed distilled program.
    pub(crate) fn program(&self) -> &Distilled {
        self.swapped.as_deref().unwrap_or(self.offline)
    }

    /// Whether the master can act: it is active, and a pending spawn has
    /// `room` in the task window.
    #[inline]
    pub(crate) fn can_act(&self, room: bool) -> bool {
        self.master.status() == MasterStall::Active
            && (self.master.pending_spawn().is_none() || room)
    }

    /// Moves the master's spawn-guard vetoes into `stats`.
    pub(crate) fn harvest_vetoes(&mut self, stats: &mut EngineStats) {
        stats.spawn_vetoes += self.master.take_vetoed_spawns();
    }

    /// Reseeds the master from `arch` on the installed program, installing
    /// `swap` first if given; the outgoing master's vetoes are harvested.
    pub(crate) fn restart(
        &mut self,
        stats: &mut EngineStats,
        arch: &MachineState,
        swap: Option<Arc<Distilled>>,
    ) {
        self.harvest_vetoes(stats);
        if let Some(program) = swap {
            self.swapped = Some(program);
        }
        self.master = Master::restart_at(self.program(), arch.pc(), true, arch.clone());
        self.since_spawn = 0;
        self.last_spawned = None;
    }

    /// Executes and counts one master instruction. Past the run-ahead
    /// bound without a spawn, marks the master lost instead: `None`. A
    /// master that cannot step (halted, lost, or with a spawn pending)
    /// gets `None` and is left as it was.
    ///
    /// Always inlined, with [`Master::step`]: a driver's burst calls it
    /// per instruction, and an out-of-line call hands the `StepInfo` back
    /// through the stack (DESIGN.md §6, "The hot-path rule").
    #[inline(always)]
    pub(crate) fn step(&mut self, stats: &mut EngineStats) -> Option<StepInfo> {
        if !self.can_act(false) {
            return None;
        }
        if self.since_spawn > self.runahead {
            self.master.mark_lost();
            return None;
        }
        let info = self
            .master
            .step(self.swapped.as_deref().unwrap_or(self.offline))?;
        stats.master_instructions += 1;
        self.since_spawn += 1;
        Some(info)
    }

    /// Turns the pending spawn into the next task, bound for `slave`, and
    /// counts it in `stats`: the master closes its segment, and the task's
    /// live-in and write buffers come from `arena`. Also returns the cells
    /// of the master's newest checkpoint segment.
    pub(crate) fn spawn(
        &mut self,
        stats: &mut EngineStats,
        arena: &mut DeltaArena,
        slave: usize,
    ) -> (Task, usize) {
        let (start, overlay) = self.master.take_spawn(self.last_spawned);
        let cells = overlay.first().map_or(0, |d| d.len());
        stats.spawned_tasks += 1;
        let id = TaskId(self.next_task_id);
        self.next_task_id += 1;
        let task = Task::with_buffers(id, start, slave, overlay, arena.take(), arena.take());
        self.last_spawned = Some(id.0);
        self.since_spawn = 0;
        (task, cells)
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
    /// segment reached `halt`, its last boundary under `rules`, or the
    /// instructions left of `unit`'s budget (whatever `rules.max_instrs`
    /// says), and is ready to [commit](RecoverySegment::commit). A segment
    /// cut at the budget commits what it has run: its writes are
    /// non-speculative. Recovery is verified execution, so every
    /// instruction feeds the adaptive controller's live profile.
    ///
    /// # Errors
    ///
    /// `RecoveryFault` if the original program faults (a genuine program
    /// error).
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
        let mut rules = *rules;
        rules.max_instrs = unit.config.max_instrs - unit.stats.committed_instructions;
        let end = rules.retire(&info, &mut self.pc, &mut self.executed, &mut self.crossings);
        Ok((info, end))
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
    use crate::adaptive::{AdaptiveConfig, WINDOW_TASKS};
    use crate::task::BoundarySet;
    use mssp_analysis::Profile;
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

    #[test]
    fn scripted_events_produce_exact_stats() {
        let mut unit = CommitUnit::new(EngineConfig::default());
        let arch = MachineState::new();
        let a = task(0x100, 10, &[(S1, 1), (Cell::Mem(8), 2)], &[(S1, 3)]);
        unit.commit(&a, &arch).unwrap();
        let b = task(0x180, 7, &[], &[]);
        unit.squash(SquashReason::WrongPath, &b, &arch, (2, 11));
        assert_eq!(
            unit.recovered(20, &arch).unwrap(),
            AfterRecovery::RestartMaster
        );
        assert!(unit.poll_swap().is_none(), "no adaptive loop, no candidate");
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
        let (stats, adaptive) = unit.finish();
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
        let mut unit = CommitUnit::new(config);
        let arch = MachineState::new();
        let doomed = task(0x100, 5, &[], &[]);
        for _ in 0..2 {
            unit.squash(SquashReason::Overrun, &doomed, &arch, (1, 5));
            assert_eq!(
                unit.recovered(4, &arch).unwrap(),
                AfterRecovery::RestartMaster
            );
        }
        assert_eq!(unit.stats.throttle_events, 0, "at the threshold, not over");
        unit.squash(SquashReason::Fault, &doomed, &arch, (1, 5));
        assert_eq!(unit.stats.throttle_events, 1);
        for _ in 0..3 {
            assert_eq!(
                unit.recovered(4, &arch).unwrap(),
                AfterRecovery::StayOffline
            );
        }
        assert_eq!(
            unit.recovered(4, &arch).unwrap(),
            AfterRecovery::RestartMaster
        );
        assert_eq!(unit.stats.recovery_segments, 6);
        assert_eq!(unit.stats.squashes_overrun, 2);
        assert_eq!(unit.stats.squashes_fault, 1);

        // The same three squashes spread wider than the window never
        // count together.
        let mut unit = CommitUnit::new(config);
        for _ in 0..3 {
            unit.squash(SquashReason::Overrun, &doomed, &arch, (1, 5));
            for _ in 0..8 {
                unit.commit(&doomed, &arch).unwrap();
            }
        }
        assert_eq!(unit.stats.throttle_events, 0);
        assert_eq!(
            unit.recovered(4, &arch).unwrap(),
            AfterRecovery::RestartMaster
        );
    }

    #[test]
    fn live_in_squash_reports_the_mismatches_in_cell_order() {
        let mut arch = MachineState::new();
        arch.set_reg(Reg::S1, 9);
        arch.store_word(16, 8);
        let mut unit = CommitUnit::new(EngineConfig::default());
        let stale = task(0x200, 5, &[(S1, 5), (Cell::Mem(16), 7)], &[]);
        let cells = stale.live_ins.mismatches_against(&arch);
        assert_eq!(cells, vec![(S1, 5, 9), (Cell::Mem(16), 7, 8)]);
        for _ in 0..4 {
            unit.squash(SquashReason::LiveInMismatch, &stale, &arch, (1, 5));
        }
        // A task that read the architected value commits; one that read a
        // value the architected state has since left squashes.
        let reader = task(0x200, 5, &[(S1, 9)], &[]);
        unit.commit(&reader, &arch).unwrap();
        arch.set_reg(Reg::S1, 10);
        let cells = reader.live_ins.mismatches_against(&arch);
        assert_eq!(cells, vec![(S1, 9, 10)]);
        unit.squash(SquashReason::LiveInMismatch, &reader, &arch, (1, 5));
        assert_eq!(unit.stats.squashes_live_in, 5);
        assert_eq!(
            (unit.stats.squashed_tasks, unit.stats.committed_tasks),
            (5, 1)
        );
        assert_eq!(unit.stats.wasted_slave_instructions, 25);
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

    /// A segment cut at the budget left commits the non-speculative
    /// writes it made, and the unit reports the budget spent with the
    /// state reached: the sequential state after exactly the budget.
    #[test]
    fn recovery_segment_stops_at_the_budget_and_reports_genuine_faults() {
        let p = assemble(LOOP).unwrap();
        let boundaries = BoundarySet::default();
        let rules = SegmentRules {
            boundaries: &boundaries,
            crossings_per_task: 1,
            max_instrs: 1,
        };
        let budget = |max_instrs| {
            CommitUnit::new(EngineConfig {
                max_instrs,
                ..EngineConfig::default()
            })
        };
        let mut unit = budget(5);
        let mut arch = MachineState::boot(&p);
        let (executed, halted) = RecoverySegment::run(&mut unit, &p, &mut arch, &rules).unwrap();
        assert_eq!(
            (executed, halted),
            (5, false),
            "the budget, not the task cap"
        );
        let Err(EngineError::Budget { retired, state }) = unit.recovered(5, &arch) else {
            panic!("the budget is spent");
        };
        let mut seq = mssp_machine::SeqMachine::boot(&p);
        seq.run(5).unwrap();
        assert_eq!((retired, &*state), (5, seq.state()));

        // Committed instructions count against it.
        let mut unit = budget(5);
        let mut arch = MachineState::boot(&p);
        unit.commit(&task(0, 3, &[], &[]), &arch).unwrap();
        let (executed, _) = RecoverySegment::run(&mut unit, &p, &mut arch, &rules).unwrap();
        assert_eq!(executed, 2);

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
        // Scripted recompiler: fails, returns a candidate that moved the
        // boundaries, then a valid one.
        let mut answers = vec![Ok(pinned.clone()), Ok(moved), Err("lint".to_string())];
        let recompiler: Recompiler = Box::new(move |_| answers.pop().unwrap());
        let mut unit = CommitUnit::new(EngineConfig::default());
        let controller = AdaptiveController::new(AdaptiveConfig::default(), &pinned, &profile);
        unit.enable_adaptive(controller, recompiler);

        let arch = MachineState::new();
        let doomed = task(boundary, 1, &[], &[]);
        let diverge = |unit: &mut CommitUnit| {
            for _ in 0..WINDOW_TASKS {
                unit.squash(SquashReason::WrongPath, &doomed, &arch, (1, 5));
            }
            unit.poll_swap()
        };
        assert!(diverge(&mut unit).is_none(), "failed recompile");
        assert!(diverge(&mut unit).is_none(), "rejected candidate");
        // Had either left the controller pending, this window would not
        // have raised a request and the recompiler would not have run.
        let candidate = diverge(&mut unit).expect("third recompile validates");
        unit.swap_installed(&candidate, (2, 9));
        assert_eq!(unit.stats.swaps_installed, 1);
        assert_eq!(unit.stats.swap_abandoned_tasks, 2);
        assert_eq!(
            unit.stats.wasted_slave_instructions,
            3 * WINDOW_TASKS * 5 + 9
        );
        let (stats, report) = unit.finish();
        let report = report.expect("adaptive run carries a report");
        assert_eq!(report.recompile_failures, 1);
        assert_eq!(report.candidates_rejected, 1);
        assert_eq!(report.swaps.len(), 1);
        assert_eq!(report.swaps[0].stats, stats, "marker froze the counters");
    }

    /// A master that cannot step is left as it was, whatever its run-ahead
    /// count: a pending spawn stays pending, a halted master stays halted.
    #[test]
    fn a_master_that_cannot_step_is_left_as_it_was() {
        let seat_on = |src: &str, boundary: Option<&str>| {
            let p = assemble(src).unwrap();
            let boundaries: BTreeSet<u64> =
                boundary.map(|b| p.symbol(b).unwrap()).into_iter().collect();
            let mut map = BTreeMap::from([(p.entry(), p.entry())]);
            map.extend(boundaries.iter().map(|&b| (b, b)));
            let d = Distilled::from_parts(p.clone(), boundaries, map);
            (d, MachineState::boot(&p))
        };
        let (mut arena, mut stats) = (DeltaArena::new(), EngineStats::default());

        let (d, arch) = seat_on(
            "main: addi s0, zero, 1\nloop: addi s1, s1, 1\nj loop",
            Some("loop"),
        );
        let mut seat = MasterSeat::new(&d, &arch, 0);
        let (task, _) = seat.spawn(&mut stats, &mut arena, 0);
        assert_eq!(task.start_pc, arch.pc(), "the boot spawn");
        assert!(
            seat.step(&mut stats).is_some(),
            "the step that arms a spawn"
        );
        let armed = seat.master.pending_spawn();
        assert!(armed.is_some());
        assert!(seat.step(&mut stats).is_none());
        assert_eq!(
            seat.master.pending_spawn(),
            armed,
            "the spawn stays pending"
        );
        assert_eq!(seat.master.status(), MasterStall::Active);
        assert_eq!(stats.master_instructions, 1);

        let (d, arch) = seat_on("main: halt", None);
        let mut seat = MasterSeat::new(&d, &arch, 0);
        seat.spawn(&mut stats, &mut arena, 0);
        assert!(seat.step(&mut stats).is_some_and(|info| info.halted));
        assert!(seat.step(&mut stats).is_none());
        assert_eq!(seat.master.status(), MasterStall::Halted);
        assert_eq!(stats.master_instructions, 2);
        assert_eq!(stats.spawned_tasks, 2, "each spawn counts itself");
    }

    #[test]
    fn recheck_ratio_is_a_constant_and_never_nan() {
        // The ledger divides nothing by this, but it does take medians of
        // it: 0.0 with no live-in presented (never the 0/0 NaN), 1.0 after.
        assert_eq!(EngineStats::default().recheck_ratio(), 0.0);
        let mut unit = CommitUnit::new(EngineConfig::default());
        let t = task(0x100, 3, &[(S1, 1)], &[]);
        unit.commit(&t, &MachineState::new()).unwrap();
        assert_eq!(unit.stats.recheck_ratio(), 1.0);
        assert_eq!(unit.stats.pre_verified_tasks, 0);
    }
}
