//! The discrete-time MSSP engine: master, slaves and the verify/commit
//! unit under a cost model.
//!
//! The engine is a deterministic discrete-time simulation. Components act
//! in a fixed priority order (recovery, verify unit, slaves, master) and
//! the cost model prices each event; under [`crate::UnitCost`] this
//! degenerates to a functional interleaving whose committed state — like
//! that of *any* cost model — equals the sequential machine's (the jumping
//! refinement of the formal model).
//!
//! The engine is one of two drivers of the protocol core in
//! `protocol.rs`: it decides *when* a spawn, a commit, a squash or a
//! recovery step happens (virtual cycles) and what it costs; what each
//! event *means* — counters, predictor training, throttling, hot-swaps —
//! is the `CommitUnit`'s business.
//!
//! ## What it schedules
//!
//! * The **master** executes the distilled program; when it crosses a task
//!   boundary it spawns a task (start PC + predicted-write overlay) onto a
//!   free slave, stalling if none is free.
//! * **Slaves** execute original-program tasks against layered storage,
//!   recording live-ins, until they reach their last boundary PC, `halt`,
//!   a fault, or the instruction cap.
//! * The **verify unit** presents tasks to [`verify_and_commit`] strictly
//!   in spawn order. Any failure squashes the failed task, all younger
//!   tasks, and the master.
//! * **Recovery** re-executes the failed segment non-speculatively, one
//!   instruction per step; the master restarts once it has committed.
//!
//! ## How it schedules
//!
//! Every component carries a *wake-up time*: the cycle at which it next
//! has something to do, or `NEVER` while it waits for another component
//! (a slave without a running task, a verify unit whose oldest task is
//! still executing, a master whose pending spawn has no free slave).
//! Simulated time jumps from one instant to the earliest wake-up; at an
//! instant, one pass visits the components that are due, in priority
//! order, and each acts at most once. A second pass at the same instant
//! happens only when an event of the first left something due *now* — a
//! zero-latency dispatch, a free commit followed by another, a squash
//! with no penalty, a starved machine starting recovery — which the pass
//! reads off the wake-up times it returns; a pass of plain instruction
//! steps (cost at least 1) goes straight on to the next instant. Nothing
//! is polled: a component that is not due is one comparison.
//!
//! Each slave holds at most one task, so the slave's slot *is* the
//! task's home and the in-order window is a queue of slave indices;
//! nothing ever searches for a task by id. The order of [`CostModel`]
//! calls is part of the engine's contract (a model may share state
//! between cores, as the timing model's L2 does), so the priority order
//! and the same-instant repeat rule are pinned by `tests/engine_schedule.rs`.

use std::collections::VecDeque;
use std::sync::Arc;

use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{step, Cell, DeltaArena, Fault, MachineState};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::master::{Master, MasterStall};
use crate::predictor::PredictorReport;
use crate::protocol::{
    verify_and_commit, AfterRecovery, CommitUnit, EngineStats, Recompile, RecoverySegment,
    SquashReason, VerifyOutcome,
};
use crate::task::{BoundarySet, SegmentRules, Task, TaskEnd, TaskId, TaskStatus};
use crate::{CoreRole, CostModel};

/// Engine configuration. Every field acts under both executors except the
/// two that are driver-specific by nature: `max_cycles` and
/// `word_granular_live_ins` (discrete [`Engine`] only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of slave processors (the paper's CMP had one master plus
    /// slaves; 8 cores total is the reference configuration).
    pub num_slaves: usize,
    /// Hard cap on a task's instruction count; exceeding it marks the
    /// task overrun (squashed at verification).
    pub max_task_instrs: u64,
    /// Master instructions allowed without crossing a boundary before the
    /// master is declared lost (bounds run-away distilled loops).
    pub master_runahead: u64,
    /// Simulated-cycle budget; exceeding it aborts the run.
    pub max_cycles: u64,
    /// Instruction cap for a single recovery segment (a backstop against
    /// boundary-free infinite loops; the sequential program would not
    /// terminate either).
    pub max_recovery_instrs: u64,
    /// Ablation switch: degrade live-in tracking to whole-word granularity
    /// (recreates false sharing between tasks writing adjacent bytes).
    pub word_granular_live_ins: bool,
    /// Adaptive sequential fallback (the paper's dual-mode operation): if
    /// more than this many squash events occur within
    /// [`EngineConfig::throttle_window`] committed+squashed tasks, the
    /// master is kept offline for [`EngineConfig::throttle_duration`]
    /// recovery segments. `0` disables throttling.
    pub throttle_threshold: u32,
    /// Task window over which squashes are counted for throttling.
    pub throttle_window: u64,
    /// Recovery segments to run sequentially once throttled.
    pub throttle_duration: u64,
    /// Live-in value prediction: when a per-(boundary, register) component
    /// predictor is confident, its value is injected into the spawned
    /// task's overlay, overriding the master's checkpoint for that cell.
    /// Injected values are read as live-ins and verified at commit, so a
    /// wrong prediction costs a squash, never correctness. The predictor
    /// trains only on architected values observed at verify time.
    pub enable_predictor: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            num_slaves: 7,
            max_task_instrs: 1 << 14,
            master_runahead: 1 << 17,
            max_cycles: u64::MAX / 2,
            max_recovery_instrs: u64::MAX / 2,
            word_granular_live_ins: false,
            throttle_threshold: 0,
            throttle_window: 64,
            throttle_duration: 16,
            enable_predictor: true,
        }
    }
}

/// Result of a completed MSSP run.
#[derive(Debug, Clone)]
pub struct MsspRun {
    /// Simulated cycles from boot to architectural halt.
    pub cycles: u64,
    /// The final architected state.
    pub state: MachineState,
    /// Run statistics.
    pub stats: EngineStats,
    /// Architected PCs at each commit point, if tracing was enabled with
    /// [`Engine::enable_commit_trace`]. The jumping-refinement property:
    /// this is always a subsequence of the sequential machine's PC trace.
    pub commit_trace: Option<Vec<u64>>,
    /// All-cause squash samples, if enabled with
    /// [`Engine::enable_squash_samples`].
    pub squash_samples: Option<Vec<SquashSample>>,
    /// Committed task sizes, if enabled with
    /// [`Engine::enable_task_size_trace`].
    pub task_sizes: Option<Vec<u64>>,
    /// Final accuracy summary of the live-in value predictor (all zeros
    /// when the predictor was disabled or never trained).
    pub predictor_report: PredictorReport,
    /// Adaptive re-distillation summary, if enabled with
    /// [`Engine::enable_adaptive`].
    pub adaptive: Option<AdaptiveReport>,
}

/// Engine failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Exceeded [`EngineConfig::max_cycles`].
    CycleLimit,
    /// The *original* program faulted during non-speculative recovery —
    /// a genuine program error, not a speculation artifact.
    RecoveryFault(Fault),
    /// A recovery segment exceeded [`EngineConfig::max_recovery_instrs`].
    RecoveryLimit,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CycleLimit => write!(f, "simulated cycle budget exceeded"),
            EngineError::RecoveryFault(fault) => {
                write!(f, "original program faulted in recovery: {fault}")
            }
            EngineError::RecoveryLimit => write!(f, "recovery segment exceeded instruction cap"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The wake-up time of a component with nothing to do: no task to run or
/// verify, no segment to recover, no spawn it could place. Such a
/// component is waiting for another one, not for the clock.
const NEVER: u64 = u64::MAX;

/// The MSSP machine.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::Profile;
/// use mssp_distill::{distill, DistillConfig};
/// use mssp_core::{Engine, EngineConfig, UnitCost};
/// use mssp_machine::SeqMachine;
///
/// let p = assemble(
///     "main: addi s0, zero, 200
///      loop: add  s1, s1, s0
///            addi s0, s0, -1
///            bnez s0, loop
///            halt",
/// ).unwrap();
/// let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
/// let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
///
/// let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
///     .run()
///     .unwrap();
///
/// // MSSP's committed state equals the sequential machine's.
/// let mut seq = SeqMachine::boot(&p);
/// seq.run(u64::MAX).unwrap();
/// assert_eq!(run.state.reg(mssp_isa::Reg::S1), seq.state().reg(mssp_isa::Reg::S1));
/// ```
#[derive(Debug)]
pub struct Engine<'a, C> {
    original: &'a Program,
    distilled: &'a Distilled,
    boundaries: BoundarySet,
    crossings_per_task: u64,
    config: EngineConfig,
    cost: C,

    now: u64,
    arch: MachineState,
    arch_halted: bool,

    master: Master,
    /// When the master's current instruction or spawn completes.
    master_busy_until: u64,
    /// When the master next acts: `master_busy_until` while it is active
    /// and has an instruction to run or a free slave for its pending
    /// spawn, [`NEVER`] otherwise. Kept equal to [`Engine::master_due`].
    master_wake: u64,
    master_since_spawn: u64,
    last_spawned: Option<u64>,

    /// One slot per slave core, holding the task it runs (or ran, until
    /// the task commits). A slave holds at most one task, so the slot is
    /// the task's home: nothing searches for it.
    slaves: Vec<Option<Task>>,
    /// When slave `i` issues its next instruction; [`NEVER`] once its
    /// task is done, or while it has none.
    slave_wake: Vec<u64>,
    /// The in-order task window, oldest first, as the indices of the
    /// slaves holding the tasks.
    window: VecDeque<usize>,
    /// Live-in and write buffers of committed and squashed tasks, cleared,
    /// for the tasks to come.
    arena: DeltaArena,
    /// The recovery segment in progress. The window is empty and the
    /// master offline for as long as one runs.
    recovery: Option<RecoverySegment>,
    /// When the recovery segment's next instruction issues; [`NEVER`]
    /// while there is none.
    recovery_wake: u64,
    /// When the verify unit's current commit or squash completes.
    verify_busy_until: u64,
    /// When the verify unit next acts on the oldest task; [`NEVER`] while
    /// that task is still running on the right path, or the window is
    /// empty. Kept equal to [`Engine::verify_due`].
    verify_wake: u64,

    next_task_id: u64,
    /// The protocol core: statistics, predictor, throttle, adaptive loop.
    unit: CommitUnit,
    /// Architected PCs at each commit point, recorded when tracing is on.
    commit_trace: Option<Vec<u64>>,
    /// All-cause squash samples, recorded when diagnostics are on.
    squash_samples: Option<Vec<SquashSample>>,
    /// Most samples `squash_samples` may hold.
    squash_sample_cap: usize,
    /// Committed task sizes (instructions), recorded when enabled.
    task_sizes: Option<Vec<u64>>,
    /// The currently hot-swapped distilled program; `None` means the
    /// offline program the engine was built with is still installed.
    swapped: Option<Arc<Distilled>>,
}

/// A recorded squash event of any cause (diagnostics): what the verify
/// unit saw when it killed the task window. Wrong-path events carry the
/// architected PC the master failed to predict, which is what the
/// next-task predictor trains on.
#[derive(Debug, Clone)]
pub struct SquashSample {
    /// Why the squash happened.
    pub reason: SquashReason,
    /// The failing task's start PC (original space).
    pub task_start_pc: u64,
    /// The architected PC at squash time (where execution really was).
    pub arch_pc: u64,
    /// Instructions the failing task had executed.
    pub executed: u64,
    /// Mismatching live-in cells `(cell, predicted, architected)`;
    /// non-empty only for [`SquashReason::LiveInMismatch`].
    pub cells: Vec<(Cell, u64, u64)>,
}

/// The oldest task in flight: the one the window's front slave holds.
/// (A free function over the two fields, so callers can keep borrowing
/// the rest of the engine.)
fn oldest<'t>(window: &VecDeque<usize>, slaves: &'t [Option<Task>]) -> Option<&'t Task> {
    let &s = window.front()?;
    Some(slaves[s].as_ref().expect("the window names held tasks"))
}

/// A master booted on `distilled` at `arch`'s PC, seeded with `arch`.
fn master_at(distilled: &Distilled, arch: &MachineState) -> Master {
    Master::restart_at(distilled, arch.pc(), true, arch.clone())
}

impl<'a, C: CostModel> Engine<'a, C> {
    /// Creates an engine booted at the original program's entry.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_slaves` is zero.
    #[must_use]
    pub fn new(
        original: &'a Program,
        distilled: &'a Distilled,
        config: EngineConfig,
        cost: C,
    ) -> Engine<'a, C> {
        assert!(config.num_slaves > 0, "MSSP needs at least one slave");
        let arch = MachineState::boot(original);
        let mut engine = Engine {
            original,
            distilled,
            boundaries: BoundarySet::new(distilled.boundaries().clone()),
            crossings_per_task: distilled.crossings_per_task().max(1),
            config,
            cost,
            now: 0,
            master: master_at(distilled, &arch),
            arch,
            arch_halted: false,
            master_busy_until: 0,
            master_wake: NEVER,
            master_since_spawn: 0,
            last_spawned: None,
            slaves: (0..config.num_slaves).map(|_| None).collect(),
            slave_wake: vec![NEVER; config.num_slaves],
            window: VecDeque::new(),
            arena: DeltaArena::new(),
            recovery: None,
            recovery_wake: NEVER,
            verify_busy_until: 0,
            verify_wake: NEVER,
            next_task_id: 0,
            unit: CommitUnit::new(config),
            commit_trace: None,
            squash_samples: None,
            squash_sample_cap: 0,
            task_sizes: None,
            swapped: None,
        };
        engine.master_wake = engine.master_due();
        engine
    }

    /// Enables online adaptive re-distillation: `controller` detects
    /// divergence and paces the tier state machine, `recompiler`
    /// produces candidate programs from the live profile (callers wire
    /// it to `mssp-lint`'s `redistill_validated`, so every candidate
    /// passes the soundness gate). The discrete engine recompiles
    /// synchronously at the requesting task boundary — deterministically,
    /// for differential testing against the threaded executor.
    pub fn enable_adaptive(&mut self, controller: AdaptiveController, recompiler: Recompiler) {
        self.unit
            .enable_adaptive(controller, Recompile::Inline(recompiler));
    }

    /// The distilled program the master is currently running (the latest
    /// hot-swap, or the offline program).
    #[must_use]
    pub fn current_distilled(&self) -> &Distilled {
        self.swapped.as_deref().unwrap_or(self.distilled)
    }

    /// Enables recording of every committed task's instruction count (for
    /// task-size distribution studies).
    pub fn enable_task_size_trace(&mut self) {
        self.task_sizes = Some(Vec::new());
    }

    /// Enables recording of all-cause squash samples — the first `cap`
    /// squash events of the run, exactly; later ones are dropped — for
    /// squash-attribution diagnostics. Memory grows with the samples
    /// actually recorded, not with `cap`.
    pub fn enable_squash_samples(&mut self, cap: usize) {
        self.squash_samples = Some(Vec::new());
        self.squash_sample_cap = cap;
    }

    /// Enables recording of the architected PC at every commit point.
    /// Used by the jumping-refinement tests: the recorded sequence must be
    /// a subsequence of the sequential machine's PC trace.
    pub fn enable_commit_trace(&mut self) {
        self.commit_trace = Some(vec![self.arch.pc()]);
    }

    /// The recorded commit trace, if enabled.
    #[must_use]
    pub fn commit_trace(&self) -> Option<&[u64]> {
        self.commit_trace.as_deref()
    }

    /// Runs the machine to architectural halt.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run(self) -> Result<MsspRun, EngineError> {
        self.run_returning_cost().map(|(run, _)| run)
    }

    /// Like [`Engine::run`], additionally returning the cost model so
    /// callers can read the microarchitectural counters it accumulated.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run_returning_cost(mut self) -> Result<(MsspRun, C), EngineError> {
        loop {
            let next = self.pass()?;
            #[cfg(debug_assertions)]
            self.check_invariants(next);
            if self.arch_halted {
                break;
            }
            if next <= self.now {
                // An event of this pass left something due at this very
                // instant: the instant is not settled yet.
            } else if next == NEVER {
                // Starvation: no task, no recovery, and a master that
                // cannot produce work. The next segment runs sequentially,
                // starting at this instant.
                self.start_recovery(0);
            } else {
                self.now = next;
                if self.now > self.config.max_cycles {
                    return Err(EngineError::CycleLimit);
                }
            }
        }
        self.unit.stats.spawn_vetoes += self.master.take_vetoed_spawns();
        let (stats, predictor_report, adaptive) = self.unit.finish();
        Ok((
            MsspRun {
                cycles: self.now,
                state: self.arch,
                stats,
                commit_trace: self.commit_trace,
                squash_samples: self.squash_samples,
                task_sizes: self.task_sizes,
                predictor_report,
                adaptive,
            },
            self.cost,
        ))
    }

    // ---- scheduling -----------------------------------------------------

    /// One pass over the components that are due at `now`, in the fixed
    /// priority order: recovery, verify unit, slaves ascending, master.
    /// Returns the earliest wake-up time any component is left with
    /// ([`NEVER`] if all of them wait for one another).
    ///
    /// What an earlier component does is visible to the later ones of the
    /// same pass; what a later one does to an earlier one (a spawn that
    /// gives a slave or the verify unit work at this instant, a squash
    /// whose recovery starts at once) shows as a wake-up time not after
    /// `now`, and the caller runs another pass.
    fn pass(&mut self) -> Result<u64, EngineError> {
        let now = self.now;
        if self.recovery_wake <= now {
            self.act_recovery()?;
        }
        if self.verify_wake <= now && !self.arch_halted {
            self.act_verify();
        }
        if self.arch_halted {
            return Ok(NEVER);
        }
        let mut next = NEVER;
        for s in 0..self.slave_wake.len() {
            if self.slave_wake[s] <= now {
                self.act_slave(s);
            }
            next = next.min(self.slave_wake[s]);
        }
        if self.master_wake <= now {
            // The one event that arms a slave after the scan passed it.
            if let Some(slave) = self.act_master() {
                next = next.min(self.slave_wake[slave]);
            }
        }
        Ok(next
            .min(self.recovery_wake)
            .min(self.verify_wake)
            .min(self.master_wake))
    }

    /// When the verify unit can next act, from scratch. Wrong-path
    /// detection does not wait for the oldest task to finish.
    fn verify_due(&self) -> u64 {
        let Some(task) = oldest(&self.window, &self.slaves) else {
            return NEVER;
        };
        match task.status {
            _ if task.start_pc != self.arch.pc() => self.verify_busy_until,
            TaskStatus::Done { done_at, .. } => self.verify_busy_until.max(done_at),
            TaskStatus::Running => NEVER,
        }
    }

    /// When the master can next act, from scratch: it needs to be active,
    /// and a pending spawn needs a free slave.
    fn master_due(&self) -> u64 {
        let placeable =
            self.master.pending_spawn().is_none() || self.window.len() < self.slaves.len();
        if self.master.status() == MasterStall::Active && placeable {
            self.master_busy_until
        } else {
            NEVER
        }
    }

    /// The structural invariants of the scheduler, checked after every
    /// pass in debug builds.
    #[cfg(debug_assertions)]
    fn check_invariants(&self, next: u64) {
        let slaves = self.slave_wake.iter().copied().min().unwrap_or(NEVER);
        let recomputed = slaves
            .min(self.recovery_wake)
            .min(self.verify_wake)
            .min(self.master_wake);
        assert!(self.arch_halted || next == recomputed, "stale next wake-up");
        let mut previous = None;
        for &s in &self.window {
            let task = self.slaves[s]
                .as_ref()
                .expect("the window names held tasks");
            assert!(previous < Some(task.id), "window out of spawn order");
            previous = Some(task.id);
        }
        let held = self.slaves.iter().flatten().count();
        assert_eq!(self.window.len(), held, "a held task is not in the window");
        for (s, slot) in self.slaves.iter().enumerate() {
            let wake = self.slave_wake[s];
            match slot {
                None => assert_eq!(wake, NEVER, "slave {s} runs without a task"),
                Some(task) => {
                    assert_eq!(task.slave, s, "task {:?} misnames its slave", task.id);
                    assert_eq!(task.is_done(), wake == NEVER, "slave {s} running flag");
                }
            }
            // A core that owes an instruction is armed relative to `now`.
            assert!(wake >= self.now, "slave {s} is due in the past");
        }
        assert_eq!(self.recovery.is_some(), self.recovery_wake != NEVER);
        assert!(
            self.recovery_wake >= self.now,
            "recovery is due in the past"
        );
        assert!(self.recovery.is_none() || self.window.is_empty());
        // These two may lie in the past, but only because the unit waited
        // for another component (a task to verify, a slave to free), which
        // is exactly what the from-scratch answers say.
        assert_eq!(self.verify_wake, self.verify_due(), "stale verify wake-up");
        assert_eq!(self.master_wake, self.master_due(), "stale master wake-up");
    }

    // ---- components -----------------------------------------------------

    fn act_recovery(&mut self) -> Result<(), EngineError> {
        let segment = self.recovery.as_mut().expect("recovery is due");
        let rules = SegmentRules {
            boundaries: &self.boundaries,
            crossings_per_task: self.crossings_per_task,
            max_instrs: self.config.max_recovery_instrs,
        };
        let (info, end) = segment.step(&mut self.unit, self.original, &self.arch, &rules)?;
        let cost = self.cost.instr_cost(CoreRole::Recovery(0), &info).max(1);
        self.recovery_wake = self.now + cost;
        self.unit.stats.recovery_busy_cycles += cost;
        if let Some(end) = end {
            self.finish_recovery(matches!(end, TaskEnd::Halted(_)));
        }
        Ok(())
    }

    fn finish_recovery(&mut self, halted: bool) {
        let segment = self.recovery.take().expect("recovery active");
        self.recovery_wake = NEVER;
        let executed = segment.commit(&mut self.arch);
        if let Some(trace) = &mut self.commit_trace {
            trace.push(self.arch.pc());
        }
        let next = self.unit.recovered(executed);
        if halted {
            self.arch_halted = true;
            return;
        }
        // While throttled, keep the master offline and let starvation
        // recovery carry execution sequentially.
        if next == AfterRecovery::StayOffline {
            return;
        }
        if self.master.status() != MasterStall::Active {
            self.restart_master();
        }
        // A recovery end is a consistent task boundary — the discrete
        // engine's second swap point (alongside commits).
        self.try_adaptive_swap();
    }

    fn act_verify(&mut self) {
        let task = oldest(&self.window, &self.slaves).expect("verify is due on a task");
        if task.start_pc != self.arch.pc() {
            self.squash_and_recover(SquashReason::WrongPath);
            return;
        }
        let TaskStatus::Done { end, .. } = task.status else {
            unreachable!("verify is due on a right-path task only once it is done");
        };
        match verify_and_commit(&mut self.arch, task, end) {
            VerifyOutcome::Squash(reason) => self.squash_and_recover(reason),
            VerifyOutcome::Commit { end_pc, halted } => self.commit_oldest(end_pc, halted),
        }
    }

    /// Task safety established and the commit superimposition applied:
    /// account for the oldest task and release its slave.
    fn commit_oldest(&mut self, end_pc: u64, halted: bool) {
        let s = self.window.pop_front().expect("front exists");
        let task = self.slaves[s].take().expect("the window names held tasks");
        let vcost = self.cost.verify_cost(task.live_ins.len());
        let ccost = self.cost.commit_cost(task.writes.len());
        self.verify_busy_until = self.now + vcost + ccost;
        self.unit.stats.verify_busy_cycles += vcost + ccost;
        self.unit.commit(&task);
        if let Some(sizes) = &mut self.task_sizes {
            sizes.push(task.executed);
        }
        self.master.on_commit(task.id.0);
        self.arena.put(task.live_ins);
        self.arena.put(task.writes);
        // The next task is the oldest now, and a master stalled on its
        // pending spawn has a slave to place it on.
        self.verify_wake = self.verify_due();
        self.master_wake = self.master_due();
        if let Some(trace) = &mut self.commit_trace {
            trace.push(end_pc);
        }
        if halted {
            self.arch_halted = true;
        } else {
            // Commits are the primary swap point: architected state sits
            // at a consistent task boundary.
            self.try_adaptive_swap();
        }
    }

    fn act_slave(&mut self, s: usize) {
        let task = self.slaves[s].as_mut().expect("a due slave holds a task");
        let pc = task.pc;
        let word_granular = self.config.word_granular_live_ins;
        let result = {
            let mut storage = task.storage_with_granularity(&self.arch, word_granular);
            step(&mut storage, self.original, pc)
        };
        let (end, busy_until) = match result {
            // A fault on a speculative path is a task outcome, not an
            // engine error.
            Err(_) => (Some(TaskEnd::Fault), self.now + 1),
            Ok(info) => {
                let cost = self.cost.instr_cost(CoreRole::Slave(s), &info).max(1);
                self.unit.stats.slave_busy_cycles += cost;
                let busy_until = self.now + cost;
                if info.halted {
                    (Some(TaskEnd::Halted(pc)), busy_until)
                } else {
                    task.executed += 1;
                    task.pc = info.next_pc;
                    self.unit.stats.slave_instructions += 1;
                    let rules = SegmentRules {
                        boundaries: &self.boundaries,
                        crossings_per_task: self.crossings_per_task,
                        max_instrs: self.config.max_task_instrs,
                    };
                    let end = if rules.crossed(info.next_pc, &mut task.crossings) {
                        Some(TaskEnd::Boundary(info.next_pc))
                    } else if task.executed >= rules.max_instrs {
                        Some(TaskEnd::Overrun)
                    } else {
                        None
                    };
                    (end, busy_until)
                }
            }
        };
        let Some(end) = end else {
            self.slave_wake[s] = busy_until;
            return;
        };
        task.status = TaskStatus::Done {
            end,
            done_at: busy_until,
        };
        self.slave_wake[s] = NEVER;
        if self.window.front() == Some(&s) {
            self.verify_wake = self.verify_due();
        }
    }

    /// The master's turn. Returns the slave it dispatched a task to, if
    /// it spawned one.
    fn act_master(&mut self) -> Option<usize> {
        let mut dispatched = None;
        if self.master.pending_spawn().is_some() {
            let slave = self.free_slave().expect("a placeable spawn has a slave");
            let (start, mut overlay) = self.master.take_spawn(self.last_spawned);
            let cells: usize = overlay.first().map(|d| d.len()).unwrap_or(0);
            let predicted = self.unit.spawn(start, &mut overlay);
            let id = TaskId(self.next_task_id);
            self.next_task_id += 1;
            let (live_ins, writes) = (self.arena.take(), self.arena.take());
            let mut task = Task::with_buffers(id, start, slave, overlay, live_ins, writes);
            task.predicted = predicted;
            self.slaves[slave] = Some(task);
            self.window.push_back(slave);
            let dispatch = self.cost.dispatch_latency(cells);
            self.slave_wake[slave] = self.now + dispatch;
            let spawn = self.cost.spawn_overhead(cells);
            self.master_busy_until = self.now + spawn;
            self.unit.stats.master_busy_cycles += spawn;
            self.last_spawned = Some(id.0);
            self.master_since_spawn = 0;
            // Into an empty window, the new task is the oldest: the verify
            // unit checks its start PC without waiting for it to finish.
            self.verify_wake = self.verify_due();
            dispatched = Some(slave);
        } else if self.master_since_spawn > self.config.master_runahead {
            self.master.mark_lost();
        } else if let Some(info) = self
            .master
            .step(self.swapped.as_deref().unwrap_or(self.distilled))
        {
            let cost = self.cost.instr_cost(CoreRole::Master, &info).max(1);
            self.master_busy_until = self.now + cost;
            self.unit.stats.master_busy_cycles += cost;
            self.unit.stats.master_instructions += 1;
            self.master_since_spawn += 1;
        }
        // Stepping may have halted the master, lost it, or armed a spawn
        // that no slave is free for.
        self.master_wake = self.master_due();
        dispatched
    }

    // ---- squash & recovery ----------------------------------------------

    /// Squashes the oldest task, every younger one and the master, then
    /// starts the recovery segment.
    fn squash_and_recover(&mut self, reason: SquashReason) {
        let failing = oldest(&self.window, &self.slaves).expect("a squash has a failing task");
        let dying = self.in_flight_work();
        let cells = self.unit.squash(reason, failing, &self.arch, dying);
        if let Some(samples) = &mut self.squash_samples {
            if samples.len() < self.squash_sample_cap {
                samples.push(SquashSample {
                    reason,
                    task_start_pc: failing.start_pc,
                    arch_pc: self.arch.pc(),
                    executed: failing.executed,
                    cells,
                });
            }
        }
        // The master stays down until recovery reaches the next boundary;
        // `finish_recovery` reseeds it from the then-consistent
        // architected state.
        self.master.mark_lost();
        self.release_slaves();
        self.cost.on_squash(CoreRole::Master);

        let penalty = self.cost.squash_penalty();
        self.verify_busy_until = self.now + penalty;
        self.unit.stats.verify_busy_cycles += penalty;
        self.master_busy_until = self.now + penalty;
        self.master_since_spawn = 0;
        self.last_spawned = None;
        self.start_recovery(penalty);
    }

    /// Discards every in-flight task and frees the slaves running them.
    fn release_slaves(&mut self) {
        for (i, slot) in self.slaves.iter_mut().enumerate() {
            if let Some(task) = slot.take() {
                self.arena.put(task.live_ins);
                self.arena.put(task.writes);
                self.cost.on_squash(CoreRole::Slave(i));
                self.slave_wake[i] = NEVER;
            }
        }
        self.window.clear();
        self.verify_wake = NEVER;
        self.master_wake = self.master_due();
    }

    /// Begins a recovery segment at the architected PC, `delay` cycles
    /// from now; 0 for starvation recovery (no tasks, no recovery, master
    /// unable to produce work), the squash penalty after a squash.
    fn start_recovery(&mut self, delay: u64) {
        debug_assert!(self.window.is_empty() && self.recovery.is_none());
        self.recovery = Some(RecoverySegment::new(self.arch.pc()));
        self.recovery_wake = self.now + delay;
    }

    /// Reseeds the master from architected state on the installed program.
    fn restart_master(&mut self) {
        self.unit.stats.spawn_vetoes += self.master.take_vetoed_spawns();
        let installed = self.swapped.as_deref().unwrap_or(self.distilled);
        self.master = master_at(installed, &self.arch);
        self.master_busy_until = self.now;
        self.master_since_spawn = 0;
        self.last_spawned = None;
        self.master_wake = self.master_due();
    }

    /// Installs a validated candidate if the protocol core has one ready:
    /// the master restarts on the new program and in-flight tasks are
    /// abandoned like a squash. No recovery segment is needed — unlike a
    /// squash, architected state already sits at a task boundary.
    fn try_adaptive_swap(&mut self) {
        let Some(candidate) = self.unit.poll_swap() else {
            return;
        };
        self.swapped = Some(Arc::clone(&candidate.program));
        // First, so the swap marker's counters include the old master's vetoes.
        self.restart_master();
        self.unit.swap_installed(&candidate, self.in_flight_work());
        self.release_slaves();
    }

    /// The tasks in flight and the instructions they have executed so far.
    fn in_flight_work(&self) -> (u64, u64) {
        let executed = self.slaves.iter().flatten().map(|t| t.executed).sum();
        (self.window.len() as u64, executed)
    }

    /// The lowest-numbered slave holding no task.
    fn free_slave(&self) -> Option<usize> {
        self.slaves.iter().position(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitCost;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig, DistillLevel, Distilled};
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use mssp_machine::SeqMachine;
    use std::collections::{BTreeMap, BTreeSet};

    fn seq_state(p: &Program) -> MachineState {
        let mut m = SeqMachine::boot(p);
        m.run(u64::MAX).unwrap();
        let mut s = m.into_state();
        // The engine's final state has the halt PC; SeqMachine leaves the
        // PC at the halt instruction as well.
        let pc = s.pc();
        s.set_pc(pc);
        s
    }

    fn mssp_run(p: &Program, d: &Distilled, slaves: usize) -> MsspRun {
        let config = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        Engine::new(p, d, config, UnitCost).run().unwrap()
    }

    const SUM: &str = "
        main: addi s0, zero, 300
        loop: add  s1, s1, s0
              addi s0, s0, -1
              bnez s0, loop
              halt";

    #[test]
    fn matches_sequential_on_simple_loop() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        let seq = seq_state(&p);
        assert_eq!(run.state.reg(Reg::S1), seq.reg(Reg::S1));
        assert!(run.stats.committed_tasks > 1, "{:?}", run.stats);
        assert_eq!(run.stats.squash_events(), 0);
    }

    #[test]
    fn commits_equal_sequential_instruction_count() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        let mut m = SeqMachine::boot(&p);
        m.run(u64::MAX).unwrap();
        assert_eq!(run.stats.committed_instructions, m.instructions());
    }

    #[test]
    fn works_with_single_slave() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 1);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
    }

    #[test]
    fn conservative_and_aggressive_levels_agree_on_state() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        for level in DistillLevel::all() {
            let d = distill(&p, &prof, &DistillConfig::at_level(level)).unwrap();
            let run = mssp_run(&p, &d, 4);
            assert_eq!(
                run.state.reg(Reg::S1),
                seq_state(&p).reg(Reg::S1),
                "level {level}"
            );
        }
    }

    /// An adversarial master: the distilled "program" is complete garbage
    /// (it writes wrong values everywhere and spawns at the right
    /// boundary). Correctness must be unaffected — only performance.
    #[test]
    fn garbage_master_cannot_corrupt_architected_state() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let honest = distill(&p, &prof, &DistillConfig::default()).unwrap();

        // Build a lying master: same boundary set, but the code just
        // scribbles wrong values into the loop registers forever.
        let loop_pc = p.symbol("loop").unwrap();
        let evil_src = "
            main: addi s1, zero, 123
            evil: addi s0, zero, 77
                  addi s1, s1, 13
                  j evil";
        let evil = assemble(evil_src).unwrap();
        // Remap: entry -> evil entry, loop boundary -> the `evil` block.
        let evil_block = evil.symbol("evil").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), evil.entry());
        map.insert(loop_pc, evil_block);
        let d = Distilled::from_parts(evil, honest.boundaries().clone(), map);
        let run = mssp_run(&p, &d, 4);
        let seq = seq_state(&p);
        assert_eq!(run.state.reg(Reg::S1), seq.reg(Reg::S1));
        assert_eq!(run.state.reg(Reg::S0), seq.reg(Reg::S0));
        // The lying master caused squashes and recovery did the work.
        assert!(run.stats.squash_events() > 0 || run.stats.recovery_segments > 0);
    }

    /// A master that halts immediately: everything must fall back to
    /// sequential recovery segments.
    #[test]
    fn dead_master_degrades_to_sequential() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let honest = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let dead = assemble("main: halt").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), dead.entry());
        let d = Distilled::from_parts(dead, honest.boundaries().clone(), map);
        let run = mssp_run(&p, &d, 4);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert!(run.stats.recovery_instructions > 0);
    }

    /// No boundaries at all: the first (and only) task runs from entry
    /// clear to `halt` and commits — MSSP degenerates gracefully.
    #[test]
    fn empty_boundary_set_still_terminates_correctly() {
        let p = assemble(SUM).unwrap();
        let dead = assemble("main: halt").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), dead.entry());
        let d = Distilled::from_parts(dead, BTreeSet::new(), map);
        let run = mssp_run(&p, &d, 2);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
    }

    #[test]
    fn commit_trace_is_subsequence_of_seq_trace() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let mut engine = Engine::new(
            &p,
            &d,
            EngineConfig {
                num_slaves: 3,
                ..EngineConfig::default()
            },
            UnitCost,
        );
        engine.enable_commit_trace();
        let run = engine.run().unwrap();

        // Jumping refinement: commit points appear in order within the
        // sequential trace (and final state matches). The typed checker
        // reports `CommitOutOfOrder` instead of panicking mid-test.
        crate::check_refinement(&p, &run).expect("commit trace refines SEQ");
        let trace = run.commit_trace.expect("tracing enabled");
        assert!(trace.len() > 2, "expected several commit points");
    }

    #[test]
    fn memory_carrying_loop_matches_sequential() {
        // Tasks communicate through memory (a running prefix sum), so
        // every task's live-ins include the previous task's stores.
        let src = "
            main:  li   s2, 0x200000
                   addi s0, zero, 120
            loop:  ld   s1, 0(s2)
                   add  s1, s1, s0
                   sd   s1, 0(s2)
                   sd   s1, 8(s2)
                   addi s2, s2, 8
                   addi s0, s0, -1
                   bnez s0, loop
                   halt";
        let p = assemble(src).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        let seq = seq_state(&p);
        assert_eq!(run.state.reg(Reg::S1), seq.reg(Reg::S1));
        // Compare the written memory region too.
        for w in (0x200000u64 >> 3)..((0x200000u64 >> 3) + 130) {
            assert_eq!(run.state.load_word(w), seq.load_word(w), "word {w:#x}");
        }
    }

    #[test]
    fn cycle_limit_reported() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let config = EngineConfig {
            max_cycles: 10,
            ..EngineConfig::default()
        };
        let err = Engine::new(&p, &d, config, UnitCost).run().unwrap_err();
        assert_eq!(err, EngineError::CycleLimit);
    }

    #[test]
    fn stats_waste_and_recovery_fractions_bounded() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let run = mssp_run(&p, &d, 4);
        assert!((0.0..=1.0).contains(&run.stats.waste_fraction()));
        assert!((0.0..=1.0).contains(&run.stats.recovery_fraction()));
    }

    #[test]
    fn predictor_rescues_commits_from_a_clobbering_master() {
        // The master clobbers s2 inside the loop while the original
        // holds it at 9: every checkpoint is wrong on s2, so every task
        // live-in-mismatches until the last-value predictor saturates on
        // the constant architected value and overrides the checkpoint at
        // spawn — from then on tasks commit on the injected prediction.
        let p = assemble(
            "main: addi s2, zero, 9
                   addi s0, zero, 200
             loop: add  t0, s2, s0
                   sd   t0, -8(sp)
                   addi s0, s0, -1
                   bnez s0, loop
                   ld   s1, -8(sp)
                   halt",
        )
        .unwrap();
        let wrong = assemble(
            "main: addi s2, zero, 9
                   addi s0, zero, 200
             loop: addi s2, zero, 77
                   addi s0, s0, -1
                   j    loop",
        )
        .unwrap();
        let boundary = p.symbol("loop").unwrap();
        let d = Distilled::from_parts(
            wrong.clone(),
            BTreeSet::from([boundary]),
            BTreeMap::from([
                (p.entry(), wrong.entry()),
                (boundary, wrong.symbol("loop").unwrap()),
            ]),
        );

        let run = mssp_run(&p, &d, 4);
        assert_eq!(run.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert!(
            run.stats.predictor_hits > 0,
            "prediction must rescue commits: {:?}",
            run.stats
        );
        assert!(run.stats.predictor_overrides >= run.stats.predictor_hits);
        assert!(run.stats.squashes_live_in_stale > 0);
        // Attribution partitions live-in squashes exactly.
        assert_eq!(
            run.stats.squashes_live_in,
            run.stats.squashes_live_in_predicted + run.stats.squashes_live_in_stale
        );
        assert!(run.predictor_report.observations > 0);
        assert!(run.predictor_report.last_value_correct > 0);

        // Same fixture, predictor off: the squash storm runs unchecked.
        let off = Engine::new(
            &p,
            &d,
            EngineConfig {
                num_slaves: 4,
                enable_predictor: false,
                ..EngineConfig::default()
            },
            UnitCost,
        )
        .run()
        .unwrap();
        assert_eq!(off.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert_eq!(off.stats.predictor_overrides, 0);
        assert!(
            off.stats.squashes_live_in > run.stats.squashes_live_in,
            "off {} vs on {}",
            off.stats.squashes_live_in,
            run.stats.squashes_live_in
        );
        assert_eq!(off.predictor_report.observations, 0);
    }

    #[test]
    fn spawn_guard_vetoes_the_doomed_spawn_at_loop_exit() {
        use mssp_distill::{Slice, SliceKind};
        // The master asserts phase A's back-edge forever; once the
        // architected run moves on to phase B, every further spawn
        // starts at the A boundary and is a guaranteed wrong-path
        // squash. The guard re-evaluates the exit condition over the
        // task window at spawn time and vetoes instead, stalling the
        // master into sequential recovery — squash avoided, state exact.
        let p = assemble(
            "main:  addi s0, zero, 30
             loopa: addi s1, s1, 1
                    addi s0, s0, -1
                    bnez s0, loopa
                    addi s0, zero, 30
             loopb: addi s2, s2, 2
                    addi s0, s0, -1
                    bnez s0, loopb
                    halt",
        )
        .unwrap();
        let wrong = assemble(
            "main:  addi s0, zero, 30
             loopa: addi s1, s1, 1
                    addi s0, s0, -1
                    j    loopa",
        )
        .unwrap();
        let boundary = p.symbol("loopa").unwrap();
        // loopb is a boundary too (so the architected run keeps crossing
        // boundaries after the phase transition, exposing the master's
        // stray loopa spawns as wrong-path) but is deliberately left out
        // of the master's image: once vetoed/squashed there, the master
        // goes Lost and starvation recovery carries phase B.
        let d = Distilled::from_parts(
            wrong.clone(),
            BTreeSet::from([boundary, p.symbol("loopb").unwrap()]),
            BTreeMap::from([
                (p.entry(), wrong.entry()),
                (boundary, wrong.symbol("loopa").unwrap()),
            ]),
        );
        let unguarded = mssp_run(&p, &d, 2);
        assert_eq!(unguarded.state.reg(Reg::S2), seq_state(&p).reg(Reg::S2));
        assert!(
            unguarded.stats.squashes_wrong_path > 0,
            "fixture must be doomed without the guard: {:?}",
            unguarded.stats
        );

        // A stride-seeded guard: the bare exit branch with s0 declared
        // at stride -1 per crossing. Probing absolute crossings (with
        // lookback, since nothing is fed back) means a master that has
        // already run past the exit still sees the probe hit zero and
        // vetoes — a fed-back decrement would count down *through* zero
        // and miss it.
        let guard = Slice {
            kind: SliceKind::SpawnGuard {
                asserted_taken: true,
            },
            program: assemble("main: bnez s0, main").unwrap(),
            inputs: vec![(Reg::S0, -1)],
            window: 1,
            home_pc: boundary + 8,
        };
        let d = d.with_slices(BTreeMap::from([(boundary, vec![guard])]));
        let guarded = mssp_run(&p, &d, 2);
        assert_eq!(guarded.state.reg(Reg::S1), seq_state(&p).reg(Reg::S1));
        assert_eq!(guarded.state.reg(Reg::S2), seq_state(&p).reg(Reg::S2));
        assert_eq!(guarded.state.pc(), seq_state(&p).pc());
        assert!(
            guarded.stats.spawn_vetoes > 0,
            "the guard must veto: {:?}",
            guarded.stats
        );
        assert_eq!(
            guarded.stats.squashes_wrong_path, 0,
            "a veto must replace the wrong-path squash: {:?}",
            guarded.stats
        );
    }
}
