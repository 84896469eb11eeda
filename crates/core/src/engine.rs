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
//! event *means* — counters, throttling, hot-swaps — is the
//! `CommitUnit`'s business.
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
//!   instruction per step, straight on architected state; the master
//!   restarts once it has reached the segment end.
//!
//! The run ends at the commit that halts the program, unless it ends
//! earlier, at the first commit point at or past
//! [`EngineConfig::max_instrs`], which the `CommitUnit` checks. Commits
//! are verify or recovery acts, which no burst moves, so the cut needs no
//! rule of its own.
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
//! Three components may act for more than one instant in a visit:
//!
//! * **Recovery.** Nothing else can act while a segment runs, so it runs
//!   to its end in one visit, taking `now` with it, and the rest of that
//!   pass acts at the instant of its last step.
//! * **Slaves.** A slave reads only its task's own layers and
//!   architected state. Only a verify act changes either while the task
//!   lives (the end of a recovery segment changes `arch` too, but only
//!   with the window empty), and only a verify act ends the task's life.
//!   So the pass visits the due slaves oldest task first, and each runs
//!   its task through every instruction that issues strictly before the
//!   task's *horizon*: `verify_wake` for the oldest task (`NEVER` while it
//!   runs on the right path), and for a younger one also the oldest
//!   task's next step, since the verify unit cannot act on the oldest task
//!   before that step finishes it. Every instruction reads what it would
//!   have read at its own instant and the task ends at the same instant.
//!   A burst prices each instruction ahead of its instant with
//!   [`CostModel::private_instr_cost`], which answers only when the cost
//!   touches nothing another core shares ([`crate::UnitCost`] always; the
//!   timing model when both L1s hit). At the first `None` the slave holds
//!   that instruction, already executed, and wakes at its issue instant;
//!   after the burst, a second loop prices every held instruction due at
//!   `now` with [`CostModel::instr_cost`], slaves ascending, before the
//!   master acts. So every access to shared model state is made at its
//!   own instant in the per-instant order, and a model that never answers
//!   has one instruction priced per slave visit.
//! * **The master.** It reads only its private state, a snapshot taken at
//!   restart under its own writes, and only a verify act squashes it or
//!   restarts it. So a visit that does not spawn runs the distilled
//!   program through every instruction that issues before a younger
//!   task's horizon, stopping at an armed spawn, a halt or a loss. Its
//!   first instruction issues now and is priced with
//!   [`CostModel::instr_cost`]; later ones are priced ahead, and the
//!   first that cannot be is held, as a slave's is, and priced at its
//!   instant after the slaves'. With the window empty the horizon is
//!   `now`: a master that halts or is lost there starves the machine, and
//!   starvation recovery must start at the instant of that instruction.
//!
//! Each slave holds at most one task, so the slave's slot *is* the
//! task's home and the in-order window is a queue of slave indices;
//! nothing ever searches for a task by id. The order of the
//! [`CostModel`] calls that may touch shared state is part of the
//! engine's contract (a model may share state between cores, as the
//! timing model's L2 does), so the priority order and the same-instant
//! repeat rule are pinned by `tests/engine_schedule.rs`, and
//! `tests/engine_burst_differential.rs` holds every burst to the
//! per-instant order.

use std::collections::VecDeque;

use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{step, Cell, Fault, MachineState, StepInfo};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::protocol::{
    verify_and_commit, AfterRecovery, CommitUnit, EngineStats, SquashReason, VerifyOutcome,
};
use crate::task::{Task, TaskEnd, TaskStatus};
use crate::{CoreRole, CostModel};

/// Engine configuration. Every field acts under both executors.
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
    /// Budget in architected instructions (committed task instructions
    /// plus recovery instructions), the one measure of progress both
    /// drivers share and no master can inflate. A run stops at the first
    /// commit point at or past it, and a recovery segment at the budget
    /// left: see [`EngineError::Budget`]. So a run completes only if it
    /// halts in fewer instructions, as under `SeqMachine::run_to_halt`.
    /// The default, 2^32, bounds a program that never halts.
    pub max_instrs: u64,
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
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            num_slaves: 7,
            max_task_instrs: 1 << 14,
            master_runahead: 1 << 17,
            max_instrs: 1 << 32,
            word_granular_live_ins: false,
            throttle_threshold: 0,
            throttle_window: 64,
            throttle_duration: 16,
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
    /// Adaptive re-distillation summary, if enabled with
    /// [`Engine::enable_adaptive`].
    pub adaptive: Option<AdaptiveReport>,
}

/// Engine failure, under either driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The *original* program faulted during non-speculative recovery —
    /// a genuine program error, not a speculation artifact. The run ends
    /// there and returns no state: recovery writes architected state in
    /// place, so it is left part-way through the faulting segment.
    RecoveryFault(Fault),
    /// The run reached a commit point, a halting one too, at or past
    /// [`EngineConfig::max_instrs`] architected instructions, and stopped
    /// there. So `state` is the state `mssp_machine::SeqMachine` reaches
    /// after exactly `retired` instructions: the jumping refinement on a
    /// truncated run. A cut in recovery retires exactly the budget; a cut
    /// at a task commit, less than `max_task_instrs` more.
    Budget {
        /// Architected instructions retired.
        retired: u64,
        /// The architected state reached.
        state: Box<MachineState>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RecoveryFault(fault) => {
                write!(f, "original program faulted in recovery: {fault}")
            }
            EngineError::Budget { retired, .. } => {
                write!(f, "instruction budget spent after {retired} instructions")
            }
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
pub struct Engine<'a, C, O = ()> {
    cost: C,

    now: u64,
    arch_halted: bool,

    /// When the master's current instruction or spawn completes, or,
    /// while it holds an instruction, when that one issues.
    master_busy_until: u64,
    /// When the master next acts: `master_busy_until` while it holds an
    /// instruction, or is active and has an instruction to run or a free
    /// slave for its pending spawn, [`NEVER`] otherwise. Kept equal to
    /// [`Engine::master_due`].
    master_wake: u64,
    /// The instruction the master has executed but not priced, because
    /// its cost reaches state another core shares: it issues at
    /// `master_busy_until` and is priced then. Like a slave's, it issues
    /// before any verify act, so nothing squashes a master holding one.
    master_held: Option<StepInfo>,

    /// One slot per slave core, holding the task it runs (or ran, until
    /// the task commits). A slave holds at most one task, so the slot is
    /// the task's home: nothing searches for it.
    slaves: Vec<Option<Task>>,
    /// When slave `i` issues its next instruction; [`NEVER`] once its
    /// task is done, or while it has none.
    slave_wake: Vec<u64>,
    /// The instruction slave `i` has executed but not priced, because its
    /// cost reaches state another core shares: it issues at
    /// `slave_wake[i]` and is priced then. It issues before any verify act
    /// that could end its task, so a released slave never holds one.
    held: Vec<Option<StepInfo>>,
    /// The in-order task window, oldest first, as the indices of the
    /// slaves holding the tasks.
    window: VecDeque<usize>,
    /// When the pending recovery segment's first instruction issues;
    /// [`NEVER`] while none is pending. The window is empty and the
    /// master offline from a segment's start to its end, so nothing moves
    /// `arch`'s PC, where the segment starts.
    recovery_wake: u64,
    /// When the verify unit's current commit or squash completes.
    verify_busy_until: u64,
    /// When the verify unit next acts on the oldest task; [`NEVER`] while
    /// that task is still running on the right path, or the window is
    /// empty. Kept equal to [`Engine::verify_due`].
    verify_wake: u64,

    /// The protocol core: architected state, the master, statistics,
    /// throttle, adaptive loop.
    unit: CommitUnit<'a>,
    /// Told of every commit and squash, at its instant.
    observer: O,
}

/// What an [`Observer`] is told: one protocol act of a run. Commits, of a
/// task or a recovery segment, are the jumping refinement's commit points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'e> {
    /// The verify unit committed the oldest task.
    Commit {
        /// The architected PC after the commit.
        end_pc: u64,
        /// Instructions the task executed.
        instructions: u64,
    },
    /// A recovery segment committed.
    Recovery {
        /// The architected PC after the commit.
        end_pc: u64,
        /// Instructions the segment executed.
        instructions: u64,
    },
    /// The verify unit squashed the task window.
    Squash(&'e SquashSample),
}

impl Event<'_> {
    /// The architected PC a commit lands on; `None` for a squash.
    #[must_use]
    pub fn commit_pc(&self) -> Option<u64> {
        match *self {
            Event::Commit { end_pc, .. } | Event::Recovery { end_pc, .. } => Some(end_pc),
            Event::Squash(_) => None,
        }
    }
}

/// Receives a run's [`Event`]s, each stamped with the instant of the
/// verify or recovery act that produced it. [`Engine`] is monomorphised
/// over its observer, so `()`, the default, compiles to nothing; any
/// `FnMut(u64, Event<'_>)` closure is one.
pub trait Observer {
    /// Whether the observer reads [`SquashSample::cells`]; when `false`
    /// the engine leaves it empty and builds no mismatch list.
    const WANTS_CELLS: bool = true;

    /// Called once per event, in the order the events happen.
    fn event(&mut self, at: u64, event: Event<'_>);
}

impl Observer for () {
    const WANTS_CELLS: bool = false;

    #[inline(always)]
    fn event(&mut self, _at: u64, _event: Event<'_>) {}
}

impl<F: FnMut(u64, Event<'_>)> Observer for F {
    fn event(&mut self, at: u64, event: Event<'_>) {
        self(at, event);
    }
}

/// A squash of any cause: what the verify unit saw when it killed the
/// task window. Wrong-path squashes carry the architected PC the master
/// failed to predict.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// non-empty only for [`SquashReason::LiveInMismatch`], and only for
    /// an observer that [wants them](Observer::WANTS_CELLS).
    pub cells: Vec<(Cell, u64, u64)>,
}

/// The oldest task in flight: the one the window's front slave holds.
/// (A free function over the two fields, so callers can keep borrowing
/// the rest of the engine.)
fn oldest<'t>(window: &VecDeque<usize>, slaves: &'t [Option<Task>]) -> Option<&'t Task> {
    let &s = window.front()?;
    // why: the window lists exactly the slaves that hold a task.
    Some(slaves[s].as_ref().expect("the window names held tasks"))
}

/// The tasks in flight and the instructions they have executed so far.
fn in_flight_work(window: &VecDeque<usize>, slaves: &[Option<Task>]) -> (u64, u64) {
    let executed = slaves.iter().flatten().map(|t| t.executed).sum();
    (window.len() as u64, executed)
}

impl<'a, C: CostModel> Engine<'a, C> {
    /// Creates an engine booted at the original program's entry, with no
    /// observer. With no slaves, recovery carries the whole run.
    #[must_use]
    pub fn new(
        original: &'a Program,
        distilled: &'a Distilled,
        config: EngineConfig,
        cost: C,
    ) -> Engine<'a, C> {
        Engine::observed(original, distilled, config, cost, ())
    }
}

impl<'a, C: CostModel, O: Observer> Engine<'a, C, O> {
    /// Like [`Engine::new`], with `observer` told of every commit and
    /// squash of the run.
    #[must_use]
    pub fn observed(
        original: &'a Program,
        distilled: &'a Distilled,
        config: EngineConfig,
        cost: C,
        observer: O,
    ) -> Engine<'a, C, O> {
        let mut engine = Engine {
            cost,
            now: 0,
            arch_halted: false,
            master_busy_until: 0,
            master_wake: NEVER,
            master_held: None,
            slaves: (0..config.num_slaves).map(|_| None).collect(),
            slave_wake: vec![NEVER; config.num_slaves],
            held: vec![None; config.num_slaves],
            window: VecDeque::new(),
            recovery_wake: NEVER,
            verify_busy_until: 0,
            verify_wake: NEVER,
            unit: CommitUnit::new(original, distilled, config),
            observer,
        };
        engine.master_wake = engine.master_due();
        engine
    }

    /// Enables online adaptive re-distillation: `controller` detects
    /// divergence and requests recompiles, `recompiler` produces
    /// candidate programs from the live profile (callers wire it to
    /// `mssp-lint`'s `validated_recompiler`, so every candidate
    /// passes the soundness gate). Recompilation runs inline at the
    /// requesting task boundary, as under the threaded executor, so both
    /// drivers install the same swaps at the same commit points.
    pub fn enable_adaptive(&mut self, controller: AdaptiveController, recompiler: Recompiler) {
        self.unit.enable_adaptive(controller, recompiler);
    }

    /// Runs the machine to architectural halt, or to the commit point
    /// that spends its instruction budget, whichever comes first.
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
            }
        }
        let (state, stats, adaptive) = self.unit.finish();
        Ok((
            MsspRun {
                cycles: self.now,
                state,
                stats,
                adaptive,
            },
            self.cost,
        ))
    }

    // ---- scheduling -----------------------------------------------------

    /// One pass over the components that are due at `now`, in the fixed
    /// priority order: recovery, verify unit, slaves (oldest task first,
    /// in bursts, then ascending for the instructions the bursts held),
    /// master. Returns the earliest wake-up time any component is left with
    /// ([`NEVER`] if all of them wait for one another).
    ///
    /// What an earlier component does is visible to the later ones of the
    /// same pass; what a later one does to an earlier one (a spawn that
    /// gives a slave or the verify unit work at this instant, a squash
    /// whose recovery starts at once) shows as a wake-up time not after
    /// `now`, and the caller runs another pass.
    fn pass(&mut self) -> Result<u64, EngineError> {
        if self.recovery_wake <= self.now {
            self.act_recovery()?;
        }
        // Recovery ran to its end: the rest of the pass acts at that instant.
        let now = self.now;
        if self.verify_wake <= now && !self.arch_halted {
            self.act_verify()?;
        }
        if self.arch_halted {
            return Ok(NEVER);
        }
        let mut next = self.burst_slaves(now);
        if next <= now {
            // Only a held instruction leaves a slave due after its burst.
            next = self.price_held(now);
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
            _ if task.start_pc != self.unit.arch.pc() => self.verify_busy_until,
            TaskStatus::Done { done_at, .. } => self.verify_busy_until.max(done_at),
            TaskStatus::Running => NEVER,
        }
    }

    /// When the master can next act, from scratch: it needs to hold an
    /// instruction, or to be active with a free slave for a pending spawn.
    fn master_due(&self) -> u64 {
        let room = self.window.len() < self.slaves.len();
        if self.master_held.is_some() || self.unit.master_can_act(room) {
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
                // why: this is the invariant under check; a break is a bug.
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
                    let done = matches!(task.status, TaskStatus::Done { .. });
                    assert_eq!(done, wake == NEVER, "slave {s} running flag");
                }
            }
            // A core that owes an instruction is armed relative to `now`.
            assert!(wake >= self.now, "slave {s} is due in the past");
            if self.held[s].is_some() {
                let running = slot
                    .as_ref()
                    .is_some_and(|task| matches!(task.status, TaskStatus::Running));
                assert!(running, "slave {s} holds an instruction but runs no task");
            }
        }
        assert!(
            self.recovery_wake >= self.now,
            "recovery is due in the past"
        );
        assert!(self.recovery_wake == NEVER || self.window.is_empty());
        if self.master_held.is_some() {
            assert!(!self.window.is_empty(), "the master holds with no task");
            assert_eq!(self.master_wake, self.master_busy_until);
            assert!(
                self.master_wake >= self.now,
                "the master is due in the past"
            );
        }
        // These two may lie in the past, but only because the unit waited
        // for another component (a task to verify, a slave to free), which
        // is exactly what the from-scratch answers say.
        assert_eq!(self.verify_wake, self.verify_due(), "stale verify wake-up");
        assert_eq!(self.master_wake, self.master_due(), "stale master wake-up");
    }

    // ---- components -----------------------------------------------------

    /// Runs the recovery segment to its end, advancing `now` in place.
    /// While a segment runs nothing else can act — the window is empty,
    /// the slaves are released, the verify unit is idle and the master is
    /// offline — so each pass until the end would visit recovery alone.
    /// The loop makes the same `CostModel` calls those passes would, and
    /// ends the segment at the instant of its last step.
    fn act_recovery(&mut self) -> Result<(), EngineError> {
        debug_assert!(
            self.window.is_empty() && self.verify_wake == NEVER && self.master_wake == NEVER,
            "recovery runs alone"
        );
        self.recovery_wake = NEVER;
        let (cost, now) = (&mut self.cost, &mut self.now);
        let (mut busy, mut last) = (0, 0);
        let price = |info: &StepInfo| {
            *now += last;
            last = cost.instr_cost(CoreRole::Recovery(0), info).max(1);
            busy += last;
        };
        let (executed, halted) = self.unit.recover(price)?;
        self.unit.stats.recovery_busy_cycles += busy;
        let event = Event::Recovery {
            end_pc: self.unit.arch.pc(),
            instructions: executed,
        };
        self.observer.event(self.now, event);
        self.arch_halted = halted;
        // While throttled, the master stays offline and starvation
        // recovery carries execution sequentially.
        if self.unit.recovered(executed, halted)? == AfterRecovery::Resume {
            self.master_busy_until = self.now;
            self.master_wake = self.master_due();
        }
        Ok(())
    }

    fn act_verify(&mut self) -> Result<(), EngineError> {
        // why: `verify_due` is `NEVER` with the window empty.
        let task = oldest(&self.window, &self.slaves).expect("verify is due on a task");
        if task.start_pc != self.unit.arch.pc() {
            self.squash_and_recover(SquashReason::WrongPath);
            return Ok(());
        }
        let TaskStatus::Done { end, .. } = task.status else {
            // why: `verify_due` is `NEVER` for a right-path task still
            // running.
            unreachable!("verify is due on a right-path task only once it is done");
        };
        match verify_and_commit(&mut self.unit.arch, task, end) {
            VerifyOutcome::Squash(reason) => self.squash_and_recover(reason),
            VerifyOutcome::Commit { end_pc, halted } => return self.commit_oldest(end_pc, halted),
        }
        Ok(())
    }

    /// Task safety established and the commit superimposition applied:
    /// account for the oldest task and release its slave.
    fn commit_oldest(&mut self, end_pc: u64, halted: bool) -> Result<(), EngineError> {
        // why: the caller just verified the window's front task.
        let s = self.window.pop_front().expect("front exists");
        // why: the window lists exactly the slaves that hold a task.
        let task = self.slaves[s].take().expect("the window names held tasks");
        let vcost = self.cost.verify_cost(task.live_ins.len());
        let ccost = self.cost.commit_cost(task.writes.len());
        self.verify_busy_until = self.now + vcost + ccost;
        self.unit.stats.verify_busy_cycles += vcost + ccost;
        let event = Event::Commit {
            end_pc,
            instructions: task.executed,
        };
        self.observer.event(self.now, event);
        self.unit.commit(&task)?;
        self.unit.arena.put(task.live_ins);
        self.unit.arena.put(task.writes);
        // The next task is the oldest now, and a master stalled on its
        // pending spawn has a slave to place it on.
        self.verify_wake = self.verify_due();
        self.master_wake = self.master_due();
        if halted {
            self.arch_halted = true;
            return Ok(());
        }
        // Commits are the primary swap point: architected state sits at a
        // consistent task boundary. A swap restarts the master on the new
        // program and abandons the tasks in flight like a squash, but
        // needs no recovery segment.
        let (window, slaves) = (&self.window, &self.slaves);
        if self.unit.swap(|| in_flight_work(window, slaves)) {
            self.master_busy_until = self.now;
            self.release_slaves();
        }
        Ok(())
    }

    /// The slaves' burst: the due slaves act oldest task first, each
    /// running its task through every instruction that issues before the
    /// task's horizon, the earliest instant at which a verify act could
    /// end the task or change what it reads, and stopping early at an
    /// instruction the cost model cannot price ahead of its instant. A
    /// slave that holds such an instruction waits for [`Engine::price_held`].
    /// Returns the earliest wake-up the slaves are left with.
    fn burst_slaves(&mut self, now: u64) -> u64 {
        let mut next = NEVER;
        for k in 0..self.window.len() {
            let s = self.window[k];
            if self.slave_wake[s] <= now && self.held[s].is_none() {
                // The verify unit acts on the oldest task no earlier than
                // `verify_wake`. That stays `NEVER` while the oldest task
                // runs on the right path, and finishing it takes at least
                // its next step: a younger task stops there too.
                let horizon = if k == 0 {
                    self.verify_wake
                } else {
                    self.verify_wake.min(self.slave_wake[self.window[0]])
                };
                self.act_slave(s, horizon);
            }
            next = next.min(self.slave_wake[s]);
        }
        next
    }

    /// Prices the held instructions that issue at `now` with
    /// [`CostModel::instr_cost`], slaves ascending, as one visit per
    /// instant would, and before the master acts. After the burst, a slave
    /// still due holds one. Returns the earliest wake-up the slaves are
    /// left with.
    fn price_held(&mut self, now: u64) -> u64 {
        let mut next = NEVER;
        for s in 0..self.slaves.len() {
            if self.slave_wake[s] <= now {
                // why: a burst leaves a slave due at `now` only when it
                // holds the instruction the model declined to price.
                let info = self.held[s].take().expect("a slave due after the burst");
                let cost = self.cost.instr_cost(CoreRole::Slave(s), &info).max(1);
                self.unit.stats.slave_busy_cycles += cost;
                self.unit.stats.slave_instructions += u64::from(!info.halted);
                let task = self.slaves[s]
                    .as_mut()
                    // why: a slave holds an instruction only for a running task.
                    .expect("a held instruction has a task");
                match self.unit.rules.retire(
                    &info,
                    &mut task.pc,
                    &mut task.executed,
                    &mut task.crossings,
                ) {
                    None => self.slave_wake[s] = now + cost,
                    Some(end) => self.finish_task(s, end, now + cost),
                }
            }
            next = next.min(self.slave_wake[s]);
        }
        next
    }

    /// Runs slave `s`'s task from `now` until it ends, its next
    /// instruction would issue at or after `horizon`, or the cost model
    /// declines to price an instruction ahead of its instant; that one is
    /// held, and the slave wakes when it issues. The first instruction
    /// always runs, so a horizon not after `now` runs exactly one. A burst
    /// makes the statistics, and the calls to the cost model's private
    /// state, that one-instruction acts would over the same instants.
    fn act_slave(&mut self, s: usize, horizon: u64) {
        // why: `burst_slaves` visits only the window's slaves, which hold tasks.
        let task = self.slaves[s].as_mut().expect("a due slave holds a task");
        let (original, rules) = (self.unit.original, self.unit.rules);
        let mut pc = task.pc;
        // When the next instruction issues.
        let mut at = self.now;
        let mut busy = 0;
        let word_granular = self.unit.config.word_granular_live_ins;
        let (mut storage, executed, crossings) =
            task.storage_and_counters(&self.unit.arch, None, word_granular);
        let before = *executed;
        let finished = loop {
            let info = match step(&mut storage, original, pc) {
                // A fault on a speculative path is a task outcome, not an
                // engine error.
                Err(_) => break Some((TaskEnd::Fault, at + 1)),
                Ok(info) => info,
            };
            let Some(cost) = self.cost.private_instr_cost(CoreRole::Slave(s), &info) else {
                // Its cost reads shared state: `price_held` prices it.
                self.held[s] = Some(info);
                break None;
            };
            let cost = cost.max(1);
            busy += cost;
            at += cost;
            if let Some(end) = rules.retire(&info, &mut pc, executed, crossings) {
                break Some((end, at));
            }
            if at >= horizon {
                break None;
            }
        };
        self.unit.stats.slave_instructions += *executed - before;
        task.pc = pc;
        self.unit.stats.slave_busy_cycles += busy;
        match finished {
            None => self.slave_wake[s] = at,
            Some((end, done_at)) => self.finish_task(s, end, done_at),
        }
    }

    /// Marks slave `s`'s task done: it ended with `end`, and its last
    /// instruction completes at `done_at`.
    fn finish_task(&mut self, s: usize, end: TaskEnd, done_at: u64) {
        let task = self.slaves[s]
            .as_mut()
            // why: only a slave running a task steps, and so finishes one.
            .expect("a finishing slave holds a task");
        task.status = TaskStatus::Done { end, done_at };
        self.slave_wake[s] = NEVER;
        if self.window.front() == Some(&s) {
            self.verify_wake = self.verify_due();
        }
    }

    /// The master's turn: a spawn, or a burst of distilled instructions.
    /// Returns the slave it dispatched a task to, if it spawned one.
    ///
    /// A burst runs the master through every instruction that issues
    /// before its horizon, the earliest instant at which a verify act
    /// could squash it: as for a younger task, the verify unit's wake-up
    /// or the oldest task's next step. It stops early at a halt, a loss,
    /// an armed spawn, or an instruction the cost model cannot price
    /// ahead, which is held. With the window empty the horizon is `now`:
    /// a master that halts or is lost there starves the machine, and
    /// starvation recovery starts at the instant the per-instant step
    /// would have found it.
    fn act_master(&mut self) -> Option<usize> {
        let mut dispatched = None;
        if self.master_held.is_none() && self.unit.spawn_pending() {
            // why: `master_due` is `NEVER` for a pending spawn with the
            // window full, and a slave is free while it is not.
            let slave = self.free_slave().expect("a placeable spawn has a slave");
            let (task, cells) = self.unit.spawn(slave);
            self.slaves[slave] = Some(task);
            self.window.push_back(slave);
            let dispatch = self.cost.dispatch_latency(cells);
            self.slave_wake[slave] = self.now + dispatch;
            let spawn = self.cost.spawn_overhead(cells);
            self.master_busy_until = self.now + spawn;
            self.unit.stats.master_busy_cycles += spawn;
            // Into an empty window, the new task is the oldest: the verify
            // unit checks its start PC without waiting for it to finish.
            self.verify_wake = self.verify_due();
            dispatched = Some(slave);
        } else if let Some(info) = self.master_held.take().or_else(|| self.unit.step_master()) {
            // The first instruction issues now: priced as at its instant.
            let mut at = self.now + self.cost.instr_cost(CoreRole::Master, &info).max(1);
            let horizon = match self.window.front() {
                None => self.now,
                Some(&s) => self.verify_wake.min(self.slave_wake[s]),
            };
            while at < horizon {
                // `None`, touching nothing, once the master has halted, is
                // lost or has armed a spawn: that spawn waits for its instant.
                let Some(info) = self.unit.step_master() else {
                    break;
                };
                let Some(cost) = self.cost.private_instr_cost(CoreRole::Master, &info) else {
                    self.master_held = Some(info);
                    break;
                };
                at += cost.max(1);
            }
            self.unit.stats.master_busy_cycles += at - self.now;
            self.master_busy_until = at;
        }
        // Stepping may have halted the master, lost it, or armed a spawn
        // that no slave is free for.
        self.master_wake = self.master_due();
        dispatched
    }

    // ---- squash & recovery ----------------------------------------------

    /// Squashes the oldest task, every younger one and the master, then
    /// starts the recovery segment. The master stays down until recovery
    /// reaches the next boundary, where the unit reseeds it from the
    /// then-consistent architected state.
    fn squash_and_recover(&mut self, reason: SquashReason) {
        debug_assert!(self.master_held.is_none(), "held past a verify act");
        // why: only `act_verify` squashes, on the window's oldest task.
        let failing = oldest(&self.window, &self.slaves).expect("a squash has a failing task");
        let dying = in_flight_work(&self.window, &self.slaves);
        self.unit.squash(reason, failing, dying);
        let mut sample = SquashSample {
            reason,
            task_start_pc: failing.start_pc,
            arch_pc: self.unit.arch.pc(),
            executed: failing.executed,
            cells: Vec::new(),
        };
        if O::WANTS_CELLS && reason == SquashReason::LiveInMismatch {
            sample.cells = failing.live_ins.mismatches_against(&self.unit.arch);
        }
        self.observer.event(self.now, Event::Squash(&sample));
        self.release_slaves();
        self.cost.on_squash(CoreRole::Master);

        let penalty = self.cost.squash_penalty();
        self.verify_busy_until = self.now + penalty;
        self.unit.stats.verify_busy_cycles += penalty;
        self.master_busy_until = self.now + penalty;
        self.start_recovery(penalty);
    }

    /// Discards every in-flight task and frees the slaves running them.
    fn release_slaves(&mut self) {
        debug_assert!(self.master_held.is_none(), "held past a verify act");
        for (i, slot) in self.slaves.iter_mut().enumerate() {
            if let Some(task) = slot.take() {
                self.unit.arena.put(task.live_ins);
                self.unit.arena.put(task.writes);
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
        debug_assert!(self.window.is_empty() && self.recovery_wake == NEVER);
        self.recovery_wake = self.now + delay;
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
        let config = EngineConfig {
            num_slaves: 3,
            ..EngineConfig::default()
        };
        let mut commits = Vec::new();
        let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
        let run = Engine::observed(&p, &d, config, UnitCost, observer)
            .run()
            .unwrap();

        // Jumping refinement: commit points appear in order within the
        // sequential trace (and final state matches). The typed checker
        // reports `CommitOutOfOrder` instead of panicking mid-test.
        crate::check_refinement(&p, &commits, &run.state).expect("commit trace refines SEQ");
        assert!(commits.len() > 2, "expected several commit points");
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

    /// Runs `p` under `d` on a budget of `max_instrs`, asserts that it
    /// stops at a count of at least that with `SeqMachine`'s state after
    /// exactly that count, and returns the count.
    fn cut_at(p: &Program, d: &Distilled, max_instrs: u64) -> u64 {
        let config = EngineConfig {
            max_instrs,
            ..EngineConfig::default()
        };
        let err = Engine::new(p, d, config, UnitCost).run().unwrap_err();
        let EngineError::Budget { retired, state } = err else {
            panic!("{err}");
        };
        let mut seq = SeqMachine::boot(p);
        seq.run(retired).unwrap();
        assert_eq!(seq.instructions(), retired);
        assert!(*state == *seq.state(), "cut at {retired}");
        assert!(retired >= max_instrs);
        retired
    }

    #[test]
    fn budget_cut_lands_on_the_sequential_state() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let retired = cut_at(&p, &d, 10);
        assert!(retired < 10 + EngineConfig::default().max_task_instrs);
    }

    /// Under a master that halts after its first spawn, recovery segments
    /// carry the run to its `halt`, so every cut past the first task falls
    /// in recovery, which stops at the budget exactly. A halt is no cut.
    #[test]
    fn budget_is_exact_in_a_recovery_only_run() {
        let p = assemble(SUM).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let honest = distill(&p, &prof, &DistillConfig::default()).unwrap();
        let dead = assemble("main: halt").unwrap();
        let map = BTreeMap::from([(p.entry(), dead.entry())]);
        let d = Distilled::from_parts(dead, honest.boundaries().clone(), map);
        let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
            .run()
            .unwrap();
        assert_eq!(run.stats.committed_tasks, 1, "{:?}", run.stats);
        assert!(run.stats.recovery_segments > 1, "{:?}", run.stats);
        let all = run.stats.committed_instructions;
        for max_instrs in [all / 2, all - 1, all] {
            assert_eq!(cut_at(&p, &d, max_instrs), max_instrs);
        }
        let config = EngineConfig {
            max_instrs: all + 1,
            ..EngineConfig::default()
        };
        let full = Engine::new(&p, &d, config, UnitCost).run().unwrap();
        assert_eq!(full.cycles, run.cycles);
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
    fn a_clobbering_master_commits_the_sequential_state() {
        // The master clobbers s2 inside the loop while the original
        // holds it at 9: every checkpoint is wrong on s2, so tasks that
        // read it live-in-mismatch, and recovery carries the run.
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
        assert_eq!(run.state, seq_state(&p));
        let s = run.stats;
        assert!(s.squashes_live_in > 0, "{s:?}");
        // Every squash hands its window to a recovery segment.
        assert_eq!(s.recovery_segments, s.squash_events(), "{s:?}");
        let seq = SeqMachine::boot(&p).run(u64::MAX).unwrap();
        assert_eq!(s.committed_instructions, seq.instructions);
        assert!(s.recovery_instructions > 0);
    }

    #[test]
    fn spawn_guard_vetoes_the_doomed_spawn_at_loop_exit() {
        use mssp_distill::Slice;
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
            asserted_taken: true,
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
