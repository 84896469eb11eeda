//! The threaded MSSP executor: the protocol on real OS threads.
//!
//! The discrete-time [`crate::Engine`] is the reference driver of the
//! protocol core in `protocol.rs` — deterministic and cost-model-driven.
//! This module is the other driver: the master interpreter and each slave
//! run on their own OS thread, and the calling thread becomes the
//! [`Coordinator`], which turns ring messages into `CommitUnit` events
//! (spawn, commit, squash, recovered, swap) and the unit's answers into
//! epoch bumps and master restarts. It decides *when*; what each event
//! means is written once, in the core. DESIGN.md §6a-§6c carry the full
//! arguments for what is summarized here.
//!
//! # Contention-free hot path
//!
//! The steady-state dispatch/execute/commit cycle takes **no mutex**, and
//! its heap traffic is a handful of small allocations per committed task
//! (`alloc.per_committed_task` in the benchmark ledger, 3.7-7.0 across
//! its four workloads; `tests/alloc_budget.rs` bounds it), none of them
//! sized by machine state. Each worker owns a bounded SPSC ring
//! ([`crate::ring::spsc`]) the coordinator dispatches into; results,
//! spawns, stalls and thread obituaries flow back through one bounded MPSC
//! ring ([`crate::ring::mpsc`]), whose per-producer FIFO keeps a master's
//! spawns ordered before its stall report; commit notifications and
//! restarts ride an SPSC ring to the master. Dispatch and draining are
//! batched. Task live-in/write buffers and the shipped committed view are
//! plain [`Delta`]s cycled through a [`DeltaArena`], travelling inside the
//! work/result messages.
//!
//! # One verdict, incremental snapshot publishing
//!
//! The coordinator owns architected state, keeps it eagerly applied, and
//! decides the oldest finished task with [`verify_and_commit`] — the call
//! `Engine::act_verify` makes, and the only verdict function there is.
//! Workers just run the segment.
//!
//! What a committed task costs beyond the oracle is publishing it: its
//! write [`Delta`] is folded into a running committed view that every
//! spawn gets a pooled clone of, layered over an immutable
//! `Arc<MachineState>` base; a full snapshot is materialized only past a
//! length/size threshold or on squash.
//!
//! A stale snapshot can never corrupt state — a stale read fails the
//! memoization test and squashes, a performance event — and staleness is
//! bounded by the epoch counter, which workers poll at task entry, at the
//! task's last boundary crossing and every 64 instructions. Wall-clock
//! timing is nondeterministic; the committed architected state is not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{Delta, DeltaArena, MachineState};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::master::{Master, MasterStall};
use crate::protocol::{
    verify_and_commit, AfterRecovery, CommitUnit, EngineStats, Recompile, RecoverySegment,
    SquashReason, VerifyOutcome,
};
use crate::ring::{self, MpscReceiver, MpscSender, SpscReceiver, SpscSender, TryRecvError};
use crate::task::{BoundarySet, SegmentRules, Task, TaskEnd, TaskId};
use crate::{EngineConfig, EngineError};

/// Commits folded into the committed view after which the coordinator
/// materializes a fresh base snapshot instead of letting it grow.
const MAX_PENDING_DELTAS: u64 = 32;

/// Total cells across pending deltas after which a fresh base snapshot is
/// materialized (bounds view-clone cost for write-heavy tasks).
const MAX_PENDING_CELLS: usize = 1024;

/// Per-worker task ring capacity. Round-robin dispatch over a
/// `2 × slaves` speculation window keeps per-worker queues tiny; the
/// headroom absorbs stale items queued across a squash.
const WORK_RING_CAP: usize = 64;

/// Control ring (coordinator → master) capacity: one `Committed` per
/// commit plus rare restarts; the master drains it every outer loop.
const CTRL_RING_CAP: usize = 1024;

/// Result messages popped per coordinator drain cycle.
const DRAIN_BATCH: usize = 64;

/// How a threaded run can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedError {
    /// The protocol itself failed — see [`EngineError`].
    Engine(EngineError),
    /// A worker or master thread died (panicked) mid-run.
    WorkerDied,
}

impl From<EngineError> for ThreadedError {
    fn from(e: EngineError) -> ThreadedError {
        ThreadedError::Engine(e)
    }
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedError::Engine(e) => write!(f, "{e}"),
            ThreadedError::WorkerDied => write!(f, "a worker thread died mid-run"),
        }
    }
}

impl std::error::Error for ThreadedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThreadedError::Engine(e) => Some(e),
            ThreadedError::WorkerDied => None,
        }
    }
}

/// Result of a threaded MSSP run.
#[derive(Debug)]
pub struct ThreadedRun {
    /// The final architected state (always equals sequential execution).
    pub state: MachineState,
    /// Statistics (cycle fields are zero: wall-clock is not simulated).
    pub stats: EngineStats,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
    /// Adaptive re-distillation summary, when the run used
    /// [`run_threaded_adaptive`].
    pub adaptive: Option<AdaptiveReport>,
}

struct WorkItem {
    /// Epoch the task was spawned in; bumped on every squash.
    epoch: u64,
    /// Last materialized base snapshot.
    base: Arc<MachineState>,
    /// Folded writes committed after `base` was materialized; pooled.
    /// `base` + `view` ≡ architected state as of the task's dispatch.
    view: Delta,
    task: Task,
}

struct WorkResult {
    epoch: u64,
    task: Task,
    end: TaskEnd,
    /// The committed view handed out at dispatch, riding back for
    /// recycling.
    view: Delta,
}

/// Everything the coordinator can hear: worker results, master spawns,
/// master stalls, and thread obituaries — one MPSC ring whose
/// per-producer FIFO keeps a master's spawns in spawn order relative to
/// its stall report.
// Nearly every message is a `Result`, so a ring slot sized for one wastes
// nothing, and boxing it would put an allocation on the per-task path.
#[allow(clippy::large_enum_variant)]
enum CoordMsg {
    Result(WorkResult),
    Spawn {
        gen: u64,
        id: u64,
        start_pc: u64,
        overlay: Vec<Arc<Delta>>,
    },
    MasterStalled {
        gen: u64,
    },
    ThreadDied,
}

/// Coordinator → master control: restart after recovery, and commit
/// notifications so the master can prune its live overlay segments.
enum CtrlMsg {
    Restart {
        gen: u64,
        /// Architected state to restart from, at its PC.
        base: Box<MachineState>,
        /// A hot-swapped distilled program to install before restarting;
        /// `None` restarts on whatever the master currently runs.
        swap: Option<Arc<Distilled>>,
    },
    Committed {
        gen: u64,
        task_id: u64,
    },
}

/// Notifies the coordinator if the owning thread unwinds, so it returns
/// [`ThreadedError::WorkerDied`] instead of blocking forever on a result
/// that will never arrive. Normal exits send nothing.
struct DeadManSwitch {
    tx: MpscSender<CoordMsg>,
}

impl Drop for DeadManSwitch {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(CoordMsg::ThreadDied);
        }
    }
}

/// Non-blocking dispatch of every per-worker outbox into its ring, one
/// publish per worker. Relies on [`SpscSender::try_send_batch`]'s
/// partial-progress contract: a short send (full ring) leaves the unsent
/// tasks queued — in order, none dropped — for the caller's next flush.
///
/// # Errors
///
/// [`ThreadedError::WorkerDied`] when a worker's ring is disconnected;
/// the undispatched tasks stay in their outbox for the caller to unwind.
fn flush_outboxes<T: Send>(
    outboxes: &mut [VecDeque<T>],
    txs: &mut [SpscSender<T>],
) -> Result<(), ThreadedError> {
    for (queue, tx) in outboxes.iter_mut().zip(txs.iter_mut()) {
        if !queue.is_empty() && tx.try_send_batch(queue).is_err() {
            return Err(ThreadedError::WorkerDied);
        }
    }
    Ok(())
}

/// Returns a result's delta buffers to the arena (stale epoch, squash).
fn recycle_result(arena: &mut DeltaArena, r: WorkResult) {
    let WorkResult { mut task, view, .. } = r;
    arena.put(view);
    arena.put(std::mem::take(&mut task.live_ins));
    arena.put(std::mem::take(&mut task.writes));
}

/// Runs the MSSP protocol with `config.num_slaves` worker threads plus a
/// dedicated master thread; the calling thread becomes the verify/commit
/// coordinator.
///
/// # Errors
///
/// Returns [`ThreadedError::Engine`] if the original program faults
/// during non-speculative recovery or a recovery segment exceeds its cap,
/// and [`ThreadedError::WorkerDied`] if a worker or master thread
/// panics.
pub fn run_threaded(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
) -> Result<ThreadedRun, ThreadedError> {
    run_threaded_inner(original, distilled, config, None)
}

/// [`run_threaded`] with online adaptive re-distillation: `controller`
/// watches the run for divergence from the training profile and
/// `recompiler` produces candidate distilled programs from the live
/// profile (callers wire it to `mssp-lint`'s `redistill_validated`, so
/// every installed program passed the soundness gate). Candidates are
/// installed at commit/recovery task boundaries by bumping the squash
/// epoch — in-flight speculation is abandoned exactly like a squash, and
/// the master restarts on the new program from architected state.
///
/// With `synchronous` set, recompilation runs inline on the coordinator
/// at the requesting boundary — deterministic, for differential testing
/// against the discrete engine. Otherwise a background recompile thread
/// keeps it off the hot path.
///
/// # Errors
///
/// Same as [`run_threaded`]; a panicking recompiler also surfaces as
/// [`ThreadedError::WorkerDied`].
pub fn run_threaded_adaptive(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
    controller: AdaptiveController,
    recompiler: Recompiler,
    synchronous: bool,
) -> Result<ThreadedRun, ThreadedError> {
    run_threaded_inner(
        original,
        distilled,
        config,
        Some((controller, recompiler, synchronous)),
    )
}

fn run_threaded_inner(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
    adaptive: Option<(AdaptiveController, Recompiler, bool)>,
) -> Result<ThreadedRun, ThreadedError> {
    assert!(config.num_slaves > 0, "MSSP needs at least one slave");
    let start_time = std::time::Instant::now();
    let boundaries = BoundarySet::new(distilled.boundaries().clone());
    // Task and recovery segments end alike, under different caps.
    let task_rules = SegmentRules {
        boundaries: &boundaries,
        crossings_per_task: distilled.crossings_per_task().max(1),
        max_instrs: config.max_task_instrs,
    };
    let recovery_rules = SegmentRules {
        max_instrs: config.max_recovery_instrs,
        ..task_rules
    };
    let current_epoch = AtomicU64::new(0);

    // Result/coordination ring sized far above the speculation window so
    // producers (workers, master) never meet a full ring in practice.
    let coord_cap = (config.num_slaves * 8).max(1024);
    let (coord_tx, mut coord_rx) = ring::mpsc::<CoordMsg>(coord_cap);
    let (mut ctrl_tx, mut ctrl_rx) = ring::spsc::<CtrlMsg>(CTRL_RING_CAP);
    let mut work_txs = Vec::with_capacity(config.num_slaves);
    let mut work_rxs = Vec::with_capacity(config.num_slaves);
    for _ in 0..config.num_slaves {
        let (tx, rx) = ring::spsc::<WorkItem>(WORK_RING_CAP);
        work_txs.push(tx);
        work_rxs.push(rx);
    }
    let mut unit = CommitUnit::new(config);
    let mut recompile_thread = None;
    if let Some((ctl, rec, synchronous)) = adaptive {
        let recompile = if synchronous {
            Recompile::Inline(rec)
        } else {
            let (recompile, thread_body) = Recompile::background(rec);
            recompile_thread = Some(thread_body);
            recompile
        };
        unit.enable_adaptive(ctl, recompile);
    }

    std::thread::scope(|scope| -> Result<ThreadedRun, ThreadedError> {
        // ---- workers ----
        let mut workers = Vec::with_capacity(config.num_slaves);
        for mut work_rx in work_rxs {
            let coord_tx = coord_tx.clone();
            let current_epoch = &current_epoch;
            workers.push(scope.spawn(move || {
                let _guard = DeadManSwitch {
                    tx: coord_tx.clone(),
                };
                worker_loop(original, task_rules, current_epoch, &mut work_rx, &coord_tx);
            }));
        }

        // ---- background recompiler (adaptive async mode) ----
        let recompile_handle = recompile_thread.map(|body| scope.spawn(body));

        // ---- master ----
        let master_handle = {
            let coord_tx = coord_tx.clone();
            let num_slaves = config.num_slaves;
            let runahead = config.master_runahead;
            scope.spawn(move || {
                let _guard = DeadManSwitch {
                    tx: coord_tx.clone(),
                };
                master_thread(distilled, num_slaves, runahead, &mut ctrl_rx, &coord_tx)
            })
        };
        drop(coord_tx); // coordinator keeps only the receiver

        // ---- coordinator: the in-order verify/commit unit ----
        let outcome = Coordinator::new(
            original,
            recovery_rules,
            &current_epoch,
            &mut work_txs,
            &mut coord_rx,
            &mut ctrl_tx,
            &mut unit,
        )
        .run();

        // Shut down regardless of outcome: stragglers abandon at the next
        // epoch poll, closed rings end both loops, and joining here
        // consumes any panic so the scope does not re-raise it.
        // why: Relaxed; the epoch is an advisory abandon hint — correctness
        // comes from the epoch tag carried inside each message, and the
        // ring close below is what actually ends the loops.
        current_epoch.store(u64::MAX, Ordering::Relaxed);
        drop(work_txs);
        drop(ctrl_tx);
        drop(coord_rx);
        let mut thread_died = false;
        for handle in workers {
            if handle.join().is_err() {
                thread_died = true;
            }
        }
        // Finishing the unit drops the request sender, which ends the
        // recompile thread's recv loop; join it before returning.
        let (mut stats, _, adaptive_report) = unit.finish();
        match master_handle.join() {
            Ok((instructions, vetoes)) => {
                stats.master_instructions = instructions;
                stats.spawn_vetoes = vetoes;
            }
            Err(_) => thread_died = true,
        }
        if let Some(handle) = recompile_handle {
            if handle.join().is_err() {
                thread_died = true;
            }
        }
        let state = outcome?;
        if thread_died {
            return Err(ThreadedError::WorkerDied);
        }
        Ok(ThreadedRun {
            state,
            stats,
            elapsed: start_time.elapsed(),
            adaptive: adaptive_report,
        })
    })
}

/// Worker thread body: execute tasks against their dispatch-time view.
/// The loop is allocation-free: every buffer it touches arrives in the
/// work item and leaves in the result.
fn worker_loop(
    original: &Program,
    rules: SegmentRules<'_>,
    current_epoch: &AtomicU64,
    work_rx: &mut SpscReceiver<WorkItem>,
    coord_tx: &MpscSender<CoordMsg>,
) {
    while let Ok(WorkItem {
        epoch,
        base,
        view,
        mut task,
    }) = work_rx.recv()
    {
        // The committed view layers *below* the master's prediction
        // segments (committed state is older than any prediction) and
        // *above* the base snapshot, reproducing architected state as of
        // the task's dispatch.
        let committed = if view.is_empty() { None } else { Some(&view) };
        // The hot loop: no lock, no shared mutable state. The closure
        // polls the epoch so squashed work is dropped at entry, at the
        // task's last boundary crossing, and every 64 instructions.
        let end = task.run_segment_with_view(original, &base, committed, &rules, || {
            // why: Relaxed; a stale read only delays the abandon by one
            // poll interval — squash correctness rests on the coordinator
            // discarding results whose epoch tag mismatches, not on when
            // the worker notices.
            current_epoch.load(Ordering::Relaxed) != epoch
        });
        // The coordinator never reads the overlay; drop it here to spare
        // the commit path the refcount churn.
        task.overlay = Vec::new();
        let result = WorkResult {
            epoch,
            task,
            end,
            view,
        };
        if coord_tx.send(CoordMsg::Result(result)).is_err() {
            return;
        }
    }
}

/// Master thread body: runs the distilled program and streams spawn
/// predictions to the coordinator. Returns `(instructions, vetoes)`:
/// the total distilled instruction count and the spawn-guard veto count,
/// both summed across all restarts.
///
/// The master self-gates on its own `live_segment_count` (pruned by
/// [`CtrlMsg::Committed`]), which tracks uncommitted spawned tasks — the
/// same `2 × slaves` speculation window the discrete engine uses. When it
/// cannot run (stalled, or window full) it parks on the control ring.
fn master_thread(
    distilled: &Distilled,
    num_slaves: usize,
    master_runahead: u64,
    ctrl_rx: &mut SpscReceiver<CtrlMsg>,
    coord_tx: &MpscSender<CoordMsg>,
) -> (u64, u64) {
    let window = num_slaves * 2;
    let mut total = 0u64;
    // Guard vetoes are drained from the live master after every run
    // slice, so restarts and early returns never lose them.
    let mut vetoes = 0u64;
    let mut cur: Option<(u64, Master)> = None;
    // The latest hot-swapped program; `None` means the offline one.
    let mut swapped: Option<Arc<Distilled>> = None;
    let mut last_spawned: Option<u64> = None;
    let mut next_id = 0u64;
    let mut steps_since_spawn = 0u64;
    let mut stall_reported = false;
    loop {
        // Drain control; park when there is nothing to run. The stall
        // report must precede every blocking wait: a master that restarts
        // straight into Lost (unmapped PC) would otherwise never tell the
        // coordinator, and both sides would block forever.
        loop {
            let runnable = cur.as_ref().is_some_and(|(_, m)| {
                m.status() == MasterStall::Active
                    && (m.pending_spawn().is_none() || m.live_segment_count() < window)
            });
            if !stall_reported {
                if let Some((gen, m)) = cur.as_ref() {
                    if m.status() != MasterStall::Active {
                        if coord_tx
                            .send(CoordMsg::MasterStalled { gen: *gen })
                            .is_err()
                        {
                            return (total, vetoes);
                        }
                        stall_reported = true;
                    }
                }
            }
            let msg = if runnable {
                match ctrl_rx.try_recv() {
                    Ok(m) => m,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return (total, vetoes),
                }
            } else {
                match ctrl_rx.recv() {
                    Ok(m) => m,
                    Err(_) => return (total, vetoes),
                }
            };
            match msg {
                CtrlMsg::Restart { gen, base, swap } => {
                    if let Some(d) = swap {
                        swapped = Some(d);
                    }
                    let cur_d = swapped.as_deref().unwrap_or(distilled);
                    cur = Some((gen, Master::restart_at(cur_d, base.pc(), true, *base)));
                    last_spawned = None;
                    steps_since_spawn = 0;
                    stall_reported = false;
                }
                CtrlMsg::Committed { gen, task_id } => {
                    if let Some((g, m)) = cur.as_mut() {
                        if *g == gen {
                            m.on_commit(task_id);
                        }
                    }
                }
            }
        }

        // Run a slice, then loop back to drain control again.
        let Some((gen, master)) = cur.as_mut() else {
            continue;
        };
        for _ in 0..128 {
            if master.status() != MasterStall::Active {
                break;
            }
            if master.pending_spawn().is_some() {
                if master.live_segment_count() >= window {
                    break; // enough speculation outstanding
                }
                let (start_pc, overlay) = master.take_spawn(last_spawned);
                let id = next_id;
                next_id += 1;
                last_spawned = Some(id);
                steps_since_spawn = 0;
                let spawn = CoordMsg::Spawn {
                    gen: *gen,
                    id,
                    start_pc,
                    overlay,
                };
                if coord_tx.send(spawn).is_err() {
                    vetoes += master.take_vetoed_spawns();
                    return (total, vetoes);
                }
                continue;
            }
            if master
                .step(swapped.as_deref().unwrap_or(distilled))
                .is_some()
            {
                total += 1;
                steps_since_spawn += 1;
                if steps_since_spawn > master_runahead {
                    master.mark_lost();
                }
            } else {
                break;
            }
        }
        vetoes += master.take_vetoed_spawns();
    }
}

/// The verify/commit coordinator, the threaded driver of the protocol
/// core: owns architected state, dispatches spawns to workers, and presents
/// their results to [`verify_and_commit`] in spawn order.
struct Coordinator<'a> {
    original: &'a Program,
    /// Recovery-segment rules (the cap is `max_recovery_instrs`).
    rules: SegmentRules<'a>,
    current_epoch: &'a AtomicU64,
    work_txs: &'a mut [SpscSender<WorkItem>],
    coord_rx: &'a mut MpscReceiver<CoordMsg>,
    ctrl_tx: &'a mut SpscSender<CtrlMsg>,
    unit: &'a mut CommitUnit,

    arena: DeltaArena,
    arch: MachineState,
    /// Last materialized snapshot of `arch`, shared with every dispatch.
    base: Arc<MachineState>,
    /// Superimposition of the writes committed since `base`: the committed
    /// view cloned into every spawn. Maintained incrementally per commit.
    folded: Delta,
    /// Commits, and their write cells, folded since `base`.
    pending_deltas: u64,
    pending_cells: usize,
    epoch: u64,
    /// Task ids in spawn = commit order.
    in_flight: VecDeque<u64>,
    /// Finished-but-uncommitted results; the window is tiny (≤ 2×slaves),
    /// so a linear scan beats a map and reuses its capacity forever.
    done: Vec<(u64, WorkResult)>,
    inbox: Vec<CoordMsg>,
    outbox: Vec<VecDeque<WorkItem>>,
    next_worker: usize,
    master_stalled: bool,
    halted: bool,
}

impl<'a> Coordinator<'a> {
    fn new(
        original: &'a Program,
        rules: SegmentRules<'a>,
        current_epoch: &'a AtomicU64,
        work_txs: &'a mut [SpscSender<WorkItem>],
        coord_rx: &'a mut MpscReceiver<CoordMsg>,
        ctrl_tx: &'a mut SpscSender<CtrlMsg>,
        unit: &'a mut CommitUnit,
    ) -> Coordinator<'a> {
        let arch = MachineState::boot(original);
        unit.stats.snapshots_materialized += 1;
        Coordinator {
            original,
            rules,
            current_epoch,
            outbox: work_txs.iter().map(|_| VecDeque::new()).collect(),
            work_txs,
            coord_rx,
            ctrl_tx,
            unit,
            arena: DeltaArena::new(),
            base: Arc::new(arch.clone()),
            arch,
            folded: Delta::new(),
            pending_deltas: 0,
            pending_cells: 0,
            epoch: 0,
            in_flight: VecDeque::new(),
            done: Vec::new(),
            inbox: Vec::with_capacity(DRAIN_BATCH),
            next_worker: 0,
            master_stalled: false,
            halted: false,
        }
    }

    /// Runs the protocol to architectural halt; returns the final state.
    fn run(mut self) -> Result<MachineState, ThreadedError> {
        self.send_restart(None)?;
        while !self.halted {
            self.drain()?;

            // Verify/commit in order.
            while let Some(&oldest_id) = self.in_flight.front() {
                let Some(pos) = self.done.iter().position(|&(id, _)| id == oldest_id) else {
                    break;
                };
                let (_, result) = self.done.swap_remove(pos);
                self.in_flight.pop_front();
                match verify_and_commit(&mut self.arch, &result.task, result.end) {
                    VerifyOutcome::Commit { halted, .. } => self.commit(result, halted)?,
                    VerifyOutcome::Squash(reason) => self.squash(reason, result)?,
                }
                if self.halted {
                    break;
                }
            }

            // Master starved (lost/halted with nothing in flight):
            // sequential recovery, then reseed the master.
            if !self.halted && self.in_flight.is_empty() && self.master_stalled {
                self.recover_and_restart(None, true)?;
            }
        }
        Ok(self.arch)
    }

    /// Receives spawns, results and master status in batches and
    /// dispatches the spawned tasks. Blocks only with nothing to commit
    /// and no starvation to handle — then a message is guaranteed to
    /// arrive (a result, a spawn, a stall report, or a thread obituary).
    fn drain(&mut self) -> Result<(), ThreadedError> {
        let mut inbox = std::mem::take(&mut self.inbox);
        let mut received = false;
        loop {
            let oldest_ready = self
                .in_flight
                .front()
                .is_some_and(|&id| self.done.iter().any(|&(d, _)| d == id));
            let starved = self.in_flight.is_empty() && self.master_stalled;
            if oldest_ready || starved || received {
                if self.coord_rx.recv_batch(&mut inbox, DRAIN_BATCH) == 0 {
                    break;
                }
            } else {
                match self.coord_rx.recv() {
                    Ok(m) => {
                        inbox.push(m);
                        self.coord_rx.recv_batch(&mut inbox, DRAIN_BATCH - 1);
                    }
                    Err(_) => return Err(ThreadedError::WorkerDied),
                }
            }
            received = true;
            for msg in inbox.drain(..) {
                match msg {
                    CoordMsg::Result(r) => {
                        self.unit.stats.slave_instructions += r.task.executed;
                        if r.epoch == self.epoch {
                            self.done.push((r.task.id.0, r));
                        } else {
                            recycle_result(&mut self.arena, r);
                        }
                    }
                    CoordMsg::Spawn {
                        gen,
                        id,
                        start_pc,
                        overlay,
                    } => {
                        // An older generation's spawn is a pre-squash
                        // prediction, already dead.
                        if gen == self.epoch {
                            self.dispatch(id, start_pc, overlay);
                        }
                    }
                    CoordMsg::MasterStalled { gen } => {
                        if gen == self.epoch {
                            self.master_stalled = true;
                        }
                    }
                    CoordMsg::ThreadDied => return Err(ThreadedError::WorkerDied),
                }
            }
            // Batched dispatch: one ring publish per worker per drain.
            // Short sends (full ring) keep the unsent tasks queued for the
            // next drain instead of blocking here or dropping them; a full
            // ring means that worker already holds a ring-capacity backlog,
            // so its next result is guaranteed to wake this loop for the
            // retry.
            flush_outboxes(&mut self.outbox, self.work_txs)?;
        }
        self.inbox = inbox;
        Ok(())
    }

    /// Queues the task the master spawned at `start_pc` for the next
    /// worker, round-robin, with the current committed view.
    fn dispatch(&mut self, id: u64, start_pc: u64, mut overlay: Vec<Arc<Delta>>) {
        self.in_flight.push_back(id);
        let mut view = self.arena.take();
        view.clone_from(&self.folded);
        let predicted = self.unit.spawn(start_pc, &mut overlay);
        let mut task = Task::with_buffers(
            TaskId(id),
            start_pc,
            self.next_worker,
            overlay,
            self.arena.take(),
            self.arena.take(),
        );
        task.predicted = predicted;
        self.outbox[self.next_worker].push_back(WorkItem {
            epoch: self.epoch,
            base: Arc::clone(&self.base),
            view,
            task,
        });
        self.next_worker = (self.next_worker + 1) % self.work_txs.len();
    }

    /// The oldest task passed the oracle and its writes are architected:
    /// they join the committed view, the master is told, and a ready
    /// hot-swap installs.
    fn commit(&mut self, result: WorkResult, halted: bool) -> Result<(), ThreadedError> {
        self.unit.commit(&result.task);
        self.pending_deltas += 1;
        self.pending_cells += result.task.writes.len();
        self.folded.superimpose_in_place(&result.task.writes);
        let task_id = result.task.id.0;
        recycle_result(&mut self.arena, result);
        let committed = CtrlMsg::Committed {
            gen: self.epoch,
            task_id,
        };
        if self.ctrl_tx.send(committed).is_err() {
            return Err(ThreadedError::WorkerDied);
        }
        if self.pending_deltas >= MAX_PENDING_DELTAS || self.pending_cells >= MAX_PENDING_CELLS {
            self.rebase();
        } else {
            self.unit.stats.deltas_published += 1;
        }
        if halted {
            self.halted = true;
            return Ok(());
        }
        if let Some(candidate) = self.unit.poll_swap() {
            // Abandon in-flight speculation like a squash, but with no
            // recovery segment: architected state already sits at the
            // task boundary just committed.
            self.unit.swap_installed(&candidate, self.in_flight_work());
            return self.recover_and_restart(Some(candidate.program), false);
        }
        Ok(())
    }

    /// Squashes the oldest task and everything younger, then recovers.
    fn squash(&mut self, reason: SquashReason, result: WorkResult) -> Result<(), ThreadedError> {
        let (younger, executed) = self.in_flight_work();
        let dying = (younger + 1, executed + result.task.executed);
        self.unit.squash(reason, &result.task, &self.arch, dying);
        recycle_result(&mut self.arena, result);
        self.recover_and_restart(None, true)
    }

    /// Ends the speculation epoch and starts the next from a consistent
    /// architected state: bumps the epoch (nothing from the old master may
    /// leak into the reseeded run), discards in-flight work, runs recovery
    /// segments if `recover` — several while the squash throttle keeps the
    /// master offline — rebases the snapshot, and restarts the master on
    /// `swap` or on a candidate the unit has ready (speculation is already
    /// abandoned: a pending swap rides for free).
    fn recover_and_restart(
        &mut self,
        mut swap: Option<Arc<Distilled>>,
        recover: bool,
    ) -> Result<(), ThreadedError> {
        self.epoch += 1;
        // why: Relaxed; advisory abandon hint — stale spawns and results
        // are filtered by their message epoch tag regardless.
        self.current_epoch.store(self.epoch, Ordering::Relaxed);
        self.in_flight.clear();
        for (_, r) in self.done.drain(..) {
            recycle_result(&mut self.arena, r);
        }
        self.master_stalled = false;
        while recover && !self.halted {
            let (executed, halted) =
                RecoverySegment::run(self.unit, self.original, &mut self.arch, &self.rules)?;
            self.halted = halted;
            if self.unit.recovered(executed) == AfterRecovery::RestartMaster {
                break;
            }
        }
        self.rebase();
        if self.halted {
            return Ok(());
        }
        if swap.is_none() {
            if let Some(candidate) = self.unit.poll_swap() {
                self.unit.swap_installed(&candidate, (0, 0));
                swap = Some(candidate.program);
            }
        }
        self.send_restart(swap)
    }

    /// The tasks in flight and the instructions the finished ones ran.
    fn in_flight_work(&self) -> (u64, u64) {
        let executed = self.done.iter().map(|(_, r)| r.task.executed).sum();
        (self.in_flight.len() as u64, executed)
    }

    /// Materializes a fresh base snapshot from architected state; the
    /// committed view starts over empty.
    fn rebase(&mut self) {
        self.base = Arc::new(self.arch.clone());
        self.folded.clear();
        self.pending_deltas = 0;
        self.pending_cells = 0;
        self.unit.stats.snapshots_materialized += 1;
    }

    /// (Re)starts the master at the architected PC in the current epoch,
    /// on `swap` if given, else on whatever it currently runs.
    fn send_restart(&mut self, swap: Option<Arc<Distilled>>) -> Result<(), ThreadedError> {
        let restart = CtrlMsg::Restart {
            gen: self.epoch,
            base: Box::new(self.arch.clone()),
            swap,
        };
        self.ctrl_tx
            .send(restart)
            .map_err(|_| ThreadedError::WorkerDied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::UnitCost;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, redistill, DistillConfig, Tier};
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use mssp_machine::SeqMachine;

    fn fixture() -> (Program, Distilled) {
        let p = assemble(
            "main:  addi s0, zero, 2000
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
        (p, d)
    }

    /// Regression test for the outbox dispatch contract: a short send
    /// (full worker ring) must keep every undispatched task queued in
    /// order, and a later flush must deliver them — nothing dropped,
    /// nothing reordered. (Before `try_send_batch`, the coordinator's
    /// `send_batch(box_.drain(..))` destroyed the queued tasks whenever
    /// the send ended early.)
    #[test]
    fn outbox_flush_survives_full_ring_without_dropping() {
        let (tx_a, mut rx_a) = ring::spsc::<u32>(4);
        let (tx_b, mut rx_b) = ring::spsc::<u32>(4);
        let mut txs = vec![tx_a, tx_b];
        let mut outboxes: Vec<VecDeque<u32>> = vec![(0..7).collect(), (100..103).collect()];

        // First flush: worker A's ring fills at 4, worker B's takes all 3.
        flush_outboxes(&mut outboxes, &mut txs).unwrap();
        assert_eq!(
            outboxes[0].iter().copied().collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(outboxes[1].is_empty());

        // A second flush against the still-full ring is a no-op, not a loss.
        flush_outboxes(&mut outboxes, &mut txs).unwrap();
        assert_eq!(outboxes[0].len(), 3);

        // Worker A drains; the next flush delivers the retained tasks.
        let mut got = Vec::new();
        rx_a.recv_batch(&mut got, 100);
        flush_outboxes(&mut outboxes, &mut txs).unwrap();
        assert!(outboxes[0].is_empty());
        rx_a.recv_batch(&mut got, 100);
        assert_eq!(got, (0..7).collect::<Vec<_>>(), "FIFO across short sends");
        let mut got_b = Vec::new();
        rx_b.recv_batch(&mut got_b, 100);
        assert_eq!(got_b, (100..103).collect::<Vec<_>>());
    }

    /// A disconnected worker ring surfaces as `WorkerDied` and leaves the
    /// outbox contents intact for the caller to unwind.
    #[test]
    fn outbox_flush_reports_dead_worker_and_keeps_tasks() {
        let (tx, rx) = ring::spsc::<u32>(4);
        drop(rx);
        let mut txs = vec![tx];
        let mut outboxes: Vec<VecDeque<u32>> = vec![(0..3).collect()];
        assert_eq!(
            flush_outboxes(&mut outboxes, &mut txs),
            Err(ThreadedError::WorkerDied)
        );
        assert_eq!(
            outboxes[0].iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let (p, d) = fixture();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert!(run.stats.committed_instructions > 0);
    }

    #[test]
    fn threaded_matches_discrete_engine() {
        let (p, d) = fixture();
        let reference = crate::Engine::new(&p, &d, EngineConfig::default(), UnitCost)
            .run()
            .unwrap();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        assert_eq!(run.state.reg(Reg::S1), reference.state.reg(Reg::S1));
    }

    #[test]
    fn threaded_with_two_workers_repeats_deterministically_in_state() {
        let (p, d) = fixture();
        let cfg = EngineConfig {
            num_slaves: 2,
            ..EngineConfig::default()
        };
        let a = run_threaded(&p, &d, cfg).unwrap();
        let b = run_threaded(&p, &d, cfg).unwrap();
        // Wall-clock and task counts may differ; committed state may not.
        assert_eq!(a.state.reg(Reg::S1), b.state.reg(Reg::S1));
    }

    #[test]
    fn commits_are_published_as_deltas_not_snapshots() {
        let (p, d) = fixture();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        // Most commits ride the committed view; snapshots only at
        // thresholds and squashes.
        assert!(run.stats.deltas_published > 0, "{:?}", run.stats);
        assert!(
            run.stats.snapshots_materialized < run.stats.committed_tasks,
            "{:?}",
            run.stats
        );
    }

    /// A recompiler for tests: re-runs the pinned-boundary pipeline on
    /// the live profile at the requested tier.
    fn test_recompiler(p: &Program, d: &Distilled) -> Recompiler {
        let program = p.clone();
        let dcfg = DistillConfig::default();
        let boundaries = d.boundaries().clone();
        let crossings = d.crossings_per_task().max(1);
        Box::new(move |profile, tier| {
            redistill(
                &program,
                profile,
                &tier.apply(&dcfg),
                &boundaries,
                crossings,
            )
            .map_err(|e| e.to_string())
        })
    }

    #[test]
    fn adaptive_stationary_run_recompiles_nothing() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let ctl = AdaptiveController::new(AdaptiveConfig::default(), &d, &profile);
        // A recompiler that must never run: stationary behaviour matching
        // the training profile gives the controller no reason to act.
        let rec: Recompiler = Box::new(|_, _| Err("recompiled a stationary run".into()));
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec, true).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        let report = run.adaptive.expect("adaptive run carries a report");
        assert_eq!(report.recompilations(), 0, "{report:?}");
        assert_eq!(report.recompile_failures, 0, "{report:?}");
        assert_eq!(run.stats.swaps_installed, 0);
    }

    #[test]
    fn adaptive_forced_swap_installs_and_preserves_state() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let config = AdaptiveConfig {
            force_swap_at: vec![(5, Tier::Fast), (10, Tier::Full)],
            ..AdaptiveConfig::default()
        };
        let ctl = AdaptiveController::new(config, &d, &profile);
        let rec = test_recompiler(&p, &d);
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec, true).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert_eq!(run.stats.swaps_installed, 2, "{:?}", run.stats);
        assert_eq!(run.stats.recompilations_fast, 1);
        assert_eq!(run.stats.recompilations_full, 1);
        let report = run.adaptive.unwrap();
        assert_eq!(report.swaps.len(), 2);
        assert_eq!(report.swaps[0].tier, Tier::Fast);
        assert_eq!(report.swaps[0].at_committed_tasks, 5);
        assert_eq!(report.swaps[1].tier, Tier::Full);
    }

    #[test]
    fn adaptive_async_mode_stays_correct() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let config = AdaptiveConfig {
            force_swap_at: vec![(5, Tier::Fast)],
            ..AdaptiveConfig::default()
        };
        let ctl = AdaptiveController::new(config, &d, &profile);
        let rec = test_recompiler(&p, &d);
        // Background recompilation: the swap may or may not land before
        // the run halts, but committed state is invariant either way.
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec, false).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert!(run.adaptive.is_some());
    }

    #[test]
    fn worker_panic_surfaces_as_worker_died() {
        let (tx, mut rx) = ring::mpsc::<CoordMsg>(8);
        std::thread::spawn(move || {
            let _guard = DeadManSwitch { tx };
            panic!("worker exploded");
        })
        .join()
        .unwrap_err();
        match rx.recv() {
            Ok(CoordMsg::ThreadDied) => {}
            _ => panic!("expected a ThreadDied obituary"),
        }
    }

    #[test]
    fn threaded_error_formats_and_converts() {
        let e: ThreadedError = EngineError::RecoveryLimit.into();
        assert_eq!(e, ThreadedError::Engine(EngineError::RecoveryLimit));
        assert!(e.to_string().contains("recovery"));
        assert!(ThreadedError::WorkerDied.to_string().contains("worker"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ThreadedError::WorkerDied.source().is_none());
    }
}
