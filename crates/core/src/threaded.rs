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
//! The steady-state dispatch/execute/commit cycle takes **no mutex and
//! performs no heap allocation**. Each worker owns a bounded SPSC ring
//! ([`crate::ring::spsc`]) the coordinator dispatches into; results,
//! spawns, stalls and thread obituaries flow back through one bounded MPSC
//! ring ([`crate::ring::mpsc`]), whose per-producer FIFO keeps a master's
//! spawns ordered before its stall report; commit notifications and
//! restarts ride an SPSC ring to the master. Dispatch and draining are
//! batched. Task live-in/write buffers, the shipped committed view and
//! commit-log entries are plain [`Delta`]s cycled through a
//! [`DeltaArena`], travelling inside the work/result messages.
//!
//! # O(delta) verify/commit
//!
//! Everything on the coordinator is sized by the *task's footprint*,
//! never by machine state:
//!
//! * **Worker-side pre-verification.** A worker re-checks the recorded
//!   live-ins against the immutable snapshot + committed view it executed
//!   from and ships the failing cells with the result. The coordinator
//!   re-checks only those and the live-ins intersecting writes committed
//!   *after* the task's spawn sequence number ([`cells_to_recheck`]); a
//!   task with nothing to re-check commits without one read of
//!   architected state.
//! * **Incremental snapshot publishing.** A committed write [`Delta`]
//!   joins the [`CommitLog`] and a running folded view that every spawn
//!   gets a pooled clone of; a full snapshot is materialized only past a
//!   length/size threshold or on squash.
//! * **Batched commit application.** Commits reach architected state as
//!   one [`MachineState::apply_batch`] over the unapplied log suffix, when
//!   something needs to *read* it.
//!
//! This fast path is an optimisation, never the authority: a live-in that
//! passed pre-verification at spawn sequence `s` and was written by no
//! commit since has the value the oracle would compare, and every other
//! cell is re-checked. [`verify_and_commit`] stays the single verdict
//! oracle — `EngineConfig::cross_check_commits` replays every decision
//! through it on a clone and panics on divergence.
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
use mssp_machine::{expand_mask, Cell, Delta, DeltaArena, MachineState};

use crate::adaptive::{AdaptiveController, AdaptiveReport, Recompiler};
use crate::master::{Master, MasterStall};
use crate::protocol::{
    verify_and_commit, AfterRecovery, CommitUnit, EngineStats, Recompile, RecoverySegment,
    SquashReason, VerifyOutcome,
};
use crate::ring::{self, MpscReceiver, MpscSender, SpscReceiver, SpscSender, TryRecvError};
use crate::task::{BoundarySet, SegmentRules, Task, TaskEnd, TaskId};
use crate::{EngineConfig, EngineError};

/// Commit-log length after which the coordinator materializes a fresh
/// base snapshot instead of letting the committed view grow unboundedly.
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
    /// `base` + `view` ≡ architected state as of the task's spawn
    /// sequence number (which the coordinator tracks in `in_flight`).
    view: Delta,
    task: Task,
}

struct WorkResult {
    epoch: u64,
    task: Task,
    end: TaskEnd,
    /// Pre-verification outcome: live-in cells that did *not* match the
    /// spawn-time view (empty and unread when the task overran or faulted,
    /// which squashes before any live-in is consulted).
    failed: Vec<Cell>,
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
        pc: u64,
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

/// The append-only commit log: a sliding window over the sequence of
/// committed write deltas. `start` is the sequence number of the oldest
/// retained entry; entries below it have been compacted away (their
/// buffers returned to the arena) once no in-flight task or base
/// snapshot could still need them.
#[derive(Default)]
struct CommitLog {
    deltas: VecDeque<Delta>,
    start: u64,
}

impl CommitLog {
    /// Sequence number the *next* commit will get (= commits so far).
    fn seq(&self) -> u64 {
        self.start + self.deltas.len() as u64
    }

    fn push(&mut self, delta: Delta) {
        self.deltas.push_back(delta);
    }

    /// Entries committed at sequence `seq` or later.
    fn suffix(&self, seq: u64) -> impl Iterator<Item = &Delta> + '_ {
        let skip = seq.saturating_sub(self.start).min(self.deltas.len() as u64) as usize;
        self.deltas.iter().skip(skip)
    }

    /// Drops entries below sequence `keep`, recycling their buffers.
    fn compact(&mut self, keep: u64, arena: &mut DeltaArena) {
        while self.start < keep {
            let Some(d) = self.deltas.pop_front() else {
                break;
            };
            arena.put(d);
            self.start += 1;
        }
    }

    /// Empties the window (squash/recovery: every retained delta is now
    /// folded into the materialized base). Sequence numbers keep rising.
    fn clear_window(&mut self, arena: &mut DeltaArena) {
        self.start += self.deltas.len() as u64;
        for d in self.deltas.drain(..) {
            arena.put(d);
        }
    }
}

/// The coordinator's conflict check: which live-in cells must be
/// re-checked against architected state before trusting a pre-verify
/// summary taken at sequence `seq`.
///
/// Always includes the worker-reported failures; adds every live-in
/// intersecting a delta committed at or after `seq` (the summary could
/// not have seen those commits, so it is stale for exactly those cells).
/// An empty return means the summary alone decides the memoization test.
///
/// A `seq` older than the log's retained window demands a **full**
/// re-check: commits in `[seq, start)` are gone, so the suffix probe can
/// no longer prove any live-in fresh. (Compaction keeps the window at or
/// below every in-flight spawn seq, but this function must not silently
/// clamp if that invariant is ever violated — clamping skipped exactly
/// the commits the task never saw.)
fn cells_to_recheck(live_ins: &Delta, failed: &[Cell], log: &CommitLog, seq: u64) -> Vec<Cell> {
    if seq < log.start {
        return live_ins.iter_masked().map(|(c, _)| c).collect();
    }
    if failed.is_empty() && !log.suffix(seq).any(|d| live_ins.intersects(d)) {
        return Vec::new();
    }
    let mut cells: Vec<Cell> = failed.to_vec();
    for delta in log.suffix(seq) {
        cells.extend(live_ins.intersecting_cells(delta));
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Worker-side pre-verification: compares each recorded live-in against
/// the view the task executed from (`view` = folded committed deltas
/// over `base`), returning the cells whose bytes disagree.
///
/// Live-ins satisfied from the master's *prediction* overlay usually land
/// here (the view has no reason to agree with a prediction) — that is
/// conservative, not wasteful: the coordinator re-checks exactly those
/// cells, which is the check the paper's verify unit performs anyway.
fn pre_verify(live_ins: &Delta, view: Option<&Delta>, base: &MachineState) -> Vec<Cell> {
    let mut failed = Vec::new();
    for (cell, m) in live_ins.iter_masked() {
        let mut out = 0u64;
        let mut need = m.mask;
        if let Some(p) = view.and_then(|v| v.get_masked(cell)) {
            let take = need & p.mask;
            out |= p.value & expand_mask(take);
            need &= !take;
        }
        if need != 0 {
            out |= base.read_cell(cell) & expand_mask(need);
        }
        if out != m.value {
            failed.push(cell);
        }
    }
    failed
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
///
/// # Panics
///
/// Panics only when `config.cross_check_commits` detects the fast path
/// diverging from the [`verify_and_commit`] oracle (a bug, not an input
/// condition).
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

/// Worker thread body: execute tasks against their spawn-time view, then
/// pre-verify the recorded live-ins against that same view. The loop is
/// allocation-free: every buffer it touches arrives in the work item and
/// leaves in the result.
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
        // the spawn sequence number.
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
        let failed = match end {
            TaskEnd::Boundary(_) | TaskEnd::Halted(_) => {
                pre_verify(&task.live_ins, committed, &base)
            }
            // Overruns/faults squash before live-ins are consulted.
            TaskEnd::Overrun | TaskEnd::Fault => Vec::new(),
        };
        // The coordinator never reads the overlay; drop it here to spare
        // the commit path the refcount churn.
        task.overlay = Vec::new();
        let result = WorkResult {
            epoch,
            task,
            end,
            failed,
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
                CtrlMsg::Restart {
                    gen,
                    pc,
                    base,
                    swap,
                } => {
                    if let Some(d) = swap {
                        swapped = Some(d);
                    }
                    let cur_d = swapped.as_deref().unwrap_or(distilled);
                    cur = Some((gen, Master::restart_at(cur_d, pc, true, *base)));
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
/// core: owns architected state, dispatches spawns to workers, and commits
/// results in order doing O(write-set) work per task with no steady-state
/// allocation.
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
    /// The logical architected PC: `arch` itself may lag behind by the
    /// unapplied commit-log suffix, but `virt_pc` never does, so the
    /// wrong-path check needs no flush.
    virt_pc: u64,
    base: Arc<MachineState>,
    base_seq: u64,
    /// Commits at or above this sequence are not yet applied to `arch`.
    applied_seq: u64,
    log: CommitLog,
    /// Superimposition of log entries in [base_seq, seq): the committed
    /// view cloned into every spawn. Maintained incrementally per commit.
    folded: Delta,
    pending_cells: usize,
    epoch: u64,
    /// (task id, spawn sequence number), in spawn = commit order.
    in_flight: VecDeque<(u64, u64)>,
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
            virt_pc: arch.pc(),
            base: Arc::new(arch.clone()),
            arch,
            base_seq: 0,
            applied_seq: 0,
            log: CommitLog::default(),
            folded: Delta::new(),
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
            while let Some(&(oldest_id, task_seq)) = self.in_flight.front() {
                let Some(pos) = self.done.iter().position(|&(id, _)| id == oldest_id) else {
                    break;
                };
                let (_, result) = self.done.swap_remove(pos);
                self.in_flight.pop_front();
                let (verdict, rechecked) = self.verdict(&result, task_seq);
                let shadow = self.oracle(&result, verdict);
                match verdict {
                    VerifyOutcome::Commit { end_pc, halted } => {
                        self.commit(result, rechecked, end_pc, halted, shadow)?;
                    }
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

            // Compact the commit log: keep entries any in-flight task's
            // conflict check or the unapplied/unfolded suffix could still
            // reference. `base_seq ≤ applied_seq` always, so the keep
            // bound also protects the flush suffix.
            let keep = self
                .in_flight
                .front()
                .map_or_else(|| self.log.seq(), |&(_, seq)| seq)
                .min(self.base_seq);
            self.log.compact(keep, &mut self.arena);
        }
        self.flush();
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
                .is_some_and(|&(id, _)| self.done.iter().any(|&(d, _)| d == id));
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
        self.in_flight.push_back((id, self.log.seq()));
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

    /// Applies the unapplied commit-log suffix to `arch` as one
    /// superimposition and restores the logical PC. Idempotent.
    fn flush(&mut self) {
        if self.applied_seq < self.log.seq() {
            self.arch.apply_batch(self.log.suffix(self.applied_seq));
            self.applied_seq = self.log.seq();
        }
        self.arch.set_pc(self.virt_pc);
    }

    /// The fast-path verdict on the oldest finished task (spawned at
    /// commit sequence `task_seq`) and the live-ins re-checked to reach
    /// it: O(write-set) work, the oracle's precedence (wrong path,
    /// overrun/fault, then the memoization test over exactly the
    /// stale/failed cells).
    fn verdict(&mut self, result: &WorkResult, task_seq: u64) -> (VerifyOutcome, u64) {
        let task = &result.task;
        if task.start_pc != self.virt_pc {
            return (VerifyOutcome::Squash(SquashReason::WrongPath), 0);
        }
        let (end_pc, halted) = match result.end {
            TaskEnd::Overrun => return (VerifyOutcome::Squash(SquashReason::Overrun), 0),
            TaskEnd::Fault => return (VerifyOutcome::Squash(SquashReason::Fault), 0),
            TaskEnd::Boundary(pc) => (pc, false),
            TaskEnd::Halted(pc) => (pc, true),
        };
        let recheck = cells_to_recheck(&task.live_ins, &result.failed, &self.log, task_seq);
        let rechecked = recheck.len() as u64;
        if !recheck.is_empty() {
            self.flush();
        }
        for &cell in &recheck {
            let Some(m) = task.live_ins.get_masked(cell) else {
                continue; // a failed cell later overwritten? impossible, but harmless
            };
            if self.arch.read_cell(cell) & expand_mask(m.mask) != m.value {
                return (
                    VerifyOutcome::Squash(SquashReason::LiveInMismatch),
                    rechecked,
                );
            }
        }
        (VerifyOutcome::Commit { end_pc, halted }, rechecked)
    }

    /// Differential-testing mode (`cross_check_commits`): replays the
    /// decision through the oracle on a clone and demands the same
    /// verdict; returns the oracle's state for `commit` to compare.
    fn oracle(&mut self, result: &WorkResult, verdict: VerifyOutcome) -> Option<MachineState> {
        if !self.unit.config.cross_check_commits {
            return None;
        }
        self.flush();
        let mut shadow = self.arch.clone();
        let oracle_verdict = verify_and_commit(&mut shadow, &result.task, result.end);
        assert_eq!(
            verdict, oracle_verdict,
            "threaded fast path diverged from verify_and_commit oracle on task {}",
            result.task.id.0
        );
        Some(shadow)
    }

    /// Commits the oldest task: its writes join the commit log and the
    /// committed view, the master is told, and a ready hot-swap installs.
    fn commit(
        &mut self,
        result: WorkResult,
        rechecked: u64,
        end_pc: u64,
        halted: bool,
        shadow: Option<MachineState>,
    ) -> Result<(), ThreadedError> {
        let WorkResult { mut task, view, .. } = result;
        self.unit.commit(&task, rechecked);
        let stats = &mut self.unit.stats;
        stats.live_ins_skipped += (task.live_ins.len() as u64).saturating_sub(rechecked);
        if rechecked == 0 {
            stats.pre_verified_tasks += 1;
        }
        self.pending_cells += task.writes.len();
        self.folded.superimpose_in_place(&task.writes);
        self.log.push(std::mem::take(&mut task.writes));
        self.arena.put(std::mem::take(&mut task.live_ins));
        self.arena.put(view);
        self.virt_pc = end_pc;
        if let Some(shadow) = &shadow {
            self.flush();
            assert_eq!(
                &self.arch, shadow,
                "threaded fast path committed state diverged from oracle"
            );
        }
        let committed = CtrlMsg::Committed {
            gen: self.epoch,
            task_id: task.id.0,
        };
        if self.ctrl_tx.send(committed).is_err() {
            return Err(ThreadedError::WorkerDied);
        }
        if self.log.seq() - self.base_seq >= MAX_PENDING_DELTAS
            || self.pending_cells >= MAX_PENDING_CELLS
        {
            self.flush();
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
        // `arch` must carry every commit before the unit reads it: the
        // predictor may train only on verified architected truth.
        self.flush();
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
        self.flush();
        while recover && !self.halted {
            let (executed, halted) =
                RecoverySegment::run(self.unit, self.original, &mut self.arch, &self.rules)?;
            self.virt_pc = self.arch.pc();
            self.halted = halted;
            if self.unit.recovered(executed) == AfterRecovery::RestartMaster {
                break;
            }
        }
        self.log.clear_window(&mut self.arena);
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

    /// Materializes a fresh base snapshot from the (flushed) architected
    /// state; the committed view starts over empty.
    fn rebase(&mut self) {
        self.base = Arc::new(self.arch.clone());
        self.base_seq = self.log.seq();
        self.folded.clear();
        self.pending_cells = 0;
        self.unit.stats.snapshots_materialized += 1;
    }

    /// (Re)starts the master at the architected PC in the current epoch,
    /// on `swap` if given, else on whatever it currently runs.
    fn send_restart(&mut self, swap: Option<Arc<Distilled>>) -> Result<(), ThreadedError> {
        let restart = CtrlMsg::Restart {
            gen: self.epoch,
            pc: self.virt_pc,
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

    fn delta(pairs: &[(Cell, u64)]) -> Delta {
        pairs.iter().copied().collect()
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
    fn cross_check_mode_agrees_with_oracle_end_to_end() {
        let (p, d) = fixture();
        let cfg = EngineConfig {
            num_slaves: 2,
            cross_check_commits: true,
            ..EngineConfig::default()
        };
        let run = run_threaded(&p, &d, cfg).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
    }

    #[test]
    fn fast_path_skips_live_ins_and_publishes_deltas() {
        let (p, d) = fixture();
        let run = run_threaded(&p, &d, EngineConfig::default()).unwrap();
        // Live-ins resolved from the unchanging base (e.g. SP) are proven
        // by pre-verification and never re-checked.
        assert!(run.stats.live_ins_skipped > 0, "{:?}", run.stats);
        // Most commits ride the log; snapshots only at thresholds.
        assert!(run.stats.deltas_published > 0, "{:?}", run.stats);
        assert!(
            run.stats.snapshots_materialized < run.stats.committed_tasks,
            "{:?}",
            run.stats
        );
        assert!(run.stats.recheck_ratio() < 1.0, "{:?}", run.stats);
    }

    #[test]
    fn commit_log_is_a_sliding_window_with_monotonic_seq() {
        let mut arena = DeltaArena::new();
        let mut log = CommitLog::default();
        assert_eq!(log.seq(), 0);
        log.push(delta(&[(Cell::Mem(0), 1)]));
        log.push(delta(&[(Cell::Mem(1), 2)]));
        log.push(delta(&[(Cell::Mem(2), 3)]));
        assert_eq!(log.seq(), 3);
        assert_eq!(log.suffix(1).count(), 2);
        log.compact(2, &mut arena);
        assert_eq!(log.seq(), 3); // seq unaffected by compaction
        assert_eq!(log.suffix(2).count(), 1);
        assert_eq!(arena.pooled(), 2, "compacted entries return to the pool");
        log.clear_window(&mut arena);
        assert_eq!(log.seq(), 3);
        assert_eq!(log.suffix(3).count(), 0);
        assert_eq!(arena.pooled(), 3);
    }

    #[test]
    fn stale_preverify_summary_is_rechecked_never_trusted() {
        // A task pre-verified at sequence 0; afterwards a commit wrote
        // one of its live-in cells. The clean summary must not be
        // trusted for that cell.
        let live_ins: Delta = [(Cell::Mem(1), 5), (Cell::Reg(Reg::A0), 2)]
            .into_iter()
            .collect();
        let mut log = CommitLog::default();
        log.push(delta(&[(Cell::Mem(1), 9)])); // conflicting commit, seq 0
        assert_eq!(
            cells_to_recheck(&live_ins, &[], &log, 0),
            vec![Cell::Mem(1)],
            "summary older than a conflicting commit must be re-checked"
        );
        // A summary taken *after* that commit saw it: nothing to re-check.
        assert!(cells_to_recheck(&live_ins, &[], &log, 1).is_empty());
        // Worker-reported failures are re-checked regardless of staleness.
        assert_eq!(
            cells_to_recheck(&live_ins, &[Cell::Reg(Reg::A0)], &log, 1),
            vec![Cell::Reg(Reg::A0)]
        );
        // Both sources merge, sorted and deduplicated.
        let both = cells_to_recheck(&live_ins, &[Cell::Mem(1), Cell::Reg(Reg::A0)], &log, 0);
        assert_eq!(both, vec![Cell::Reg(Reg::A0), Cell::Mem(1)]);
    }

    #[test]
    fn window_pruned_past_task_forces_full_recheck() {
        // Regression: a task spawned at seq 0, then the window is
        // compacted to start = 2 — dropping a seq-1 commit that wrote one
        // of the task's live-ins. The old `saturating_sub` clamped the
        // suffix probe to the window head, found no intersection in the
        // *retained* entries, and trusted a summary that never saw the
        // conflicting commit.
        let live_ins: Delta = [(Cell::Mem(1), 5), (Cell::Reg(Reg::A0), 2)]
            .into_iter()
            .collect();
        let mut arena = DeltaArena::new();
        let mut log = CommitLog::default();
        log.push(delta(&[(Cell::Mem(7), 1)])); // seq 0: disjoint
        log.push(delta(&[(Cell::Mem(1), 9)])); // seq 1: conflicts!
        log.push(delta(&[(Cell::Mem(8), 2)])); // seq 2: disjoint
        log.compact(2, &mut arena); // prune past the in-flight task

        // seq 0 predates the window: every live-in must be re-checked
        // even though the retained suffix intersects none of them.
        assert_eq!(
            cells_to_recheck(&live_ins, &[], &log, 0),
            vec![Cell::Reg(Reg::A0), Cell::Mem(1)],
            "a spawn seq below the window start demands a full re-check"
        );
        // At the window start the precise suffix probe still applies.
        assert!(cells_to_recheck(&live_ins, &[], &log, 2).is_empty());
    }

    #[test]
    fn pre_verify_resolves_view_over_base() {
        let mut base = MachineState::new();
        base.store_word(1, 10);
        base.store_word(2, 20);
        let view: Delta = [(Cell::Mem(2), 22)].into_iter().collect();
        // Live-ins matching view-over-base pass.
        let ok: Delta = [(Cell::Mem(1), 10), (Cell::Mem(2), 22)]
            .into_iter()
            .collect();
        assert!(pre_verify(&ok, Some(&view), &base).is_empty());
        // A live-in holding the *base* value of a view-overridden cell
        // fails: the task could not have read 20 from this view.
        let stale: Delta = [(Cell::Mem(2), 20)].into_iter().collect();
        assert_eq!(pre_verify(&stale, Some(&view), &base), vec![Cell::Mem(2)]);
        assert!(pre_verify(&stale, None, &base).is_empty());
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
