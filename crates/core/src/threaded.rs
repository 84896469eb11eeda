//! The threaded MSSP executor: the protocol on real OS threads.
//!
//! The discrete-time [`crate::Engine`] is the reference driver of the
//! protocol core in `protocol.rs` — deterministic and cost-model-driven.
//! This module is the other driver. Each slave runs on its own OS thread,
//! and the calling thread becomes the [`Coordinator`]: it owns the master
//! and interleaves master slices with draining worker results, deciding
//! them in order and dispatching the master's spawns, as `Engine` does in
//! virtual time. A run therefore takes `num_slaves` worker threads plus
//! the caller's. The coordinator turns results into `CommitUnit` events
//! (spawn, commit, squash, recovered, swap) and the unit's answers into
//! epoch bumps; an adaptive run recompiles on it too, at the requesting
//! task boundary, as `Engine` does. It decides *when*; what each event
//! means, for the counters and for the master, is written once, in the
//! core. Where tasks end is the core's too: workers run each task under
//! the commit unit's segment rules, built once from the offline
//! distillation, and the coordinator hands them over as they are.
//! DESIGN.md §6a-§6c carry the full arguments for what is summarized here.
//!
//! # Contention-free hot path
//!
//! The steady-state dispatch/execute/commit cycle takes **no mutex**, and
//! its heap traffic is a handful of small allocations per committed task
//! (`alloc.per_committed_task` in the benchmark ledger; `tests/alloc_budget.rs`
//! bounds it), none of them sized by machine state. Each worker owns a
//! bounded SPSC ring ([`crate::ring::spsc`]) the coordinator dispatches
//! into; results and thread obituaries flow back through one bounded MPSC
//! ring ([`crate::ring::mpsc`]). Dispatch and draining are batched. Task
//! live-in/write buffers and the shipped committed view are plain
//! [`Delta`]s cycled through a [`DeltaArena`], travelling inside the
//! work/result messages.
//!
//! # One verdict, incremental snapshot publishing
//!
//! The coordinator's protocol core owns architected state, keeps it
//! eagerly applied, and the coordinator decides the oldest finished task with [`verify_and_commit`] — the call
//! `Engine::act_verify` makes, and the only verdict function there is.
//! Workers just run the segment.
//!
//! What a committed task costs beyond the oracle is publishing it: its
//! write [`Delta`] is folded into a running committed view that every
//! spawn gets a pooled clone of, layered over an immutable
//! `Arc<MachineState>` base; a full snapshot is materialized only past a
//! length/size threshold or at the first dispatch after a recovery.
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
use crate::protocol::{verify_and_commit, CommitUnit, EngineStats, SquashReason, VerifyOutcome};
use crate::ring::{self, MpscReceiver, MpscSender, SpscReceiver, SpscSender};
use crate::task::{SegmentRules, Task, TaskEnd};
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

/// Result messages popped per coordinator drain.
const DRAIN_BATCH: usize = 64;

/// Master instructions or spawns per slice between two drains.
const MASTER_SLICE: usize = 128;

/// How a threaded run can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// The protocol itself failed — see [`EngineError`]: a recovery fault,
    /// or [`EngineConfig::max_instrs`] spent.
    Engine(EngineError),
    /// A worker thread died (panicked) mid-run.
    ///
    /// A panic on the calling thread — in the master, the oracle, the
    /// coordinator or the recompiler — is not an error: it unwinds
    /// out of [`run_threaded`] or [`run_threaded_adaptive`] once every
    /// thread the run spawned has been joined, as a panic inside
    /// [`crate::Engine::run`] does.
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

/// Everything the coordinator can hear from a worker: a result, or that
/// the worker died.
enum CoordMsg {
    Result(WorkResult),
    ThreadDied,
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

/// The tasks in flight and the instructions the finished ones ran.
fn in_flight_work(in_flight: &VecDeque<u64>, done: &[(u64, WorkResult)]) -> (u64, u64) {
    let executed = done.iter().map(|(_, r)| r.task.executed).sum();
    (in_flight.len() as u64, executed)
}

/// Returns a result's delta buffers to the arena (stale epoch, squash).
fn recycle_result(arena: &mut DeltaArena, r: WorkResult) {
    let WorkResult { mut task, view, .. } = r;
    arena.put(view);
    arena.put(std::mem::take(&mut task.live_ins));
    arena.put(std::mem::take(&mut task.writes));
}

/// Runs the MSSP protocol with `config.num_slaves` worker threads; the
/// calling thread runs the master and the verify/commit coordinator.
///
/// # Errors
///
/// Returns [`ThreadedError::Engine`] if the original program faults
/// during non-speculative recovery or the run spends
/// [`EngineConfig::max_instrs`], and [`ThreadedError::WorkerDied`] if a
/// worker thread panics.
///
/// # Panics
///
/// A panic on the calling thread propagates once every worker is joined;
/// [`ThreadedError::WorkerDied`] has the whole contract.
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
/// profile (callers wire it to `mssp-lint`'s `validated_recompiler`, so
/// every installed program passed the soundness gate). Candidates are
/// installed at commit/recovery task boundaries by bumping the squash
/// epoch — in-flight speculation is abandoned exactly like a squash, and
/// the master restarts on the new program from architected state.
///
/// Recompilation runs inline on the coordinator at the requesting task
/// boundary, as in [`crate::Engine`], so both drivers install the same
/// swaps at the same commit points.
///
/// # Errors
///
/// Same as [`run_threaded`].
///
/// # Panics
///
/// A panicking recompiler propagates once every worker is joined;
/// [`ThreadedError::WorkerDied`] has the whole contract.
pub fn run_threaded_adaptive(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
    controller: AdaptiveController,
    recompiler: Recompiler,
) -> Result<ThreadedRun, ThreadedError> {
    run_threaded_inner(original, distilled, config, Some((controller, recompiler)))
}

fn run_threaded_inner(
    original: &Program,
    distilled: &Distilled,
    config: EngineConfig,
    adaptive: Option<(AdaptiveController, Recompiler)>,
) -> Result<ThreadedRun, ThreadedError> {
    let start_time = std::time::Instant::now();
    let current_epoch = AtomicU64::new(0);
    let mut unit = CommitUnit::new(original, distilled, config);
    if let Some((ctl, rec)) = adaptive {
        unit.enable_adaptive(ctl, rec);
    }
    let rules = unit.rules;
    let (coordinator, work_rxs, coord_tx) = Coordinator::new(&current_epoch, unit);

    std::thread::scope(|scope| -> Result<ThreadedRun, ThreadedError> {
        let mut threads = Vec::with_capacity(config.num_slaves);
        let word_granular = config.word_granular_live_ins;
        for mut work_rx in work_rxs {
            let coord_tx = coord_tx.clone();
            let current_epoch = &current_epoch;
            threads.push(scope.spawn(move || {
                let _guard = DeadManSwitch {
                    tx: coord_tx.clone(),
                };
                let rx = &mut work_rx;
                worker_loop(original, rules, word_granular, current_epoch, rx, &coord_tx);
            }));
        }
        drop(coord_tx); // coordinator keeps only the receiver

        // A panic in here unwinds through the coordinator, dropping its
        // rings: the workers see them close and exit, and the scope joins
        // them before re-raising it.
        let (outcome, stats, adaptive) = coordinator.run();
        // Joining consumes a thread's panic, so the scope does not re-raise it.
        let mut thread_died = false;
        for handle in threads {
            thread_died |= handle.join().is_err();
        }
        let state = outcome?;
        if thread_died {
            return Err(ThreadedError::WorkerDied);
        }
        Ok(ThreadedRun {
            state,
            stats,
            elapsed: start_time.elapsed(),
            adaptive,
        })
    })
}

/// Worker thread body: execute tasks against their dispatch-time view,
/// recording live-ins whole words at a time if `word_granular`.
/// The loop is allocation-free: every buffer it touches arrives in the
/// work item and leaves in the result.
fn worker_loop(
    original: &Program,
    rules: SegmentRules<'_>,
    word_granular: bool,
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
        let end =
            task.run_segment_with_view(original, &base, committed, &rules, word_granular, || {
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

/// The verify/commit coordinator, the threaded driver of the protocol
/// core: steps the core's master, dispatches its spawns to workers, and
/// presents their results to [`verify_and_commit`] in spawn order.
struct Coordinator<'a> {
    current_epoch: &'a AtomicU64,
    work_txs: Vec<SpscSender<WorkItem>>,
    coord_rx: MpscReceiver<CoordMsg>,
    /// The protocol core: architected state, the master, statistics.
    unit: CommitUnit<'a>,
    /// The speculation window: at most this many tasks in flight.
    window: usize,

    /// Last materialized snapshot of architected state, shared with every
    /// dispatch.
    base: Arc<MachineState>,
    /// Whether recovery has moved architected state past `base`; the next
    /// dispatch rebases first.
    base_stale: bool,
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
    halted: bool,
}

impl<'a> Coordinator<'a> {
    /// A coordinator booted at the original program's entry, with the
    /// worker ends of its rings: one task receiver per slave, and the
    /// result sender they share.
    fn new(
        current_epoch: &'a AtomicU64,
        mut unit: CommitUnit<'a>,
    ) -> (Self, Vec<SpscReceiver<WorkItem>>, MpscSender<CoordMsg>) {
        let slaves = unit.config.num_slaves;
        // Sized far above the speculation window so workers never meet a
        // full result ring in practice.
        let (coord_tx, coord_rx) = ring::mpsc((slaves * 8).max(1024));
        let (work_txs, work_rxs): (Vec<_>, Vec<_>) =
            (0..slaves).map(|_| ring::spsc(WORK_RING_CAP)).unzip();
        unit.stats.snapshots_materialized += 1;
        let coordinator = Coordinator {
            current_epoch,
            outbox: work_txs.iter().map(|_| VecDeque::new()).collect(),
            work_txs,
            coord_rx,
            base: Arc::new(unit.arch.clone()),
            base_stale: false,
            unit,
            window: slaves * 2,
            folded: Delta::new(),
            pending_deltas: 0,
            pending_cells: 0,
            epoch: 0,
            in_flight: VecDeque::new(),
            done: Vec::new(),
            inbox: Vec::with_capacity(DRAIN_BATCH),
            next_worker: 0,
            halted: false,
        };
        (coordinator, work_rxs, coord_tx)
    }

    /// Runs the protocol to architectural halt, then shuts down:
    /// stragglers abandon at their next epoch poll, and the rings drop,
    /// which ends the worker loops.
    /// Returns the final state (or why there is none), the statistics and
    /// the adaptive report.
    fn run(
        mut self,
    ) -> (
        Result<MachineState, ThreadedError>,
        EngineStats,
        Option<AdaptiveReport>,
    ) {
        let outcome = self.run_to_halt();
        // why: Relaxed; the epoch is an advisory abandon hint — correctness
        // comes from the epoch tag carried inside each message, and the
        // ring close is what actually ends the loops.
        self.current_epoch.store(u64::MAX, Ordering::Relaxed);
        let (state, stats, adaptive) = self.unit.finish();
        (outcome.map(|()| state), stats, adaptive)
    }

    fn run_to_halt(&mut self) -> Result<(), ThreadedError> {
        while !self.halted {
            let master_can_act = self.unit.master_can_act(self.in_flight.len() < self.window);
            if !master_can_act && self.in_flight.is_empty() {
                // Starved: the master cannot act and nothing is in flight.
                self.recover()?;
                continue;
            }
            self.drain(!master_can_act)?;

            // Verify/commit in order.
            while let Some(&oldest_id) = self.in_flight.front() {
                let Some(pos) = self.done.iter().position(|&(id, _)| id == oldest_id) else {
                    break;
                };
                let (_, result) = self.done.swap_remove(pos);
                self.in_flight.pop_front();
                match verify_and_commit(&mut self.unit.arch, &result.task, result.end) {
                    VerifyOutcome::Commit { halted, .. } => self.commit(result, halted)?,
                    VerifyOutcome::Squash(reason) => self.squash(reason, result)?,
                }
                if self.halted {
                    return Ok(());
                }
            }

            for _ in 0..MASTER_SLICE {
                if !self.unit.master_can_act(self.in_flight.len() < self.window) {
                    break;
                }
                if self.unit.spawn_pending() {
                    self.dispatch();
                } else {
                    self.unit.step_master();
                }
            }
            // One ring publish per worker per loop. A short send (full
            // ring) keeps the unsent tasks queued for the next loop instead
            // of blocking here or dropping them; a full ring means that
            // worker already holds a ring-capacity backlog, so its next
            // result is guaranteed to wake a blocked drain for the retry.
            flush_outboxes(&mut self.outbox, &mut self.work_txs)?;
        }
        Ok(())
    }

    /// Receives one batch of results. With `block`, waits for the first:
    /// the master cannot act and the oldest task is in flight but not
    /// finished (the in-order loop leaves no finished oldest behind), so
    /// its result — or a worker's obituary — is on its way.
    fn drain(&mut self, block: bool) -> Result<(), ThreadedError> {
        let mut inbox = std::mem::take(&mut self.inbox);
        if block {
            let msg = self.coord_rx.recv();
            inbox.push(msg.map_err(|_| ThreadedError::WorkerDied)?);
        }
        let room = DRAIN_BATCH - inbox.len();
        self.coord_rx.recv_batch(&mut inbox, room);
        for msg in inbox.drain(..) {
            let CoordMsg::Result(r) = msg else {
                return Err(ThreadedError::WorkerDied);
            };
            self.unit.stats.slave_instructions += r.task.executed;
            if r.epoch == self.epoch {
                self.done.push((r.task.id.0, r));
            } else {
                recycle_result(&mut self.unit.arena, r);
            }
        }
        self.inbox = inbox;
        Ok(())
    }

    /// Turns the master's pending spawn into a task and queues it for the
    /// next worker, round-robin, with the current committed view.
    fn dispatch(&mut self) {
        if self.base_stale {
            self.rebase();
        }
        let (task, _) = self.unit.spawn(self.next_worker);
        self.in_flight.push_back(task.id.0);
        let mut view = self.unit.arena.take();
        view.clone_from(&self.folded);
        self.outbox[self.next_worker].push_back(WorkItem {
            epoch: self.epoch,
            base: Arc::clone(&self.base),
            view,
            task,
        });
        self.next_worker = (self.next_worker + 1) % self.work_txs.len();
    }

    /// The oldest task passed the oracle and its writes are architected:
    /// they join the committed view, and a ready hot-swap installs. The
    /// view is current then, so a swap abandons only the old program's
    /// speculation.
    fn commit(&mut self, result: WorkResult, halted: bool) -> Result<(), ThreadedError> {
        self.unit.commit(&result.task)?;
        self.pending_deltas += 1;
        self.pending_cells += result.task.writes.len();
        self.folded.superimpose_in_place(&result.task.writes);
        recycle_result(&mut self.unit.arena, result);
        if self.pending_deltas >= MAX_PENDING_DELTAS || self.pending_cells >= MAX_PENDING_CELLS {
            self.rebase();
        } else {
            self.unit.stats.deltas_published += 1;
        }
        if halted {
            self.halted = true;
            return Ok(());
        }
        let (in_flight, done) = (&self.in_flight, &self.done);
        if self.unit.swap(|| in_flight_work(in_flight, done)) {
            self.abandon();
        }
        Ok(())
    }

    /// Squashes the oldest task and everything younger, then recovers.
    fn squash(&mut self, reason: SquashReason, result: WorkResult) -> Result<(), ThreadedError> {
        let (younger, executed) = in_flight_work(&self.in_flight, &self.done);
        let dying = (younger + 1, executed + result.task.executed);
        self.unit.squash(reason, &result.task, dying);
        recycle_result(&mut self.unit.arena, result);
        self.abandon();
        self.recover()
    }

    /// Ends the speculation epoch: bumps it, so nothing from the old
    /// master leaks into the next one's run, and discards the work in
    /// flight.
    fn abandon(&mut self) {
        self.epoch += 1;
        // why: Relaxed; advisory abandon hint — stale results are filtered
        // by their message epoch tag regardless.
        self.current_epoch.store(self.epoch, Ordering::Relaxed);
        self.in_flight.clear();
        for (_, r) in self.done.drain(..) {
            recycle_result(&mut self.unit.arena, r);
        }
    }

    /// Runs one recovery segment from architected state, with the window
    /// empty, and marks the snapshot stale: the next dispatch rebases it,
    /// so segments that dispatch nothing (no slave, or a throttled master)
    /// build none. The unit then restarts the master, or keeps it offline
    /// while throttled, and starvation runs the next segment.
    fn recover(&mut self) -> Result<(), ThreadedError> {
        let (executed, halted) = self.unit.recover(|_| {})?;
        self.halted = halted;
        self.base_stale = true;
        self.unit.recovered(executed, halted)?;
        Ok(())
    }

    /// Materializes a fresh base snapshot from architected state; the
    /// committed view starts over empty.
    fn rebase(&mut self) {
        self.base = Arc::new(self.unit.arch.clone());
        self.folded.clear();
        self.pending_deltas = 0;
        self.pending_cells = 0;
        self.base_stale = false;
        self.unit.stats.snapshots_materialized += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::UnitCost;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, redistill, DistillConfig};
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
    /// the live profile.
    fn test_recompiler(p: &Program, d: &Distilled) -> Recompiler {
        let program = p.clone();
        let dcfg = DistillConfig::default();
        let pin = d.segmentation().clone();
        Box::new(move |profile| {
            redistill(&program, profile, &dcfg, &pin).map_err(|e| e.to_string())
        })
    }

    #[test]
    fn adaptive_stationary_run_recompiles_nothing() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let ctl = AdaptiveController::new(AdaptiveConfig::default(), &profile);
        // A recompiler that must never run: stationary behaviour matching
        // the training profile gives the controller no reason to act.
        let rec: Recompiler = Box::new(|_| Err("recompiled a stationary run".into()));
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        let report = run.adaptive.expect("adaptive run carries a report");
        assert_eq!(report.recompile_failures, 0, "{report:?}");
        assert_eq!(run.stats.swaps_installed, 0, "{:?}", run.stats);
    }

    #[test]
    fn adaptive_forced_swap_installs_and_preserves_state() {
        let (p, d) = fixture();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let config = AdaptiveConfig {
            force_swap_at: vec![5, 10],
        };
        let ctl = AdaptiveController::new(config, &profile);
        let rec = test_recompiler(&p, &d);
        let run = run_threaded_adaptive(&p, &d, EngineConfig::default(), ctl, rec).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert_eq!(run.stats.swaps_installed, 2, "{:?}", run.stats);
        let report = run.adaptive.unwrap();
        assert_eq!(report.swaps.len(), 2);
        assert_eq!(report.swaps[0].at_committed_tasks, 5);
        assert_eq!(report.swaps[1].at_committed_tasks, 10);
    }

    #[test]
    fn worker_panic_surfaces_as_worker_died() {
        let (tx, mut rx) = ring::mpsc(8);
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

    /// A controller that asks for a recompile after five commits, and a
    /// recompiler that panics when asked.
    fn exploding_recompiler(p: &Program) -> (AdaptiveController, Recompiler) {
        let profile = Profile::collect(p, u64::MAX).unwrap();
        let config = AdaptiveConfig {
            force_swap_at: vec![5],
        };
        let rec: Recompiler = Box::new(|_| panic!("recompiler exploded"));
        (AdaptiveController::new(config, &profile), rec)
    }

    /// A panic on the calling thread is the caller's own panic, raised
    /// again once the run's threads are joined: the call returns (no
    /// hang) and the payload is the recompiler's, not the scope's.
    #[test]
    fn recompiler_panic_propagates_to_the_caller() {
        let (p, d) = fixture();
        let (ctl, rec) = exploding_recompiler(&p);
        let cfg = EngineConfig {
            num_slaves: 2,
            ..EngineConfig::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_threaded_adaptive(&p, &d, cfg, ctl, rec)
        }));
        let payload = caught.expect_err("the recompiler's panic unwinds");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"recompiler exploded"));
    }

    #[test]
    fn threaded_error_formats_and_converts() {
        let state = Box::new(MachineState::new());
        let budget = EngineError::Budget { retired: 7, state };
        let e: ThreadedError = budget.clone().into();
        assert_eq!(e, ThreadedError::Engine(budget));
        assert!(e.to_string().contains("budget spent after 7"));
        assert!(ThreadedError::WorkerDied.to_string().contains("worker"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ThreadedError::WorkerDied.source().is_none());
    }
}
