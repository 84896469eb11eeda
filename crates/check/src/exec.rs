//! The model-checking runtime: one *execution* runs the harness closure on
//! real OS threads, but a baton-passing scheduler ensures exactly one model
//! thread runs at a time and every shim operation is a schedule point.
//!
//! ## How control flows
//!
//! Every shim operation calls [`with_op`]: the thread declares its pending
//! operation, a *scheduling decision* picks which declared thread executes
//! next (recorded as a [`Decision`] so schedules are replayable), and the
//! granted thread performs its operation under the one global lock, then
//! keeps running user code until its next shim call. Threads that must wait
//! (park, join) mark themselves blocked and hand the baton on; wakers flip
//! them back to ready.
//!
//! ## How weak memory is modeled
//!
//! Atomics keep a bounded per-location history of stores, each stamped with
//! the storing thread's vector clock and a release clock. A load may observe
//! any store not excluded by coherence (the reader's clock, its own previous
//! reads of the location); when several stores are eligible the choice is a
//! recorded decision, so stale values are *enumerated*, not raced for.
//! Acquire loads join the store's release clock into the reader's clock;
//! relaxed loads park it in `acq_pending` until an acquire fence. SeqCst
//! fences join a global `sc_clock` in both directions — a deliberate
//! over-approximation of C11 (it can introduce extra happens-before edges
//! near SC fences) that exactly captures the Dekker/StoreLoad guarantee the
//! doorbell relies on: of two threads that each store then SC-fence then
//! load, at least one must observe the other's store.
//!
//! Non-atomic accesses ([`crate::shim::cell::UnsafeCell`]) are checked with
//! a FastTrack-style vector-clock race detector instead.

use std::collections::{HashMap, VecDeque};
use std::panic::panic_any;
use std::sync::atomic::{AtomicU32, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::trace::{Decision, DecisionKind, Failure, FailureKind, Trace};
use crate::vc::VClock;
use crate::Config;

pub(crate) use std::sync::atomic::Ordering;

/// Payload used to unwind model threads when an execution ends early
/// (failure found, or the step budget pruned it). Never escapes the crate:
/// every model thread runs under `catch_unwind`.
pub(crate) struct AbortToken;

/// Per-OS-thread handle tying it to the execution it belongs to.
#[derive(Clone)]
pub(crate) struct CtxHandle {
    pub exec: Arc<ExecShared>,
    pub tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<CtxHandle>> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn current_ctx() -> Option<CtxHandle> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(ctx: Option<CtxHandle>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// True when the calling OS thread belongs to a live model execution.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install (once, process-wide) a panic hook that silences panics raised on
/// model threads: abort unwinds and caught harness assertion failures would
/// otherwise spam stderr thousands of times per exploration. Panics on
/// ordinary threads still reach the previously installed hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

static NEXT_GEN: AtomicU32 = AtomicU32::new(1);

/// The lock + condvar every model thread synchronizes through. The condvar
/// is shared (via `Arc`) with [`Exec`] itself so state-mutating methods can
/// wake waiters while the caller still holds the guard.
pub(crate) struct ExecShared {
    pub m: Mutex<Exec>,
    pub cv: Arc<Condvar>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockedOn {
    Park,
    Join(usize),
}

impl BlockedOn {
    fn describe(self) -> &'static str {
        match self {
            BlockedOn::Park => "parked",
            BlockedOn::Join(_) => "joining a thread",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    Blocked(BlockedOn),
    Finished,
}

pub(crate) struct ThreadSt {
    name: String,
    status: Status,
    /// The operation this thread will run when granted; `None` while it is
    /// actively running user code. Only `Ready` threads with a pending op
    /// are schedulable.
    pending: Option<&'static str>,
    clock: VClock,
    /// Clock captured at the last Release (or stronger) fence; becomes the
    /// release clock of subsequent relaxed stores.
    fence_rel: VClock,
    /// Release clocks of stores observed by relaxed loads, held back until
    /// an Acquire (or stronger) fence folds them into `clock`.
    acq_pending: VClock,
    /// Coherence floor per atomic location: the newest store index this
    /// thread has already read (a later load may not go further back).
    last_read: HashMap<u32, u64>,
    park_token: bool,
    token_clock: VClock,
    yielded: bool,
}

impl ThreadSt {
    fn new(name: String, clock: VClock) -> ThreadSt {
        ThreadSt {
            name,
            status: Status::Ready,
            pending: Some("start"),
            clock,
            fence_rel: VClock::default(),
            acq_pending: VClock::default(),
            last_read: HashMap::new(),
            park_token: false,
            token_clock: VClock::default(),
            yielded: false,
        }
    }
}

/// One store in a location's (bounded) modification-order history.
#[derive(Clone, Debug)]
struct Store {
    value: u64,
    /// Position in modification order (monotone per location).
    idx: u64,
    tid: usize,
    stamp: u32,
    /// Clock a reader acquires by observing this store with Acquire.
    rel: VClock,
}

struct AtomicLoc {
    history: VecDeque<Store>,
}

struct CellLoc {
    label: &'static str,
    last_write: Option<(usize, u32)>,
    reads: VClock,
}

enum Loc {
    Atomic(AtomicLoc),
    Cell(CellLoc),
}

struct LeakEntry {
    label: &'static str,
    freed: bool,
}

const OP_LOG_CAP: usize = 48;

/// The full state of one model execution.
pub(crate) struct Exec {
    /// Unique per execution; lets shim objects detect that a cached
    /// location id belongs to a previous execution.
    pub gen: u32,
    max_steps: usize,
    store_history: usize,

    threads: Vec<ThreadSt>,
    active: usize,
    locs: Vec<Loc>,
    sc_clock: VClock,

    /// Choices to replay (DFS prefix or a parsed failing trace).
    prefix: Vec<Decision>,
    /// Choices actually made this execution.
    pub decisions: Vec<Decision>,

    pub steps: usize,
    pub done: bool,
    pub aborting: bool,
    pub pruned: bool,
    pub outcome: Option<Failure>,

    leaks: HashMap<u64, LeakEntry>,
    next_leak_id: u64,
    op_log: VecDeque<(usize, &'static str)>,

    pub os_handles: Vec<std::thread::JoinHandle<()>>,

    cv: Arc<Condvar>,
}

impl ExecShared {
    /// Create an execution primed with `prefix` and a registered main
    /// thread (tid 0) already granted (it starts as soon as its OS thread
    /// checks in).
    pub(crate) fn new(cfg: &Config, prefix: Vec<Decision>) -> Arc<ExecShared> {
        install_quiet_hook();
        let gen = NEXT_GEN.fetch_add(1, StdOrdering::Relaxed);
        let cv = Arc::new(Condvar::new());
        let mut main = ThreadSt::new("main".to_string(), VClock::default());
        main.clock.bump(0);
        Arc::new(ExecShared {
            m: Mutex::new(Exec {
                gen,
                max_steps: cfg.max_steps,
                store_history: cfg.store_history.max(1),
                threads: vec![main],
                active: 0,
                locs: Vec::new(),
                sc_clock: VClock::default(),
                prefix,
                decisions: Vec::new(),
                steps: 0,
                done: false,
                aborting: false,
                pruned: false,
                outcome: None,
                leaks: HashMap::new(),
                next_leak_id: 1,
                op_log: VecDeque::new(),
                os_handles: Vec::new(),
                cv: Arc::clone(&cv),
            }),
            cv,
        })
    }
}

impl Exec {
    // ---- choice recording ------------------------------------------------

    /// Make (or replay) a choice with `options ≥ 2` alternatives. Returns
    /// the chosen index; on replay divergence, records a failure and
    /// returns 0 (the execution is aborting; callers just need *a* valid
    /// index to finish the current operation).
    fn choose(&mut self, kind: DecisionKind, options: u32) -> u32 {
        debug_assert!(options >= 2);
        let idx = self.decisions.len();
        let chosen = if idx < self.prefix.len() {
            let p = self.prefix[idx];
            if p.options != options || p.kind != kind {
                self.fail(
                    FailureKind::NondeterministicReplay,
                    format!(
                        "decision {idx}: recorded {:?} with {} options, \
                         replay hit {:?} with {} options — harness is \
                         nondeterministic outside the model",
                        p.kind, p.options, kind, options
                    ),
                );
                0
            } else {
                p.chosen
            }
        } else {
            // DFS extension past the prefix: always take option 0 (run the
            // current thread / read the newest store).
            0
        };
        self.decisions.push(Decision {
            chosen,
            options,
            kind,
        });
        chosen
    }

    // ---- scheduling ------------------------------------------------------

    /// Pick which declared thread runs next and grant it the baton. Called
    /// by the active thread whenever it arrives at an operation, blocks, or
    /// finishes.
    fn schedule_decision(&mut self) {
        let mut ready: Vec<usize> = (0..self.threads.len())
            .filter(|&t| {
                self.threads[t].status == Status::Ready && self.threads[t].pending.is_some()
            })
            .collect();
        if ready.is_empty() {
            if self.threads.iter().all(|t| t.status == Status::Finished) {
                self.done = true;
                self.cv.notify_all();
            } else {
                let blocked: Vec<String> = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.status {
                        Status::Blocked(b) => Some(format!("`{}` {}", t.name, b.describe())),
                        _ => None,
                    })
                    .collect();
                self.fail(
                    FailureKind::Deadlock,
                    format!(
                        "no thread can make progress: {}",
                        if blocked.is_empty() {
                            "no blocked threads recorded".to_string()
                        } else {
                            blocked.join(", ")
                        }
                    ),
                );
            }
            return;
        }
        // Yield fairness: a thread that called `yield_now` declared it
        // cannot progress; don't reschedule it while a non-yielded thread
        // is runnable. This keeps spin loops finite without losing any
        // schedule in which the spinner's retry could succeed.
        if ready.iter().any(|&t| !self.threads[t].yielded) {
            ready.retain(|&t| !self.threads[t].yielded);
        } else {
            for &t in &ready {
                self.threads[t].yielded = false;
            }
        }
        // Option 0 is "keep running the current thread" when possible, so
        // the DFS default (all-zeros) is the no-preemption schedule.
        let cur = self.active;
        let current_runnable = if let Some(pos) = ready.iter().position(|&t| t == cur) {
            ready.remove(pos);
            ready.insert(0, cur);
            true
        } else {
            false
        };
        let chosen = if ready.len() == 1 {
            0
        } else {
            self.choose(
                DecisionKind::Schedule { current_runnable },
                ready.len() as u32,
            ) as usize
        };
        let next = ready.get(chosen).copied().unwrap_or(ready[0]);
        self.active = next;
        self.cv.notify_all();
    }

    /// Record a failure (first one wins) and begin aborting the execution.
    pub(crate) fn fail(&mut self, kind: FailureKind, message: String) {
        if self.outcome.is_none() {
            let recent_ops = self
                .op_log
                .iter()
                .map(|&(tid, desc)| format!("`{}`: {desc}", self.threads[tid].name))
                .collect();
            self.outcome = Some(Failure {
                kind,
                message,
                trace: Trace {
                    decisions: self.decisions.clone(),
                },
                recent_ops,
            });
        }
        self.aborting = true;
        self.cv.notify_all();
    }

    /// Step budget exhausted: abandon this execution without calling it a
    /// failure. The explorer counts pruned executions in its report.
    fn prune(&mut self) {
        self.pruned = true;
        self.aborting = true;
        self.cv.notify_all();
    }

    fn log_op(&mut self, tid: usize, desc: &'static str) {
        if self.op_log.len() == OP_LOG_CAP {
            self.op_log.pop_front();
        }
        self.op_log.push_back((tid, desc));
    }

    // ---- thread lifecycle ------------------------------------------------

    /// Register a newly spawned model thread; it inherits the parent's
    /// clock (the spawn edge) and waits for a start grant.
    pub(crate) fn register_thread(&mut self, parent: usize) -> usize {
        let tid = self.threads.len();
        let mut clock = self.threads[parent].clock.clone();
        clock.bump(tid);
        self.threads.push(ThreadSt::new(format!("t{tid}"), clock));
        tid
    }

    /// Mark a thread finished and hand the baton on (wakes joiners).
    pub(crate) fn finish_thread(&mut self, tid: usize) {
        self.threads[tid].status = Status::Finished;
        self.threads[tid].pending = None;
        for t in 0..self.threads.len() {
            if self.threads[t].status == Status::Blocked(BlockedOn::Join(tid)) {
                self.threads[t].status = Status::Ready;
                self.threads[t].pending = Some("join-wake");
            }
        }
        if !self.aborting {
            self.schedule_decision();
        } else {
            self.cv.notify_all();
        }
    }

    pub(crate) fn thread_finished(&self, tid: usize) -> bool {
        self.threads[tid].status == Status::Finished
    }

    /// Join edge: the joiner acquires everything the joined thread did.
    pub(crate) fn absorb_thread_clock(&mut self, joiner: usize, joined: usize) {
        let c = self.threads[joined].clock.clone();
        self.threads[joiner].clock.join(&c);
    }

    pub(crate) fn set_yielded(&mut self, tid: usize) {
        self.threads[tid].yielded = true;
    }

    // ---- location registration ------------------------------------------

    pub(crate) fn register_atomic(&mut self, tid: usize, init: u64) -> u32 {
        let id = self.locs.len() as u32;
        // The initial value behaves like a store by the registering thread
        // (first toucher): its release clock is that thread's clock, which
        // precedes every spawn edge out of it, so threads created later can
        // always observe it.
        let rel = self.threads[tid].clock.clone();
        let stamp = rel.get(tid);
        self.locs.push(Loc::Atomic(AtomicLoc {
            history: VecDeque::from([Store {
                value: init,
                idx: 0,
                tid,
                stamp,
                rel,
            }]),
        }));
        id
    }

    pub(crate) fn register_cell(&mut self, label: &'static str) -> u32 {
        let id = self.locs.len() as u32;
        self.locs.push(Loc::Cell(CellLoc {
            label,
            last_write: None,
            reads: VClock::default(),
        }));
        id
    }

    fn atomic(&mut self, loc: u32) -> &mut AtomicLoc {
        match &mut self.locs[loc as usize] {
            Loc::Atomic(a) => a,
            _ => unreachable!("location {loc} is not an atomic"),
        }
    }

    // ---- atomic memory model ---------------------------------------------

    fn is_acquire(ord: Ordering) -> bool {
        matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn is_release(ord: Ordering) -> bool {
        matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    /// An atomic load: choose (as a recorded decision) which store in the
    /// location's history to observe, subject to coherence.
    pub(crate) fn atomic_load(&mut self, tid: usize, loc: u32, ord: Ordering) -> u64 {
        if ord == Ordering::SeqCst {
            // Over-approximate SC: the load may not observe anything older
            // than what the global SC order has already made visible.
            let sc = self.sc_clock.clone();
            self.threads[tid].clock.join(&sc);
        }
        // Coherence floor: the newest store this thread is *forced* to see —
        // anything its clock already covers, and anything it has already
        // read from this location (read-read coherence).
        let (floor, n_eligible) = {
            let clock = self.threads[tid].clock.clone();
            let last = self.threads[tid].last_read.get(&loc).copied().unwrap_or(0);
            let a = self.atomic(loc);
            let mut floor = a.history.front().map(|s| s.idx).unwrap_or(0);
            for s in &a.history {
                if clock.dominates(s.tid, s.stamp) {
                    floor = floor.max(s.idx);
                }
            }
            floor = floor.max(last);
            let n = a.history.iter().filter(|s| s.idx >= floor).count();
            (floor, n)
        };
        // Option 0 is the newest store; older eligible stores are stale
        // reads, each a recorded decision counted against the bound.
        let pick = if n_eligible > 1 {
            self.choose(DecisionKind::Value, n_eligible as u32) as usize
        } else {
            0
        };
        let (value, idx, rel) = {
            let a = self.atomic(loc);
            let s = a
                .history
                .iter()
                .rev()
                .filter(|s| s.idx >= floor)
                .nth(pick)
                .expect("eligible store disappeared");
            (s.value, s.idx, s.rel.clone())
        };
        self.threads[tid].last_read.insert(loc, idx);
        if Self::is_acquire(ord) {
            self.threads[tid].clock.join(&rel);
        } else {
            self.threads[tid].acq_pending.join(&rel);
        }
        if ord == Ordering::SeqCst {
            let c = self.threads[tid].clock.clone();
            self.sc_clock.join(&c);
        }
        value
    }

    /// An atomic store: appends to modification order; the store's release
    /// clock is what an acquire reader will synchronize with.
    pub(crate) fn atomic_store(&mut self, tid: usize, loc: u32, value: u64, ord: Ordering) {
        if ord == Ordering::SeqCst {
            let sc = self.sc_clock.clone();
            self.threads[tid].clock.join(&sc);
        }
        let rel = if Self::is_release(ord) {
            self.threads[tid].clock.clone()
        } else {
            self.threads[tid].fence_rel.clone()
        };
        let stamp = self.threads[tid].clock.get(tid);
        if ord == Ordering::SeqCst {
            let c = self.threads[tid].clock.clone();
            self.sc_clock.join(&c);
        }
        let cap = self.store_history;
        let a = self.atomic(loc);
        let idx = a.history.back().map(|s| s.idx + 1).unwrap_or(0);
        a.history.push_back(Store {
            value,
            idx,
            tid,
            stamp,
            rel,
        });
        while a.history.len() > cap {
            a.history.pop_front();
        }
        self.threads[tid].last_read.insert(loc, idx);
    }

    /// A read-modify-write. Always reads the *newest* store (RMWs read the
    /// latest value in modification order) and continues its release
    /// sequence. Returns the old value; stores `f(old)` if it is `Some`.
    pub(crate) fn atomic_rmw(
        &mut self,
        tid: usize,
        loc: u32,
        ord: Ordering,
        failure_acquires: bool,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        if ord == Ordering::SeqCst {
            let sc = self.sc_clock.clone();
            self.threads[tid].clock.join(&sc);
        }
        let (old, old_idx, old_rel) = {
            let a = self.atomic(loc);
            let s = a.history.back().expect("atomic history empty");
            (s.value, s.idx, s.rel.clone())
        };
        let new = f(old);
        let success = new.is_some();
        if (success && Self::is_acquire(ord)) || (!success && failure_acquires) {
            self.threads[tid].clock.join(&old_rel);
        } else {
            self.threads[tid].acq_pending.join(&old_rel);
        }
        if let Some(new) = new {
            // Release sequence: the RMW's release clock includes the clock
            // of the store it read from, so an acquire of the RMW's store
            // still synchronizes with the original release.
            let mut rel = if Self::is_release(ord) {
                self.threads[tid].clock.clone()
            } else {
                self.threads[tid].fence_rel.clone()
            };
            rel.join(&old_rel);
            let stamp = self.threads[tid].clock.get(tid);
            let cap = self.store_history;
            let a = self.atomic(loc);
            let idx = old_idx + 1;
            a.history.push_back(Store {
                value: new,
                idx,
                tid,
                stamp,
                rel,
            });
            while a.history.len() > cap {
                a.history.pop_front();
            }
            self.threads[tid].last_read.insert(loc, idx);
        } else {
            self.threads[tid].last_read.insert(loc, old_idx);
        }
        if ord == Ordering::SeqCst {
            let c = self.threads[tid].clock.clone();
            self.sc_clock.join(&c);
        }
        old
    }

    /// A memory fence. SeqCst joins the global SC clock both ways, which is
    /// what makes the doorbell's store→fence→load pattern work in the model.
    pub(crate) fn fence(&mut self, tid: usize, ord: Ordering) {
        assert!(
            ord != Ordering::Relaxed,
            "fence with Relaxed ordering (matches std's panic)"
        );
        if Self::is_acquire(ord) {
            let pend = std::mem::take(&mut self.threads[tid].acq_pending);
            self.threads[tid].clock.join(&pend);
        }
        if ord == Ordering::SeqCst {
            let sc = self.sc_clock.clone();
            self.threads[tid].clock.join(&sc);
            let c = self.threads[tid].clock.clone();
            self.sc_clock.join(&c);
        }
        if Self::is_release(ord) {
            self.threads[tid].fence_rel = self.threads[tid].clock.clone();
        }
    }

    // ---- non-atomic accesses: race detection ----------------------------

    /// Check a non-atomic access against the location's access history
    /// (FastTrack-style): a read races with a non-happens-before write; a
    /// write races with any non-happens-before read or write.
    pub(crate) fn cell_access(&mut self, tid: usize, loc: u32, is_write: bool) {
        let clock = self.threads[tid].clock.clone();
        let stamp = clock.get(tid);
        let me = self.threads[tid].name.clone();
        let (label, conflict) = match &mut self.locs[loc as usize] {
            Loc::Cell(c) => {
                let mut conflict: Option<usize> = None;
                if let Some((wt, ws)) = c.last_write {
                    if wt != tid && !clock.dominates(wt, ws) {
                        conflict = Some(wt);
                    }
                }
                if is_write && conflict.is_none() {
                    for (rt, rs) in c.reads.iter() {
                        if rt != tid && !clock.dominates(rt, rs) {
                            conflict = Some(rt);
                            break;
                        }
                    }
                }
                if conflict.is_none() {
                    if is_write {
                        c.last_write = Some((tid, stamp));
                        c.reads = VClock::default();
                    } else {
                        let prev = c.reads.get(tid);
                        c.reads.set(tid, prev.max(stamp));
                    }
                }
                (c.label, conflict)
            }
            _ => unreachable!("location {loc} is not a cell"),
        };
        if let Some(other) = conflict {
            let other_name = self.threads[other].name.clone();
            self.fail(
                FailureKind::DataRace,
                format!(
                    "`{me}` {} `{label}` concurrently with `{other_name}` \
                     (no happens-before edge between the accesses)",
                    if is_write { "writes" } else { "reads" },
                ),
            );
        }
    }

    // ---- park / unpark ---------------------------------------------------

    /// Consume the park token if present; returns false when the caller
    /// must block.
    pub(crate) fn try_consume_park_token(&mut self, tid: usize) -> bool {
        if self.threads[tid].park_token {
            self.threads[tid].park_token = false;
            let tc = self.threads[tid].token_clock.clone();
            self.threads[tid].clock.join(&tc);
            true
        } else {
            false
        }
    }

    /// Make the target's token available and wake it if parked. The token
    /// carries the caller's clock: `unpark` synchronizes-with the `park`
    /// that consumes it (matching std's documented guarantee).
    pub(crate) fn unpark(&mut self, tid: usize, target: usize) {
        let c = self.threads[tid].clock.clone();
        self.threads[target].park_token = true;
        self.threads[target].token_clock.join(&c);
        if self.threads[target].status == Status::Blocked(BlockedOn::Park) {
            self.threads[target].status = Status::Ready;
            self.threads[target].pending = Some("unparked");
        }
    }

    // ---- leak accounting -------------------------------------------------

    /// Register a tracked allocation; returns its id.
    pub(crate) fn leak_alloc(&mut self, label: &'static str) -> u64 {
        let id = self.next_leak_id;
        self.next_leak_id += 1;
        self.leaks.insert(
            id,
            LeakEntry {
                label,
                freed: false,
            },
        );
        id
    }

    /// Record a drop of a tracked allocation; a second drop of the same id
    /// is a double free (a slot recycled while still owned).
    pub(crate) fn leak_free(&mut self, id: u64) {
        match self.leaks.get_mut(&id) {
            Some(e) if !e.freed => e.freed = true,
            Some(e) => {
                let label = e.label;
                self.fail(
                    FailureKind::DoubleFree,
                    format!("tracked value `{label}` (id {id}) dropped twice"),
                );
            }
            None => {}
        }
    }

    /// Called by the driver after a clean finish: any live tracked value is
    /// a leak.
    pub(crate) fn check_leaks(&mut self) {
        let mut live: Vec<(u64, &'static str)> = self
            .leaks
            .iter()
            .filter(|(_, e)| !e.freed)
            .map(|(&id, e)| (id, e.label))
            .collect();
        if live.is_empty() {
            return;
        }
        live.sort_unstable();
        let list: Vec<String> = live
            .iter()
            .map(|(id, label)| format!("`{label}` (id {id})"))
            .collect();
        self.fail(
            FailureKind::Leak,
            format!(
                "{} tracked value(s) never dropped: {}",
                live.len(),
                list.join(", ")
            ),
        );
    }
}

// ---- the operation wrapper ----------------------------------------------

/// Borrow of the execution taken by a granted operation. Provides the
/// blocking primitive on top of `Exec`'s pure state transitions.
pub(crate) struct OpCtx<'a> {
    shared: &'a ExecShared,
    guard: Option<MutexGuard<'a, Exec>>,
    pub tid: usize,
}

impl<'a> OpCtx<'a> {
    /// Access the execution state (the guard is always held between waits).
    pub(crate) fn ex(&mut self) -> &mut Exec {
        self.guard.as_mut().expect("guard held")
    }

    /// Block the calling thread on `on`, hand the baton away, and return
    /// once a waker has made it ready *and* the scheduler has granted it
    /// again. Callers must re-check their wait condition afterwards.
    pub(crate) fn block(&mut self, on: BlockedOn) {
        let tid = self.tid;
        {
            let ex = self.ex();
            ex.threads[tid].status = Status::Blocked(on);
            ex.threads[tid].pending = Some("resume");
            ex.schedule_decision();
        }
        let mut g = self.guard.take().expect("guard held");
        loop {
            if g.aborting {
                drop(g);
                panic_any(AbortToken);
            }
            if g.threads[tid].status == Status::Ready && g.active == tid {
                break;
            }
            g = self
                .shared
                .cv
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
        g.threads[tid].pending = None;
        g.threads[tid].yielded = false;
        // A resume is an event of its own.
        g.steps += 1;
        g.threads[tid].clock.bump(tid);
        self.guard = Some(g);
    }

    /// Park until the token is available (models `std::thread::park`; no
    /// spurious wakeups — see the crate docs for why that is sound here).
    pub(crate) fn park(&mut self) {
        let tid = self.tid;
        while !self.ex().try_consume_park_token(tid) {
            self.block(BlockedOn::Park);
        }
    }

    /// Wait until `target` finishes, then absorb its clock (join edge).
    pub(crate) fn join_thread(&mut self, target: usize) {
        let tid = self.tid;
        while !self.ex().thread_finished(target) {
            self.block(BlockedOn::Join(target));
        }
        self.ex().absorb_thread_clock(tid, target);
    }
}

/// Run one shim operation on the model, or return `None` when the caller
/// should fall through to the real std implementation (not a model thread,
/// or currently unwinding from an abort).
pub(crate) fn with_op<R>(desc: &'static str, f: impl FnOnce(&mut OpCtx<'_>) -> R) -> Option<R> {
    let ctx = current_ctx()?;
    if std::thread::panicking() {
        // Unwinding (typically from an AbortToken): perform cleanup against
        // the real std state so destructors stay sound, without touching
        // the (aborting) model.
        return None;
    }
    let tid = ctx.tid;
    let shared = &*ctx.exec;
    let mut g = lock_ignore_poison(&shared.m);
    if g.aborting {
        drop(g);
        panic_any(AbortToken);
    }
    g.threads[tid].pending = Some(desc);
    g.schedule_decision();
    while !(g.aborting || g.active == tid) {
        g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
    if g.aborting {
        drop(g);
        panic_any(AbortToken);
    }
    g.threads[tid].pending = None;
    g.threads[tid].yielded = false;
    g.steps += 1;
    if g.steps > g.max_steps {
        g.prune();
        drop(g);
        panic_any(AbortToken);
    }
    g.threads[tid].clock.bump(tid);
    g.log_op(tid, desc);
    let mut op = OpCtx {
        shared,
        guard: Some(g),
        tid,
    };
    Some(f(&mut op))
}

/// Entry point for a model thread's OS thread: wait for the start grant,
/// run the body, record the result, and hand the baton on.
pub(crate) fn run_model_thread<T>(
    exec: Arc<ExecShared>,
    tid: usize,
    body: impl FnOnce() -> T + std::panic::UnwindSafe,
    result: &Mutex<Option<std::thread::Result<T>>>,
) {
    set_ctx(Some(CtxHandle {
        exec: Arc::clone(&exec),
        tid,
    }));
    // Wait for the start grant.
    let started = {
        let mut g = lock_ignore_poison(&exec.m);
        loop {
            if g.aborting {
                break false;
            }
            if g.active == tid && g.threads[tid].status == Status::Ready {
                g.threads[tid].pending = None;
                break true;
            }
            g = exec.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    };
    if !started {
        let mut g = lock_ignore_poison(&exec.m);
        g.finish_thread(tid);
        set_ctx(None);
        return;
    }
    let r = std::panic::catch_unwind(body);
    let panic_msg = match &r {
        Ok(_) => None,
        Err(p) if p.is::<AbortToken>() => None,
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Some(msg)
        }
    };
    *lock_ignore_poison(result) = Some(r);
    let mut g = lock_ignore_poison(&exec.m);
    if let Some(msg) = panic_msg {
        let name = g.threads[tid].name.clone();
        g.fail(
            FailureKind::Panic,
            format!("thread `{name}` panicked: {msg}"),
        );
    }
    g.finish_thread(tid);
    drop(g);
    set_ctx(None);
}
