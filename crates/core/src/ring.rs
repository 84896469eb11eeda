//! Lock-free bounded rings for the threaded executor's hot path.
//!
//! Two queue flavours, both std-only atomics over a fixed power-of-two
//! slot array, both blocking via a `Doorbell` (park/unpark) rather
//! than a mutex/condvar pair:
//!
//! * [`spsc`] — a single-producer single-consumer ring. The coordinator
//!   owns one per worker for task dispatch, and one back-channel to the
//!   master for commit notifications. Producer and consumer each own
//!   one index and *cache* the other's, so a steady-state push or pop
//!   is one plain slot write plus one release store — no shared
//!   read-modify-write at all.
//! * [`mpsc`] — a bounded Vyukov-style multi-producer single-consumer
//!   queue carrying every worker's results and the master's spawns into
//!   the coordinator. Producers claim slots with a CAS on `head`;
//!   per-slot sequence numbers tell the consumer when a claimed slot's
//!   payload is actually visible. Per-producer FIFO order is preserved,
//!   which the coordinator relies on (a master's `Spawn` messages must
//!   stay ordered before its `MasterStalled`).
//!
//! Memory ordering is acquire/release only on the ring proper; the sole
//! `SeqCst` operations are the two fences in the doorbell's sleep/wake
//! handshake. DESIGN.md §6c gives the full argument, §6d the per-site
//! table; every `Ordering::` use below carries a `// why:` note that
//! `tools/ordering_audit.rs` enforces.
//!
//! Disconnect semantics match `std::sync::mpsc`: dropping all senders
//! makes the receiver drain remaining items and then report
//! [`TryRecvError::Disconnected`]; dropping the receiver makes sends
//! fail and hands the items back.
//!
//! All atomics, cells, and thread primitives come from `crate::sync`,
//! so with the `model-check` feature the whole module runs under the
//! `mssp-check` deterministic scheduler (see `crates/check`).

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::{Arc, OnceLock};

use crate::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::thread::{self, Thread};

/// Error for non-blocking receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The ring is currently empty; more items may still arrive.
    Empty,
    /// The ring is empty and every sender has been dropped.
    Disconnected,
}

/// Error for non-blocking sends; hands the unsent value back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The ring is full; the item is handed back.
    Full(T),
    /// The receiver was dropped; the item is handed back.
    Disconnected(T),
}

/// The receiver was dropped; blocking sends hand the value back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Sleep/wake handshake between one sleeping consumer and any number of
/// producers, built on `thread::park`.
///
/// The lost-wakeup race (consumer checks empty → producer pushes and
/// sees `sleeping == false` → consumer sleeps forever) is broken by a
/// pair of `SeqCst` fences: the consumer stores `sleeping = true`,
/// fences, then re-checks the ring before parking; a producer pushes,
/// fences, then loads `sleeping`. The fences are totally ordered, so
/// either the consumer's re-check observes the push, or the producer's
/// load observes `sleeping == true` and unparks. An unpark that races
/// ahead of the park is absorbed by `park`'s token.
///
/// `crates/check/tests/model_check.rs` proves both directions: the
/// handshake as written admits no lost wakeup in the explored space,
/// and weakening the fences (the `DOORBELL_FENCE_ACQREL` mutation)
/// produces a replayable deadlock counterexample.
#[derive(Debug, Default)]
struct Doorbell {
    sleeping: AtomicBool,
    sleeper: OnceLock<Thread>,
}

/// The doorbell's Dekker fence, shared by both sides of the handshake.
fn handshake_fence() {
    #[cfg(feature = "model-check")]
    if crate::mutation::armed(&crate::mutation::DOORBELL_FENCE_ACQREL) {
        // Deliberately-broken mutant for the checker's teeth tests.
        fence(Ordering::AcqRel); // why: seeded mutation; see crate::mutation
        return;
    }
    // why: SeqCst totally orders the consumer's sleeping-store → ring
    // re-check against the producer's publish → sleeping-load (a Dekker /
    // StoreLoad pattern); AcqRel fences would let both sides read stale
    // values and lose the wakeup.
    fence(Ordering::SeqCst);
}

impl Doorbell {
    /// Consumer side: announce intent to sleep. Caller must re-check
    /// its wake condition *after* this returns, and only then
    /// [`Doorbell::sleep`].
    fn prepare_sleep(&self) {
        self.sleeper.get_or_init(thread::current);
        // why: Relaxed suffices; ordering against the producer's load is
        // provided by the SeqCst handshake fence on the next line.
        self.sleeping.store(true, Ordering::Relaxed);
        handshake_fence();
    }

    /// Consumer side: park until rung (or spuriously; callers loop).
    fn sleep(&self) {
        thread::park();
        // why: Relaxed; clearing our own flag after waking publishes no
        // payload — the next prepare_sleep re-fences before it matters.
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Consumer side: withdraw a `prepare_sleep` without parking.
    fn cancel_sleep(&self) {
        // why: Relaxed; a spurious extra unpark from a racing producer is
        // absorbed by the park token, so no ordering is required here.
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Producer side: wake the consumer if it is (about to be) asleep.
    /// Callers must have already published their payload.
    fn ring(&self) {
        handshake_fence();
        // why: Relaxed; the handshake fence above already orders this load
        // after our payload publish, which is all the protocol needs.
        if self.sleeping.load(Ordering::Relaxed) {
            // why: Relaxed; clearing the flag only suppresses redundant
            // unparks from other producers, it is not a sync edge.
            self.sleeping.store(false, Ordering::Relaxed);
            if let Some(t) = self.sleeper.get() {
                t.unpark();
            }
        }
    }
}

/// Pads a hot word out to its own cache line so the producer-owned and
/// consumer-owned indices (and the doorbell) never false-share. Derefs
/// to the inner value, so call sites read like the bare atomic.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Aligned<T>(T);

impl<T> std::ops::Deref for Aligned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Aligned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

fn slot_array<T>(cap: usize) -> Box<[UnsafeCell<MaybeUninit<T>>]> {
    (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect()
}

fn round_capacity(cap: usize) -> usize {
    cap.max(2).next_power_of_two()
}

// ---------------------------------------------------------------------------
// SPSC
// ---------------------------------------------------------------------------

struct SpscShared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write. Producer-owned; consumer reads.
    head: Aligned<AtomicUsize>,
    /// Next slot the consumer will read. Consumer-owned; producer reads.
    tail: Aligned<AtomicUsize>,
    /// Set when either side is dropped.
    closed: AtomicBool,
    bell: Aligned<Doorbell>,
}

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other thread; slots are never aliased because the producer only writes
// slots in `[head, tail + cap)` and the consumer only reads `[tail, head)`,
// with ownership transferred by the release/acquire pair on `head`/`tail`.
unsafe impl<T: Send> Send for SpscShared<T> {}
unsafe impl<T: Send> Sync for SpscShared<T> {}

impl<T> Drop for SpscShared<T> {
    fn drop(&mut self) {
        // Exclusive access: drop every in-flight item.
        let mask = self.mask;
        let head = *self.head.get_mut();
        let mut tail = *self.tail.get_mut();
        while tail != head {
            unsafe { self.buf[tail & mask].get_mut().assume_init_drop() };
            tail = tail.wrapping_add(1);
        }
    }
}

/// Producer half of an [`spsc`] ring.
pub struct SpscSender<T> {
    shared: Arc<SpscShared<T>>,
    head: usize,
    cached_tail: usize,
}

/// Consumer half of an [`spsc`] ring.
pub struct SpscReceiver<T> {
    shared: Arc<SpscShared<T>>,
    tail: usize,
    cached_head: usize,
}

/// A bounded single-producer single-consumer ring holding at least
/// `cap` items (rounded up to a power of two).
pub fn spsc<T: Send>(cap: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let cap = round_capacity(cap);
    let shared = Arc::new(SpscShared {
        buf: slot_array(cap),
        mask: cap - 1,
        head: Aligned(AtomicUsize::new(0)),
        tail: Aligned(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        bell: Aligned(Doorbell::default()),
    });
    (
        SpscSender {
            shared: Arc::clone(&shared),
            head: 0,
            cached_tail: 0,
        },
        SpscReceiver {
            shared,
            tail: 0,
            cached_head: 0,
        },
    )
}

/// Ordering for the consumer's load of the producer's published `head`.
fn publish_load_ordering() -> Ordering {
    #[cfg(feature = "model-check")]
    if crate::mutation::armed(&crate::mutation::RELAXED_PUBLISH_LOAD) {
        // Deliberately-broken mutant for the checker's teeth tests.
        return Ordering::Relaxed; // why: seeded mutation; see crate::mutation
    }
    // why: Acquire pairs with the producer's Release store of `head`,
    // making every slot payload written before that publish visible to
    // the consumer's subsequent slot reads.
    Ordering::Acquire
}

impl<T: Send> SpscSender<T> {
    fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// True once the consumer has been dropped.
    fn disconnected(&self) -> bool {
        // why: Acquire pairs with the consumer's Release `closed` store on
        // drop, so we also observe its final published `tail`.
        self.shared.closed.load(Ordering::Acquire) && Arc::strong_count(&self.shared) == 1
    }

    /// One free slot check against the cached tail, refreshing on miss.
    fn has_space(&mut self) -> bool {
        if self.head.wrapping_sub(self.cached_tail) < self.capacity() {
            return true;
        }
        // why: Acquire pairs with the consumer's Release `tail` store,
        // ordering its last payload read before our reuse of the slot.
        self.cached_tail = self.shared.tail.load(Ordering::Acquire);
        self.head.wrapping_sub(self.cached_tail) < self.capacity()
    }

    /// Write one slot and advance the local head (no release store yet).
    fn write_slot(&mut self, value: T) {
        self.shared.buf[self.head & self.shared.mask].with_mut(|p| unsafe { (*p).write(value) });
        self.head = self.head.wrapping_add(1);
    }

    /// Publish every slot written so far and wake the consumer.
    fn publish(&self) {
        // why: Release publishes the slot writes above to the consumer's
        // Acquire load of `head` (the payload's only synchronization edge).
        self.shared.head.store(self.head, Ordering::Release);
        self.shared.bell.ring();
    }

    /// Non-blocking send.
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        if self.disconnected() {
            return Err(TrySendError::Disconnected(value));
        }
        if !self.has_space() {
            return Err(TrySendError::Full(value));
        }
        self.write_slot(value);
        self.publish();
        Ok(())
    }

    /// Blocking send: spins (with yields) while the ring is full.
    ///
    /// Producers never park — on the task path the ring is sized well
    /// above the speculation window, so "full" is a transient.
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    thread::yield_now();
                }
            }
        }
    }

    /// Non-blocking batched send: moves items from the front of `queue`
    /// into the ring until the ring is full or the queue is empty, with
    /// a single publish (one release store, one bell ring) for the
    /// whole transfer.
    ///
    /// # Partial-progress contract
    ///
    /// Returns `Ok(n)` with exactly the first `n` items transferred and
    /// every unsent item still in `queue`, front order preserved. A
    /// full ring is not an error — `Ok(0)` just means "retry after the
    /// consumer drains". Returns [`TrySendError::Disconnected`] only
    /// when the receiver was already gone on entry, with the queue left
    /// fully intact for the caller to reclaim; this call never drops
    /// items. (Items accepted by an earlier `Ok(n)` live in the ring
    /// and are dropped with it if the consumer never picks them up.)
    ///
    /// # Errors
    ///
    /// [`TrySendError::Disconnected`] when the receiver has been
    /// dropped; the queue is untouched.
    pub fn try_send_batch(&mut self, queue: &mut VecDeque<T>) -> Result<usize, TrySendError<()>> {
        if self.disconnected() {
            return Err(TrySendError::Disconnected(()));
        }
        let mut sent = 0;
        while !queue.is_empty() && self.has_space() {
            let item = queue.pop_front().expect("checked non-empty");
            self.write_slot(item);
            sent += 1;
        }
        if sent > 0 {
            self.publish();
        }
        Ok(sent)
    }

    /// Blocking batched send with a single publish per ring-capacity
    /// chunk: flushes what fits, spins (with yields) while the ring is
    /// full, and resumes until the whole batch is in the ring.
    ///
    /// # Partial-progress contract
    ///
    /// A full ring never drops items — written slots are published so
    /// the consumer can drain, then the send resumes. On disconnect the
    /// error hands back every item not yet transferred to the ring
    /// (the one in hand plus everything left in the iterator), in
    /// order; items already transferred are dropped with the ring.
    ///
    /// # Errors
    ///
    /// [`SendError`] carrying the unsent remainder when the receiver
    /// has been dropped.
    pub fn send_batch<I: IntoIterator<Item = T>>(
        &mut self,
        items: I,
    ) -> Result<(), SendError<VecDeque<T>>> {
        let mut items = items.into_iter();
        let mut wrote = false;
        for item in items.by_ref() {
            let mut item = Some(item);
            loop {
                if self.disconnected() {
                    let mut rest: VecDeque<T> = VecDeque::new();
                    rest.extend(item.take());
                    rest.extend(items);
                    return Err(SendError(rest));
                }
                if self.has_space() {
                    break;
                }
                if wrote {
                    // Let the consumer see what we have before spinning.
                    self.publish();
                    wrote = false;
                }
                thread::yield_now();
            }
            self.write_slot(item.take().expect("item pending"));
            wrote = true;
        }
        if wrote {
            self.publish();
        }
        Ok(())
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        // why: Release orders our final slot publish before the `closed`
        // flag, pairing with the consumer's Acquire in its drain-on-
        // disconnect re-check so the last items are not lost.
        self.shared.closed.store(true, Ordering::Release);
        self.shared.bell.ring();
    }
}

impl<T: Send> SpscReceiver<T> {
    /// Refresh the cached head; true if items are visible.
    fn refresh(&mut self) -> bool {
        if self.cached_head != self.tail {
            return true;
        }
        self.cached_head = self.shared.head.load(publish_load_ordering());
        self.cached_head != self.tail
    }

    fn read_slot(&mut self) -> T {
        let v = self.shared.buf[self.tail & self.shared.mask]
            .with(|p| unsafe { (*p).assume_init_read() });
        self.tail = self.tail.wrapping_add(1);
        v
    }

    /// Read one visible slot and hand it back to the producer.
    fn take_slot(&mut self) -> T {
        #[cfg(feature = "model-check")]
        if crate::mutation::armed(&crate::mutation::EARLY_TAIL_PUBLISH) {
            // Deliberately-broken mutant: frees the slot before reading
            // it, so the producer may overwrite a live payload.
            self.shared
                .tail
                // why: seeded mutation; see crate::mutation
                .store(self.tail.wrapping_add(1), Ordering::Release);
            return self.read_slot();
        }
        let v = self.read_slot();
        // why: Release orders the payload read above before the producer's
        // Acquire `tail` load in `has_space`, so the slot is only reused
        // after its previous value has been fully taken.
        self.shared.tail.store(self.tail, Ordering::Release);
        v
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        if self.refresh() {
            return Ok(self.take_slot());
        }
        // why: Acquire pairs with the producer's Release `closed` store on
        // drop, ordering us after its final publish for the re-check below.
        if self.shared.closed.load(Ordering::Acquire) {
            // The close store is ordered after the producer's final
            // publish; re-check so a push racing the drop is not lost.
            if self.refresh() {
                return Ok(self.take_slot());
            }
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Blocking receive; parks via the doorbell while empty.
    pub fn recv(&mut self) -> Result<T, TryRecvError> {
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(TryRecvError::Disconnected),
                Err(TryRecvError::Empty) => {
                    self.shared.bell.prepare_sleep();
                    // Re-check after announcing sleep (see Doorbell).
                    // why: Acquire on `closed` pairs with the producer-drop
                    // Release so a disconnect racing the park is seen here.
                    if self.refresh() || self.shared.closed.load(Ordering::Acquire) {
                        self.shared.bell.cancel_sleep();
                        continue;
                    }
                    self.shared.bell.sleep();
                }
            }
        }
    }

    /// Drain up to `max` immediately-visible items into `out` with a
    /// single tail publish.
    ///
    /// # Partial-progress contract
    ///
    /// Returns how many items were moved; `0` is not an error (the ring
    /// may simply be empty — distinguish disconnect via
    /// [`SpscReceiver::try_recv`]). Every moved item is appended to
    /// `out` before the tail publish hands the freed slots back, so a
    /// producer can never overwrite an undelivered item.
    pub fn recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max && self.refresh() {
            out.push(self.read_slot());
            n += 1;
        }
        if n > 0 {
            // why: Release, same edge as `take_slot`: payload reads above
            // happen-before the producer's Acquire reuse of the slots.
            self.shared.tail.store(self.tail, Ordering::Release);
        }
        n
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        // Publish the final tail so `SpscShared::drop` (run by whichever
        // side is dropped last) frees exactly the in-flight items.
        // why: Release orders our last payload reads before the handoff.
        self.shared.tail.store(self.tail, Ordering::Release);
        // why: Release pairs with the producer's Acquire in
        // `disconnected()`, which must see the final `tail` with the flag.
        self.shared.closed.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// MPSC (bounded Vyukov queue)
// ---------------------------------------------------------------------------

struct MpscSlot<T> {
    /// Slot generation stamp: `pos` when free for the producer claiming
    /// ticket `pos`, `pos + 1` once its payload is readable, and
    /// `pos + capacity` after the consumer frees it for the next lap.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

struct MpscShared<T> {
    buf: Box<[MpscSlot<T>]>,
    mask: usize,
    /// Producer ticket counter (CAS-claimed).
    head: Aligned<AtomicUsize>,
    /// Consumer position. Only the consumer stores it; kept shared so
    /// the final `Drop` can locate in-flight items.
    tail: Aligned<AtomicUsize>,
    /// Live sender count; 0 means disconnected for the receiver.
    senders: AtomicUsize,
    /// Set when the receiver is dropped.
    closed: AtomicBool,
    bell: Aligned<Doorbell>,
}

// SAFETY: a producer gets exclusive access to a slot's payload cell by
// winning the CAS on `head` while `seq == pos`, and publishes it with the
// release store `seq = pos + 1`; the single consumer acquires that store
// before reading and releases the slot with `seq = pos + cap`. No two
// parties ever hold the same slot in the same lap.
unsafe impl<T: Send> Send for MpscShared<T> {}
unsafe impl<T: Send> Sync for MpscShared<T> {}

impl<T> Drop for MpscShared<T> {
    fn drop(&mut self) {
        let mask = self.mask;
        let mut pos = *self.tail.get_mut();
        loop {
            let slot = &mut self.buf[pos & mask];
            if *slot.seq.get_mut() == pos.wrapping_add(1) {
                unsafe { slot.val.get_mut().assume_init_drop() };
                pos = pos.wrapping_add(1);
            } else {
                break;
            }
        }
    }
}

/// Cloneable producer half of an [`mpsc`] ring.
pub struct MpscSender<T> {
    shared: Arc<MpscShared<T>>,
}

/// Consumer half of an [`mpsc`] ring.
pub struct MpscReceiver<T> {
    shared: Arc<MpscShared<T>>,
    tail: usize,
}

/// A bounded multi-producer single-consumer ring holding at least `cap`
/// items (rounded up to a power of two). Per-producer FIFO order is
/// preserved.
pub fn mpsc<T: Send>(cap: usize) -> (MpscSender<T>, MpscReceiver<T>) {
    let cap = round_capacity(cap);
    let buf: Box<[MpscSlot<T>]> = (0..cap)
        .map(|i| MpscSlot {
            seq: AtomicUsize::new(i),
            val: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let shared = Arc::new(MpscShared {
        buf,
        mask: cap - 1,
        head: Aligned(AtomicUsize::new(0)),
        tail: Aligned(AtomicUsize::new(0)),
        senders: AtomicUsize::new(1),
        closed: AtomicBool::new(false),
        bell: Aligned(Doorbell::default()),
    });
    (
        MpscSender {
            shared: Arc::clone(&shared),
        },
        MpscReceiver { shared, tail: 0 },
    )
}

impl<T: Send> MpscSender<T> {
    /// Non-blocking send.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        // why: Acquire pairs with the receiver-drop Release of `closed`,
        // ordering us after its final `tail` so slot state is consistent.
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(value));
        }
        let shared = &*self.shared;
        let cap = shared.mask + 1;
        // why: Relaxed; `head` is only a ticket hint here — the slot's
        // `seq` (Acquire, below) is what transfers slot ownership.
        let mut pos = shared.head.load(Ordering::Relaxed);
        loop {
            let slot = &shared.buf[pos & shared.mask];
            // why: Acquire pairs with the consumer's Release `seq` store
            // freeing the slot, ordering its payload read of the previous
            // lap before our overwrite.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free this lap: claim the ticket.
                match shared.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // why: Relaxed; winning the ticket publishes nothing —
                    // the payload is published by the `seq` Release below.
                    Ordering::Relaxed,
                    // why: Relaxed; the failure value only re-seeds the loop.
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.val.with_mut(|p| unsafe { (*p).write(value) });
                        // why: Release publishes the payload write above to
                        // the consumer's Acquire `seq` load.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        shared.bell.ring();
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if seq.wrapping_sub(pos) > cap {
                // seq belongs to the previous lap: the ring is full.
                return Err(TrySendError::Full(value));
            } else {
                // Another producer claimed this ticket; chase the head.
                // why: Relaxed; same ticket-hint role as the initial load.
                pos = shared.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Blocking send: spins (with yields) while the ring is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    thread::yield_now();
                }
            }
        }
    }
}

impl<T> Clone for MpscSender<T> {
    fn clone(&self) -> MpscSender<T> {
        // why: Relaxed; like Arc::clone, creating a handle from an existing
        // one needs no ordering — the handle itself proves count >= 1.
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        MpscSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for MpscSender<T> {
    fn drop(&mut self) {
        // why: AcqRel, like Arc::drop — Release orders this sender's final
        // publishes before the count reaching 0; Acquire on the last drop
        // orders it after every *other* sender's publishes, so the
        // receiver's disconnect re-check sees all final items.
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.bell.ring();
        }
    }
}

impl<T: Send> MpscReceiver<T> {
    fn pop_visible(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let slot = &shared.buf[self.tail & shared.mask];
        // why: Acquire pairs with the producer's Release `seq` store,
        // making the slot payload visible before we read it.
        if slot.seq.load(Ordering::Acquire) == self.tail.wrapping_add(1) {
            let v = slot.val.with(|p| unsafe { (*p).assume_init_read() });
            slot.seq
                // why: Release orders our payload read before the next-lap
                // producer's Acquire claim of this slot.
                .store(self.tail.wrapping_add(shared.mask + 1), Ordering::Release);
            self.tail = self.tail.wrapping_add(1);
            // why: Relaxed; the shared `tail` is bookkeeping for the final
            // Drop (which owns the struct exclusively), not a sync edge.
            shared.tail.store(self.tail, Ordering::Relaxed);
            return Some(v);
        }
        None
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        if let Some(v) = self.pop_visible() {
            return Ok(v);
        }
        // why: Acquire pairs with each sender-drop's AcqRel `fetch_sub`;
        // seeing 0 orders us after every sender's final publish.
        if self.shared.senders.load(Ordering::Acquire) == 0 {
            // Senders may have published right before dropping; the
            // Acquire above orders us after their final stores.
            if let Some(v) = self.pop_visible() {
                return Ok(v);
            }
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Blocking receive; parks via the doorbell while empty.
    pub fn recv(&mut self) -> Result<T, TryRecvError> {
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(TryRecvError::Disconnected),
                Err(TryRecvError::Empty) => {
                    self.shared.bell.prepare_sleep();
                    let shared = &*self.shared;
                    let slot = &shared.buf[self.tail & shared.mask];
                    // why: Acquire on `seq`, as in `pop_visible`: this is
                    // the post-prepare_sleep re-check of the same edge.
                    let visible = slot.seq.load(Ordering::Acquire) == self.tail.wrapping_add(1);
                    // why: Acquire on `senders`, as in `try_recv`: a
                    // disconnect racing the park must be observed here.
                    if visible || shared.senders.load(Ordering::Acquire) == 0 {
                        shared.bell.cancel_sleep();
                        continue;
                    }
                    shared.bell.sleep();
                }
            }
        }
    }

    /// Drain up to `max` immediately-visible items into `out`.
    ///
    /// # Partial-progress contract
    ///
    /// Returns how many items were moved; `0` is not an error (empty vs
    /// disconnected is distinguished via [`MpscReceiver::try_recv`]).
    /// Each slot is freed (its `seq` released) only after its payload
    /// has been appended to `out`, so producers can never overwrite an
    /// undelivered item.
    pub fn recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop_visible() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl<T> Drop for MpscReceiver<T> {
    fn drop(&mut self) {
        // why: Relaxed; final-Drop bookkeeping only (see `pop_visible`).
        self.shared.tail.store(self.tail, Ordering::Relaxed);
        // why: Release pairs with the producers' Acquire `closed` load in
        // `try_send`, ordering our final slot releases before the flag.
        self.shared.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_round_trip_in_order() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        for i in 0..3 {
            tx.try_send(i).unwrap();
        }
        for i in 0..3 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn spsc_wraps_at_capacity_boundary() {
        // Capacity 4: push/pop far past one lap so indices wrap the mask
        // repeatedly; order and values must survive.
        let (mut tx, mut rx) = spsc::<usize>(4);
        for lap in 0..64 {
            for i in 0..4 {
                tx.try_send(lap * 4 + i).unwrap();
            }
            assert!(matches!(tx.try_send(999), Err(TrySendError::Full(999))));
            for i in 0..4 {
                assert_eq!(rx.try_recv(), Ok(lap * 4 + i));
            }
        }
    }

    #[test]
    fn spsc_sender_drop_drains_then_disconnects() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn spsc_receiver_drop_fails_sends() {
        let (mut tx, rx) = spsc::<u32>(4);
        drop(rx);
        assert!(matches!(tx.try_send(7), Err(TrySendError::Disconnected(7))));
        assert!(matches!(tx.send(8), Err(SendError(8))));
    }

    #[test]
    fn spsc_drop_with_items_in_flight_frees_them() {
        // Drop both halves with undelivered heap payloads; Miri (and the
        // leak checker) verifies the in-flight Arcs are freed.
        let (mut tx, rx) = spsc::<Arc<Vec<u64>>>(8);
        let payload = Arc::new(vec![1, 2, 3]);
        for _ in 0..5 {
            tx.try_send(Arc::clone(&payload)).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn spsc_batch_send_and_batch_recv() {
        let (mut tx, mut rx) = spsc::<usize>(8);
        tx.send_batch(0..6).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 4), 4);
        assert_eq!(rx.recv_batch(&mut out, 100), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.recv_batch(&mut out, 100), 0);
    }

    #[test]
    fn spsc_batch_send_larger_than_capacity() {
        // The batch must flush-and-continue when it fills the ring while
        // a consumer drains concurrently.
        let (mut tx, mut rx) = spsc::<usize>(4);
        let n = 1000;
        let h = thread::spawn(move || {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                match rx.recv() {
                    Ok(v) => got.push(v),
                    Err(_) => break,
                }
            }
            got
        });
        tx.send_batch(0..n).unwrap();
        drop(tx);
        let got = h.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn spsc_try_send_batch_partial_progress_on_full() {
        // Capacity 4 ring, 7 queued items: exactly 4 transfer, 3 stay
        // queued in order; after a partial drain the retry moves more.
        let (mut tx, mut rx) = spsc::<u32>(4);
        let mut q: VecDeque<u32> = (0..7).collect();
        assert_eq!(tx.try_send_batch(&mut q), Ok(4));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(
            tx.try_send_batch(&mut q),
            Ok(0),
            "full ring is not an error"
        );
        assert_eq!(rx.try_recv(), Ok(0));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(tx.try_send_batch(&mut q), Ok(2));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![6]);
        let mut out = Vec::new();
        rx.recv_batch(&mut out, 100);
        assert_eq!(out, vec![2, 3, 4, 5]);
        assert_eq!(tx.try_send_batch(&mut q), Ok(1));
        assert!(q.is_empty());
        assert_eq!(rx.try_recv(), Ok(6));
    }

    #[test]
    fn spsc_try_send_batch_disconnect_keeps_queue() {
        let (mut tx, rx) = spsc::<u32>(4);
        drop(rx);
        let mut q: VecDeque<u32> = (0..3).collect();
        assert_eq!(
            tx.try_send_batch(&mut q),
            Err(TrySendError::Disconnected(()))
        );
        assert_eq!(
            q.iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2],
            "disconnect must not drop queued items"
        );
    }

    #[test]
    fn spsc_send_batch_disconnect_hands_back_remainder() {
        let (mut tx, rx) = spsc::<u32>(4);
        drop(rx);
        let err = tx.send_batch(0..5).unwrap_err();
        assert_eq!(
            err.0.iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn spsc_cross_thread_hammer_with_blocking() {
        let (mut tx, mut rx) = spsc::<u64>(16);
        let n: u64 = if cfg!(miri) { 300 } else { 100_000 };
        let h = thread::spawn(move || {
            for i in 0..n {
                tx.send(i).unwrap();
            }
        });
        for i in 0..n {
            assert_eq!(rx.recv(), Ok(i));
        }
        h.join().unwrap();
        assert_eq!(rx.recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpsc_round_trip_single_producer() {
        let (tx, mut rx) = mpsc::<u64>(4);
        for i in 0..3 {
            tx.try_send(i).unwrap();
        }
        for i in 0..3 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn mpsc_full_and_wraparound() {
        let (tx, mut rx) = mpsc::<usize>(4);
        for lap in 0..32 {
            for i in 0..4 {
                tx.try_send(lap * 4 + i).unwrap();
            }
            assert!(matches!(tx.try_send(999), Err(TrySendError::Full(999))));
            for i in 0..4 {
                assert_eq!(rx.try_recv(), Ok(lap * 4 + i));
            }
        }
    }

    #[test]
    fn mpsc_all_senders_dropped_drains_then_disconnects() {
        let (tx, mut rx) = mpsc::<u32>(8);
        let tx2 = tx.clone();
        tx.try_send(1).unwrap();
        tx2.try_send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx2);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpsc_receiver_drop_fails_sends() {
        let (tx, rx) = mpsc::<u32>(4);
        drop(rx);
        assert!(matches!(tx.try_send(7), Err(TrySendError::Disconnected(7))));
    }

    #[test]
    fn mpsc_drop_with_items_in_flight_frees_them() {
        let (tx, rx) = mpsc::<Arc<Vec<u64>>>(8);
        let payload = Arc::new(vec![1, 2, 3]);
        for _ in 0..5 {
            tx.try_send(Arc::clone(&payload)).unwrap();
        }
        drop(rx);
        drop(tx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn mpsc_preserves_per_producer_fifo() {
        // N producers each send an ascending sequence tagged with their
        // id; the consumer must observe every producer's items in order
        // even though the global interleaving is arbitrary.
        let producers = 4usize;
        let per = if cfg!(miri) { 50u64 } else { 10_000u64 };
        let (tx, mut rx) = mpsc::<(usize, u64)>(16);
        let handles: Vec<_> = (0..producers)
            .map(|id| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        tx.send((id, i)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = vec![0u64; producers];
        let mut total = 0u64;
        loop {
            match rx.recv() {
                Ok((id, i)) => {
                    assert_eq!(i, next[id], "producer {id} reordered");
                    next[id] += 1;
                    total += 1;
                }
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => unreachable!("recv never returns Empty"),
            }
        }
        assert_eq!(total, producers as u64 * per);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn mpsc_batch_recv_drains_visible_items() {
        let (tx, mut rx) = mpsc::<usize>(8);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 3), 3);
        assert_eq!(rx.recv_batch(&mut out, 100), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn doorbell_wakes_parked_consumer() {
        // Consumer parks on an empty ring; producer sends after a delay.
        // If the doorbell lost the wakeup this test would hang (the
        // harness timeout catches it).
        let (mut tx, mut rx) = spsc::<u32>(4);
        let h = thread::spawn(move || rx.recv());
        if !cfg!(miri) {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }
}
