//! A recycling pool for [`Delta`] buffers.
//!
//! The threaded MSSP executor creates and discards a `Delta` for every
//! task it dispatches (the committed-state view) and every task a worker
//! runs (live-ins, writes). With a naive
//! allocate-per-task scheme those maps dominate the hot path's heap
//! traffic. [`DeltaArena`] turns that traffic into pointer swaps: a
//! bounded free list of cleared-but-capacitated `Delta`s that callers
//! [`take`](DeltaArena::take) from and [`put`](DeltaArena::put) back.
//!
//! # Lifetime and recycling invariants
//!
//! * A `Delta` handed out by [`take`](DeltaArena::take) is always
//!   empty (`is_empty()`), but retains whatever backing capacity it
//!   accumulated in previous lives — after warm-up, steady-state
//!   `take`/fill/`put` cycles perform **zero heap allocations**.
//! * [`put`](DeltaArena::put) clears the buffer immediately, so the
//!   pool never holds stale bindings and dropping the arena drops only
//!   empty vectors.
//! * The pool is bounded ([`DeltaArena::with_limit`]); `put` beyond the
//!   limit simply drops the buffer. This caps worst-case memory at
//!   `limit × max observed delta size` even under bursty speculation.
//! * The arena is deliberately **not** thread-safe: each thread owns
//!   its own arena and buffers migrate between threads *inside* the
//!   messages that carry them (a take on thread A, a put on thread B is
//!   fine — the buffer just joins B's pool). No locks, no atomics.

use crate::delta::Delta;

/// Default bound on the number of pooled buffers.
const DEFAULT_LIMIT: usize = 256;

/// A bounded free list of reusable [`Delta`] buffers.
///
/// ```
/// use mssp_machine::{Cell, DeltaArena};
/// use mssp_isa::Reg;
///
/// let mut arena = DeltaArena::new();
/// let mut d = arena.take();
/// d.set(Cell::Reg(Reg::A0), 7);
/// arena.put(d);
///
/// // The recycled buffer comes back empty but keeps its capacity.
/// let d = arena.take();
/// assert!(d.is_empty());
/// assert_eq!(arena.recycled(), 1);
/// ```
#[derive(Debug)]
pub struct DeltaArena {
    free: Vec<Delta>,
    limit: usize,
    /// Buffers handed out that came from the pool (vs freshly made).
    recycled: u64,
    /// Buffers handed out that had to be freshly allocated.
    fresh: u64,
}

impl Default for DeltaArena {
    fn default() -> Self {
        DeltaArena::new()
    }
}

impl DeltaArena {
    /// An empty arena with the default pool bound.
    #[must_use]
    pub fn new() -> DeltaArena {
        DeltaArena::with_limit(DEFAULT_LIMIT)
    }

    /// An empty arena keeping at most `limit` buffers pooled.
    #[must_use]
    pub fn with_limit(limit: usize) -> DeltaArena {
        DeltaArena {
            free: Vec::new(),
            limit,
            recycled: 0,
            fresh: 0,
        }
    }

    /// Take an empty `Delta`, reusing a pooled buffer when one exists.
    #[must_use]
    pub fn take(&mut self) -> Delta {
        match self.free.pop() {
            Some(d) => {
                debug_assert!(d.is_empty(), "pooled deltas are cleared on put");
                self.recycled += 1;
                d
            }
            None => {
                self.fresh += 1;
                Delta::default()
            }
        }
    }

    /// Return a buffer to the pool. Clears it; drops it if the pool is
    /// at its bound.
    pub fn put(&mut self, mut d: Delta) {
        d.clear();
        if self.free.len() < self.limit {
            self.free.push(d);
        }
    }

    /// Buffers currently pooled.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// How many `take`s were satisfied from the pool.
    #[must_use]
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// How many `take`s had to allocate a fresh buffer.
    #[must_use]
    pub fn fresh(&self) -> u64 {
        self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use mssp_isa::Reg;

    #[test]
    fn take_put_recycles_capacity() {
        let mut arena = DeltaArena::new();
        let mut d = arena.take();
        assert_eq!(arena.fresh(), 1);
        for i in 0..64 {
            d.set(Cell::Mem(i), i);
        }
        arena.put(d);
        assert_eq!(arena.pooled(), 1);

        let d = arena.take();
        assert!(d.is_empty(), "recycled buffers come back cleared");
        assert_eq!(arena.recycled(), 1);
        assert_eq!(arena.fresh(), 1, "no second allocation");
    }

    #[test]
    fn pool_bound_is_respected() {
        let mut arena = DeltaArena::with_limit(2);
        let (a, b, c) = (arena.take(), arena.take(), arena.take());
        arena.put(a);
        arena.put(b);
        arena.put(c);
        assert_eq!(arena.pooled(), 2, "third put drops past the bound");
    }

    #[test]
    fn put_clears_before_pooling() {
        let mut arena = DeltaArena::new();
        let mut d = arena.take();
        d.set(Cell::Reg(Reg::A0), 42);
        d.set(Cell::Pc, 8);
        arena.put(d);
        let d = arena.take();
        assert!(d.is_empty());
        assert_eq!(d.get(Cell::Reg(Reg::A0)), None);
    }

    #[test]
    fn cross_arena_migration_is_fine() {
        // A buffer taken from one arena may be put into another — the
        // executor does exactly this when deltas ride messages between
        // the coordinator and workers.
        let mut a = DeltaArena::new();
        let mut b = DeltaArena::new();
        let d = a.take();
        b.put(d);
        assert_eq!(a.pooled(), 0);
        assert_eq!(b.pooled(), 1);
    }
}
