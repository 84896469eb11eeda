//! # mssp-check
//!
//! A std-only, loom-style deterministic concurrency model checker for the
//! mssp lock-free hot path (the SPSC/MPSC rings and the doorbell in
//! `mssp-core`).
//!
//! The production code is ported onto a thin `sync` seam; with
//! `mssp-core`'s `model-check` feature enabled the seam resolves to the
//! [`shim`] types in this crate, and a harness closure passed to [`check`]
//! runs under a **baton-passing scheduler**: real OS threads, but exactly
//! one runs at a time, every shim operation is a schedule point, and every
//! scheduling (and stale-value) choice is recorded. The explorer then
//! enumerates all schedules within a preemption/stale-read bound
//! (CHESS-style iterative DFS), or samples randomly for larger harnesses.
//!
//! What it detects:
//!
//! * **assertion failures** under any explored interleaving (FIFO order,
//!   no-loss, no-duplication — whatever the harness asserts),
//! * **data races** on non-atomic state, via FastTrack-style vector
//!   clocks on [`shim::cell::UnsafeCell`] accesses,
//! * **deadlocks / lost wakeups**: every thread blocked (parked, lock,
//!   condvar, join) with nobody left to wake them,
//! * **leaks and double frees** of [`leak::Tracked`] payloads — the slot
//!   recycling failure modes of a ring,
//! * **stale-value bugs**: relaxed loads may observe a bounded set of
//!   outdated stores, chosen and recorded like scheduling decisions, so
//!   a missing Acquire/Release/SeqCst is *modeled*, not raced for.
//!
//! Every counterexample carries a [`Trace`] — a printable, parseable
//! schedule that [`replay`] re-runs exactly.
//!
//! ## Fidelity notes (deliberate approximations)
//!
//! * SeqCst is modeled by a global SC clock joined at every SC fence/op —
//!   slightly *stronger* than C11 (it may hide races that require subtle
//!   SC/non-SC mixing), but it captures exactly the Dekker/StoreLoad
//!   guarantee the doorbell's paired `fence(SeqCst)` relies on.
//! * Spurious wakeups (condvar, weak CAS failures, `park`) are not
//!   generated; the modeled behavior is a subset of what std allows.
//! * Store histories are bounded (default 3 per location), so arbitrarily
//!   old values are not observable.
//!
//! A checker pass is therefore evidence within these bounds, not proof —
//! while a counterexample is a real, replayable bug.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod exec;
mod explorer;
pub mod leak;
pub mod shim;
mod trace;
mod vc;

pub use explorer::{check, replay, Config, Mode, Report};
pub use trace::{Decision, DecisionKind, Failure, FailureKind, Trace};

/// Convenience re-export: model-aware `thread::{spawn, yield_now, ...}`
/// for harness closures.
pub use shim::thread;
