//! Seeded ordering mutations for the model checker's teeth tests.
//!
//! Only compiled under the `model-check` feature; production builds never
//! see these flags or the branches that read them. Each flag weakens one
//! load-bearing ordering decision in the transport so
//! `crates/check/tests/model_check.rs` can prove the checker actually
//! catches the bug class the original code defends against:
//!
//! | flag | weakens | expected counterexample |
//! |------|---------|-------------------------|
//! | [`DOORBELL_FENCE_ACQREL`] | the doorbell's paired `SeqCst` fences to `AcqRel` | lost wakeup → deadlock |
//! | [`RELAXED_PUBLISH_LOAD`] | the SPSC consumer's `Acquire` load of `head` to `Relaxed` | unsynchronized slot read → data race |
//! | [`EARLY_TAIL_PUBLISH`] | SPSC slot-free ordering: `tail` published *before* the slot is read | producer overwrites a live slot → race / duplicated payload |
//!
//! The flags are plain process-global `std` atomics (not model shims): a
//! mutation is configuration, not a concurrency event, and must not
//! perturb the explored schedule space. Tests that set them must
//! serialize (they are process-global) and reset via [`reset_all`].

use std::sync::atomic::{AtomicBool, Ordering};

/// Weaken both doorbell fences (`prepare_sleep` / `ring`) from `SeqCst`
/// to `AcqRel`, breaking the store→load ordering the lost-wakeup
/// argument needs.
pub static DOORBELL_FENCE_ACQREL: AtomicBool = AtomicBool::new(false);

/// Demote the SPSC consumer's `Acquire` load of the producer's `head`
/// index to `Relaxed`, severing the happens-before edge that makes the
/// slot payload visible.
pub static RELAXED_PUBLISH_LOAD: AtomicBool = AtomicBool::new(false);

/// Publish the SPSC consumer's advanced `tail` *before* reading the slot,
/// freeing it for the producer while the payload is still being taken.
pub static EARLY_TAIL_PUBLISH: AtomicBool = AtomicBool::new(false);

/// True if `flag` is armed. `Relaxed` is fine: tests arm flags before
/// spawning the model execution and reset after it joins.
pub(crate) fn armed(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed)
}

/// Disarm every mutation (test cleanup).
pub fn reset_all() {
    for flag in [
        &DOORBELL_FENCE_ACQREL,
        &RELAXED_PUBLISH_LOAD,
        &EARLY_TAIL_PUBLISH,
    ] {
        flag.store(false, Ordering::Relaxed);
    }
}
