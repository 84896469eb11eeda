//! The concurrency seam: every atomic, cell, and thread primitive the
//! transport hot path ([`crate::ring`]) touches is imported from here
//! rather than from `std` directly.
//!
//! * **`model-check` off** (the default, and the only configuration that
//!   ships): plain re-exports of the std types, plus a
//!   `#[repr(transparent)]` [`cell::UnsafeCell`] wrapper whose accessors
//!   are `#[inline(always)]` closures around the raw pointer — the
//!   compiled code is identical to using std directly.
//! * **`model-check` on**: the same paths resolve to the `mssp-check`
//!   shims, which dispatch per-thread at runtime — threads inside a model
//!   execution hit the checker's baton-passing scheduler (every operation
//!   a schedule point, every relaxed load a recorded stale-value choice),
//!   while every other thread falls through to real std behavior.
//!
//! The two worlds expose the same API on purpose: `ring.rs` compiles
//! against this module unchanged in either mode. Keep additions mirrored
//! (add to the shim in `mssp-check` first, then re-export here).

#[cfg(not(feature = "model-check"))]
// The seam mirrors the shim's atomic surface even where the transport does
// not currently use every item (AtomicU64).
#[allow(unused_imports)]
mod imp {
    pub use std::thread;

    /// Atomic integers, fences, and memory orderings (std's own).
    pub mod atomic {
        pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Interior-mutable cells with the checker's closure-based access API.
    pub mod cell {
        /// An `UnsafeCell` exposing `with`/`with_mut` closures so the same
        /// call sites compile under the model checker's race-tracked shim.
        /// Transparent over `std::cell::UnsafeCell`; zero overhead.
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

        impl<T> UnsafeCell<T> {
            /// Wrap a value.
            #[inline(always)]
            pub const fn new(value: T) -> UnsafeCell<T> {
                UnsafeCell(std::cell::UnsafeCell::new(value))
            }
        }

        impl<T: ?Sized> UnsafeCell<T> {
            /// Shared (read) access to the raw pointer.
            #[inline(always)]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.0.get())
            }

            /// Exclusive (write) access to the raw pointer. The caller is
            /// responsible for the exclusion (ring index protocol).
            #[inline(always)]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.0.get())
            }

            /// Exclusive access through a `&mut` borrow (drop paths).
            #[inline(always)]
            pub fn get_mut(&mut self) -> &mut T {
                unsafe { &mut *self.0.get() }
            }
        }
    }
}

#[cfg(feature = "model-check")]
#[allow(unused_imports)]
mod imp {
    pub use mssp_check::shim::thread;

    pub use mssp_check::shim::{atomic, cell};
}

pub use imp::*;
