//! Drop-in replacements for the std concurrency primitives the mssp hot
//! path uses. Outside a model execution every operation falls straight
//! through to the real std implementation; inside one, it becomes a
//! schedule point in the checker.
//!
//! The production build of `mssp-core` never sees these types at all — its
//! `sync` seam re-exports std directly when the `model-check` feature is
//! off. When the feature is on, these shims keep *both* behaviors live:
//! the dispatch is per-thread at runtime (is this thread part of a model
//! execution?), so ordinary tests in the same process still run on real
//! std concurrency.
//!
//! Atomics write through to their real std storage on every model store,
//! keeping the std value at modification-order-latest. That makes
//! `get_mut`/`into_inner`/drop paths correct in both worlds, and lets an
//! aborting execution unwind its destructors against consistent real state.

use std::sync::atomic::Ordering as StdOrdering;
use std::sync::Arc;

use crate::exec::{current_ctx, with_op, CtxHandle, Exec, OpCtx};

/// Memory orderings are the real std orderings; the model interprets them.
pub use std::sync::atomic::Ordering;

/// Cached model-location id for one shim object: `gen << 32 | (loc + 1)`,
/// 0 when unregistered. Objects are registered lazily on first touch inside
/// an execution; the generation tag invalidates ids from prior executions.
#[derive(Debug)]
pub(crate) struct ModelRef {
    packed: std::sync::atomic::AtomicU64,
}

impl ModelRef {
    pub(crate) const fn new() -> ModelRef {
        ModelRef {
            packed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub(crate) fn resolve(
        &self,
        op: &mut OpCtx<'_>,
        register: impl FnOnce(&mut Exec, usize) -> u32,
    ) -> u32 {
        let gen = op.ex().gen;
        let packed = self.packed.load(StdOrdering::Relaxed);
        if packed != 0 && (packed >> 32) as u32 == gen {
            return packed as u32 - 1;
        }
        let tid = op.tid;
        let loc = register(op.ex(), tid);
        self.packed.store(
            ((gen as u64) << 32) | (loc as u64 + 1),
            StdOrdering::Relaxed,
        );
        loc
    }
}

/// Atomics, fences, and orderings.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::*;

    /// Primitive values an atomic shim can carry (widened to `u64` for the
    /// model's store history).
    pub trait Prim: Copy {
        #[doc(hidden)]
        fn to_u64(self) -> u64;
        #[doc(hidden)]
        fn from_u64(v: u64) -> Self;
    }

    impl Prim for usize {
        fn to_u64(self) -> u64 {
            self as u64
        }
        fn from_u64(v: u64) -> Self {
            v as usize
        }
    }

    impl Prim for u64 {
        fn to_u64(self) -> u64 {
            self
        }
        fn from_u64(v: u64) -> Self {
            v
        }
    }

    impl Prim for bool {
        fn to_u64(self) -> u64 {
            self as u64
        }
        fn from_u64(v: u64) -> Self {
            v != 0
        }
    }

    fn ord_acquires(ord: Ordering) -> bool {
        matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    macro_rules! shim_atomic {
        ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$meta])*
            pub struct $name {
                std: $std,
                model: ModelRef,
            }

            impl $name {
                /// Create a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self {
                        std: <$std>::new(v),
                        model: ModelRef::new(),
                    }
                }

                fn loc(&self, op: &mut OpCtx<'_>) -> u32 {
                    let init = Prim::to_u64(self.std.load(StdOrdering::Relaxed));
                    self.model.resolve(op, |ex, tid| ex.register_atomic(tid, init))
                }

                /// Atomic load; inside the model the observed store is a
                /// recorded (possibly stale) choice.
                pub fn load(&self, order: Ordering) -> $prim {
                    match with_op(concat!(stringify!($name), "::load"), |op| {
                        let loc = self.loc(op);
                        let tid = op.tid;
                        <$prim as Prim>::from_u64(op.ex().atomic_load(tid, loc, order))
                    }) {
                        Some(v) => v,
                        None => self.std.load(order),
                    }
                }

                /// Atomic store; writes through to the real storage so
                /// `get_mut`/drop paths stay coherent.
                pub fn store(&self, val: $prim, order: Ordering) {
                    match with_op(concat!(stringify!($name), "::store"), |op| {
                        let loc = self.loc(op);
                        let tid = op.tid;
                        op.ex().atomic_store(tid, loc, Prim::to_u64(val), order);
                        self.std.store(val, StdOrdering::Relaxed);
                    }) {
                        Some(()) => {}
                        None => self.std.store(val, order),
                    }
                }

                /// Compare-and-exchange. The model reads the newest store
                /// (RMWs read modification-order-latest); spurious weak
                /// failures are not modeled.
                pub(crate) fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match with_op(concat!(stringify!($name), "::compare_exchange"), |op| {
                        let loc = self.loc(op);
                        let tid = op.tid;
                        let cur = Prim::to_u64(current);
                        let old = op.ex().atomic_rmw(
                            tid,
                            loc,
                            success,
                            ord_acquires(failure),
                            |old| if old == cur { Some(Prim::to_u64(new)) } else { None },
                        );
                        if old == cur {
                            self.std.store(new, StdOrdering::Relaxed);
                            Ok(current)
                        } else {
                            Err(<$prim as Prim>::from_u64(old))
                        }
                    }) {
                        Some(r) => r,
                        None => self.std.compare_exchange(current, new, success, failure),
                    }
                }

                /// Weak CAS; modeled identically to the strong form (the
                /// rings already loop around it).
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Exclusive access to the value (no model bookkeeping: the
                /// `&mut` proves no concurrent accessor exists, and write-
                /// through keeps the real value current).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.std.get_mut()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($name))
                        .field(&self.std.load(StdOrdering::Relaxed))
                        .finish()
                }
            }
        };
    }

    shim_atomic!(
        /// Model-aware `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    shim_atomic!(
        /// Model-aware `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    shim_atomic!(
        /// Model-aware `AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );

    macro_rules! shim_fetch_ops {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Atomic add; returns the previous value.
                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    match with_op(concat!(stringify!($name), "::fetch_add"), |op| {
                        let loc = self.loc(op);
                        let tid = op.tid;
                        let old = op.ex().atomic_rmw(tid, loc, order, false, |old| {
                            Some(old.wrapping_add(Prim::to_u64(val)))
                        });
                        self.std.store(
                            <$prim as Prim>::from_u64(old.wrapping_add(Prim::to_u64(val))),
                            StdOrdering::Relaxed,
                        );
                        <$prim as Prim>::from_u64(old)
                    }) {
                        Some(v) => v,
                        None => self.std.fetch_add(val, order),
                    }
                }

                /// Atomic subtract; returns the previous value.
                pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    match with_op(concat!(stringify!($name), "::fetch_sub"), |op| {
                        let loc = self.loc(op);
                        let tid = op.tid;
                        let old = op.ex().atomic_rmw(tid, loc, order, false, |old| {
                            Some(old.wrapping_sub(Prim::to_u64(val)))
                        });
                        self.std.store(
                            <$prim as Prim>::from_u64(old.wrapping_sub(Prim::to_u64(val))),
                            StdOrdering::Relaxed,
                        );
                        <$prim as Prim>::from_u64(old)
                    }) {
                        Some(v) => v,
                        None => self.std.fetch_sub(val, order),
                    }
                }
            }
        };
    }

    shim_fetch_ops!(AtomicUsize, usize);
    shim_fetch_ops!(AtomicU64, u64);

    /// Memory fence; a schedule point and clock operation in the model.
    pub fn fence(order: Ordering) {
        match with_op("fence", |op| {
            let tid = op.tid;
            op.ex().fence(tid, order);
        }) {
            Some(()) => {}
            None => std::sync::atomic::fence(order),
        }
    }
}

/// Interior-mutable cells with checked (loom-style) access.
pub mod cell {
    use super::*;

    /// An `UnsafeCell` whose accesses are race-checked inside the model.
    /// Access goes through `with`/`with_mut` so every read and write is
    /// visible to the vector-clock detector.
    #[derive(Debug)]
    pub struct UnsafeCell<T: ?Sized> {
        model: ModelRef,
        value: std::cell::UnsafeCell<T>,
    }

    impl<T> UnsafeCell<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> UnsafeCell<T> {
            UnsafeCell {
                model: ModelRef::new(),
                value: std::cell::UnsafeCell::new(value),
            }
        }
    }

    impl<T: ?Sized> UnsafeCell<T> {
        fn track(&self, write: bool) {
            with_op(
                if write {
                    "UnsafeCell::with_mut"
                } else {
                    "UnsafeCell::with"
                },
                |op| {
                    let loc = self
                        .model
                        .resolve(op, |ex, _| ex.register_cell("UnsafeCell"));
                    let tid = op.tid;
                    op.ex().cell_access(tid, loc, write);
                },
            );
        }

        /// Shared (read) access to the raw pointer.
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            self.track(false);
            f(self.value.get())
        }

        /// Exclusive (write) access to the raw pointer.
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            self.track(true);
            f(self.value.get())
        }

        /// Untracked exclusive access: the `&mut self` borrow already
        /// proves no concurrent accessor exists (used by drop paths, where
        /// real `Arc` teardown provides the synchronization the model
        /// cannot see).
        pub fn get_mut(&mut self) -> &mut T {
            unsafe { &mut *self.value.get() }
        }
    }
}

/// Threads: spawn/join, park/unpark, yield.
pub mod thread {
    use super::*;

    #[derive(Clone)]
    enum ThreadRepr {
        Std(std::thread::Thread),
        // The tid alone identifies the target: model `Thread` handles never
        // outlive their execution, and unpark resolves through the caller's
        // own context.
        Model { tid: usize },
    }

    /// A handle to a thread, usable for `unpark` (mirrors
    /// `std::thread::Thread`).
    #[derive(Clone)]
    pub struct Thread {
        repr: ThreadRepr,
    }

    impl std::fmt::Debug for Thread {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match &self.repr {
                ThreadRepr::Std(t) => f.debug_tuple("Thread").field(&t.id()).finish(),
                ThreadRepr::Model { tid, .. } => f
                    .debug_tuple("Thread")
                    .field(&format_args!("model-t{tid}"))
                    .finish(),
            }
        }
    }

    /// The current thread's handle.
    pub fn current() -> Thread {
        match current_ctx() {
            Some(CtxHandle { tid, .. }) => Thread {
                repr: ThreadRepr::Model { tid },
            },
            None => Thread {
                repr: ThreadRepr::Std(std::thread::current()),
            },
        }
    }

    impl Thread {
        /// Make the target's park token available and wake it if parked.
        pub fn unpark(&self) {
            match &self.repr {
                ThreadRepr::Std(t) => t.unpark(),
                ThreadRepr::Model { tid, .. } => {
                    let target = *tid;
                    // `None` only while unwinding from an abort, when the
                    // execution is already being torn down.
                    let _ = with_op("Thread::unpark", |op| {
                        let me = op.tid;
                        op.ex().unpark(me, target);
                    });
                }
            }
        }
    }

    /// Park the current thread until its token is available.
    pub fn park() {
        match with_op("thread::park", |op| op.park()) {
            Some(()) => {}
            None => std::thread::park(),
        }
    }

    /// Declare "no progress possible"; the model deprioritizes this thread
    /// until some other runnable thread has been scheduled, keeping spin
    /// loops finite under DFS.
    pub fn yield_now() {
        match with_op("thread::yield_now", |op| {
            let tid = op.tid;
            op.ex().set_yielded(tid);
        }) {
            Some(()) => {}
            None => std::thread::yield_now(),
        }
    }

    enum HandleRepr<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            tid: usize,
            slot: Arc<std::sync::Mutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Owned permission to join a thread (mirrors
    /// `std::thread::JoinHandle`).
    pub struct JoinHandle<T> {
        repr: HandleRepr<T>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and take its result. Panics from
        /// the thread are propagated as `Err`, like std.
        pub fn join(self) -> std::thread::Result<T> {
            match self.repr {
                HandleRepr::Std(h) => h.join(),
                HandleRepr::Model { tid, slot } => {
                    match with_op("thread::join", |op| op.join_thread(tid)) {
                        Some(()) => slot
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .take()
                            .expect("joined model thread left no result"),
                        None => Err(Box::new(
                            "thread::join outside a live model execution (abort unwind)",
                        )),
                    }
                }
            }
        }
    }

    /// Spawn a thread. Inside the model the child becomes a model thread:
    /// it only runs when granted, and its operations are schedule points.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some(ctx) = current_ctx() else {
            return JoinHandle {
                repr: HandleRepr::Std(std::thread::spawn(f)),
            };
        };
        let slot: Arc<std::sync::Mutex<Option<std::thread::Result<T>>>> =
            Arc::new(std::sync::Mutex::new(None));
        let exec = Arc::clone(&ctx.exec);
        let slot2 = Arc::clone(&slot);
        let child = with_op("thread::spawn", move |op| {
            let parent = op.tid;
            let child = op.ex().register_thread(parent);
            let handle = std::thread::Builder::new()
                .name(format!("mssp-check-t{child}"))
                .spawn(move || {
                    crate::exec::run_model_thread(
                        exec,
                        child,
                        std::panic::AssertUnwindSafe(f),
                        &slot2,
                    )
                })
                .expect("failed to spawn model OS thread");
            op.ex().os_handles.push(handle);
            child
        })
        .expect("thread::spawn on a model thread during abort unwind");
        JoinHandle {
            repr: HandleRepr::Model { tid: child, slot },
        }
    }
}

/// A mutex that the model checks for deadlocks and uses as a
/// happens-before edge (mirrors `std::sync::Mutex`).
pub struct Mutex<T: ?Sized> {
    model: ModelRef,
    std: std::sync::Mutex<()>,
    value: std::cell::UnsafeCell<T>,
}

// Same bounds as std::sync::Mutex: the lock (model or std) provides the
// exclusion that makes sharing the UnsafeCell sound.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`]; `inner` is `Some` on the std path.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            model: ModelRef::new(),
            std: std::sync::Mutex::new(()),
            value: std::cell::UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn loc(&self, op: &mut OpCtx<'_>) -> u32 {
        self.model.resolve(op, |ex, _| ex.register_mutex())
    }

    /// Acquire the mutex (blocking; a model schedule point).
    pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
        match with_op("Mutex::lock", |op| {
            let loc = self.loc(op);
            op.mutex_lock(loc);
        }) {
            Some(()) => Ok(MutexGuard {
                lock: self,
                inner: None,
            }),
            None => match self.std.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                }),
                Err(p) => Err(std::sync::PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                })),
            },
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_none() {
            // Model-held: release in the model. `None` from with_op means
            // we are unwinding from an abort; the execution is over.
            let _ = with_op("Mutex::unlock", |op| {
                let loc = self.lock.loc(op);
                let tid = op.tid;
                op.ex().mutex_unlock(tid, loc);
            });
        }
    }
}

/// A condition variable paired with [`Mutex`] (mirrors
/// `std::sync::Condvar`; no spurious wakeups in the model).
pub struct Condvar {
    model: ModelRef,
    std: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condvar.
    pub const fn new() -> Condvar {
        Condvar {
            model: ModelRef::new(),
            std: std::sync::Condvar::new(),
        }
    }

    fn loc(&self, op: &mut OpCtx<'_>) -> u32 {
        self.model.resolve(op, |ex, _| ex.register_cv())
    }

    /// Release the guard's mutex, wait for a notification, re-acquire.
    pub fn wait<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
    ) -> std::sync::LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        if guard.inner.is_none() {
            // Model path: we release/re-acquire through the model, so the
            // guard's Drop (model unlock) must not run.
            std::mem::forget(guard);
            let _ = with_op("Condvar::wait", |op| {
                let cv = self.loc(op);
                let mutex = lock.loc(op);
                op.cv_wait(cv, mutex);
            });
            Ok(MutexGuard { lock, inner: None })
        } else {
            let mut guard = guard;
            let inner = guard.inner.take().expect("std guard present");
            // Drop with `inner == None` would model-unlock; this guard was
            // std-held, so skip Drop entirely.
            std::mem::forget(guard);
            match self.std.wait(inner) {
                Ok(g) => Ok(MutexGuard {
                    lock,
                    inner: Some(g),
                }),
                Err(p) => Err(std::sync::PoisonError::new(MutexGuard {
                    lock,
                    inner: Some(p.into_inner()),
                })),
            }
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        match with_op("Condvar::notify_one", |op| {
            let loc = self.loc(op);
            op.ex().cv_notify(loc);
        }) {
            Some(()) => {}
            None => self.std.notify_one(),
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
