//! Litmus self-tests for the checker: tiny, hand-analyzable programs with
//! known-good and known-bad variants. These validate the *checker* (the
//! scheduler, the stale-value model, the detectors, replay) before it is
//! trusted to validate the mssp transport.

use std::sync::Arc;

use mssp_check::shim::atomic::{fence, AtomicUsize, Ordering};
use mssp_check::shim::cell::UnsafeCell;
use mssp_check::{check, leak::Tracked, replay, thread, Config, FailureKind, Trace};

fn cfg() -> Config {
    Config {
        // Self-tests are tiny; give them generous bounds so the known
        // outcomes are certainly inside the explored space.
        preemption_bound: 3,
        stale_read_bound: 2,
        trace_dir: None,
        ..Config::default()
    }
}

/// Store buffering (Dekker): with only Relaxed accesses both threads may
/// read 0 — the checker must *find* that outcome (via stale reads), which
/// the harness turns into a panic counterexample.
#[test]
fn store_buffering_relaxed_finds_both_stale() {
    let report = check("litmus-sb-relaxed", &cfg(), || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        x.store(99, Ordering::Relaxed); // distinct value; never observed as 1
        y.store(1, Ordering::Relaxed);
        let r1 = x.load(Ordering::Relaxed);
        let r2 = t.join().unwrap();
        // r1: main's own coherence forces 99 unless t's 1 lands after;
        // the forbidden-under-SC outcome is r1 != 1 && r2 == 0.
        assert!(r2 == 1 || r1 == 1, "store-buffering outcome reached");
    });
    let failure = report.expect_failure("litmus-sb-relaxed");
    assert_eq!(failure.kind, FailureKind::Panic);
}

/// The same shape with SeqCst fences between store and load must pass:
/// at least one thread is forced to observe the other's store.
#[test]
fn store_buffering_with_seqcst_fences_passes() {
    let report = check("litmus-sb-seqcst", &cfg(), || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let r1 = x.load(Ordering::Relaxed);
        let r2 = t.join().unwrap();
        assert!(
            r1 == 1 || r2 == 1,
            "SeqCst fences must forbid the both-stale outcome"
        );
    });
    report.assert_pass("litmus-sb-seqcst");
    assert!(report.complete, "litmus space should be fully explored");
}

/// Message passing through a Release store / Acquire load is race-free.
#[test]
fn message_passing_release_acquire_passes() {
    let report = check("litmus-mp-relacq", &cfg(), || {
        struct Chan {
            data: UnsafeCell<u64>,
            flag: AtomicUsize,
        }
        unsafe impl Sync for Chan {}
        unsafe impl Send for Chan {}
        let c = Arc::new(Chan {
            data: UnsafeCell::new(0),
            flag: AtomicUsize::new(0),
        });
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            c2.data.with_mut(|p| unsafe { *p = 42 });
            c2.flag.store(1, Ordering::Release);
        });
        if c.flag.load(Ordering::Acquire) == 1 {
            let v = c.data.with(|p| unsafe { *p });
            assert_eq!(v, 42, "acquire load must see the published data");
        }
        t.join().unwrap();
    });
    report.assert_pass("litmus-mp-relacq");
}

/// Demote the Acquire to Relaxed and the data read races with the write —
/// found by the vector-clock detector, not by luck.
#[test]
fn message_passing_relaxed_flag_is_a_race() {
    let report = check("litmus-mp-relaxed", &cfg(), || {
        struct Chan {
            data: UnsafeCell<u64>,
            flag: AtomicUsize,
        }
        unsafe impl Sync for Chan {}
        unsafe impl Send for Chan {}
        let c = Arc::new(Chan {
            data: UnsafeCell::new(0),
            flag: AtomicUsize::new(0),
        });
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            c2.data.with_mut(|p| unsafe { *p = 42 });
            c2.flag.store(1, Ordering::Relaxed);
        });
        if c.flag.load(Ordering::Relaxed) == 1 {
            c.data.with(|p| unsafe { *p });
        }
        t.join().unwrap();
    });
    let failure = report.expect_failure("litmus-mp-relaxed");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

/// A parked thread nobody unparks is a deadlock, not a hang.
#[test]
fn park_without_unpark_is_deadlock() {
    let report = check("litmus-park-deadlock", &cfg(), || {
        let t = thread::spawn(|| {
            thread::park();
        });
        t.join().unwrap();
    });
    let failure = report.expect_failure("litmus-park-deadlock");
    assert_eq!(failure.kind, FailureKind::Deadlock);
}

/// Unprotected concurrent counter increments race.
#[test]
fn counter_without_lock_races() {
    let racy = check("litmus-counter-racy", &cfg(), || {
        // The unsynchronized sharing is the point of the test: the
        // checker must flag it as a data race.
        #[allow(clippy::arc_with_non_send_sync)]
        let c = Arc::new(UnsafeCell::new(0u64));
        struct SendCell(Arc<UnsafeCell<u64>>);
        unsafe impl Send for SendCell {}
        let c2 = SendCell(Arc::clone(&c));
        let t = thread::spawn(move || {
            // Use the wrapper as a whole value so the closure captures
            // `SendCell` (Send), not the disjoint `Arc` field (RFC 2229
            // captures through destructuring patterns are field-precise).
            let wrapper = c2;
            wrapper.0.with_mut(|p| unsafe { *p += 1 });
        });
        c.with_mut(|p| unsafe { *p += 1 });
        t.join().unwrap();
    });
    assert_eq!(
        racy.expect_failure("litmus-counter-racy").kind,
        FailureKind::DataRace
    );
}

/// Leak detection: a tracked value that is forgotten must be reported.
#[test]
fn forgotten_tracked_value_is_a_leak() {
    let report = check("litmus-leak", &cfg(), || {
        let v = Tracked::new("forgotten");
        std::mem::forget(v);
    });
    let failure = report.expect_failure("litmus-leak");
    assert_eq!(failure.kind, FailureKind::Leak);
}

/// Double-free detection: duplicating a tracked value bit-for-bit (what a
/// buggy ring does when a slot is read twice) must be reported.
#[test]
fn duplicated_tracked_value_is_a_double_free() {
    let report = check("litmus-double-free", &cfg(), || {
        let v = Tracked::new("duplicated");
        // Simulate a ring handing the same slot out twice.
        let dup = unsafe { std::ptr::read(&v) };
        drop(v);
        drop(dup);
    });
    let failure = report.expect_failure("litmus-double-free");
    assert_eq!(failure.kind, FailureKind::DoubleFree);
}

/// A failing trace replays to the same failure, and the printed form
/// parses back to the same trace.
#[test]
fn failing_trace_replays_exactly() {
    let harness = || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Release);
        });
        let seen = x.load(Ordering::Acquire);
        t.join().unwrap();
        // Fails only under schedules where the store lands first.
        assert_eq!(seen, 0, "observed the spawned store");
    };
    let failure = check("litmus-replay", &cfg(), harness).expect_failure("litmus-replay");
    let parsed = Trace::parse(&failure.trace.to_string()).expect("trace must parse");
    assert_eq!(parsed, failure.trace);
    let replayed = replay(&cfg(), &parsed, harness).expect("replay must reproduce the failure");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert_eq!(replayed.trace, failure.trace);
}

/// Spin loops built on `yield_now` terminate under DFS (yield fairness) —
/// and the spun-for value is eventually observed.
#[test]
fn yield_spin_loop_terminates() {
    let report = check("litmus-yield-spin", &cfg(), || {
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            f2.store(1, Ordering::Release);
        });
        while flag.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
        t.join().unwrap();
    });
    report.assert_pass("litmus-yield-spin");
}
