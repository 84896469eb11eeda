//! Std-only stress suite for the lock-free rings in `mssp_core::ring`.
//!
//! The unit tests in the module cover the API contract; these tests
//! hammer the concurrency properties the threaded executor leans on:
//! wraparound exactly at the capacity boundary, full/empty races under
//! real thread interleavings, per-producer FIFO through the MPSC ring,
//! and drop-with-items-in-flight (no leaks, no double frees — checked
//! with a drop-counting payload).
//!
//! Iteration counts shrink under Miri (`cfg!(miri)`) so the CI
//! sanitizer job can interpret every access without timing out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mssp_core::ring::{self, TryRecvError, TrySendError};

fn n(kind: u64) -> u64 {
    if cfg!(miri) { kind / 100 } else { kind }.max(16)
}

/// A payload whose drops are observable, for leak/double-free checks.
#[derive(Debug)]
struct Tracked {
    #[allow(dead_code)]
    value: u64,
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(value: u64, drops: &Arc<AtomicUsize>) -> Tracked {
        Tracked {
            value,
            drops: Arc::clone(drops),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn spsc_wraparound_at_capacity_boundary_preserves_fifo() {
    // Capacity rounds to a power of two; cross the boundary thousands of
    // times with bursts that never align to it, so every slot index and
    // every head/tail wrap is exercised.
    let (mut tx, mut rx) = ring::spsc::<u64>(4); // rounds to 4
    let mut next_send = 0u64;
    let mut next_recv = 0u64;
    let total = n(40_000);
    while next_recv < total {
        // Send 3 (coprime with 4), drain everything queued.
        for _ in 0..3 {
            if next_send < total {
                match tx.try_send(next_send) {
                    Ok(()) => next_send += 1,
                    Err(TrySendError::Full(_)) => break,
                    Err(TrySendError::Disconnected(_)) => unreachable!(),
                }
            }
        }
        while let Ok(v) = rx.try_recv() {
            assert_eq!(v, next_recv, "FIFO violated across wraparound");
            next_recv += 1;
        }
    }
    assert_eq!(next_recv, total);
}

#[test]
fn spsc_full_empty_race_under_threads() {
    // Tiny ring + two free-running threads: the producer constantly hits
    // Full, the consumer constantly hits Empty, and every message must
    // still arrive exactly once, in order.
    let (mut tx, mut rx) = ring::spsc::<u64>(8);
    let total = n(50_000);
    let producer = std::thread::spawn(move || {
        for i in 0..total {
            loop {
                match tx.try_send(i) {
                    Ok(()) => break,
                    Err(TrySendError::Full(_)) => std::thread::yield_now(),
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
        }
    });
    let mut expected = 0u64;
    while expected < total {
        match rx.try_recv() {
            Ok(v) => {
                assert_eq!(v, expected);
                expected += 1;
            }
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => break,
        }
    }
    producer.join().unwrap();
    assert_eq!(expected, total);
}

#[test]
fn spsc_outbox_flush_pipeline_under_threads() {
    // The executor's actual shape: the coordinator queues tasks in an
    // outbox and flushes it with `try_send_batch`, keeping what a short
    // send (full ring) left behind for its next flush; the worker parks
    // in `recv`. The outbox refills in batches larger than the ring, so
    // short sends are certain.
    let (mut tx, mut rx) = ring::spsc::<u64>(16);
    let total = n(100_000);
    let batch = 48;
    let consumer = std::thread::spawn(move || {
        let mut expected = 0u64;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, expected, "FIFO violated across short sends");
            expected += 1;
        }
        expected
    });
    let mut outbox = VecDeque::new();
    let mut queued = 0u64;
    let mut short_sends = 0u64;
    while queued < total || !outbox.is_empty() {
        if outbox.is_empty() {
            let m = batch.min(total - queued);
            outbox.extend(queued..queued + m);
            queued += m;
        }
        tx.try_send_batch(&mut outbox).unwrap();
        if !outbox.is_empty() {
            short_sends += 1;
            std::thread::yield_now();
        }
    }
    drop(tx);
    assert_eq!(consumer.join().unwrap(), total);
    assert!(short_sends > 0, "the retry path never ran");
}

#[test]
fn spsc_drop_with_items_in_flight_frees_everything_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    // Drop the receiver first: queued items die with the ring.
    {
        let (mut tx, rx) = ring::spsc::<Tracked>(16);
        for i in 0..10 {
            tx.try_send(Tracked::new(i, &drops)).unwrap();
        }
        drop(rx);
        // A send after disconnect hands the value back; dropping the
        // error drops the value exactly once.
        assert!(matches!(
            tx.try_send(Tracked::new(99, &drops)),
            Err(TrySendError::Disconnected(_))
        ));
    }
    assert_eq!(drops.load(Ordering::Relaxed), 11, "receiver-first drop");

    // Drop the sender first: the receiver drains, then disconnects.
    drops.store(0, Ordering::Relaxed);
    {
        let (mut tx, mut rx) = ring::spsc::<Tracked>(16);
        for i in 0..10 {
            tx.try_send(Tracked::new(i, &drops)).unwrap();
        }
        drop(tx);
        for _ in 0..4 {
            rx.try_recv().unwrap();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 4, "drained items dropped");
        // Six remain in flight when the receiver dies.
    }
    assert_eq!(drops.load(Ordering::Relaxed), 10, "sender-first drop");
}

#[test]
fn mpsc_drop_with_items_in_flight_frees_everything_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let (tx, mut rx) = ring::mpsc::<Tracked>(16);
        let tx2 = tx.clone();
        for i in 0..6 {
            tx.try_send(Tracked::new(i, &drops)).unwrap();
            tx2.try_send(Tracked::new(100 + i, &drops)).unwrap();
        }
        rx.try_recv().unwrap();
        rx.try_recv().unwrap();
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        // 10 items still in flight; receiver dies before the senders.
        drop(rx);
        assert!(matches!(
            tx.try_send(Tracked::new(999, &drops)),
            Err(TrySendError::Disconnected(_))
        ));
    }
    assert_eq!(drops.load(Ordering::Relaxed), 13);
}

#[test]
fn mpsc_many_producers_race_without_loss_or_duplication() {
    let producers = 4u64;
    let per = n(20_000);
    let (tx, mut rx) = ring::mpsc::<u64>(32); // tiny: constant Full races
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    // Encode producer id in the high bits.
                    tx.send((p << 56) | i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    // Per-producer FIFO: each producer's payloads arrive in its send
    // order even though producers interleave arbitrarily.
    let mut next = vec![0u64; producers as usize];
    let mut total = 0u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if rx.recv_batch(&mut buf, 64) == 0 {
            match rx.recv() {
                Ok(v) => buf.push(v),
                Err(_) => break,
            }
        }
        for &v in &buf {
            let p = (v >> 56) as usize;
            let i = v & ((1 << 56) - 1);
            assert_eq!(i, next[p], "per-producer FIFO violated for producer {p}");
            next[p] += 1;
            total += 1;
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total, producers * per);
    assert!(next.iter().all(|&c| c == per));
}

#[test]
fn mpsc_blocking_recv_parks_and_wakes_across_bursts() {
    // Bursty producers with gaps force the consumer through its
    // park/unpark path repeatedly; nothing may be lost or reordered
    // per producer.
    let (tx, mut rx) = ring::mpsc::<u64>(8);
    let bursts = if cfg!(miri) { 5 } else { 50 };
    let per_burst = 16u64;
    let producer = std::thread::spawn(move || {
        for b in 0..bursts {
            for i in 0..per_burst {
                tx.send(b * per_burst + i).unwrap();
            }
            std::thread::yield_now();
        }
    });
    let mut expected = 0u64;
    while let Ok(v) = rx.recv() {
        assert_eq!(v, expected);
        expected += 1;
    }
    producer.join().unwrap();
    assert_eq!(expected, bursts * per_burst);
}

#[test]
fn capacity_is_a_real_bound() {
    // try_send must report Full at exactly the rounded capacity, and
    // recv must free exactly one slot.
    let (mut tx, mut rx) = ring::spsc::<u64>(5); // rounds up to 8
    for i in 0..8 {
        tx.try_send(i).unwrap();
    }
    assert!(matches!(tx.try_send(8), Err(TrySendError::Full(8))));
    assert_eq!(rx.try_recv().unwrap(), 0);
    tx.try_send(8).unwrap();
    assert!(matches!(tx.try_send(9), Err(TrySendError::Full(9))));
}
