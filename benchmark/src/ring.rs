//! Probes of `mssp::core::ring`, the transport of the threaded executor.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

use mssp::core::ring::{mpsc, spsc};

/// Ring capacity and burst length of the same-thread probes.
const BURST: usize = 512;

/// Nanoseconds per item through an SPSC ring, producer and consumer on
/// one thread in bursts: the cost of the ring code with no cache-line
/// transfer and no wake-up.
#[must_use]
pub fn spsc_ns_per_item(items: usize) -> f64 {
    let (mut tx, mut rx) = spsc::<u64>(BURST);
    let start = Instant::now();
    for burst in 0..items / BURST {
        for i in 0..BURST {
            tx.try_send((burst * BURST + i) as u64)
                .expect("ring has room for one burst");
        }
        for _ in 0..BURST {
            black_box(rx.try_recv().expect("burst was sent"));
        }
    }
    start.elapsed().as_nanos() as f64 / (items / BURST * BURST) as f64
}

/// As [`spsc_ns_per_item`] through the MPSC ring, with one producer.
#[must_use]
pub fn mpsc_ns_per_item(items: usize) -> f64 {
    let (tx, mut rx) = mpsc::<u64>(BURST);
    let start = Instant::now();
    for burst in 0..items / BURST {
        for i in 0..BURST {
            tx.try_send((burst * BURST + i) as u64)
                .expect("ring has room for one burst");
        }
        for _ in 0..BURST {
            black_box(rx.try_recv().expect("burst was sent"));
        }
    }
    start.elapsed().as_nanos() as f64 / (items / BURST * BURST) as f64
}

/// Microseconds for one item to cross between two threads and wake the
/// receiver: half the round trip of a ping-pong over two SPSC rings with
/// blocking `recv`, i.e. the doorbell park and unpark every task pays
/// twice in the threaded executor.
///
/// # Panics
///
/// Panics if the echo thread dies, which only a bug in the ring can cause.
#[must_use]
pub fn handoff_us(round_trips: usize) -> f64 {
    let (mut ping_tx, mut ping_rx) = spsc::<u64>(4);
    let (mut pong_tx, mut pong_rx) = spsc::<u64>(4);
    let echo = thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    for i in 0..round_trips as u64 {
        ping_tx.send(i).expect("echo thread is alive");
        assert_eq!(pong_rx.recv().expect("echo thread is alive"), i);
    }
    let seconds = start.elapsed().as_secs_f64();
    drop(ping_tx);
    echo.join().expect("echo thread exits when its ring closes");
    seconds * 1e6 / (2 * round_trips) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_move_every_item_and_report_positive_times() {
        assert!(spsc_ns_per_item(4 * BURST) > 0.0);
        assert!(mpsc_ns_per_item(4 * BURST) > 0.0);
        assert!(handoff_us(50) > 0.0);
    }
}
