//! BENCH — machine-readable contention/allocation microbenchmark.
//!
//! Measures the two properties the lock-free hot path exists for and
//! emits them as `BENCH_contention.json` so CI can gate on regressions:
//!
//! 1. **Ring throughput.** Single-producer message throughput of the
//!    SPSC/MPSC rings ([`mssp_core::ring`]) on the task/result path.
//!    Measured two ways: a same-thread burst loop (pure per-operation
//!    overhead, deterministic on any host) and a cross-thread
//!    producer/consumer pair (includes wakeup cost, noisy on single-core
//!    hosts). Informative only; the repository benchmark's ledger tracks
//!    ring cost (`core.ring.*`).
//!
//! 2. **Steady-state allocations per committed task.** This binary
//!    installs a counting global allocator and runs a workload through
//!    the threaded executor at scale N and 2N; differencing the two
//!    counts cancels every setup cost (program build, boot state, ring
//!    construction, arena warm-up), leaving the marginal allocation rate
//!    of the dispatch/execute/verify/commit cycle. With pooled deltas
//!    that marginal rate is a handful of allocations per *spawn* from
//!    the master's prediction overlay (a `Vec` of `Arc` layers per
//!    spawned task, plus an occasional checkpoint segment and the
//!    amortized per-32-commits snapshot materialization) — the
//!    dispatch/commit path itself contributes zero.
//!
//! ```text
//! bench_contention [--json] [--out PATH] [--scale-div N] [--repeats N]
//!                  [--max-allocs-per-task Y]
//! ```
//!
//! * `--json` — emit JSON (to stdout, or to `--out PATH`); otherwise a
//!   human-readable table is printed.
//! * `--scale-div N` — divide message counts and workload scale by `N`
//!   (default 1; CI uses a divisor for speed).
//! * `--repeats N` — runs per throughput point, keeping the best
//!   (default 3).
//! * `--max-allocs-per-task Y` — exit non-zero if the marginal
//!   steady-state allocation rate exceeds `Y` per committed task.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mssp_bench::{harness_scale, prepare, print_header};
use mssp_core::{ring, EngineConfig};
use mssp_distill::DistillConfig;
use mssp_machine::SeqMachine;
use mssp_stats::Table;
use mssp_workloads::CHECKSUM_REG;

/// Heap allocations observed since process start (alloc + realloc;
/// deallocation is free of interest here).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const RING_CAP: usize = 1024;
const BURST: usize = 256;

struct Args {
    json: bool,
    out: Option<String>,
    scale_div: u64,
    repeats: u32,
    max_allocs_per_task: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        out: None,
        scale_div: 1,
        repeats: 3,
        max_allocs_per_task: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--json" => args.json = true,
            "--out" => args.out = Some(value("--out")?),
            "--scale-div" => {
                args.scale_div = value("--scale-div")?
                    .parse()
                    .map_err(|e| format!("--scale-div: {e}"))?;
            }
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
            }
            "--max-allocs-per-task" => {
                args.max_allocs_per_task = Some(
                    value("--max-allocs-per-task")?
                        .parse()
                        .map_err(|e| format!("--max-allocs-per-task: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.scale_div == 0 {
        return Err("--scale-div must be positive".into());
    }
    if args.repeats == 0 {
        return Err("--repeats must be positive".into());
    }
    Ok(args)
}

/// Best-of-`repeats` messages/second for `f(messages)`.
fn best_rate(messages: u64, repeats: u32, mut f: impl FnMut(u64) -> f64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..repeats {
        let secs = f(messages).max(1e-9);
        best = best.max(messages as f64 / secs);
    }
    best
}

/// Same-thread burst loop over the SPSC ring: send a burst, drain it.
/// Measures pure per-operation overhead with zero scheduler noise.
fn spsc_same_thread(messages: u64) -> f64 {
    let (mut tx, mut rx) = ring::spsc::<u64>(RING_CAP);
    let mut buf = Vec::with_capacity(BURST);
    let mut sent = 0u64;
    let start = Instant::now();
    while sent < messages {
        let n = BURST.min((messages - sent) as usize);
        tx.send_batch((0..n as u64).map(|i| sent + i))
            .expect("receiver alive");
        sent += n as u64;
        buf.clear();
        while rx.recv_batch(&mut buf, BURST) == 0 {}
        debug_assert_eq!(buf.len(), n);
    }
    start.elapsed().as_secs_f64()
}

/// Same-thread burst loop over the MPSC ring (single producer).
fn mpsc_same_thread(messages: u64) -> f64 {
    let (tx, mut rx) = ring::mpsc::<u64>(RING_CAP);
    let mut buf = Vec::with_capacity(BURST);
    let mut sent = 0u64;
    let start = Instant::now();
    while sent < messages {
        let n = BURST.min((messages - sent) as usize);
        for i in 0..n as u64 {
            tx.send(sent + i).expect("receiver alive");
        }
        sent += n as u64;
        buf.clear();
        while rx.recv_batch(&mut buf, BURST) == 0 {}
        debug_assert_eq!(buf.len(), n);
    }
    start.elapsed().as_secs_f64()
}

/// Cross-thread single-producer throughput over the SPSC ring,
/// including real wakeup costs. Noisy on single-core hosts.
fn spsc_cross_thread(messages: u64) -> f64 {
    let (mut tx, mut rx) = ring::spsc::<u64>(RING_CAP);
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        for i in 0..messages {
            if tx.send(i).is_err() {
                return;
            }
        }
    });
    let mut buf = Vec::with_capacity(BURST);
    let mut got = 0u64;
    while got < messages {
        buf.clear();
        let n = rx.recv_batch(&mut buf, BURST);
        if n == 0 && rx.recv().map(|v| buf.push(v)).is_err() {
            break;
        }
        got += buf.len() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    producer.join().expect("producer clean exit");
    assert_eq!(got, messages);
    secs
}

/// Runs the first bundled workload through the threaded executor at
/// `scale`, returning (heap allocations during the run, committed
/// tasks). The caller differences two scales to get the marginal rate.
fn measure_allocs(scale: u64) -> (u64, u64) {
    let w = &mssp_workloads::workloads()[0];
    let program = w.program(scale);
    let (distilled, _) = prepare(&program, &DistillConfig::default());
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).expect("workload halts");
    let expected = seq.state().reg(CHECKSUM_REG);
    let cfg = EngineConfig {
        num_slaves: 2,
        ..EngineConfig::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = mssp_core::run_threaded(&program, &distilled, cfg).expect("threaded run succeeds");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        run.state.reg(CHECKSUM_REG),
        expected,
        "threaded checksum mismatch — correctness bug"
    );
    (allocs, run.stats.committed_tasks)
}

struct Report {
    messages: u64,
    spsc_same: f64,
    mpsc_same: f64,
    spsc_cross: f64,
    workload: String,
    scale_small: u64,
    scale_large: u64,
    allocs_small: u64,
    allocs_large: u64,
    tasks_small: u64,
    tasks_large: u64,
}

impl Report {
    /// Marginal allocations per committed task between the two scales.
    fn allocs_per_task(&self) -> f64 {
        let dt = self.tasks_large.saturating_sub(self.tasks_small);
        let da = self.allocs_large.saturating_sub(self.allocs_small);
        if dt == 0 {
            // Degenerate (tiny scales): fall back to the absolute rate.
            self.allocs_large as f64 / self.tasks_large.max(1) as f64
        } else {
            da as f64 / dt as f64
        }
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn render_json(r: &Report, args: &Args) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"contention\",\n");
    s.push_str("  \"generated_by\": \"bench_contention\",\n");
    s.push_str(&format!("  \"scale_div\": {},\n", args.scale_div));
    s.push_str(&format!("  \"repeats\": {},\n", args.repeats));
    s.push_str(&format!("  \"messages\": {},\n", r.messages));
    s.push_str("  \"throughput_msgs_per_sec\": {\n");
    s.push_str(&format!(
        "    \"spsc_ring_same_thread\": {},\n",
        num(r.spsc_same)
    ));
    s.push_str(&format!(
        "    \"mpsc_ring_same_thread\": {},\n",
        num(r.mpsc_same)
    ));
    s.push_str(&format!(
        "    \"spsc_ring_cross_thread\": {}\n",
        num(r.spsc_cross)
    ));
    s.push_str("  },\n");
    s.push_str("  \"steady_state_allocations\": {\n");
    s.push_str(&format!("    \"workload\": \"{}\",\n", r.workload));
    s.push_str(&format!("    \"scale_small\": {},\n", r.scale_small));
    s.push_str(&format!("    \"scale_large\": {},\n", r.scale_large));
    s.push_str(&format!("    \"allocs_small\": {},\n", r.allocs_small));
    s.push_str(&format!("    \"allocs_large\": {},\n", r.allocs_large));
    s.push_str(&format!("    \"tasks_small\": {},\n", r.tasks_small));
    s.push_str(&format!("    \"tasks_large\": {},\n", r.tasks_large));
    s.push_str(&format!(
        "    \"allocs_per_task\": {}\n",
        num(r.allocs_per_task())
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_contention: {e}");
            return ExitCode::FAILURE;
        }
    };
    let messages = (2_000_000 / args.scale_div).max(BURST as u64);

    // Throughput: same-thread first (deterministic), then cross-thread.
    let spsc_same = best_rate(messages, args.repeats, spsc_same_thread);
    let mpsc_same = best_rate(messages, args.repeats, mpsc_same_thread);
    let cross_messages = (messages / 4).max(BURST as u64);
    let spsc_cross = best_rate(cross_messages, args.repeats, spsc_cross_thread);

    // Allocation rate: difference scale N against 2N so fixed setup
    // costs cancel and only the per-task marginal rate remains.
    let w = &mssp_workloads::workloads()[0];
    let scale_small = harness_scale(w, args.scale_div).max(2);
    let scale_large = scale_small * 2;
    let (allocs_small, tasks_small) = measure_allocs(scale_small);
    let (allocs_large, tasks_large) = measure_allocs(scale_large);

    let report = Report {
        messages,
        spsc_same,
        mpsc_same,
        spsc_cross,
        workload: w.name.to_string(),
        scale_small,
        scale_large,
        allocs_small,
        allocs_large,
        tasks_small,
        tasks_large,
    };

    if args.json {
        let json = render_json(&report, &args);
        match &args.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("bench_contention: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            None => print!("{json}"),
        }
    } else {
        print_header(
            "BENCH",
            "Ring throughput and steady-state allocation",
            &format!(
                "{} msgs, best of {}, scale divisor {}",
                messages, args.repeats, args.scale_div
            ),
        );
        let mut table = Table::new(vec!["queue", "same-thread msg/s", "cross-thread msg/s"]);
        table.row(vec![
            "spsc ring".into(),
            format!("{spsc_same:.0}"),
            format!("{spsc_cross:.0}"),
        ]);
        table.row(vec![
            "mpsc ring".into(),
            format!("{mpsc_same:.0}"),
            "-".into(),
        ]);
        println!("{}", table.render());
        println!(
            "steady-state allocations:  {:.2}/task ({} @ scale {} -> {} tasks; scale {} -> {} tasks)",
            report.allocs_per_task(),
            report.workload,
            report.scale_small,
            report.tasks_small,
            report.scale_large,
            report.tasks_large,
        );
    }

    if let Some(ceiling) = args.max_allocs_per_task {
        let rate = report.allocs_per_task();
        if rate > ceiling {
            eprintln!(
                "bench_contention: {rate:.2} allocations per committed task above ceiling \
                 {ceiling:.2} — the steady-state hot path is allocating"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
