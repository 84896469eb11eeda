//! The threaded executor's steady-state cycle (dispatch, execute,
//! verify, commit) allocates a bounded handful of times per committed
//! task. With pooled deltas the dispatch/commit path itself contributes
//! nothing; what remains is, per *spawn*, the master's prediction
//! overlay (a `Vec` of `Arc` layers), plus an occasional checkpoint
//! segment and the amortized per-32-commits snapshot materialization.
//! It measures 3.3-4.1 over 25 release runs (pipeline warm-up does not
//! fully cancel at these scales). The bound of 16 dates from when it
//! measured 6.6-11.5, so it catches per-task heap traffic quadrupling,
//! not one extra allocation.
//!
//! The discrete engine recycles its tasks' live-in and write buffers the
//! same way, and its schedule is deterministic, so its rate is one
//! number: 3.59 per committed task (the overlay `Vec`, the master's
//! closed segment and its bank); 7.73
//! with a fresh pair of deltas per task. Its bound, too, is about twice
//! the measurement — below what losing the recycling costs. A spawn
//! guard on every boundary adds nothing to it: the master probes a
//! guard from stack buffers.
//!
//! A snapshot of architected state is one page-table copy: cloning
//! `twolf_like`'s halted state (8 resident pages) makes one allocation,
//! and each page is shared, not copied.
//!
//! Building the CMP timing model, `CmpCost::new` with the default
//! configuration, makes 58 allocations: for each of the 16 L1s (an
//! instruction and a data cache for the master and seven slaves) a block
//! list and its one block, for the shared L2 a block list and eight
//! blocks, a predictor table and a BTB per core, and the slave `Vec`.
//! With a `Vec` per cache set it made 4,130. The bound is about twice
//! the 58.
//!
//! `Profile::collect` allocates per distinct page, edge and instruction
//! slot, never per executed instruction: on a loop whose loads and stores
//! cycle through the same 64 words it makes 24 allocations, the training
//! machine's among them, whether the loop runs 1,000 or 16,000 times.
//!
//! This file holds one `#[test]` and must stay that way: the counting
//! allocator is process-wide, and a second test running beside it would
//! be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mssp::core::{run_threaded, EngineConfig};
use mssp::distill::Slice;
use mssp::prelude::*;
use mssp::timing::CmpCost;

/// Heap allocations since process start (alloc + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// increment that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What an executor leaves behind: the final state and its statistics.
type Outcome = (MachineState, EngineStats);

/// Runs `gzip_like` at `scale` through `execute` and returns (allocations
/// during the run, committed tasks).
fn measure(scale: u64, execute: impl Fn(&Program, &Distilled) -> Outcome) -> (u64, u64) {
    let program = Workload::by_name("gzip_like").unwrap().program(scale);
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).unwrap();
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let (state, stats) = execute(&program, &d);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(state.reg(CHECKSUM_REG), seq.state().reg(CHECKSUM_REG));
    (allocs, stats.committed_tasks)
}

/// Allocations `Profile::collect` makes on a loop of `trips` iterations
/// whose loads and stores cycle through the same 64 words.
fn profile_allocs(trips: u64) -> u64 {
    let program = assemble(&format!(
        "main: li   s0, {trips}
               addi t0, sp, -1024
         loop: andi t1, s0, 63
               slli t1, t1, 3
               add  t1, t0, t1
               sd   s0, 0(t1)
               ld   a1, 4(t1)
               addi s0, s0, -1
               bnez s0, loop
               halt"
    ))
    .unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(profile.dynamic_instructions(), 2 + 7 * trips);
    allocs
}

/// Marginal allocations per committed task of `execute`. Differencing two
/// scales cancels every setup cost (thread spawns, boot state, ring
/// construction, arena warm-up) and leaves the rate of the per-task cycle.
fn marginal_per_task(execute: impl Fn(&Program, &Distilled) -> Outcome) -> (f64, String) {
    let (allocs_small, tasks_small) = measure(2_048, &execute);
    let (allocs_large, tasks_large) = measure(4_096, &execute);
    assert!(tasks_large > tasks_small);
    let per_task =
        allocs_large.saturating_sub(allocs_small) as f64 / (tasks_large - tasks_small) as f64;
    let detail = format!(
        "{per_task:.2} allocations per committed task \
         ({allocs_small} for {tasks_small} tasks, {allocs_large} for {tasks_large})"
    );
    (per_task, detail)
}

/// A spawn guard on every boundary of `d` that never vetoes: its branch
/// is always taken, as asserted, and its one input is fed back from
/// probe to probe, since the guard itself redefines it.
fn guard_every_boundary(d: &Distilled) -> Distilled {
    let guard = Slice {
        asserted_taken: true,
        program: assemble("main: addi t0, t0, 1\n beq zero, zero, main").unwrap(),
        inputs: vec![(Reg::T0, 0)],
        window: 4,
        home_pc: 0,
    };
    let slices = d.boundaries().iter().map(|&b| (b, vec![guard.clone()]));
    d.clone().with_slices(slices.collect())
}

#[test]
fn steady_state_allocations_per_committed_task_are_bounded() {
    let config = EngineConfig::default();
    let (threaded, detail) = marginal_per_task(|p, d| {
        let run = run_threaded(p, d, config).unwrap();
        (run.state, run.stats)
    });
    assert!(threaded <= 16.0, "threaded: {detail}");
    let (discrete, detail) = marginal_per_task(|p, d| {
        let run = Engine::new(p, d, config, UnitCost).run().unwrap();
        (run.state, run.stats)
    });
    assert!(discrete <= 7.0, "discrete: {detail}");
    // Attaching the guards is set-up, which differencing cancels.
    let (guarded, guarded_detail) = marginal_per_task(|p, d| {
        let run = Engine::new(p, &guard_every_boundary(d), config, UnitCost)
            .run()
            .unwrap();
        assert_eq!(run.stats.spawn_vetoes, 0);
        (run.state, run.stats)
    });
    assert!(
        guarded <= discrete,
        "spawn guards allocate: {guarded_detail}, unguarded {detail}"
    );

    let twolf = Workload::by_name("twolf_like").unwrap().program(1_000);
    let mut seq = SeqMachine::boot(&twolf);
    seq.run(u64::MAX).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let snapshot = seq.state().clone();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(snapshot == *seq.state());
    assert_eq!(allocs, 1, "cloning a halted twolf_like state");

    let before = ALLOCS.load(Ordering::Relaxed);
    let cost = CmpCost::new(&TimingConfig::default());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    drop(cost);
    assert!(allocs <= 120, "CmpCost::new: {allocs} allocations");

    let (once, sixteen) = (profile_allocs(1_000), profile_allocs(16_000));
    assert_eq!(once, sixteen, "Profile::collect allocates per instruction");
}
