//! Differential suite for the ring-based threaded executor.
//!
//! The lock-free rebuild (per-worker SPSC task rings, one MPSC result
//! ring, arena-recycled deltas, a pooled committed-view per task) must
//! be observationally identical to the discrete [`Engine`]: same final
//! state, same committed instruction count, same squash-reason
//! histogram, at 1/2/4/8 workers. The fixtures here are chosen to lean
//! on exactly the machinery the rebuild touched:
//!
//! * a **memory recurrence** — every task's live-ins include a cell the
//!   *previous* task wrote, so correctness hinges on the pooled
//!   committed-view delta shipped with each spawn (a stale or
//!   mis-recycled view is an instant live-in squash or, worse, a wrong
//!   committed value);
//! * a **long run** far past `MAX_PENDING_DELTAS`, cycling snapshot
//!   materialization, committed-view resets and arena recycling many
//!   times;
//! * an **adversarial master** asserting the wrong branch arm, driving
//!   squash/recovery (and its buffer-reclamation paths) under real
//!   thread interleavings.
//!
//! Both executors decide every task with the one `verify_and_commit`
//! oracle, so the oracle is the path under test here, not a shadow: what
//! this suite certifies is that the threaded coordinator presents it the
//! same tasks against the same architected state as the discrete engine.

use std::collections::{BTreeMap, BTreeSet};

use mssp::core::{run_threaded, EngineConfig, EngineStats, UnitCost};
use mssp::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn squash_histogram(stats: &EngineStats) -> [u64; 4] {
    [
        stats.squashes_wrong_path,
        stats.squashes_live_in,
        stats.squashes_overrun,
        stats.squashes_fault,
    ]
}

/// Runs `program` under both executors at every worker count and
/// asserts full observational equivalence against the sequential
/// machine and each other.
fn assert_differential(program: &Program, d: &Distilled, label: &str) {
    let mut seq = SeqMachine::boot(program);
    seq.run(u64::MAX).expect("fixture halts");

    for slaves in WORKER_COUNTS {
        let reference = Engine::new(
            program,
            d,
            EngineConfig {
                num_slaves: slaves,
                ..EngineConfig::default()
            },
            UnitCost,
        )
        .run()
        .expect("engine terminates");

        let cfg = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        let run = run_threaded(program, d, cfg).expect("threaded terminates");

        // State: threaded == engine == sequential, including memory.
        assert_eq!(
            run.state.reg(Reg::S1),
            seq.state().reg(Reg::S1),
            "{label}: s1, {slaves} workers"
        );
        assert_eq!(run.state.pc(), seq.state().pc(), "{label}: pc");
        let sp = seq.state().reg(Reg::SP);
        for w in ((sp - 64) >> 3)..(sp >> 3) {
            assert_eq!(
                run.state.load_word(w),
                seq.state().load_word(w),
                "{label}: stack word {w}, {slaves} workers"
            );
        }
        assert_eq!(run.state.reg(Reg::S1), reference.state.reg(Reg::S1));

        // Commit counts, in instruction terms.
        assert_eq!(
            run.stats.committed_instructions,
            seq.instructions(),
            "{label}: committed instructions, {slaves} workers"
        );
        assert_eq!(
            run.stats.committed_instructions,
            reference.stats.committed_instructions
        );

        // Squash-reason histogram: forced by architected state, which
        // both executors walk identically. (Raw spawned_tasks /
        // spawn_vetoes DO depend on run-ahead depth and are deliberately
        // not compared.)
        assert_eq!(
            squash_histogram(&run.stats),
            squash_histogram(&reference.stats),
            "{label}: squash histogram, {slaves} workers"
        );
    }
}

#[test]
fn memory_recurrence_flows_through_the_committed_view() {
    // Each iteration reads -8(sp) written by the previous one: every
    // task's live-ins include its predecessor's freshest write, which
    // the worker can only have observed through the pooled committed
    // view shipped at dispatch.
    let program = assemble(
        "main:  addi s0, zero, 400
         loop:  ld   t0, -8(sp)
                add  t0, t0, s0
                sd   t0, -8(sp)
                add  s1, s1, t0
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
    assert_differential(&program, &d, "memory recurrence");
}

#[test]
fn long_run_cycles_snapshots_compaction_and_arena_recycling() {
    // Thousands of commits: far past MAX_PENDING_DELTAS, so the
    // coordinator materializes snapshots, resets the committed view and
    // recycles pooled deltas hundreds of times over.
    let program = assemble(
        "main:  addi s0, zero, 3000
         loop:  add  s1, s1, s0
                mul  t0, s0, s0
                add  s1, s1, t0
                sd   s1, -8(sp)
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).unwrap();

    for slaves in WORKER_COUNTS {
        let cfg = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        let run = run_threaded(&program, &d, cfg).expect("terminates");
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        // The run must actually have exercised the snapshot/delta cycle.
        assert!(
            run.stats.snapshots_materialized > 2,
            "{slaves} workers: expected repeated materialization, got {:?}",
            run.stats
        );
        assert!(run.stats.deltas_published > run.stats.snapshots_materialized);
    }
}

/// A fixture whose master clobbers `s2` inside the loop while the
/// original holds it constant at `truth`: every spawned checkpoint
/// carries the wrong `s2`, so tasks that read it live-in-mismatch and
/// recovery carries the run.
fn clobbering_fixture(iters: u64, junk: u64, truth: u64) -> (Program, Distilled) {
    let original = assemble(&format!(
        "main:  addi s2, zero, {truth}
                addi s0, zero, {iters}
         loop:  add  t0, s2, s0
                sd   t0, -8(sp)
                addi s0, s0, -1
                bnez s0, loop
                ld   s1, -8(sp)
                halt"
    ))
    .unwrap();
    let wrong = assemble(&format!(
        "main:  addi s2, zero, {truth}
                addi s0, zero, {iters}
         loop:  addi s2, zero, {junk}
                addi s0, s0, -1
                j    loop"
    ))
    .unwrap();
    let boundary = original.symbol("loop").unwrap();
    let map = BTreeMap::from([
        (original.entry(), wrong.entry()),
        (boundary, wrong.symbol("loop").unwrap()),
    ]);
    let d = Distilled::from_parts(wrong, BTreeSet::from([boundary]), map);
    (original, d)
}

#[test]
fn clobbering_master_squashes_identically_across_executors() {
    // Deterministic fuzz: vary iteration count and the junk/truth values
    // with a fixed-seed LCG. Each variant must actually squash on the
    // clobbered live-in in the discrete engine, and agree with the
    // threaded executor on state, commits and the squash histogram at
    // every worker count.
    let mut seed = 0x5eed_cafe_u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    for variant in 0..4 {
        let iters = 120 + next() % 200;
        let junk = 1 + next() % 1000;
        let truth = junk + 1 + next() % 97; // always distinct from junk
        let (program, d) = clobbering_fixture(iters, junk, truth);

        let probe = Engine::new(&program, &d, EngineConfig::default(), UnitCost)
            .run()
            .expect("engine terminates");
        assert!(
            probe.stats.squashes_live_in > 0,
            "variant {variant}: the clobbered s2 must squash (stats: {:?})",
            probe.stats
        );

        assert_differential(&program, &d, &format!("clobbering variant {variant}"));
    }
}

#[test]
fn adversarial_master_squashes_identically_across_executors() {
    // The master asserts the odd arm unconditionally — wrong whenever
    // the original takes the even arm — driving constant squash and
    // recovery through the ring/arena reclamation paths.
    let program = assemble(
        "main:  addi s0, zero, 300
         loop:  andi t0, s0, 1
                beqz t0, even
                addi s1, s1, 3
                j    next
         even:  addi s1, s1, 7
         next:  sd   s1, -16(sp)
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let wrong = assemble(
        "main:  addi s0, zero, 300
         loop:  addi s1, s1, 3
                addi s0, s0, -1
                j    loop",
    )
    .unwrap();
    let mut map = BTreeMap::new();
    map.insert(program.entry(), wrong.entry());
    map.insert(
        program.symbol("loop").unwrap(),
        wrong.symbol("loop").unwrap(),
    );
    let d = Distilled::from_parts(
        wrong,
        BTreeSet::from([program.symbol("loop").unwrap()]),
        map,
    );
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).unwrap();
    // The fixture must be squash-heavy for the comparison to mean much.
    let probe = run_threaded(
        &program,
        &d,
        EngineConfig {
            num_slaves: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(probe.stats.squashed_tasks > 0, "fixture must squash");
    assert_differential(&program, &d, "adversarial master");
}
