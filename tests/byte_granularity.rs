//! Byte-granular verification: adjacent tasks writing different bytes of
//! the same word must not squash each other (false sharing), and partial
//! writes must commit exactly.

use mssp::prelude::*;

/// Each loop iteration stores one byte; consecutive iterations hit
/// consecutive bytes, so tasks share words at their boundaries.
const BYTE_WRITER: &str = "
    main:  li   s2, 0x300000
           addi s0, zero, 4000
    loop:  andi t0, s0, 255
           add  t1, s2, s0
           sb   t0, 0(t1)
           add  s1, s1, t0
           addi s0, s0, -1
           bnez s0, loop
           halt";

#[test]
fn byte_writes_commit_exactly() {
    let p = assemble(BYTE_WRITER).unwrap();
    let mut seq = SeqMachine::boot(&p);
    seq.run(u64::MAX).unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let dcfg = DistillConfig {
        target_task_size: 24, // tiny tasks: maximize word sharing
        ..DistillConfig::default()
    };
    let d = distill(&p, &profile, &dcfg).unwrap();
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
    for w in (0x300000u64 >> 3)..((0x300000 + 4008) >> 3) {
        assert_eq!(
            run.state.load_word(w),
            seq.state().load_word(w),
            "word {w:#x}"
        );
    }
}

#[test]
fn byte_writes_do_not_false_share_under_timing() {
    let p = assemble(BYTE_WRITER).unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let dcfg = DistillConfig {
        target_task_size: 24,
        ..DistillConfig::default()
    };
    let d = distill(&p, &profile, &dcfg).unwrap();
    let run = run_mssp(&p, &d, &TimingConfig::default()).unwrap();
    let s = &run.run.stats;
    // With byte-masked live-ins there is no systematic word-boundary
    // conflict: squashes should be negligible.
    assert!(
        s.squash_events() <= 3,
        "false sharing suspected: {} squashes over {} tasks",
        s.squash_events(),
        s.spawned_tasks
    );
}

#[test]
fn unaligned_word_straddles_are_exact() {
    // Stores an 8-byte value at an odd address every iteration, straddling
    // two words; verifies bit-exact commit.
    let p = assemble(
        "main:  li   s2, 0x300001
                addi s0, zero, 500
         loop:  mul  t0, s0, s0
                sd   t0, 0(s2)
                ld   t1, 0(s2)
                add  s1, s1, t1
                addi s2, s2, 16
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let mut seq = SeqMachine::boot(&p);
    seq.run(u64::MAX).unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
}

/// The ablation of byte masking under both executors: with whole-word
/// live-ins a byte store reads the word it lands in, so the tasks record
/// memory live-ins, and still commit the sequential state.
#[test]
fn word_granular_live_ins_act_under_both_executors() {
    let p = assemble(BYTE_WRITER).unwrap();
    let mut seq = SeqMachine::boot(&p);
    seq.run(u64::MAX).unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let dcfg = DistillConfig {
        target_task_size: 24,
        ..DistillConfig::default()
    };
    let d = distill(&p, &profile, &dcfg).unwrap();
    let config = EngineConfig {
        num_slaves: 1,
        word_granular_live_ins: true,
        ..EngineConfig::default()
    };
    let discrete = Engine::new(&p, &d, config, UnitCost).run().unwrap();
    let threaded = run_threaded(&p, &d, config).unwrap();
    let runs = [
        ("Engine", discrete.state, discrete.stats),
        ("run_threaded", threaded.state, threaded.stats),
    ];
    for (executor, state, stats) in runs {
        assert!(stats.live_in_mem_cells > 0, "{executor}: {stats:?}");
        assert!(state == *seq.state(), "{executor}: not sequential");
    }
}
