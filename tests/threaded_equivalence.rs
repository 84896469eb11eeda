//! Property-based equivalence for the threaded executor: across random
//! structured programs and worker counts {1, 2, 4, 8}, `run_threaded`
//! must commit exactly the sequential machine's state — registers and all
//! touched memory. A second suite feeds it adversarially mis-distilled
//! programs (wrong asserted branches) so the squash/recovery path runs
//! under real thread interleavings.
//!
//! Seeded with `mssp-testkit` (no crate registry in the build
//! environment); a failing case prints its seed for replay.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::arb_loop_nest;
use mssp::core::{run_threaded, EngineConfig};
use mssp::prelude::*;
use mssp_testkit::check;

#[test]
fn threaded_random_programs_commit_sequential_state() {
    check(0x7EAD_0001, 24, |rng| {
        let src = arb_loop_nest(rng);
        let slaves = *rng.choose(&[1usize, 2, 4, 8]);
        let target = *rng.choose(&[8u64, 64, 256]);
        let level = *rng.choose(&[
            DistillLevel::None,
            DistillLevel::Conservative,
            DistillLevel::Aggressive,
        ]);

        let program = assemble(&src).expect("generated programs assemble");
        let mut seq = SeqMachine::boot(&program);
        seq.run(20_000_000).expect("no faults");
        assert!(seq.halted(), "generated programs halt within bound");

        let profile = Profile::collect(&program, u64::MAX).expect("profiles");
        let dcfg = DistillConfig {
            level,
            target_task_size: target,
            ..DistillConfig::default()
        };
        let d = distill(&program, &profile, &dcfg).expect("distills");
        let cfg = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        let run = run_threaded(&program, &d, cfg).expect("terminates");

        // Full-state equivalence: registers and all touched memory.
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert_eq!(run.state.reg(Reg::S3), seq.state().reg(Reg::S3));
        assert_eq!(run.state.pc(), seq.state().pc());
        for w in (0x300000u64 >> 3)..(0x300000u64 >> 3) + 64 {
            assert_eq!(run.state.load_word(w), seq.state().load_word(w));
        }
    });
}

#[test]
fn threaded_survives_wrong_asserted_branches() {
    // An adversarial distillation: the "distilled" program takes the
    // *opposite* branch of the original at the diamond, so its overlay
    // predictions (and spawn PCs after the first commit) are routinely
    // wrong. Every mis-prediction must be caught by verify, squashed, and
    // repaired by recovery — on every worker count.
    let program = assemble(
        "main:  addi s0, zero, 500
         loop:  andi t0, s0, 1
                beqz t0, even
                addi s1, s1, 3
                j    next
         even:  addi s1, s1, 7
         next:  addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let mut seq = SeqMachine::boot(&program);
    seq.run(u64::MAX).unwrap();
    let expected = seq.state().reg(Reg::S1);

    // Master asserts the branch is *always* taken (always the odd arm) —
    // wrong half the time — and never decrements, so it predicts a wrong
    // s1 evolution and wrong loop exit forever.
    let wrong = assemble(
        "main:  addi s0, zero, 500
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

    check(0x7EAD_0002, 8, |rng| {
        let slaves = *rng.choose(&[1usize, 2, 4, 8]);
        let cfg = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        let run = run_threaded(&program, &d, cfg).expect("terminates");
        assert_eq!(run.state.reg(Reg::S1), expected, "{slaves} workers");
        // The mis-distillation must actually have exercised the
        // squash/recovery machinery, not been silently ignored.
        assert!(
            run.stats.squashed_tasks > 0 || run.stats.recovery_segments > 0,
            "adversarial distillation never triggered a squash or recovery"
        );
    });

    // The same garbage master with the squash throttle on: the paper's
    // dual-mode fallback engages under the threaded executor as it does
    // under the discrete engine, and costs speed only.
    for slaves in [1usize, 2, 4] {
        let cfg = EngineConfig {
            num_slaves: slaves,
            throttle_threshold: 2,
            throttle_window: 64,
            throttle_duration: 4,
            ..EngineConfig::default()
        };
        let run = run_threaded(&program, &d, cfg).expect("terminates");
        assert_eq!(run.state.reg(Reg::S1), expected, "{slaves} workers");
        assert_eq!(run.state.reg(Reg::S0), seq.state().reg(Reg::S0));
        assert_eq!(run.state.pc(), seq.state().pc());
        assert!(run.stats.throttle_events > 0, "{:?}", run.stats);
        assert!(run.stats.waste_fraction() > 0.0, "{:?}", run.stats);
    }

    // A stationary run — the honest distillation of the same program —
    // fills in the live-in footprint counters.
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let honest = distill(&program, &profile, &DistillConfig::default()).unwrap();
    for slaves in [1usize, 2, 4] {
        let cfg = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        let stats = run_threaded(&program, &honest, cfg).unwrap().stats;
        let by_kind = stats.live_in_reg_cells + stats.live_in_mem_cells;
        assert!(by_kind > 0, "{stats:?}");
        assert_eq!(by_kind, stats.live_in_cells, "{stats:?}");
        assert!(stats.max_live_in_cells <= stats.live_in_cells, "{stats:?}");
        assert!(stats.max_live_in_cells > 0, "{stats:?}");
    }
}

#[test]
fn fast_path_matches_engine_on_squash_heavy_wrong_branch_fuzz() {
    // Differential test for the threaded commit pipeline: on adversarial
    // distillations whose overlay predictions are wrong roughly half the
    // time (squash-heavy by construction), the threaded executor must
    // agree with the discrete `Engine` on final state, committed
    // instruction count, and the squash-reason histogram at 1/2/4/8
    // workers. Both decide every task with the shared
    // `verify_and_commit` oracle, so the oracle is the path under test,
    // not a shadow.
    check(0x7EAD_0003, 6, |rng| {
        let iters = 100 + 37 * rng.gen_index(0, 12) as u64;
        let src = format!(
            "main:  addi s0, zero, {iters}
             loop:  andi t0, s0, 1
                    beqz t0, even
                    addi s1, s1, 3
                    j    next
             even:  addi s1, s1, 7
             next:  sd   s1, -16(sp)
                    addi s0, s0, -1
                    bnez s0, loop
                    halt"
        );
        let program = assemble(&src).expect("fixture assembles");
        let mut seq = SeqMachine::boot(&program);
        seq.run(u64::MAX).unwrap();

        // The master asserts the odd arm unconditionally: its predicted
        // s1 evolution is wrong whenever the original takes the even arm.
        let wrong = assemble(&format!(
            "main:  addi s0, zero, {iters}
             loop:  addi s1, s1, 3
                    addi s0, s0, -1
                    j    loop"
        ))
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
        let stack_widx = (seq.state().reg(Reg::SP) - 16) >> 3;

        for slaves in [1usize, 2, 4, 8] {
            let reference = Engine::new(
                &program,
                &d,
                EngineConfig {
                    num_slaves: slaves,
                    ..EngineConfig::default()
                },
                UnitCost,
            )
            .run()
            .expect("engine terminates");
            let ref_hist = [
                reference.stats.squashes_wrong_path,
                reference.stats.squashes_live_in,
                reference.stats.squashes_overrun,
                reference.stats.squashes_fault,
            ];
            assert!(
                ref_hist.iter().sum::<u64>() > 0,
                "fixture must be squash-heavy ({iters} iters, {slaves} workers)"
            );

            let cfg = EngineConfig {
                num_slaves: slaves,
                ..EngineConfig::default()
            };
            let run = run_threaded(&program, &d, cfg).expect("terminates");

            // Identical final state: threaded == engine == sequential.
            assert_eq!(run.state.reg(Reg::S0), seq.state().reg(Reg::S0));
            assert_eq!(
                run.state.reg(Reg::S1),
                seq.state().reg(Reg::S1),
                "{slaves} workers, {iters} iters"
            );
            assert_eq!(run.state.pc(), seq.state().pc());
            assert_eq!(
                run.state.load_word(stack_widx),
                seq.state().load_word(stack_widx)
            );
            assert_eq!(run.state.reg(Reg::S1), reference.state.reg(Reg::S1));

            // Identical commit counts, in instruction terms: every
            // committed instruction is exactly one sequential instruction
            // in both executors.
            assert_eq!(run.stats.committed_instructions, seq.instructions());
            assert_eq!(
                run.stats.committed_instructions,
                reference.stats.committed_instructions
            );

            // Identical squash-reason histograms: the commit/squash
            // alternation is forced by architected state, which both
            // executors walk identically.
            let hist = [
                run.stats.squashes_wrong_path,
                run.stats.squashes_live_in,
                run.stats.squashes_overrun,
                run.stats.squashes_fault,
            ];
            assert_eq!(hist, ref_hist, "{slaves} workers, {iters} iters");
        }
    });
}
