//! Property-based end-to-end equivalence: random structured programs
//! (nested loops, data-dependent branches, memory traffic) run under MSSP
//! with random engine configurations must commit exactly the sequential
//! machine's state. This is the strongest correctness net in the suite:
//! it exercises distillation, task grouping, squash/recovery and the
//! verify unit against arbitrary program shapes.
//!
//! Seeded with `mssp-testkit` (no crate registry in the build
//! environment); a failing case prints its seed for replay.

mod common;

use common::arb_loop_nest;
use mssp::core::Event;
use mssp::prelude::*;
use mssp_testkit::check;

#[test]
fn random_programs_commit_sequential_state() {
    check(0xF022_0001, 48, |rng| {
        let src = arb_loop_nest(rng);
        let slaves = rng.gen_index(1, 9);
        let target = *rng.choose(&[8u64, 64, 256, 1024]);
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
        let mut commits = Vec::new();
        let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
        let run = Engine::observed(&program, &d, cfg, UnitCost, observer)
            .run()
            .expect("terminates");
        // Independent oracle: the full jumping-refinement check.
        check_refinement(&program, &commits, &run.state).expect("refinement holds");

        // Full-state equivalence: registers and all touched memory.
        assert_eq!(run.state.reg(Reg::S1), seq.state().reg(Reg::S1));
        assert_eq!(run.state.reg(Reg::S3), seq.state().reg(Reg::S3));
        for w in (0x300000u64 >> 3)..(0x300000u64 >> 3) + 64 {
            assert_eq!(run.state.load_word(w), seq.state().load_word(w));
        }
        assert_eq!(run.stats.committed_instructions, seq.instructions());
    });
}

/// Differential fuzz over the optimizing pass pipeline: whatever subset of
/// passes runs, the architected state MSSP commits must be exactly the
/// sequential machine's. A pass whose output diverges only in *speed*
/// costs squashes; one that diverges in committed state is a correctness
/// bug this test exists to catch.
#[test]
fn pass_ablations_commit_identical_state() {
    let variants: [PassConfig; 6] = [
        PassConfig::all(),
        PassConfig {
            const_fold: false,
            ..PassConfig::all()
        },
        PassConfig {
            copy_prop: false,
            ..PassConfig::all()
        },
        PassConfig {
            dce: false,
            ..PassConfig::all()
        },
        PassConfig {
            jump_thread: false,
            ..PassConfig::all()
        },
        PassConfig::dce_only(),
    ];
    check(0xF022_0002, 16, |rng| {
        let src = arb_loop_nest(rng);
        let target = *rng.choose(&[8u64, 64, 256]);
        let program = assemble(&src).expect("generated programs assemble");
        let mut seq = SeqMachine::boot(&program);
        seq.run(20_000_000).expect("no faults");
        assert!(seq.halted(), "generated programs halt within bound");
        let profile = Profile::collect(&program, u64::MAX).expect("profiles");

        for passes in variants {
            let dcfg = DistillConfig {
                target_task_size: target,
                passes,
                ..DistillConfig::default()
            };
            let d = distill(&program, &profile, &dcfg).expect("distills");
            let mut commits = Vec::new();
            let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
            let run = Engine::observed(&program, &d, EngineConfig::default(), UnitCost, observer)
                .run()
                .expect("terminates");
            check_refinement(&program, &commits, &run.state).expect("refinement holds");
            assert_eq!(
                run.state.reg(Reg::S1),
                seq.state().reg(Reg::S1),
                "checksum diverged under {passes:?}"
            );
            assert_eq!(
                run.state.reg(Reg::S3),
                seq.state().reg(Reg::S3),
                "S3 diverged under {passes:?}"
            );
            for w in (0x300000u64 >> 3)..(0x300000u64 >> 3) + 64 {
                assert_eq!(
                    run.state.load_word(w),
                    seq.state().load_word(w),
                    "memory diverged under {passes:?}"
                );
            }
            assert_eq!(run.stats.committed_instructions, seq.instructions());
        }
    });
}
