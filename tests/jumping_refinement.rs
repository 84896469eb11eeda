//! The jumping-refinement property (the paper's Definition 1), executed:
//! the architected-state trace of any MSSP run — the PCs at commit points
//! — must be a strictly ordered subsequence of the sequential machine's PC
//! trace, and the final architected state must equal the sequential
//! machine's. `check_refinement` is the check; these tests feed it the
//! commit points an observer collects.

use mssp::core::Event;
use mssp::prelude::*;

/// Runs `program` under MSSP with `d` as its master and checks the run
/// against the sequential machine. Returns the number of commit points.
fn assert_refines(program: &Program, d: &Distilled, label: &str) -> usize {
    let mut commits = Vec::new();
    let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
    let run = Engine::observed(program, d, EngineConfig::default(), UnitCost, observer)
        .run()
        .unwrap();
    check_refinement(program, &commits, &run.state).unwrap_or_else(|e| panic!("{label}: {e}"));
    commits.len()
}

#[test]
fn commit_points_are_ordered_subsequence_with_matching_state() {
    let program = Workload::by_name("bzip2_like").unwrap().program(400);
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let d = distill(&program, &profile, &DistillConfig::default()).unwrap();
    let commits = assert_refines(&program, &d, "bzip2_like");
    assert!(commits > 3, "expected several commit points");
}

#[test]
fn refinement_holds_under_every_distillation_level() {
    let program = Workload::by_name("twolf_like").unwrap().program(600);
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    for level in DistillLevel::all() {
        let d = distill(&program, &profile, &DistillConfig::at_level(level)).unwrap();
        assert_refines(&program, &d, &level.to_string());
    }
}

#[test]
fn intermediate_commit_states_match_seq_states() {
    // Small tasks on a small program: many commit points, each of which
    // must land on a sequential state after the previous one.
    let program = assemble(
        "main:  addi s0, zero, 60
         loop:  add  s1, s1, s0
                mul  s2, s1, s0
                sd   s2, -16(sp)
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let dcfg = DistillConfig {
        target_task_size: 15,
        ..DistillConfig::default()
    };
    let d = distill(&program, &profile, &dcfg).unwrap();
    let commits = assert_refines(&program, &d, "small tasks");
    assert!(commits > 3, "expected several commit points");

    // Exactly where: a commit point reached after `n` committed
    // instructions is the sequential machine's PC after `n` steps.
    let mut landed = Vec::new();
    let observer = |_: u64, event: Event<'_>| match event {
        Event::Commit {
            end_pc,
            instructions,
        }
        | Event::Recovery {
            end_pc,
            instructions,
        } => landed.push((end_pc, instructions)),
        Event::Squash(_) => {}
    };
    Engine::observed(&program, &d, EngineConfig::default(), UnitCost, observer)
        .run()
        .unwrap();
    let mut seq = SeqMachine::boot(&program);
    for (index, (end_pc, instructions)) in landed.into_iter().enumerate() {
        for _ in 0..instructions {
            seq.step().unwrap();
        }
        assert_eq!(seq.state().pc(), end_pc, "commit #{index}");
    }
    assert!(seq.halted() || seq.step().unwrap().halted);
}
