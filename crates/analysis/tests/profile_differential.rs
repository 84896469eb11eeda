//! `Profile::collect` counts a training run into a dense per-instruction
//! tally and folds it into the profile's maps once; `Profile::observe`
//! updates the maps step by step. Both must build the same profile, on
//! every bundled workload and after `merge` and `decay`.

use mssp_analysis::Profile;
use mssp_isa::Program;
use mssp_machine::SeqMachine;
use mssp_workloads::{phase_workloads, workloads, DEFAULT_SEED, TRAIN_SEED};

/// Small enough for a debug build; every bundled workload halts at it.
const SCALE: u64 = 1_000;

/// `p`'s profile fed step by step through `Profile::observe`.
fn observed(p: &Program, max_steps: u64) -> Profile {
    let mut profile = Profile::default();
    SeqMachine::boot(p)
        .run_observed(max_steps, |info| profile.observe(info))
        .unwrap();
    profile
}

/// Checks `collect` against `observe` on `a` and on `b`, then on `a`'s
/// profile merged with `b`'s, then on that merge decayed once.
fn assert_same(name: &str, a: &Program, b: &Program) {
    let collected = |p| Profile::collect(p, Profile::UNBOUNDED).unwrap();
    let stepped = |p| observed(p, Profile::UNBOUNDED);
    let (mut fast, mut slow) = (collected(a), stepped(a));
    assert!(fast.dynamic_instructions() > 0, "{name}: empty run");
    assert_eq!(fast, slow, "{name}: collect != observe");
    let (fast_b, slow_b) = (collected(b), stepped(b));
    assert_eq!(fast_b, slow_b, "{name}: collect != observe (second input)");
    fast.merge(&fast_b);
    slow.merge(&slow_b);
    assert_eq!(fast, slow, "{name}: differs after merge");
    fast.decay();
    slow.decay();
    assert_eq!(fast, slow, "{name}: differs after decay");
}

#[test]
fn collect_equals_observe_on_every_bundled_workload() {
    for w in workloads() {
        let reference = w.program_with_seed(SCALE, DEFAULT_SEED);
        let train = w.program_with_seed(SCALE, TRAIN_SEED);
        assert_same(w.name, &reference, &train);
    }
}

#[test]
fn collect_equals_observe_on_phase_flip_with_and_without_phase_b() {
    let w = phase_workloads()
        .iter()
        .find(|w| w.name == "phase_flip")
        .unwrap();
    let train = w.try_phase_program(SCALE, 0, DEFAULT_SEED).unwrap();
    let shifted = w.try_phase_program(SCALE, SCALE, DEFAULT_SEED).unwrap();
    assert_same("phase_flip", &train, &shifted);
    assert_same("phase_flip (shifted first)", &shifted, &train);
}

#[test]
fn collect_equals_observe_when_the_step_budget_cuts_the_run() {
    let w = &workloads()[0];
    let p = w.program_with_seed(SCALE, DEFAULT_SEED);
    for budget in [0, 1, 777, 10_007] {
        assert_eq!(
            Profile::collect(&p, budget).unwrap(),
            observed(&p, budget),
            "{} cut at {budget} steps",
            w.name
        );
    }
}
