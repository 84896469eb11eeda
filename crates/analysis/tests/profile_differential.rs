//! `Profile::collect` records a training run's transfers, taken branches
//! and memory accesses, and derives the other counts once; `Profile::observe`
//! updates the maps step by step. Both must build the same profile, on
//! every bundled workload and after `decay`, and wherever a step budget
//! cuts the run: `collect` derives most counts from where the run stopped.

use mssp_analysis::Profile;
use mssp_isa::asm::assemble;
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

/// Checks `collect` against `observe` on `a` and on `b`, and on each of
/// them decayed once.
fn assert_same(name: &str, a: &Program, b: &Program) {
    for (input, p) in [("first", a), ("second", b)] {
        let mut fast = Profile::collect(p, Profile::UNBOUNDED).unwrap();
        let mut slow = observed(p, Profile::UNBOUNDED);
        assert!(fast.dynamic_instructions() > 0, "{name}: empty run");
        assert_eq!(fast, slow, "{name}: collect != observe ({input} input)");
        fast.decay();
        slow.decay();
        assert_eq!(fast, slow, "{name}: differs after decay ({input} input)");
    }
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
}

#[test]
fn collect_equals_observe_when_the_step_budget_cuts_the_run() {
    for w in workloads() {
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
}

/// Checks `collect` against `observe` on `src` cut at every budget from
/// 0 to one past the whole run (`spin` steps for a run that never halts).
fn assert_same_at_every_budget(name: &str, src: &str, spin: Option<u64>) -> Program {
    let p = assemble(src).unwrap();
    let len = spin.unwrap_or_else(|| observed(&p, Profile::UNBOUNDED).dynamic_instructions());
    for budget in 0..=len + 1 {
        assert_eq!(
            Profile::collect(&p, budget).unwrap(),
            observed(&p, budget),
            "{name} cut at {budget} steps"
        );
    }
    p
}

#[test]
fn collect_equals_observe_at_every_budget_on_every_control_shape() {
    // The entry is not the first instruction, and a call reaches the code
    // before it.
    let p = assert_same_at_every_budget(
        "entry after code",
        "helper: addi a1, a1, 2
                 jalr zero, 0(ra)
         main:   addi s0, zero, 3
         loop:   jal  helper
                 addi s0, s0, -1
                 bnez s0, loop
                 halt",
        None,
    );
    assert_ne!(p.entry(), p.text_base());

    assert_same_at_every_budget(
        "halt reached by a taken branch",
        "main: addi a0, zero, 3
         loop: addi a0, a0, -1
               beqz a0, done
               j    loop
         done: halt",
        None,
    );

    // `disp` jumps to `one`, `two` and the instruction after it.
    assert_same_at_every_budget(
        "jalr with three targets",
        "main:  addi s0, zero, 3
         top:   la   t0, one
                j    disp
         one:   la   t0, two
                j    disp
         two:   la   t0, after
                j    disp
         disp:  jalr zero, 0(t0)
         after: addi s0, s0, -1
                bnez s0, top
                halt",
        None,
    );

    // `bnez a0, next` has offset 0: taken or not, it falls through.
    assert_same_at_every_budget(
        "branch with offset 0",
        "main: addi a0, zero, 3
         loop: addi a0, a0, -1
               bnez a0, next
         next: bnez a0, loop
               halt",
        None,
    );

    assert_same_at_every_budget(
        "j to itself",
        "main: addi a0, zero, 1
         spin: j    spin",
        Some(40),
    );

    // The store alternates between words 511 and 512, the last of bit
    // page 0 and the first of page 1; the load reads both at once.
    assert_same_at_every_budget(
        "stores alternating between bit pages",
        "main: li   t0, 4088
               addi s0, zero, 5
               addi t1, zero, 0
         loop: add  t2, t0, t1
               sd   s0, 0(t2)
               xori t1, t1, 8
               ld   a1, 4(t0)
               addi s0, s0, -1
               bnez s0, loop
               halt",
        None,
    );
}
