//! `SeqMachine::run_observed` keeps the PC and the retired count in
//! locals and writes them back once; it must still be exactly a loop of
//! `SeqMachine::step` calls: the same final state, PC, counters, summary
//! or error, and the same `StepInfo`s in the same order.

use mssp_isa::asm::assemble;
use mssp_isa::Program;
use mssp_machine::{RunSummary, SeqError, SeqMachine, StepInfo, StopReason};

type Outcome = (Result<RunSummary, SeqError>, Vec<StepInfo>);

/// `run_observed` written out as the loop of `step()` calls it stands for.
fn stepped(m: &mut SeqMachine<'_>, max_steps: u64) -> Outcome {
    let start = m.instructions();
    let mut seen = Vec::new();
    while !m.halted() && m.instructions() - start < max_steps {
        match m.step() {
            Ok(info) => seen.push(info),
            Err(fault) => {
                let err = SeqError {
                    fault,
                    instructions: m.instructions(),
                };
                return (Err(err), seen);
            }
        }
    }
    let stop = if m.halted() {
        StopReason::Halted
    } else {
        StopReason::StepLimit
    };
    let summary = RunSummary {
        instructions: m.instructions() - start,
        stop,
    };
    (Ok(summary), seen)
}

fn observed(m: &mut SeqMachine<'_>, max_steps: u64) -> Outcome {
    let mut seen = Vec::new();
    let result = m.run_observed(max_steps, |info| seen.push(*info));
    (result, seen)
}

fn assert_same(a: &SeqMachine<'_>, b: &SeqMachine<'_>) {
    assert_eq!(a.state(), b.state());
    assert_eq!(a.state().pc(), b.state().pc());
    assert_eq!(a.instructions(), b.instructions());
    assert_eq!(a.halted(), b.halted());
}

/// Runs both machines through the same sequence of budgets, comparing
/// after each run; returns the last outcome.
fn differential(p: &Program, budgets: &[u64]) -> Outcome {
    let mut by_step = SeqMachine::boot(p);
    let mut by_run = SeqMachine::boot(p);
    let mut last = None;
    for &max_steps in budgets {
        let want = stepped(&mut by_step, max_steps);
        let got = observed(&mut by_run, max_steps);
        assert_eq!(got, want, "budget {max_steps}");
        assert_same(&by_run, &by_step);
        last = Some(got);
    }
    last.expect("at least one budget")
}

const COUNTDOWN: &str = "main: addi a0, zero, 6
                         loop: addi a0, a0, -1
                               sd   a0, -8(sp)
                               bnez a0, loop
                               halt";

#[test]
fn halt_matches_a_step_loop() {
    let (result, seen) = differential(&assemble(COUNTDOWN).unwrap(), &[1_000]);
    assert_eq!(result.unwrap().stop, StopReason::Halted);
    assert!(seen.last().unwrap().halted);
}

#[test]
fn fault_matches_a_step_loop() {
    let p = assemble("main: li a0, 0x900000\n jalr ra, 0(a0)\n halt").unwrap();
    let (result, _) = differential(&p, &[100]);
    assert_eq!(
        result.unwrap_err().fault,
        mssp_machine::Fault::IllegalPc(0x900000)
    );
}

#[test]
fn step_limit_then_resume_matches_a_step_loop() {
    let (result, _) = differential(&assemble(COUNTDOWN).unwrap(), &[3, 4, 1_000]);
    assert_eq!(result.unwrap().stop, StopReason::Halted);
}

#[test]
fn zero_budget_matches_a_step_loop() {
    let (result, seen) = differential(&assemble(COUNTDOWN).unwrap(), &[0]);
    assert_eq!(
        result.unwrap(),
        RunSummary {
            instructions: 0,
            stop: StopReason::StepLimit
        }
    );
    assert!(seen.is_empty());
}

#[test]
fn already_halted_machine_matches_a_step_loop() {
    let (result, seen) = differential(&assemble(COUNTDOWN).unwrap(), &[1_000, 1_000]);
    assert_eq!(
        result.unwrap(),
        RunSummary {
            instructions: 0,
            stop: StopReason::Halted
        }
    );
    assert!(seen.is_empty());
}
