//! The instruction budget, `EngineConfig::max_instrs`: every executor
//! stops a run at the first commit point at or past it, and the state it
//! stops in is the sequential machine's after exactly the instructions it
//! reports, which is the jumping refinement on a truncated run. So a
//! program that never halts returns the budget error instead of hanging.
//! A machine with no slaves runs every instruction in recovery, and still
//! reaches the sequential state.
//!
//! The threaded executor runs here too, and its interleaving depends on
//! timing, so CI also runs this file in release.

use std::time::{Duration, Instant};

use mssp::core::{EngineError, Event, ThreadedError};
use mssp::prelude::*;

/// Scale of the workloads in the sweeps.
const SCALE: u64 = 300;

/// The budget on programs that never halt.
const BUDGET: u64 = 1_000_000;

/// Longer than any cut run of [`BUDGET`] instructions takes in a debug
/// build (well under a second each when the machine is not loaded); a run
/// that never returns fails here.
const PATIENCE: Duration = Duration::from_secs(10);

/// The state `SeqMachine` reaches after exactly `n` instructions of `p`.
fn seq_after(p: &Program, n: u64) -> MachineState {
    let mut m = SeqMachine::boot(p);
    m.run(n).unwrap();
    assert_eq!(m.instructions(), n, "the program halts before {n}");
    m.into_state()
}

/// The instructions retired and the state reached by a run the budget
/// stopped.
fn cut(err: EngineError) -> (u64, MachineState) {
    match err {
        EngineError::Budget { retired, state } => (retired, *state),
        e => panic!("expected the budget error, got: {e}"),
    }
}

fn threaded_cut(err: ThreadedError) -> (u64, MachineState) {
    match err {
        ThreadedError::Engine(e) => cut(e),
        e => panic!("expected the budget error, got: {e}"),
    }
}

/// Asserts that a run cut on `max_instrs` retired at least that, less
/// than a task's cap more, and stopped in `SeqMachine`'s state after
/// exactly what it retired.
fn assert_cut(p: &Program, max_instrs: u64, (retired, state): (u64, MachineState), label: &str) {
    let task_cap = EngineConfig::default().max_task_instrs;
    assert!(retired >= max_instrs, "{label}: {retired} retired");
    assert!(
        retired - max_instrs < task_cap,
        "{label}: {retired} retired"
    );
    assert!(
        state == seq_after(p, retired),
        "{label}: state at {retired}"
    );
}

/// ROADMAP item 14's program, which counts down from zero and so never
/// halts, with a master distilled from a copy that counts down from 5000.
fn endless() -> (Program, Distilled, Profile) {
    let source = |from: u64| {
        format!(
            "main: addi s0, zero, {from}
             loop: addi s1, s1, 1
                   addi s0, s0, -1
                   bnez s0, loop
                   halt"
        )
    };
    let train = assemble(&source(5000)).unwrap();
    let profile = Profile::collect(&train, u64::MAX).unwrap();
    let d = distill(&train, &profile, &DistillConfig::default()).unwrap();
    (assemble(&source(0)).unwrap(), d, profile)
}

#[test]
fn a_program_that_never_halts_spends_its_budget_under_every_executor() {
    let (p, d, profile) = endless();
    let config = |num_slaves| EngineConfig {
        num_slaves,
        max_instrs: BUDGET,
        ..EngineConfig::default()
    };
    let timed = |label: &str, run: &dyn Fn() -> (u64, MachineState)| {
        let started = Instant::now();
        let stopped = run();
        let took = started.elapsed();
        assert!(took < PATIENCE, "{label}: took {took:?}");
        assert_cut(&p, BUDGET, stopped, label);
    };
    timed("Engine under UnitCost", &|| {
        cut(Engine::new(&p, &d, config(7), UnitCost).run().unwrap_err())
    });
    let timing = TimingConfig {
        engine: config(7),
        ..TimingConfig::default()
    };
    timed("Engine under CmpCost", &|| {
        cut(run_mssp(&p, &d, &timing).unwrap_err())
    });
    for workers in [1, 2, 4] {
        timed(&format!("run_threaded x{workers}"), &|| {
            threaded_cut(run_threaded(&p, &d, config(workers)).unwrap_err())
        });
    }
    timed("run_threaded_adaptive", &|| {
        let ctl = AdaptiveController::new(AdaptiveConfig::default(), &profile);
        let rec = Box::new(validated_recompiler(&p, &d));
        threaded_cut(run_threaded_adaptive(&p, &d, config(2), ctl, rec).unwrap_err())
    });
}

/// Cuts every workload at budgets from one instruction to its length,
/// under both drivers. A cut in recovery retires exactly the budget; one
/// at a task commit, the halting one too, less than a task's cap more.
#[test]
fn truncated_runs_land_on_the_sequential_state() {
    // Engine cuts at a task commit and in recovery.
    let mut cuts = [0, 0];
    for w in workloads() {
        let p = w.program(SCALE);
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        let len = SeqMachine::boot(&p).run(u64::MAX).unwrap().instructions;
        for max_instrs in [1, len / 5, len / 2, len] {
            let config = EngineConfig {
                max_instrs,
                ..EngineConfig::default()
            };
            let label = format!("{} within {max_instrs} of {len}", w.name);
            let mut in_recovery = false;
            let observer = |_: u64, event: Event<'_>| {
                if event.commit_pc().is_some() {
                    in_recovery = matches!(event, Event::Recovery { .. });
                }
            };
            let run = Engine::observed(&p, &d, config, UnitCost, observer).run();
            let stopped = cut(run.unwrap_err());
            assert!(!in_recovery || stopped.0 == max_instrs, "{label}");
            cuts[usize::from(in_recovery)] += 1;
            assert_cut(&p, max_instrs, stopped, &label);
            let config = EngineConfig {
                num_slaves: 2,
                ..config
            };
            let threaded = run_threaded(&p, &d, config).unwrap_err();
            assert_cut(
                &p,
                max_instrs,
                threaded_cut(threaded),
                &format!("{label} x2"),
            );
        }
    }
    assert!(cuts[0] > 0 && cuts[1] > 0, "{cuts:?}");
}

/// With no slave the master never finds room for a task, so starvation
/// recovery runs the whole program, under both drivers and the timing
/// model, and nothing panics.
#[test]
fn with_no_slaves_recovery_carries_every_workload() {
    let config = EngineConfig {
        num_slaves: 0,
        ..EngineConfig::default()
    };
    for w in workloads() {
        let p = w.program(SCALE);
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        let run = Engine::new(&p, &d, config, UnitCost).run().unwrap();
        assert!(run.state == *seq.state(), "{}", w.name);
        assert_eq!(run.stats.committed_tasks, 0, "{}", w.name);
        assert_eq!(run.stats.recovery_instructions, seq.instructions());
        let threaded = run_threaded(&p, &d, config).unwrap();
        assert!(threaded.state == *seq.state(), "{} threaded", w.name);
        assert_eq!(threaded.stats.committed_tasks, 0, "{} threaded", w.name);
    }
    let p = Workload::by_name("gap_like").unwrap().program(SCALE);
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    let timing = TimingConfig {
        engine: config,
        ..TimingConfig::default()
    };
    let timed = run_mssp(&p, &d, &timing).unwrap();
    assert_eq!(timed.run.stats.committed_tasks, 0);
}
