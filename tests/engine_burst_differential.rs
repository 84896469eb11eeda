//! The burst path against the per-instant path.
//!
//! Under a cost model whose `INTERLEAVING_FREE` is true, `Engine` visits
//! the due slaves oldest task first and runs each task, in one visit,
//! through every instruction that issues before its horizon: the next
//! verify act for the oldest task, and for a younger one also the oldest
//! task's next step. Under any other model it visits every due slave once
//! per instant, in index order. Nothing a slave reads changes between two
//! verify acts, so the two paths must produce the same run. This file
//! holds them to that, field by field:
//!
//! * (a) `UnitCost` against `PerInstant`, the same costs with the flag
//!   left `false`, on every workload at 1, 2, 4 and 8 slaves, with the
//!   phase workloads trained on phase A alone so that they squash;
//! * (b) a stateless model with varying overheads, flag on against flag
//!   off. Its dispatch latencies let a younger task be due while the
//!   oldest one waits, which `UnitCost` never does, so only this suite
//!   reaches the front-task term of the horizon;
//! * (c) default-controller adaptive runs, whose hot-swaps must land at
//!   the same commits;
//! * (d) cycle budgets around a run's length, which must fail or succeed
//!   alike.
//!
//! Both paths run one slave act, `Engine::act_slave(s, horizon)`; the
//! per-instant pass passes `now`, so a mutation of the act that both
//! paths share is for `tests/engine_schedule.rs` to catch. Two
//! hand-seeded mutations of the burst fail this file: stopping it at
//! `at > horizon` instead of `at >= horizon` (caught by (a)), and a
//! younger task's horizon without the oldest task's next step (caught by
//! (b)). Visiting the due slaves in index order instead
//! of window order is not such a mutation: a younger task visited before
//! a due oldest one sees a horizon of `now` and runs one instruction, as
//! the per-instant pass would. That order is only slower.

use mssp::core::{AdaptiveConfig, AdaptiveController, CoreRole, CostModel, Recompiler};
use mssp::machine::StepInfo;
use mssp::prelude::*;
use mssp::workloads::{phase_workloads, TRAIN_SEED};

/// `UnitCost`'s costs on the per-instant path.
struct PerInstant;

impl CostModel for PerInstant {
    fn instr_cost(&mut self, _role: CoreRole, _info: &StepInfo) -> u64 {
        1
    }
}

/// Costs that are functions of their arguments alone, but not constant:
/// instructions take 1 to 3 cycles by PC and role, and every overhead is
/// sometimes zero and sometimes not.
struct Stateless<const FREE: bool>;

impl<const FREE: bool> CostModel for Stateless<FREE> {
    const INTERLEAVING_FREE: bool = FREE;

    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64 {
        let role = match role {
            CoreRole::Master => 0,
            CoreRole::Slave(i) => 1 + i as u64,
            CoreRole::Recovery(_) => 2,
        };
        1 + (info.pc / 4 + role) % 3
    }

    fn spawn_overhead(&mut self, cells: usize) -> u64 {
        cells as u64 % 3
    }

    fn dispatch_latency(&mut self, cells: usize) -> u64 {
        cells as u64 * 7 % 11
    }

    fn verify_cost(&mut self, live_ins: usize) -> u64 {
        live_ins as u64 % 4
    }

    fn commit_cost(&mut self, live_outs: usize) -> u64 {
        live_outs as u64 % 2
    }

    fn squash_penalty(&mut self) -> u64 {
        3
    }
}

/// A program to run and its distillation from a profile of another
/// input: the training seed for the standard workloads, phase A alone
/// for the phase workloads.
struct Fixture {
    name: &'static str,
    program: Program,
    training: Profile,
    distilled: Distilled,
}

fn fixture(name: &'static str, train: &Program, program: Program) -> Fixture {
    let training = Profile::collect(train, u64::MAX).unwrap();
    let distilled = distill(&program, &training, &DistillConfig::default()).unwrap();
    Fixture {
        name,
        program,
        training,
        distilled,
    }
}

/// Scale of the standard workloads: a few dozen tasks each.
const SCALE_DIVISOR: u64 = 200;
/// Phase A and phase B iterations of the phase workloads.
const PHASE_SCALE: u64 = 500;

fn standard_fixtures() -> Vec<Fixture> {
    workloads()
        .iter()
        .map(|w| {
            let scale = (w.default_scale / SCALE_DIVISOR).max(8);
            let train = w.program_with_seed(scale, TRAIN_SEED);
            fixture(w.name, &train, w.program(scale))
        })
        .collect()
}

fn phase_fixtures() -> Vec<Fixture> {
    phase_workloads()
        .iter()
        .map(|w| {
            let train = w.phase_program(PHASE_SCALE, 0);
            fixture(w.name, &train, w.phase_program(PHASE_SCALE, PHASE_SCALE))
        })
        .collect()
}

const SLAVES: [usize; 4] = [1, 2, 4, 8];

fn engine<'a, C: CostModel>(f: &'a Fixture, config: EngineConfig, cost: C) -> Engine<'a, C> {
    let mut engine = Engine::new(&f.program, &f.distilled, config, cost);
    engine.enable_commit_trace();
    engine.enable_task_size_trace();
    engine.enable_squash_samples(usize::MAX);
    engine
}

fn slaves(n: usize) -> EngineConfig {
    EngineConfig {
        num_slaves: n,
        ..EngineConfig::default()
    }
}

/// Asserts that two runs agree on everything but the adaptive report,
/// which holds wall-clock time.
fn assert_same_run(burst: &MsspRun, per_instant: &MsspRun, label: &str) {
    assert_eq!(burst.cycles, per_instant.cycles, "{label}: cycles");
    assert!(burst.state == per_instant.state, "{label}: final state");
    assert_eq!(burst.stats, per_instant.stats, "{label}: stats");
    assert_eq!(
        burst.commit_trace, per_instant.commit_trace,
        "{label}: commit trace"
    );
    assert_eq!(burst.task_sizes, per_instant.task_sizes, "{label}: sizes");
    assert_eq!(
        burst.predictor_report, per_instant.predictor_report,
        "{label}: predictor"
    );
    let samples = |run: &MsspRun| {
        let samples = run.squash_samples.as_ref().expect("samples enabled");
        samples
            .iter()
            .map(|s| {
                let sample = (s.reason, s.task_start_pc, s.arch_pc, s.executed);
                (sample, s.cells.clone())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(samples(burst), samples(per_instant), "{label}: squashes");
}

#[test]
fn unit_cost_bursts_match_the_per_instant_schedule() {
    let mut squashed = 0;
    for f in standard_fixtures().iter().chain(&phase_fixtures()) {
        for n in SLAVES {
            let burst = engine(f, slaves(n), UnitCost).run().unwrap();
            let per_instant = engine(f, slaves(n), PerInstant).run().unwrap();
            assert_same_run(&burst, &per_instant, &format!("{} x{n}", f.name));
            squashed += burst.stats.squash_events();
        }
    }
    assert!(squashed > 0, "no run squashed");
}

#[test]
fn stateless_overheads_burst_like_the_per_instant_schedule() {
    let mut squashed = 0;
    for f in standard_fixtures().iter().chain(&phase_fixtures()) {
        for n in SLAVES {
            let burst = engine(f, slaves(n), Stateless::<true>).run().unwrap();
            let per_instant = engine(f, slaves(n), Stateless::<false>).run().unwrap();
            assert_same_run(&burst, &per_instant, &format!("{} x{n}", f.name));
            squashed += burst.stats.squash_events();
        }
    }
    assert!(squashed > 0, "no run squashed");
}

/// Redistills from the training profile, whatever the live one says, so
/// both paths get the same candidate for the same request.
fn recompiler(f: &Fixture) -> Recompiler {
    let program = f.program.clone();
    let profile = f.training.clone();
    let boundaries = f.distilled.boundaries().clone();
    let crossings = f.distilled.crossings_per_task().max(1);
    Box::new(move |_live| {
        let config = DistillConfig::default();
        redistill(&program, &profile, &config, &boundaries, crossings).map_err(|e| e.to_string())
    })
}

fn adaptive_run<C: CostModel>(f: &Fixture, cost: C) -> MsspRun {
    let controller = AdaptiveController::new(AdaptiveConfig::default(), &f.distilled, &f.training);
    let mut engine = engine(f, EngineConfig::default(), cost);
    engine.enable_adaptive(controller, recompiler(f));
    engine.run().unwrap()
}

#[test]
fn adaptive_swaps_land_at_the_same_commits() {
    let mut swaps = 0;
    for f in &phase_fixtures() {
        let burst = adaptive_run(f, UnitCost);
        let per_instant = adaptive_run(f, PerInstant);
        assert_same_run(&burst, &per_instant, f.name);
        let report = |run: &MsspRun| {
            let report = run.adaptive.as_ref().expect("adaptive enabled");
            let markers: Vec<_> = report
                .swaps
                .iter()
                .map(|m| (m.at_committed_tasks, m.stats))
                .collect();
            (
                report.recompile_failures,
                report.candidates_rejected,
                markers,
            )
        };
        assert_eq!(report(&burst), report(&per_instant), "{}: swaps", f.name);
        swaps += burst.stats.swaps_installed;
    }
    assert!(swaps > 0, "no run swapped");
}

#[test]
fn cycle_budgets_fail_or_succeed_alike() {
    let standard = standard_fixtures();
    let phase = phase_fixtures();
    let gap = standard.iter().find(|f| f.name == "gap_like").unwrap();
    for f in [gap, &phase[0]] {
        for n in [1, 4] {
            let cycles = engine(f, slaves(n), UnitCost).run().unwrap().cycles;
            for max_cycles in [cycles / 3, cycles - 1, cycles] {
                let config = EngineConfig {
                    max_cycles,
                    ..slaves(n)
                };
                let label = format!("{} x{n} within {max_cycles}", f.name);
                let burst = engine(f, config, UnitCost).run();
                let per_instant = engine(f, config, PerInstant).run();
                match (burst, per_instant) {
                    (Ok(b), Ok(p)) => assert_same_run(&b, &p, &label),
                    (Err(b), Err(p)) => assert_eq!(b, p, "{label}"),
                    (b, p) => panic!("{label}: {:?} against {:?}", b.err(), p.err()),
                }
            }
        }
    }
}
