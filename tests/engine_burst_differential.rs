//! The burst path against the per-instant order.
//!
//! `Engine` runs slaves and the master in bursts. It visits the due
//! slaves oldest task first and runs each task, in one visit, through
//! every instruction that issues before its horizon: the next verify act
//! for the oldest task, and for a younger one also the oldest task's next
//! step. The master's horizon is a younger task's; with the window empty
//! it is `now`, and the master runs one instruction: a master that halts
//! or is lost there starts starvation recovery at that instruction's
//! instant. Bursts price instructions ahead of their instant with
//! `CostModel::private_instr_cost` (all but the master's first, which
//! issues at the visit); at the first `None` the core holds that
//! instruction and prices it with `instr_cost` at its own instant,
//! slaves ascending, then the master. A model that answers
//! `None` for every instruction, as `InOrder<C>` does, therefore has
//! every slave and master instruction priced at its instant, in the
//! per-instant order. Nothing a slave reads changes between two verify
//! acts, the master reads only its private state, and a private answer
//! touches nothing another core shares, so the two must produce the same
//! run. This file holds them to that, field by field and on the whole
//! stream of observed events with their instants, each model bare against
//! `InOrder` of itself:
//!
//! * (a) `UnitCost`, on every workload at 1, 2, 4 and 8 slaves, with the
//!   phase workloads trained on phase A alone so that they squash;
//! * (b) a stateless model with varying overheads. Its dispatch latencies
//!   let a younger task be due while the oldest one waits, which
//!   `UnitCost` never does, so this suite reaches the front-task term of
//!   the horizon;
//! * (c) `CmpCost`, whose private answers cover L1 hits and whose held
//!   instructions read the shared L2, compared on its per-core counters
//!   too;
//! * (d) default-controller adaptive runs, whose hot-swaps must land at
//!   the same commits;
//! * (e) instruction budgets up to a run's length, which must cut it at
//!   the same commit, with the same state and the same events up to the
//!   cut, and one past it, which must let both halt;
//! * (f) hostile masters, one that halts at once and one that scribbles
//!   wrong values and loses itself on a small `master_runahead`, under
//!   all three models at 1, 2, 4 and 8 slaves;
//! * (g) a `master_runahead` sweep over 1..400 under `UnitCost`, which
//!   moves the instant at which the master is lost across every step of
//!   its bursts.
//!
//! Both runs go through one slave act, `Engine::act_slave`, one pricing
//! loop, `Engine::price_held`, and one master act, `Engine::act_master`.
//! These hand-seeded mutations fail this file:
//!
//! * stopping a slave burst at `at > horizon` instead of `at >= horizon`
//!   (caught by (a));
//! * a younger task's horizon without the oldest task's next step (caught
//!   by (b), and by (c) through the engine's debug invariants);
//! * a `Cache::find` that reports a hit on a line invalidated by a squash
//!   (caught by (c) and (f));
//! * a master horizon of `NEVER` with the window empty (caught by (f),
//!   and in a debug build also by (b) and (c) through the engine's
//!   invariant that a held master instruction has a task in flight);
//! * a master horizon without the front-task term (caught by (b), (c) and
//!   (f));
//! * `Engine::master_due` ignoring a held master instruction (caught by
//!   (b), (c) and (f));
//! * `CommitUnit::step_master` checking the run-ahead bound before
//!   whether the master can step, so that a burst stepping past an armed
//!   spawn marks the master lost (caught by (g) alone, first at
//!   `gap_like` x1, `master_runahead` 82).
//!
//! Pricing held instructions in window order instead of index order
//! passes here: both runs share the pricing loop, so it moves their calls
//! alike, and the `CmpCost` and `JitterCost` goldens of
//! `tests/engine_schedule.rs` catch it. Visiting the due slaves in index
//! order instead of window order is not a mutation of the run at all: a
//! younger task visited before a due oldest one sees a horizon of `now`
//! and runs one instruction, as the per-instant pass would. That order is
//! only slower.

use mssp::core::{
    AdaptiveConfig, AdaptiveController, CoreRole, CostModel, EngineError, Event, Recompiler,
};
use mssp::machine::StepInfo;
use mssp::prelude::*;
use mssp::timing::CmpCost;
use mssp::workloads::{phase_workloads, TRAIN_SEED};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// `C` with every slave and master instruction priced at its own instant:
/// every hook is `C`'s except `private_instr_cost`, left at its default
/// `None`.
struct InOrder<C>(C);

impl<C: CostModel> CostModel for InOrder<C> {
    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64 {
        self.0.instr_cost(role, info)
    }

    fn spawn_overhead(&mut self, cells: usize) -> u64 {
        self.0.spawn_overhead(cells)
    }

    fn dispatch_latency(&mut self, cells: usize) -> u64 {
        self.0.dispatch_latency(cells)
    }

    fn verify_cost(&mut self, live_ins: usize) -> u64 {
        self.0.verify_cost(live_ins)
    }

    fn commit_cost(&mut self, live_outs: usize) -> u64 {
        self.0.commit_cost(live_outs)
    }

    fn squash_penalty(&mut self) -> u64 {
        self.0.squash_penalty()
    }

    fn on_squash(&mut self, role: CoreRole) {
        self.0.on_squash(role);
    }
}

/// Costs that are functions of their arguments alone, but not constant:
/// instructions take 1 to 3 cycles by PC and role, and every overhead is
/// sometimes zero and sometimes not. Every instruction is priced ahead.
struct Stateless;

impl CostModel for Stateless {
    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64 {
        let role = match role {
            CoreRole::Master => 0,
            CoreRole::Slave(i) => 1 + i as u64,
            CoreRole::Recovery(_) => 2,
        };
        1 + (info.pc / 4 + role) % 3
    }

    fn private_instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> Option<u64> {
        Some(self.instr_cost(role, info))
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

/// A finished run, every event its observer saw with its instant, and
/// the cost model as the run left it.
struct Observed<C> {
    run: MsspRun,
    events: Vec<(u64, String)>,
    cost: C,
}

/// Every event a run's observer saw, with its instant.
type Events = Vec<(u64, String)>;

/// Runs `f` under `cost`, with the adaptive loop on if `controller` is
/// given: the run's outcome, and its events up to where it stopped.
fn observe_with<C: CostModel>(
    f: &Fixture,
    config: EngineConfig,
    cost: C,
    controller: Option<AdaptiveController>,
) -> (Result<(MsspRun, C), EngineError>, Events) {
    let mut events = Vec::new();
    let observer = |at: u64, event: Event<'_>| events.push((at, format!("{event:?}")));
    let mut engine = Engine::observed(&f.program, &f.distilled, config, cost, observer);
    if let Some(controller) = controller {
        engine.enable_adaptive(controller, recompiler(f));
    }
    let outcome = engine.run_returning_cost();
    (outcome, events)
}

fn observe<C: CostModel>(
    f: &Fixture,
    config: EngineConfig,
    cost: C,
) -> Result<Observed<C>, EngineError> {
    let (outcome, events) = observe_with(f, config, cost, None);
    let (run, cost) = outcome?;
    Ok(Observed { run, events, cost })
}

fn slaves(n: usize) -> EngineConfig {
    EngineConfig {
        num_slaves: n,
        ..EngineConfig::default()
    }
}

/// Asserts that two runs agree on everything but the adaptive report,
/// which holds wall-clock time, and on every event at its instant.
fn assert_same_run<A, B>(burst: &Observed<A>, per_instant: &Observed<B>, label: &str) {
    let (b, p) = (&burst.run, &per_instant.run);
    assert_eq!(b.cycles, p.cycles, "{label}: cycles");
    assert!(b.state == p.state, "{label}: final state");
    assert_eq!(b.stats, p.stats, "{label}: stats");
    assert_eq!(
        burst.events.len(),
        per_instant.events.len(),
        "{label}: event count"
    );
    for (i, (b, p)) in burst.events.iter().zip(&per_instant.events).enumerate() {
        assert_eq!(b, p, "{label}: event #{i}");
    }
}

#[test]
fn unit_cost_bursts_match_the_per_instant_schedule() {
    let mut squashed = 0;
    for f in standard_fixtures().iter().chain(&phase_fixtures()) {
        for n in SLAVES {
            let burst = observe(f, slaves(n), UnitCost).unwrap();
            let per_instant = observe(f, slaves(n), InOrder(UnitCost)).unwrap();
            assert_same_run(&burst, &per_instant, &format!("{} x{n}", f.name));
            squashed += burst.run.stats.squash_events();
        }
    }
    assert!(squashed > 0, "no run squashed");
}

#[test]
fn stateless_overheads_burst_like_the_per_instant_schedule() {
    let mut squashed = 0;
    for f in standard_fixtures().iter().chain(&phase_fixtures()) {
        for n in SLAVES {
            let burst = observe(f, slaves(n), Stateless).unwrap();
            let per_instant = observe(f, slaves(n), InOrder(Stateless)).unwrap();
            assert_same_run(&burst, &per_instant, &format!("{} x{n}", f.name));
            squashed += burst.run.stats.squash_events();
        }
    }
    assert!(squashed > 0, "no run squashed");
}

/// The timing model of a CMP with `n` slave cores.
fn cmp_cost(n: usize) -> CmpCost {
    CmpCost::new(&TimingConfig {
        engine: slaves(n),
        ..TimingConfig::default()
    })
}

#[test]
fn cmp_cost_bursts_like_the_per_instant_schedule() {
    let (mut squashed, mut l2_reads) = (0, 0);
    for f in standard_fixtures().iter().chain(&phase_fixtures()) {
        for n in SLAVES {
            let label = format!("{} x{n}", f.name);
            let burst = observe(f, slaves(n), cmp_cost(n)).unwrap();
            let per_instant = observe(f, slaves(n), InOrder(cmp_cost(n))).unwrap();
            assert_same_run(&burst, &per_instant, &label);
            // `TimingRun::master_core` and `slave_cores`.
            let (master_core, slave_cores) = burst.cost.core_stats();
            assert_eq!(
                (master_core, slave_cores.clone()),
                per_instant.cost.0.core_stats(),
                "{label}: core counters"
            );
            squashed += burst.run.stats.squash_events();
            l2_reads += slave_cores
                .iter()
                .map(|c| c.l1i.misses + c.l1d.misses)
                .sum::<u64>();
        }
    }
    assert!(squashed > 0, "no run squashed");
    assert!(l2_reads > 0, "no slave instruction read the L2");
}

/// Redistills from the training profile, whatever the live one says, so
/// both paths get the same candidate for the same request.
fn recompiler(f: &Fixture) -> Recompiler {
    let program = f.program.clone();
    let profile = f.training.clone();
    let pin = f.distilled.segmentation().clone();
    Box::new(move |_live| {
        let config = DistillConfig::default();
        redistill(&program, &profile, &config, &pin).map_err(|e| e.to_string())
    })
}

fn adaptive_run<C: CostModel>(f: &Fixture, cost: C) -> Observed<C> {
    let controller = AdaptiveController::new(AdaptiveConfig::default(), &f.training);
    let (outcome, events) = observe_with(f, EngineConfig::default(), cost, Some(controller));
    let (run, cost) = outcome.unwrap();
    Observed { run, events, cost }
}

#[test]
fn adaptive_swaps_land_at_the_same_commits() {
    let mut swaps = 0;
    for f in &phase_fixtures() {
        let burst = adaptive_run(f, UnitCost);
        let per_instant = adaptive_run(f, InOrder(UnitCost));
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
        assert_eq!(
            report(&burst.run),
            report(&per_instant.run),
            "{}: swaps",
            f.name
        );
        swaps += burst.run.stats.swaps_installed;
    }
    assert!(swaps > 0, "no run swapped");
}

/// Budgets up to a run's length cut it, at the same commit under both
/// schedules; one past its length lets it halt.
#[test]
fn instruction_budgets_cut_both_schedules_alike() {
    let standard = standard_fixtures();
    let phase = phase_fixtures();
    let gap = standard.iter().find(|f| f.name == "gap_like").unwrap();
    for f in [gap, &phase[0]] {
        for n in [1, 4] {
            let full = observe(f, slaves(n), UnitCost).unwrap();
            let committed = full.run.stats.committed_instructions;
            for max_instrs in [committed / 3, committed - 1, committed, committed + 1] {
                let config = EngineConfig {
                    max_instrs,
                    ..slaves(n)
                };
                let label = format!("{} x{n} within {max_instrs}", f.name);
                let (burst, burst_events) = observe_with(f, config, UnitCost, None);
                let (per_instant, events) = observe_with(f, config, InOrder(UnitCost), None);
                let burst = burst.map(|(run, _)| (run.cycles, run.state));
                let per_instant = per_instant.map(|(run, _)| (run.cycles, run.state));
                assert!(burst == per_instant, "{label}: outcome");
                assert_eq!(burst.is_ok(), max_instrs > committed, "{label}");
                assert_eq!(burst_events, events, "{label}: events up to the cut");
            }
        }
    }
}

/// `f`'s program under a hand-written master: `source`, entered at its
/// `main` from the program's entry, and at its `evil` label (or `main`)
/// from every boundary, so every restart finds it.
fn hostile(f: &Fixture, source: &str) -> Fixture {
    let master = assemble(source).unwrap();
    let boundaries = f.distilled.boundaries().clone();
    let evil = master.symbol("evil").unwrap_or(master.entry());
    let mut map: BTreeMap<u64, u64> = boundaries.iter().map(|&b| (b, evil)).collect();
    map.insert(f.program.entry(), master.entry());
    Fixture {
        name: f.name,
        program: f.program.clone(),
        training: f.training.clone(),
        distilled: Distilled::from_parts(master, boundaries, map),
    }
}

/// Halts at its first instruction, after the spawn its restart makes.
const HALTING: &str = "main: halt";

/// Scribbles into registers and memory, and spins 0 to 7 times between
/// boundary crossings, so a small run-ahead bound loses it on some of
/// them and not on others.
const SCRIBBLER: &str = "
    main: addi s1, zero, 123
    evil: addi s0, zero, 77
          addi s1, s1, 13
          sd   s1, -8(sp)
          ld   t1, -16(sp)
          andi t0, s1, 7
    spin: beqz t0, evil
          addi t0, t0, -1
          j    spin";

/// The run-ahead bound the scribbler loses itself on.
const SCRIBBLER_RUNAHEAD: u64 = 12;

/// Runs `f` under `cost` and `InOrder(cost)`, compares the runs and what
/// `model_state` reads off the two models at the end, and returns the
/// first run.
fn assert_same_run_under<C: CostModel, T: PartialEq + Debug>(
    f: &Fixture,
    config: EngineConfig,
    cost: impl Fn() -> C,
    model_state: impl Fn(&C) -> T,
) -> MsspRun {
    let label = format!(
        "{} x{} master_runahead {}",
        f.name, config.num_slaves, config.master_runahead
    );
    let burst = observe(f, config, cost()).unwrap();
    let per_instant = observe(f, config, InOrder(cost())).unwrap();
    assert_same_run(&burst, &per_instant, &label);
    assert_eq!(
        model_state(&burst.cost),
        model_state(&per_instant.cost.0),
        "{label}: model state"
    );
    burst.run
}

#[test]
fn hostile_masters_burst_like_the_per_instant_schedule() {
    let standard = standard_fixtures();
    let mut recovered = 0;
    for name in ["gap_like", "mcf_like"] {
        let f = standard.iter().find(|f| f.name == name).unwrap();
        for (source, runahead) in [
            (HALTING, EngineConfig::default().master_runahead),
            (SCRIBBLER, SCRIBBLER_RUNAHEAD),
        ] {
            let f = hostile(f, source);
            for n in SLAVES {
                let config = EngineConfig {
                    master_runahead: runahead,
                    ..slaves(n)
                };
                let run = assert_same_run_under(&f, config, || UnitCost, |_| ());
                recovered += run.stats.recovery_segments;
                assert_same_run_under(&f, config, || Stateless, |_| ());
                // `TimingRun::master_core` and `slave_cores`.
                assert_same_run_under(&f, config, || cmp_cost(n), CmpCost::core_stats);
            }
        }
    }
    assert!(recovered > 0, "no hostile master was recovered from");
}

#[test]
fn master_runahead_sweep_bursts_like_the_per_instant_schedule() {
    let standard = standard_fixtures();
    for name in ["gap_like", "mcf_like"] {
        let f = standard.iter().find(|f| f.name == name).unwrap();
        for n in [1, 4] {
            for master_runahead in 1..400 {
                let config = EngineConfig {
                    master_runahead,
                    ..slaves(n)
                };
                assert_same_run_under(f, config, || UnitCost, |_| ());
            }
        }
    }
}
