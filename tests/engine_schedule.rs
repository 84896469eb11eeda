//! The discrete engine's schedule, pinned.
//!
//! The engine promises more than the right final state: components act in
//! a fixed priority order at every simulated instant, and because a cost
//! model may carry state shared between cores (`CmpCost`'s L2), the
//! *order* of `CostModel` calls is observable in the cycle count. This
//! file folds every cost-model call of a run — which hook, its argument,
//! what it returned — into one hash, together with the commit trace, and
//! compares `(cycles, hash, committed tasks, squash events)` against
//! values recorded before the scheduler was rebuilt to stop polling
//! (commit d303e1a). Any change to who acts when, or in what order, moves
//! at least one of them.
//!
//! `JitterCost` draws every cost from one seeded stream in call order
//! (instructions 1..=4 cycles, every overhead 0..=3), so a reordering
//! changes every later cost, and zero-latency chains — a spawn whose
//! slave starts in the same instant, back-to-back commits, a squash whose
//! recovery starts at once — all occur.

use mssp::core::{CoreRole, CostModel};
use mssp::machine::StepInfo;
use mssp::prelude::*;
use mssp::timing::CmpCost;
use mssp::workloads::{phase_workloads, TRAIN_SEED};
use mssp_testkit::Rng;

/// Folds `words` into `hash` (FNV-1a over 64-bit words, then a mix).
fn fold(hash: &mut u64, words: &[u64]) {
    for &w in words {
        *hash = (*hash ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        *hash ^= *hash >> 29;
    }
}

fn role_word(role: CoreRole) -> u64 {
    match role {
        CoreRole::Master => 1,
        CoreRole::Slave(i) => 0x100 + i as u64,
        CoreRole::Recovery(i) => 0x10000 + i as u64,
    }
}

/// Wraps a cost model and hashes every call made to it, in order.
struct Recording<C> {
    inner: C,
    hash: u64,
}

impl<C> Recording<C> {
    fn new(inner: C) -> Recording<C> {
        Recording {
            inner,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }
}

impl<C: CostModel> CostModel for Recording<C> {
    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64 {
        let cost = self.inner.instr_cost(role, info);
        fold(&mut self.hash, &[1, role_word(role), info.pc, cost]);
        cost
    }

    fn spawn_overhead(&mut self, cells: usize) -> u64 {
        let cost = self.inner.spawn_overhead(cells);
        fold(&mut self.hash, &[2, cells as u64, cost]);
        cost
    }

    fn dispatch_latency(&mut self, cells: usize) -> u64 {
        let cost = self.inner.dispatch_latency(cells);
        fold(&mut self.hash, &[3, cells as u64, cost]);
        cost
    }

    fn verify_cost(&mut self, live_ins: usize) -> u64 {
        let cost = self.inner.verify_cost(live_ins);
        fold(&mut self.hash, &[4, live_ins as u64, cost]);
        cost
    }

    fn commit_cost(&mut self, live_outs: usize) -> u64 {
        let cost = self.inner.commit_cost(live_outs);
        fold(&mut self.hash, &[5, live_outs as u64, cost]);
        cost
    }

    fn squash_penalty(&mut self) -> u64 {
        let cost = self.inner.squash_penalty();
        fold(&mut self.hash, &[6, cost]);
        cost
    }

    fn on_squash(&mut self, role: CoreRole) {
        self.inner.on_squash(role);
        fold(&mut self.hash, &[7, role_word(role)]);
    }
}

/// Every cost drawn from one seeded stream, in call order.
struct JitterCost(Rng);

impl JitterCost {
    fn overhead(&mut self) -> u64 {
        self.0.gen_range(0, 4)
    }
}

impl CostModel for JitterCost {
    fn instr_cost(&mut self, _role: CoreRole, _info: &StepInfo) -> u64 {
        self.0.gen_range(1, 5)
    }

    fn spawn_overhead(&mut self, _cells: usize) -> u64 {
        self.overhead()
    }

    fn dispatch_latency(&mut self, _cells: usize) -> u64 {
        self.overhead()
    }

    fn verify_cost(&mut self, _live_ins: usize) -> u64 {
        self.overhead()
    }

    fn commit_cost(&mut self, _live_outs: usize) -> u64 {
        self.overhead()
    }

    fn squash_penalty(&mut self) -> u64 {
        self.overhead()
    }
}

/// `(cycles, hash, committed tasks, squash events)` of one run.
type Pinned = (u64, u64, u64, u64);

fn pinned<C: CostModel>(p: &Program, d: &Distilled, num_slaves: usize, cost: C) -> Pinned {
    let config = EngineConfig {
        num_slaves,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(p, d, config, Recording::new(cost));
    engine.enable_commit_trace();
    let (run, cost) = engine.run_returning_cost().expect("the run halts");
    let mut hash = cost.hash;
    fold(&mut hash, &run.commit_trace.expect("tracing enabled"));
    let s = run.stats;
    fold(
        &mut hash,
        &[
            s.master_instructions,
            s.slave_instructions,
            s.wasted_slave_instructions,
            s.recovery_instructions,
            s.master_busy_cycles,
            s.slave_busy_cycles,
            s.recovery_busy_cycles,
            s.verify_busy_cycles,
        ],
    );
    (run.cycles, hash, s.committed_tasks, s.squash_events())
}

/// The three programs with their distillations: `gap_like` and `mcf_like`
/// trained on the training input, `phase_flip` trained with no phase B
/// and run with one (the frozen profile meets code it never saw).
fn fixtures() -> Vec<(&'static str, Program, Distilled)> {
    let mut out = Vec::new();
    for (name, scale) in [("gap_like", 400), ("mcf_like", 256)] {
        let w = Workload::by_name(name).unwrap();
        let train = w.program_with_seed(scale, TRAIN_SEED);
        let profile = Profile::collect(&train, u64::MAX).unwrap();
        let p = w.program(scale);
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        out.push((name, p, d));
    }
    let w = phase_workloads()
        .iter()
        .find(|w| w.name == "phase_flip")
        .unwrap();
    let profile = Profile::collect(&w.phase_program(1200, 0), u64::MAX).unwrap();
    let p = w.phase_program(1200, 1200);
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    out.push(("phase_flip", p, d));
    out
}

const SLAVES: [usize; 3] = [1, 2, 7];

/// Recorded at d303e1a, before `Engine::run_returning_cost` was touched.
/// Rows follow `fixtures()` x `SLAVES`; columns are `UnitCost`, `CmpCost`,
/// `JitterCost`.
#[rustfmt::skip]
const GOLDEN: &[[Pinned; 3]] = &[
    // gap_like x1
    [
        (22032, 0x62006d7ad3dd8059, 89, 0),
        (43350, 0x1e7fae5777ce8bee, 89, 0),
        (55541, 0x425790127913e593, 89, 0),
    ],
    // gap_like x2
    [
        (12820, 0x3c54f3fba6e2f31d, 89, 0),
        (26895, 0x8a7ff5899fd8cd31, 89, 0),
        (32290, 0x99164255e2744d13, 89, 0),
    ],
    // gap_like x7
    [
        (12255, 0xd377f69d48d51886, 89, 0),
        (24014, 0x97a2b6f3668f8db2, 89, 0),
        (30655, 0x7972c04b830bc4d0, 89, 0),
    ],
    // mcf_like x1
    [
        (11034, 0xd753ab83d17d30c1, 43, 0),
        (20230, 0xdd85f9462b288134, 43, 0),
        (27945, 0x3a67ae40546ddac6, 43, 0),
    ],
    // mcf_like x2
    [
        (11032, 0x316099091cd6c63f, 43, 0),
        (19625, 0xd4013595c2a6be2a, 43, 0),
        (27577, 0xb827a86a5f91b12b, 43, 0),
    ],
    // mcf_like x7
    [
        (11032, 0x316099091cd6c63f, 43, 0),
        (19625, 0xd4013595c2a6be2a, 43, 0),
        (27492, 0x4f9561e0ad475b14, 43, 0),
    ],
    // phase_flip x1
    [
        (40770, 0x261b4a1b0f683b18, 70, 23),
        (49598, 0x295f7aafc5c1f677, 70, 23),
        (102112, 0x95e1e2d62b134bbc, 70, 23),
    ],
    // phase_flip x2
    [
        (36010, 0x2753b912c5c4ba74, 70, 23),
        (44945, 0x46d58df712779502, 70, 23),
        (90354, 0xc2c5023b3a3ceeb2, 70, 23),
    ],
    // phase_flip x7
    [
        (36010, 0x2753b912c5c4ba74, 70, 23),
        (44945, 0x46d58df712779502, 70, 23),
        (90207, 0x6da5d15b8aa1062a, 70, 23),
    ],
];

#[test]
fn schedule_matches_the_recorded_one() {
    let mut actual = Vec::new();
    let mut labels = Vec::new();
    for (name, p, d) in &fixtures() {
        for slaves in SLAVES {
            let timing = TimingConfig {
                engine: EngineConfig {
                    num_slaves: slaves,
                    ..EngineConfig::default()
                },
                ..TimingConfig::default()
            };
            actual.push([
                pinned(p, d, slaves, UnitCost),
                pinned(p, d, slaves, CmpCost::new(&timing)),
                pinned(p, d, slaves, JitterCost(Rng::new(0x5EED + slaves as u64))),
            ]);
            labels.push(format!("{name} x{slaves}"));
        }
    }
    let as_source: Vec<String> = actual
        .iter()
        .zip(&labels)
        .map(|(row, label)| {
            let cells: Vec<String> = row
                .iter()
                .map(|(cycles, hash, tasks, squashes)| {
                    format!("        ({cycles}, {hash:#018x}, {tasks}, {squashes}),")
                })
                .collect();
            format!("    // {label}\n    [\n{}\n    ],", cells.join("\n"))
        })
        .collect();
    assert!(
        actual.as_slice() == GOLDEN,
        "the schedule moved; this run produced:\n{}",
        as_source.join("\n")
    );
}

#[test]
fn the_frozen_profile_fixture_squashes_under_jitter() {
    // The pins are only worth having if the runs behind them take the
    // paths a scheduler can get wrong.
    let fixtures = fixtures();
    let (_, p, d) = &fixtures[2];
    let (_, _, committed, squashes) = pinned(p, d, 7, JitterCost(Rng::new(1)));
    assert!(committed > 20, "{committed} tasks");
    assert!(squashes > 5, "{squashes} squashes");
}
