//! T10 — executable checks of the companion formal model: superimposition
//! algebra (Definition 8), Lemma 3 (`seq(S,n) = S ← Δ(S,n)`), the jumping
//! refinement (commit points ⊑ SEQ trace), and master-independence of the
//! committed state (adversarial masters). Complements the proptest suites
//! with a one-shot, human-readable report.

use std::collections::{BTreeMap, BTreeSet};

use mssp_analysis::Profile;
use mssp_bench::print_header;
use mssp_core::{check_refinement, Engine, EngineConfig, Event, UnitCost};
use mssp_distill::{distill, DistillConfig, Distilled};
use mssp_isa::asm::assemble;
use mssp_isa::Reg;
use mssp_machine::{cumulative_writes, seq_n, Cell, Delta, MachineState, SeqMachine};
use mssp_stats::Table;
use mssp_workloads::{workloads, CHECKSUM_REG};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

fn random_delta(rng: &mut Lcg, cells: usize) -> Delta {
    let mut d = Delta::new();
    for _ in 0..cells {
        let kind = rng.next() % 3;
        let cell = match kind {
            0 => Cell::Reg(Reg::new((rng.next() % 32) as u8)),
            1 => Cell::Pc,
            _ => Cell::Mem(rng.next() % 64),
        };
        d.set(cell, rng.next());
    }
    d
}

fn main() {
    print_header(
        "T10",
        "Formal-model validation",
        "each row: property, trials, verdict",
    );
    let mut rng = Lcg(0x5EED);
    let mut table = Table::new(vec!["property", "trials", "verdict"]);
    let mut check = |name: &str, trials: usize, ok: bool| {
        table.row(vec![
            name.to_string(),
            trials.to_string(),
            if ok { "PASS" } else { "FAIL" }.to_string(),
        ]);
        assert!(ok, "{name} failed");
    };

    // Definition 8.1: associativity of superimposition.
    let trials = 2_000;
    let ok = (0..trials).all(|_| {
        let (a, b, c) = (
            random_delta(&mut rng, 6),
            random_delta(&mut rng, 6),
            random_delta(&mut rng, 6),
        );
        a.superimpose(&b).superimpose(&c) == a.superimpose(&b.superimpose(&c))
    });
    check("superimpose associativity", trials, ok);

    // Definition 8.2: containment.
    let mut rng2 = Lcg(0xFACE);
    let ok = (0..trials).all(|_| {
        let s1 = random_delta(&mut rng2, 5);
        let s2 = s1.superimpose(&random_delta(&mut rng2, 5)).superimpose(&s1);
        let s3 = random_delta(&mut rng2, 5);
        !s1.consistent_with(&s2) || s1.superimpose(&s3).consistent_with(&s2.superimpose(&s3))
    });
    check("containment under superimposition", trials, ok);

    // Definition 8.3: idempotency.
    let mut rng3 = Lcg(0xBEEF);
    let ok = (0..trials).all(|_| {
        let s1 = random_delta(&mut rng3, 8);
        // Build a sub-delta.
        let s2: Delta = s1
            .iter()
            .filter(|_| rng3.next().is_multiple_of(2))
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        s1.superimpose(&s2) == s1
    });
    check("idempotency of sub-delta superimposition", trials, ok);

    // Lemma 3 on a real workload prefix.
    let w = &workloads()[0];
    let p = w.program(512);
    let s0 = MachineState::boot(&p);
    let ok = [1u64, 10, 100, 1000, 5000].iter().all(|&n| {
        let direct = seq_n(&p, s0.clone(), n).expect("runs");
        let mut via = s0.clone();
        via.apply(&cumulative_writes(&p, s0.clone(), n).expect("runs"));
        direct == via
    });
    check("Lemma 3: seq(S,n) = S <- delta(S,n)", 5, ok);

    // Jumping refinement: the commit points are a strictly ordered
    // subsequence of the SEQ trace, and the final states agree.
    let mut refinement_ok = true;
    for w in workloads().iter().take(4) {
        let p = w.program(600);
        let profile = Profile::collect(&p, u64::MAX).expect("profiles");
        let d = distill(&p, &profile, &DistillConfig::default()).expect("distills");
        let mut commits = Vec::new();
        let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
        let run = Engine::observed(&p, &d, EngineConfig::default(), UnitCost, observer)
            .run()
            .expect("runs");
        refinement_ok &= check_refinement(&p, &commits, &run.state).is_ok();
    }
    check("jumping refinement (4 workloads)", 4, refinement_ok);

    // Master independence: a garbage master cannot corrupt state.
    let p = assemble(
        "main: addi s0, zero, 500
         loop: add  s1, s1, s0
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .expect("assembles");
    let mut m = SeqMachine::boot(&p);
    m.run(u64::MAX).expect("runs");
    let expected = m.state().reg(CHECKSUM_REG);
    let mut rng4 = Lcg(0xD00D);
    let trials = 24;
    let ok = (0..trials).all(|_| {
        // A random "master" program of arbitrary ALU garbage ending in a
        // self-loop, mapped at the entry and loop boundary.
        let mut src = String::from("main:\n");
        for _ in 0..(rng4.next() % 12 + 1) {
            let rd = rng4.next() % 10 + 4;
            let imm = (rng4.next() % 4096) as i64 - 2048;
            src.push_str(&format!("  addi r{rd}, r{}, {imm}\n", rng4.next() % 10 + 4));
        }
        src.push_str("evil: addi a0, a0, 1\n  j evil\n");
        let garbage = assemble(&src).expect("garbage assembles");
        let mut map = BTreeMap::new();
        map.insert(p.entry(), garbage.entry());
        map.insert(p.entry() + 4, garbage.symbol("evil").expect("label"));
        let d = Distilled::from_parts(garbage, BTreeSet::from([p.entry() + 4]), map);
        let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
            .run()
            .expect("always terminates correctly");
        run.state.reg(CHECKSUM_REG) == expected
    });
    check("master independence (random masters)", trials, ok);

    println!("{}", table.render());
}
