//! The formal model, interactively: superimposition, consistency, task
//! safety (Theorem 2 of the companion verification paper), and the
//! jumping refinement — demonstrated on concrete states rather than
//! proved on abstract ones.
//!
//! Run with: `cargo run --release --example formal_model`

use mssp::core::{check_refinement, Event};
use mssp::machine::{cumulative_writes, seq_n, Cell, Delta};
use mssp::prelude::*;

fn main() {
    // ---- Definition 8: superimposition algebra --------------------------
    let s1: Delta = [(Cell::Mem(0), 1u64), (Cell::Mem(1), 2)]
        .into_iter()
        .collect();
    let s2: Delta = [(Cell::Mem(1), 9u64), (Cell::Mem(2), 3)]
        .into_iter()
        .collect();
    let s3: Delta = [(Cell::Mem(2), 4u64), (Cell::Pc, 0x40)]
        .into_iter()
        .collect();
    assert_eq!(
        s1.superimpose(&s2).superimpose(&s3),
        s1.superimpose(&s2.superimpose(&s3)),
    );
    println!("Definition 8.1 (associativity): (S1<-S2)<-S3 == S1<-(S2<-S3)   OK");

    let sub: Delta = [(Cell::Mem(1), 2u64)].into_iter().collect();
    assert!(sub.consistent_with(&s1));
    assert_eq!(s1.superimpose(&sub), s1);
    println!("Definition 8.3 (idempotency):   S2 (= S1  =>  S1<-S2 == S1     OK");

    // ---- Lemma 3: seq(S, n) = S <- delta(S, n) --------------------------
    let program = assemble(
        "main:  addi s0, zero, 40
         loop:  add  s1, s1, s0
                sd   s1, -8(sp)
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let s0 = MachineState::boot(&program);
    for n in [0u64, 7, 60, 161] {
        let direct = seq_n(&program, s0.clone(), n).unwrap();
        let mut via = s0.clone();
        via.apply(&cumulative_writes(&program, s0.clone(), n).unwrap());
        assert_eq!(direct, via);
    }
    println!("Lemma 3:                        seq(S,n) == S <- delta(S,n)    OK");

    // ---- Theorem 2: consistency + completeness => task safety -----------
    // A task's recorded live-ins that match architected state guarantee
    // its live-outs advance the state exactly as SEQ would. Run MSSP and
    // let the independent checker confirm the refinement end to end.
    let profile = Profile::collect(&program, u64::MAX).unwrap();
    let distilled = distill(&program, &profile, &DistillConfig::default()).unwrap();
    let mut commits = Vec::new();
    let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
    let run = Engine::observed(
        &program,
        &distilled,
        EngineConfig::default(),
        UnitCost,
        observer,
    )
    .run()
    .unwrap();
    check_refinement(&program, &commits, &run.state).unwrap();
    println!(
        "Jumping refinement:             {} commit points (= SEQ states) OK",
        commits.len()
    );

    println!("\nEvery claim of the formal model held on concrete executions.");
}
