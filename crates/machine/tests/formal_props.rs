//! Property-based tests of the formal model's laws (companion paper,
//! Definitions 8-10, Lemma 3): superimposition algebra over arbitrary
//! deltas, and seq/Δ agreement over randomly generated straight-line
//! programs.
//!
//! Seeded with `mssp-testkit` (no crate registry in the build
//! environment); a failing case prints its seed for replay.

use mssp_isa::{AluOp, ImmOp, Instr, LoadOp, Program, Reg, StoreOp};
use mssp_machine::{cumulative_writes, seq_n, Cell, Delta, MachineState};
use mssp_testkit::{check, Rng};

fn arb_cell(rng: &mut Rng) -> Cell {
    match rng.gen_range(0, 3) {
        0 => Cell::Reg(Reg::new(rng.gen_range(0, 32) as u8)),
        1 => Cell::Pc,
        _ => Cell::Mem(rng.gen_range(0, 64)),
    }
}

fn arb_delta(rng: &mut Rng) -> Delta {
    let n = rng.gen_range(0, 12);
    (0..n).map(|_| (arb_cell(rng), rng.next_u64())).collect()
}

// Definition 8.1: associativity of superimposition.
#[test]
fn superimpose_associative() {
    check(0x3A51_0001, 512, |rng| {
        let a = arb_delta(rng);
        let b = arb_delta(rng);
        let c = arb_delta(rng);
        assert_eq!(
            a.superimpose(&b).superimpose(&c),
            a.superimpose(&b.superimpose(&c))
        );
    });
}

// Definition 8.2: containment. S1 ⊑ S2 ⟹ (S1 ← S3) ⊑ (S2 ← S3).
#[test]
fn superimpose_containment() {
    check(0x3A51_0002, 512, |rng| {
        let base = arb_delta(rng);
        let extra = arb_delta(rng);
        let s3 = arb_delta(rng);
        // Construct S2 ⊒ S1 by extension.
        let s1 = base.clone();
        let s2 = base.superimpose(&extra).superimpose(&base);
        if !s1.consistent_with(&s2) {
            return; // construction needs S1 ⊑ S2 (masked overlap can break it)
        }
        assert!(s1.superimpose(&s3).consistent_with(&s2.superimpose(&s3)));
    });
}

// Definition 8.3: idempotency. S2 ⊑ S1 ⟹ S1 ← S2 = S1.
#[test]
fn superimpose_idempotent() {
    check(0x3A51_0003, 512, |rng| {
        let s1 = arb_delta(rng);
        let mask = rng.next_u64();
        // Build S2 as a sub-delta of S1.
        let s2: Delta = s1
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, kv)| kv)
            .collect();
        assert!(s2.consistent_with(&s1));
        assert_eq!(s1.superimpose(&s2), s1);
    });
}

// Superimposition onto a full state distributes over composition:
// (S ← a) ← b  =  S ← (a ← b).
#[test]
fn apply_composes() {
    check(0x3A51_0004, 512, |rng| {
        let a = arb_delta(rng);
        let b = arb_delta(rng);
        let mut s1 = MachineState::new();
        s1.apply(&a);
        s1.apply(&b);
        let mut s2 = MachineState::new();
        s2.apply(&a.superimpose(&b));
        assert_eq!(s1, s2);
    });
}

/// A random but well-formed program: straight-line ALU/memory code ending
/// in `halt`, so every program terminates. It writes every kind of cell:
/// registers by ALU ops, `lui`, loads and `jal rd, 0` (a link to the next
/// instruction), and memory by stores of every width; the narrow ones land
/// at any byte offset, so some straddle two words.
fn arb_program(rng: &mut Rng) -> Program {
    let len = rng.gen_range(1, 40);
    let mut body: Vec<Instr> = (0..len)
        .map(|_| {
            let r = |rng: &mut Rng| Reg::new(rng.gen_range(4, 12) as u8);
            match rng.gen_range(0, 7) {
                0 => {
                    let rd = r(rng);
                    let a = r(rng);
                    let b = r(rng);
                    match rng.gen_range(0, 6) {
                        0 => Instr::Alu(AluOp::Add, rd, a, b),
                        1 => Instr::Alu(AluOp::Sub, rd, a, b),
                        2 => Instr::Alu(AluOp::Xor, rd, a, b),
                        3 => Instr::Alu(AluOp::Mul, rd, a, b),
                        4 => Instr::Alu(AluOp::And, rd, a, b),
                        _ => Instr::Alu(AluOp::Or, rd, a, b),
                    }
                }
                1 => Instr::AluImm(ImmOp::Addi, r(rng), r(rng), rng.next_u64() as i16),
                // sp-relative accesses stay in mapped stack space.
                2 => Instr::Store(
                    StoreOp::Sd,
                    r(rng),
                    Reg::SP,
                    rng.gen_range(0, 64) as i16 * 8 - 256,
                ),
                3 => {
                    let op = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw][rng.gen_range(0, 3) as usize];
                    Instr::Store(op, r(rng), Reg::SP, rng.gen_range(0, 512) as i16 - 256)
                }
                4 => Instr::Lui(r(rng), rng.next_u64() as i16),
                5 => Instr::Jal(r(rng), 0),
                _ => Instr::Load(
                    LoadOp::Ld,
                    r(rng),
                    Reg::SP,
                    rng.gen_range(0, 64) as i16 * 8 - 256,
                ),
            }
        })
        .collect();
    body.push(Instr::Halt);
    Program::from_instrs(body)
}

// Lemma 3: seq(S, n) = S ← Δ(S, n) for arbitrary programs and n.
#[test]
fn lemma3_holds() {
    check(0x3A51_0005, 256, |rng| {
        let p = arb_program(rng);
        let n = rng.gen_range(0, 64);
        let s0 = MachineState::boot(&p);
        let direct = seq_n(&p, s0.clone(), n).unwrap();
        let delta = cumulative_writes(&p, s0.clone(), n).unwrap();
        let mut via = s0;
        via.apply(&delta);
        assert_eq!(direct, via);
    });
}

// Determinism of seq: same state, same program, same result.
#[test]
fn seq_deterministic() {
    check(0x3A51_0006, 256, |rng| {
        let p = arb_program(rng);
        let n = rng.gen_range(0, 64);
        let s0 = MachineState::boot(&p);
        let a = seq_n(&p, s0.clone(), n).unwrap();
        let b = seq_n(&p, s0, n).unwrap();
        assert_eq!(a, b);
    });
}

// Monotone composition: seq(seq(S, a), b) = seq(S, a + b).
#[test]
fn seq_composes() {
    check(0x3A51_0007, 256, |rng| {
        let p = arb_program(rng);
        let a = rng.gen_range(0, 32);
        let b = rng.gen_range(0, 32);
        let s0 = MachineState::boot(&p);
        let two_step = seq_n(&p, seq_n(&p, s0.clone(), a).unwrap(), b).unwrap();
        let one_step = seq_n(&p, s0, a + b).unwrap();
        assert_eq!(two_step, one_step);
    });
}
