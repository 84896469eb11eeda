//! Constant propagation predicts exactly what the interpreter computes.
//!
//! The distiller's constant folding and the linter both trust
//! [`ConstPropAnalysis`] and [`eval_branch`] to give the value or the
//! direction the machine would. For every ALU, immediate and `lui` opcode,
//! and every conditional branch, this test materialises two operands with
//! `li`, drives the analysis' transfer function over the program, and
//! compares its verdict with a [`SeqMachine`] run of the same program.

use mssp_analysis::{eval_branch, Analysis, ConstFacts, ConstPropAnalysis, ConstVal};
use mssp_isa::asm::li_sequence;
use mssp_isa::{AluOp, Cond, ImmOp, Instr, Program, Reg};
use mssp_machine::SeqMachine;
use mssp_testkit::Rng;

/// Operand values at the edges of every immediate, shift and sign rule.
const EDGES: [i64; 12] = [
    0,
    1,
    2,
    63,
    64,
    65,
    0x7FFF,
    0x8000,
    0xFFFF,
    i64::MAX,
    i64::MIN,
    -1,
];

/// The boundary values, then `extra` seeded random ones.
fn operands(rng: &mut Rng, extra: usize) -> Vec<i64> {
    let mut v = EDGES.to_vec();
    v.extend((0..extra).map(|_| rng.next_u64() as i64));
    v
}

/// 16-bit immediates: every boundary, then seeded random ones.
fn immediates(rng: &mut Rng) -> Vec<i16> {
    let mut v: Vec<i16> = vec![0, 1, -1, 2, 63, 64, i16::MAX, i16::MIN, 0x7F00, -0x100];
    v.extend((0..16).map(|_| rng.next_u64() as i16));
    v
}

/// `li a1, x; li a2, y; tail...; halt`.
fn program(x: i64, y: i64, tail: &[Instr]) -> Program {
    let mut text = li_sequence(Reg::A1, x);
    text.extend(li_sequence(Reg::A2, y));
    text.extend_from_slice(tail);
    text.push(Instr::Halt);
    Program::from_instrs(text)
}

/// The facts after the last instruction of `text` before `halt`, starting
/// from the analysis boundary (every register varying).
fn facts_through(p: &Program, upto: usize) -> ConstFacts {
    let mut facts = ConstPropAnalysis.boundary();
    for (pc, instr) in p.iter_pcs().take(upto) {
        ConstPropAnalysis.transfer(pc, instr, &mut facts);
    }
    facts
}

fn run(p: &Program) -> mssp_machine::MachineState {
    let mut m = SeqMachine::boot(p);
    m.run_to_halt(1_000).expect("straight-line program halts");
    m.into_state()
}

/// Checks that const-prop's value of `a0` after `instr` is the machine's.
fn agrees(x: i64, y: i64, instr: Instr) {
    let p = program(x, y, &[instr]);
    let facts = facts_through(&p, p.len() - 1);
    let machine = run(&p).reg(Reg::A0);
    assert_eq!(
        facts.get(Reg::A0),
        ConstVal::Const(machine),
        "`{instr}` with a1 = {x:#x}, a2 = {y:#x}"
    );
}

#[test]
fn register_ops_agree_with_the_interpreter() {
    let mut rng = Rng::new(0xC0A5_7001);
    let values = operands(&mut rng, 8);
    for op in AluOp::ALL {
        let instr = Instr::Alu(op, Reg::A0, Reg::A1, Reg::A2);
        for &x in &values {
            for &y in &values {
                agrees(x, y, instr);
            }
        }
    }
}

#[test]
fn immediate_ops_and_lui_agree_with_the_interpreter() {
    let mut rng = Rng::new(0xC0A5_7002);
    let values = operands(&mut rng, 16);
    let imms = immediates(&mut rng);
    for op in ImmOp::ALL {
        for &x in &values {
            for &imm in &imms {
                // The assembler accepts shift amounts in `0..64` only.
                let shift = matches!(op, ImmOp::Slli | ImmOp::Srli | ImmOp::Srai);
                let imm = if shift { imm & 63 } else { imm };
                agrees(x, 0, Instr::AluImm(op, Reg::A0, Reg::A1, imm));
            }
        }
    }
    for &imm in &imms {
        agrees(0, 0, Instr::Lui(Reg::A0, imm));
    }
}

#[test]
fn branch_verdicts_agree_with_the_interpreter() {
    let mut rng = Rng::new(0xC0A5_7003);
    let values = operands(&mut rng, 8);
    for cond in Cond::ALL {
        // A taken branch skips the `addi` that marks the fall-through.
        let branch = Instr::Branch(cond, Reg::A1, Reg::A2, 4);
        let mark = Instr::AluImm(ImmOp::Addi, Reg::A3, Reg::ZERO, 1);
        for &x in &values {
            for &y in &values {
                let p = program(x, y, &[branch, mark]);
                let facts = facts_through(&p, p.len() - 3);
                let taken = run(&p).reg(Reg::A3) == 0;
                assert_eq!(
                    eval_branch(branch, &facts),
                    Some(taken),
                    "`{branch}` with a1 = {x:#x}, a2 = {y:#x}"
                );
            }
        }
    }
}
