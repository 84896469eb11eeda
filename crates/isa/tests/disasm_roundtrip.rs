//! The disassembly re-assembles: every instruction's `Display` text, fed
//! back to the assembler, yields the same instruction.
//!
//! Branches and `jal` are left out: they print a byte offset, but the
//! assembler reads a target address or label.

use mssp_isa::asm::assemble;
use mssp_isa::{AluOp, ImmOp, Instr, LoadOp, Reg, StoreOp, NUM_REGS};
use mssp_testkit::{check, Rng};

fn reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.gen_index(0, NUM_REGS) as u8)
}

fn imm(rng: &mut Rng) -> i16 {
    // Bias toward the edges of the signed and unsigned ranges.
    let random = rng.next_u64() as i16;
    *rng.choose(&[0, 1, -1, i16::MAX, i16::MIN, random])
}

/// A random instruction of every format the assembler reads back as
/// printed.
fn instr(rng: &mut Rng) -> Instr {
    match rng.gen_range(0, 7) {
        0 => Instr::Alu(*rng.choose(&AluOp::ALL), reg(rng), reg(rng), reg(rng)),
        1 => {
            let op = *rng.choose(&ImmOp::ALL);
            let imm = match op {
                ImmOp::Slli | ImmOp::Srli | ImmOp::Srai => rng.gen_range(0, 64) as i16,
                _ => imm(rng),
            };
            Instr::AluImm(op, reg(rng), reg(rng), imm)
        }
        2 => Instr::Lui(reg(rng), imm(rng)),
        3 => Instr::Load(*rng.choose(&LoadOp::ALL), reg(rng), reg(rng), imm(rng)),
        4 => Instr::Store(*rng.choose(&StoreOp::ALL), reg(rng), reg(rng), imm(rng)),
        5 => Instr::Jalr(reg(rng), reg(rng), imm(rng)),
        _ => Instr::Halt,
    }
}

#[test]
fn display_text_reassembles_to_the_same_instruction() {
    check(0xD15A_0001, 4_000, |rng| {
        let i = instr(rng);
        let text = i.to_string();
        let p = assemble(&format!("main: {text}\n halt"))
            .unwrap_or_else(|e| panic!("`{text}` ({i:?}) does not re-assemble: {e:?}"));
        assert_eq!(p.text()[0], i, "`{text}`");
    });
}

#[test]
fn logical_immediates_print_zero_extended() {
    let ori = Instr::AluImm(ImmOp::Ori, Reg::S5, Reg::S5, 0xF42Du16 as i16);
    assert_eq!(ori.to_string(), "ori s5, s5, 62509");
    let addi = Instr::AluImm(ImmOp::Addi, Reg::S5, Reg::S5, -3027);
    assert_eq!(addi.to_string(), "addi s5, s5, -3027");
}
