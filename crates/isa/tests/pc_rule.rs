//! `Program::fetch`, `index_of_pc` and `contains_pc` against the PC rule
//! written out the long way: `pc >= base && pc - base < len * 4` and
//! aligned. The fast path wraps its subtraction, so the probes sit where
//! a wrap or an off-by-one would show: both ends of each segment, the
//! ends of the address space, and every member.

use mssp_isa::asm::assemble_at;
use mssp_isa::{Program, INSTR_BYTES, TEXT_BASE};

/// The reference rule: the index of `pc` in the text, or `None`.
fn reference_index(p: &Program, pc: u64) -> Option<usize> {
    let base = p.text_base();
    let len = p.len() as u64;
    let inside = pc >= base && pc - base < len * INSTR_BYTES;
    (inside && (pc - base).is_multiple_of(INSTR_BYTES))
        .then(|| ((pc - base) / INSTR_BYTES) as usize)
}

fn probes(p: &Program) -> Vec<u64> {
    let (base, end) = (p.text_base(), p.text_end());
    let mut pcs = vec![0, u64::MAX, base, end];
    for d in 1..=8 {
        pcs.extend([
            base.wrapping_sub(d),
            base.wrapping_add(d),
            end.wrapping_sub(d),
            end.wrapping_add(d),
        ]);
    }
    pcs.extend(p.iter_pcs().map(|(pc, _)| pc));
    pcs
}

fn check(p: &Program) {
    for pc in probes(p) {
        let want = reference_index(p, pc);
        assert_eq!(p.index_of_pc(pc), want, "index_of_pc({pc:#x})");
        assert_eq!(p.contains_pc(pc), want.is_some(), "contains_pc({pc:#x})");
        assert_eq!(p.fetch(pc), want.map(|i| p.text()[i]), "fetch({pc:#x})");
    }
}

const SRC: &str = "main: addi a0, zero, 3
                   loop: addi a0, a0, -1
                         bnez a0, loop
                         halt";

#[test]
fn pc_rule_at_the_default_text_base() {
    check(&assemble_at(SRC, TEXT_BASE, 0x10_0000).unwrap());
}

#[test]
fn pc_rule_at_address_zero() {
    check(&assemble_at(SRC, 0, 0x10_0000).unwrap());
}

#[test]
fn pc_rule_at_the_highest_accepted_base() {
    // Four instructions end at the last address, 2^64 - 4.
    let top = 0u64.wrapping_sub(4 * INSTR_BYTES + INSTR_BYTES);
    let p = assemble_at(SRC, top, 0x1000).unwrap();
    assert!(assemble_at(SRC, top + INSTR_BYTES, 0x1000).is_err());
    check(&p);
}
