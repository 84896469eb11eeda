//! Assembler edge-case tests: directive abuse, operand forms and error
//! recovery.

use mssp_isa::asm::{assemble, assemble_at};
use mssp_isa::{ImmOp, Instr, LoadOp, Reg};

#[test]
fn custom_bases_are_respected() {
    let p = assemble_at("main: halt", 0x4000, 0x9000).unwrap();
    assert_eq!(p.text_base(), 0x4000);
    assert_eq!(p.data_base(), 0x9000);
    assert_eq!(p.entry(), 0x4000);
}

/// The one error `assemble_at` reports for `src` at these bases.
fn layout_error(src: &str, text_base: u64, data_base: u64) -> String {
    let errs = assemble_at(src, text_base, data_base).unwrap_err();
    assert_eq!(errs.len(), 1, "{errs:?}");
    errs[0].msg.clone()
}

#[test]
fn misaligned_text_base_is_an_error_not_a_panic() {
    let msg = layout_error("main: halt", 0x1002, 0x10_0000);
    assert!(msg.contains("not 4-byte aligned"), "{msg}");
}

#[test]
fn overlapping_segments_are_an_error_not_a_panic() {
    let msg = layout_error("main: nop\n halt\n.data\n .word 7", 0x1000, 0x1004);
    assert!(msg.contains("overlaps"), "{msg}");
}

#[test]
fn text_past_the_address_space_is_an_error_not_a_panic() {
    let msg = layout_error("main: halt", 0xFFFF_FFFF_FFFF_FFFC, 0x1000);
    assert!(msg.contains("text segment") && msg.contains("top of the address space"));
    // One instruction lower, the segment ends at the last address.
    let p = assemble_at("main: halt", 0xFFFF_FFFF_FFFF_FFF8, 0x1000).unwrap();
    assert_eq!(p.text_end(), 0xFFFF_FFFF_FFFF_FFFC);
}

#[test]
fn data_past_the_address_space_is_an_error_not_a_panic() {
    let msg = layout_error("main: halt\n.data\n .dword 1", 0x1000, u64::MAX - 3);
    assert!(msg.contains("data segment") && msg.contains("top of the address space"));
}

#[test]
fn entry_past_the_text_is_an_error_not_a_panic() {
    let msg = layout_error("halt\nmain:", 0x1000, 0x9000);
    assert!(msg.contains("outside the text segment"), "{msg}");
}

#[test]
fn multiple_labels_on_one_address() {
    let p = assemble("a: b: c: halt").unwrap();
    let addr = p.entry();
    assert_eq!(p.symbol("a"), Some(addr));
    assert_eq!(p.symbol("b"), Some(addr));
    assert_eq!(p.symbol("c"), Some(addr));
}

#[test]
fn label_and_instruction_on_same_line() {
    let p = assemble("main: addi a0, zero, 1\nend: halt").unwrap();
    assert_eq!(p.len(), 2);
    assert_eq!(p.symbol("end"), Some(p.entry() + 4));
}

#[test]
fn data_in_text_is_rejected() {
    let errs = assemble("main: .word 5\n halt").unwrap_err();
    assert!(errs[0].msg.contains("only allowed in .data"));
}

#[test]
fn instructions_in_data_are_rejected() {
    let errs = assemble(".data\n addi a0, zero, 1\n.text\nmain: halt").unwrap_err();
    assert!(errs[0].msg.contains("only allowed in .text"));
}

#[test]
fn string_escapes_round_trip() {
    let p = assemble(".data\ns: .asciz \"a\\tb\\n\\\"q\\\"\\0z\"\n.text\nmain: halt").unwrap();
    assert_eq!(p.data(), b"a\tb\n\"q\"\0z\0");
}

#[test]
fn hex_binary_and_underscore_literals() {
    let p =
        assemble("main: addi a0, zero, 0x7F\n addi a1, zero, 0b1010\n addi a2, zero, 1_000\n halt")
            .unwrap();
    assert_eq!(
        p.text()[0],
        Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 0x7F)
    );
    assert_eq!(
        p.text()[1],
        Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::ZERO, 10)
    );
    assert_eq!(
        p.text()[2],
        Instr::AluImm(ImmOp::Addi, Reg::A2, Reg::ZERO, 1000)
    );
}

#[test]
fn bad_align_is_reported() {
    let errs = assemble(".data\n.align 3\n.text\nmain: halt").unwrap_err();
    assert!(errs[0].msg.contains("power of two"));
}

#[test]
fn memory_operand_without_offset() {
    let p = assemble("main: ld a0, (sp)\n halt").unwrap();
    assert_eq!(p.text()[0], Instr::Load(LoadOp::Ld, Reg::A0, Reg::SP, 0));
}

#[test]
fn equ_used_in_offsets_and_la_targets() {
    let p = assemble(
        ".equ OFF, 24
         .data
         buf: .space 64
         .text
         main: la a0, buf
               ld a1, OFF(a0)
               halt",
    )
    .unwrap();
    assert_eq!(p.text()[2], Instr::Load(LoadOp::Ld, Reg::A1, Reg::A0, 24));
}

#[test]
fn errors_report_correct_lines() {
    let errs = assemble("main: nop\n nop\n bogus\n halt").unwrap_err();
    assert_eq!(errs[0].line, 3);
}

#[test]
fn shift_amount_bounds() {
    assert!(assemble("main: slli a0, a0, 63\n halt").is_ok());
    assert!(assemble("main: slli a0, a0, 64\n halt").is_err());
}

#[test]
fn jal_with_explicit_register() {
    let p = assemble("main: jal t0, target\ntarget: halt").unwrap();
    assert_eq!(p.text()[0], Instr::Jal(Reg::T0, 0));
}

#[test]
fn uimm_logical_range() {
    // Logical immediates accept the full unsigned 16-bit range.
    assert!(assemble("main: ori a0, zero, 0xFFFF\n halt").is_ok());
    assert!(assemble("main: ori a0, zero, 0x10000\n halt").is_err());
    // Arithmetic immediates are signed.
    assert!(assemble("main: addi a0, zero, 0x8000\n halt").is_err());
    assert!(assemble("main: addi a0, zero, -0x8000\n halt").is_ok());
}
