//! Seeded fuzzing of the assembler's front door: whatever the text,
//! `assemble` and `assemble_at` return `Ok` or `Err` and never panic.
//!
//! Three generators: random bytes; token soups of mnemonics, registers,
//! directives, punctuation and the boundary literals of every immediate
//! field; and line-level mutations (delete, duplicate, swap, splice a
//! token) of the bundled workload sources. A failing case prints its seed
//! for replay (see `mssp_testkit::check`).

use std::path::Path;

use mssp_isa::asm::{assemble, assemble_at};
use mssp_testkit::{check, Rng};

/// Every mnemonic and pseudo-instruction the assembler knows, a few it
/// does not, and every directive.
const WORDS: &[&str] = &[
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu", "mul", "div", "divu",
    "rem", "remu", "addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "srai", "lui",
    "lb", "lbu", "lh", "lhu", "lw", "lwu", "ld", "sb", "sh", "sw", "sd", "beq", "bne", "blt",
    "bge", "bltu", "bgeu", "bgt", "ble", "bgtu", "bleu", "beqz", "bnez", "bltz", "bgez", "bgtz",
    "blez", "jal", "jalr", "j", "call", "ret", "halt", "nop", "li", "la", "mv", "not", "neg",
    "seqz", "snez", "bogus", "bltuz", ".text", ".data", ".entry", ".align", ".byte", ".half",
    ".word", ".dword", ".space", ".ascii", ".asciz", ".equ", ".bogus",
];

/// Registers by ABI name and number, and near misses.
const REGS: &[&str] = &[
    "zero", "ra", "sp", "a0", "a1", "a7", "t0", "t6", "s1", "s11", "x0", "x31", "x32", "r5",
];

/// The edges of every immediate, offset and shift-amount range, of the
/// 64-bit literals `li` accepts, and of the data segment's size.
const LITERALS: &[&str] = &[
    "0",
    "1",
    "-1",
    "63",
    "64",
    "0x7FFF",
    "32767",
    "0x8000",
    "32768",
    "-32768",
    "-32769",
    "0xFFFF",
    "65535",
    "65536",
    "0x10000",
    "-0x8000",
    "0x7FFFFFFF",
    "0x80000000",
    "9223372036854775807",
    "-9223372036854775808",
    "0xFFFFFFFFFFFFFFFF",
    "18446744073709551616",
    "16777216",
    "16777217",
    "0b101",
    "1_000",
    "'A'",
    "'\\n'",
    "'ab'",
    "\"s\\t\"",
    "\"open",
    "main",
    "loop",
    "N",
];

const PUNCT: &[&str] = &[
    ",", ", ", "(", ")", ":", " ", "  ", "\n", ";", "#", "\\", "\"",
];

/// Byte addresses at which to place the text and data segments: the
/// defaults, neighbours, and the top of the address space.
fn base(rng: &mut Rng) -> u64 {
    match rng.gen_range(0, 4) {
        0 => 0x1_0000,
        1 => 0x10_0000,
        2 => u64::MAX - rng.gen_range(0, 0x400),
        _ => rng.next_u64(),
    }
}

/// Runs both entry points on `src`; the test fails only on a panic.
fn both(rng: &mut Rng, src: &str) {
    let _ = assemble(src);
    let text = base(rng) & !3;
    let _ = assemble_at(src, text, base(rng));
}

fn token(rng: &mut Rng) -> &'static str {
    let class = match rng.gen_range(0, 10) {
        0..=2 => WORDS,
        3..=4 => REGS,
        5..=6 => LITERALS,
        _ => PUNCT,
    };
    rng.choose::<&str>(class)
}

/// The bundled workload sources, with the constants their drivers
/// define prepended.
fn workload_sources() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../workloads/asm");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("workload sources")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "s"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 12, "found {} sources", paths.len());
    paths
        .iter()
        .map(|p| {
            let body = std::fs::read_to_string(p).expect("readable source");
            format!(".equ SCALE, 64\n.equ SEED, 7\n.equ BLEN, 3\n{body}")
        })
        .collect()
}

#[test]
fn random_bytes_never_panic() {
    check(0xA5F0_0001, 6_000, |rng| {
        let len = rng.gen_index(0, 160);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.gen_range(0, 4) {
                // Mostly printable ASCII, so some lines get past the lexer.
                0..=2 => rng.gen_range(0x20, 0x7F) as u8,
                _ => rng.next_u64() as u8,
            })
            .collect();
        both(rng, &String::from_utf8_lossy(&bytes));
    });
}

#[test]
fn token_soups_never_panic() {
    check(0xA5F0_0002, 10_000, |rng| {
        let mut src = String::new();
        for _ in 0..rng.gen_index(1, 8) {
            if rng.gen_bool(1, 3) {
                src.push_str("l: ");
            }
            src.push_str(token(rng));
            src.push(' ');
            for _ in 0..rng.gen_index(0, 6) {
                src.push_str(token(rng));
            }
            src.push('\n');
        }
        both(rng, &src);
    });
}

#[test]
fn mutated_workloads_never_panic() {
    let sources = workload_sources();
    for src in &sources {
        assert!(assemble(src).is_ok(), "unmutated source assembles");
    }
    check(0xA5F0_0003, 1_500, |rng| {
        let mut lines: Vec<String> = rng.choose(&sources).lines().map(String::from).collect();
        for _ in 0..rng.gen_index(1, 4) {
            let i = rng.gen_index(0, lines.len());
            let j = rng.gen_index(0, lines.len());
            match rng.gen_range(0, 5) {
                0 => {
                    lines.remove(i);
                }
                1 => {
                    let line = lines[i].clone();
                    lines.insert(j, line);
                }
                2 => lines.swap(i, j),
                3 => {
                    // Replace one whitespace- or comma-separated token.
                    let pieces: Vec<&str> = lines[i].split([' ', ',']).collect();
                    let k = rng.gen_index(0, pieces.len());
                    let mut out: Vec<&str> = pieces.clone();
                    out[k] = token(rng);
                    lines[i] = out.join(" ");
                }
                _ => {
                    let cut = rng.gen_index(0, lines[i].len() + 1);
                    let cut = (0..=cut)
                        .rev()
                        .find(|&c| lines[i].is_char_boundary(c))
                        .unwrap();
                    lines[i].truncate(cut);
                }
            }
            if lines.is_empty() {
                lines.push(String::new());
            }
        }
        both(rng, &lines.join("\n"));
    });
}
