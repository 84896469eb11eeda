//! A two-pass assembler for the MSSP ISA.
//!
//! The syntax is deliberately close to RISC-V assembly:
//!
//! ```text
//! ; comments start with ';' or '#'
//! .data
//! table:  .dword 1, 2, 3
//! msg:    .asciz "hi"
//! .text
//! main:
//!     la   a1, table
//!     ld   a0, 8(a1)
//!     addi a0, a0, 1
//!     beqz a0, done
//!     j    main
//! done:
//!     halt
//! ```
//!
//! Supported directives: `.text`, `.data`, `.entry <label>`, `.align <n>`,
//! `.byte`, `.half`, `.word`, `.dword`, `.space <n>`, `.ascii`, `.asciz`,
//! `.equ <name>, <value>`.
//!
//! Supported pseudo-instructions: `li`, `la`, `mv`, `not`, `neg`, `seqz`,
//! `snez`, `nop`, `j`, `jal <label>`, `call`, `ret`, `beqz`, `bnez`, `bltz`,
//! `bgez`, `bgtz`, `blez`, `bgt`, `ble`, `bgtu`, `bleu`.

use std::collections::BTreeMap;
use std::fmt;

use crate::program::segment_end;
use crate::{
    AluOp, Cond, ImmOp, Instr, LoadOp, Program, Reg, StoreOp, DATA_BASE, INSTR_BYTES, TEXT_BASE,
};

/// The largest data segment the assembler lays out. The image is built in
/// memory, so a `.space` or `.align` that asks for more is an error rather
/// than an allocation.
const MAX_DATA_BYTES: u64 = 1 << 24;

/// An assembly diagnostic, carrying the 1-based source line.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// let err = assemble("bogus a0, a1").unwrap_err();
/// assert_eq!(err[0].line, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description of the problem.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Assembles source text into a [`Program`] with default segment bases.
///
/// # Errors
///
/// Returns every diagnostic found (undefined labels, immediates out of
/// range, unknown mnemonics, ...), never a partial program.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// let prog = assemble("main: addi a0, zero, 3\n halt").unwrap();
/// assert_eq!(prog.len(), 2);
/// ```
pub fn assemble(source: &str) -> Result<Program, Vec<AsmError>> {
    assemble_at(source, TEXT_BASE, DATA_BASE)
}

/// Assembles source text with explicit text and data base addresses.
///
/// # Errors
///
/// As for [`assemble`], and also for a layout of the caller's bases that
/// no [`Program`] can hold: a text base that is not 4-byte aligned, a
/// segment that runs past the top of the address space, or text and data
/// that overlap.
pub fn assemble_at(source: &str, text_base: u64, data_base: u64) -> Result<Program, Vec<AsmError>> {
    Assembler::new(text_base, data_base).run(source)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Text,
    Data,
}

/// A parsed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(Reg),
    Imm(i64),
    Sym(String),
    /// `off(base)` memory operand.
    Mem(i64, Reg),
}

struct Assembler {
    text_base: u64,
    data_base: u64,
    errors: Vec<AsmError>,
    equs: BTreeMap<String, i64>,
}

/// A text-segment item after pass 1: an instruction template whose
/// symbol operands remain unresolved.
#[derive(Debug, Clone)]
struct PendingInstr {
    line: usize,
    mnemonic: String,
    operands: Vec<Operand>,
    /// Address of the first emitted instruction.
    pc: u64,
    /// Number of instructions this item expands to (fixed after
    /// pass 1 so addresses are stable).
    size: u64,
}

impl Assembler {
    fn new(text_base: u64, data_base: u64) -> Assembler {
        Assembler {
            text_base,
            data_base,
            errors: Vec::new(),
            equs: BTreeMap::new(),
        }
    }

    fn err(&mut self, line: usize, msg: impl Into<String>) {
        self.errors.push(AsmError {
            line,
            msg: msg.into(),
        });
    }

    fn run(mut self, source: &str) -> Result<Program, Vec<AsmError>> {
        let mut segment = Segment::Text;
        let mut symbols: BTreeMap<String, u64> = BTreeMap::new();
        let mut pending: Vec<PendingInstr> = Vec::new();
        let mut data: Vec<u8> = Vec::new();
        // Data fixups: (line, offset into data, width, symbol).
        let mut data_fixups: Vec<(usize, usize, usize, String)> = Vec::new();
        let mut text_cursor: u64 = self.text_base;
        let mut entry_label: Option<(usize, String)> = None;

        // ---- Pass 1: parse, lay out, collect symbols ----
        for (lineno, raw) in source.lines().enumerate() {
            let line = lineno + 1;
            let stripped = strip_comment(raw);
            let mut rest = stripped.trim();
            // Leading labels (possibly several).
            while let Some(colon) = find_label(rest) {
                let (name, tail) = rest.split_at(colon);
                let name = name.trim();
                if !is_ident(name) {
                    self.err(line, format!("invalid label name `{name}`"));
                } else {
                    let addr = match segment {
                        Segment::Text => text_cursor,
                        // Addresses wrap here, as `text_cursor` does;
                        // `check_layout` reports a segment that runs past
                        // the top of the address space.
                        Segment::Data => self.data_base.wrapping_add(data.len() as u64),
                    };
                    if symbols.insert(name.to_string(), addr).is_some() {
                        self.err(line, format!("duplicate label `{name}`"));
                    }
                }
                rest = tail[1..].trim();
            }
            if rest.is_empty() {
                continue;
            }
            if let Some(directive) = rest.strip_prefix('.') {
                let (name, args) = split_word(directive);
                match name {
                    "text" => segment = Segment::Text,
                    "data" => segment = Segment::Data,
                    "entry" => entry_label = Some((line, args.trim().to_string())),
                    "equ" => {
                        let parts: Vec<&str> = args.splitn(2, ',').collect();
                        if parts.len() != 2 {
                            self.err(line, ".equ needs `name, value`");
                        } else {
                            let name = parts[0].trim().to_string();
                            match self.parse_int(parts[1].trim()) {
                                Some(v) => {
                                    self.equs.insert(name, v);
                                }
                                None => self.err(line, "bad .equ value"),
                            }
                        }
                    }
                    "align" => {
                        let n = self.parse_int(args.trim()).unwrap_or(0);
                        if n <= 0 || (n & (n - 1)) != 0 {
                            self.err(line, ".align needs a positive power of two");
                        } else if segment == Segment::Data {
                            let len = (data.len() as u64).next_multiple_of(n as u64);
                            self.grow_data(line, &mut data, len);
                        }
                    }
                    "space" => match self.parse_int(args.trim()) {
                        Some(n) if n >= 0 && segment == Segment::Data => {
                            let len = data.len() as u64 + n as u64;
                            self.grow_data(line, &mut data, len);
                        }
                        _ => self.err(line, ".space needs a non-negative size in .data"),
                    },
                    "byte" | "half" | "word" | "dword" => {
                        if segment != Segment::Text {
                            let width = match name {
                                "byte" => 1,
                                "half" => 2,
                                "word" => 4,
                                _ => 8,
                            };
                            for piece in split_commas(args) {
                                let piece = piece.trim();
                                if piece.is_empty() {
                                    continue;
                                }
                                if let Some(v) = self.parse_int(piece) {
                                    data.extend_from_slice(&v.to_le_bytes()[..width]);
                                } else if is_ident(piece) {
                                    data_fixups.push((line, data.len(), width, piece.to_string()));
                                    data.extend(std::iter::repeat_n(0u8, width));
                                } else {
                                    self.err(line, format!("bad data value `{piece}`"));
                                }
                            }
                        } else {
                            self.err(line, format!(".{name} is only allowed in .data"));
                        }
                    }
                    "ascii" | "asciz" => match parse_string(args.trim()) {
                        Some(bytes) if segment == Segment::Data => {
                            data.extend_from_slice(&bytes);
                            if name == "asciz" {
                                data.push(0);
                            }
                        }
                        Some(_) => self.err(line, format!(".{name} is only allowed in .data")),
                        None => self.err(line, "bad string literal"),
                    },
                    other => self.err(line, format!("unknown directive `.{other}`")),
                }
                continue;
            }
            // An instruction (or pseudo-instruction).
            if segment != Segment::Text {
                self.err(line, "instructions are only allowed in .text");
                continue;
            }
            let (mnemonic, args) = split_word(rest);
            let operands = match self.parse_operands(line, args) {
                Some(ops) => ops,
                None => continue,
            };
            let size = match self.instr_size(line, mnemonic, &operands) {
                Some(s) => s,
                None => continue,
            };
            pending.push(PendingInstr {
                line,
                mnemonic: mnemonic.to_string(),
                operands,
                pc: text_cursor,
                size,
            });
            text_cursor = text_cursor.wrapping_add(size * INSTR_BYTES);
        }

        // ---- Pass 2: resolve symbols and emit ----
        let mut text: Vec<Instr> = Vec::new();
        for item in &pending {
            let before_len = text.len();
            let before_errs = self.errors.len();
            self.emit(item, &symbols, &mut text);
            if self.errors.len() == before_errs {
                let emitted = (text.len() - before_len) as u64;
                assert_eq!(
                    emitted, item.size,
                    "assembler size accounting bug for `{}` at line {}",
                    item.mnemonic, item.line
                );
            } else {
                // Keep addresses stable even after an error by padding or
                // truncating to the size reserved in pass 1.
                text.truncate(before_len + item.size as usize);
                while text.len() < before_len + item.size as usize {
                    text.push(Instr::nop());
                }
            }
        }
        for (line, offset, width, sym) in &data_fixups {
            match symbols
                .get(sym)
                .copied()
                .or_else(|| self.equs.get(sym).map(|&v| v as u64))
            {
                Some(v) => {
                    data[*offset..*offset + *width]
                        .copy_from_slice(&(v as i64).to_le_bytes()[..*width]);
                }
                None => self.err(*line, format!("undefined symbol `{sym}` in data")),
            }
        }
        let mut entry = self.text_base;
        if let Some((line, label)) = entry_label {
            match symbols.get(&label) {
                Some(&addr) => entry = addr,
                None => self.err(line, format!("undefined .entry label `{label}`")),
            }
        } else if let Some(&addr) = symbols.get("main") {
            entry = addr;
        }
        self.check_layout(text.len(), data.len(), entry);

        if self.errors.is_empty() {
            let prog = Program::new(text, self.text_base, data, self.data_base, entry, symbols);
            if let Err(e) = prog.validate() {
                return Err(vec![AsmError {
                    line: 0,
                    msg: e.to_string(),
                }]);
            }
            Ok(prog)
        } else {
            Err(self.errors)
        }
    }

    /// Zero-fills `data` to `len` bytes, or reports a data segment over
    /// [`MAX_DATA_BYTES`].
    fn grow_data(&mut self, line: usize, data: &mut Vec<u8>, len: u64) {
        if len > MAX_DATA_BYTES {
            self.err(
                line,
                format!("data segment of {len} bytes is past the {MAX_DATA_BYTES}-byte limit"),
            );
        } else {
            data.resize(len as usize, 0);
        }
    }

    /// Reports, as errors, every segment layout [`Program::new`] would
    /// panic on: a misaligned text base, a segment that runs past the top
    /// of the address space, overlapping segments, an entry outside the
    /// text.
    fn check_layout(&mut self, text_len: usize, data_len: usize, entry: u64) {
        let (text_base, data_base) = (self.text_base, self.data_base);
        if !text_base.is_multiple_of(INSTR_BYTES) {
            self.err(0, format!("text base {text_base:#x} is not 4-byte aligned"));
        }
        let text_end = segment_end(text_base, text_len, INSTR_BYTES);
        let data_end = segment_end(data_base, data_len, 1);
        for (name, base, end) in [("text", text_base, text_end), ("data", data_base, data_end)] {
            if end.is_none() {
                self.err(
                    0,
                    format!("{name} segment at {base:#x} runs past the top of the address space"),
                );
            }
        }
        let (Some(text_end), Some(data_end)) = (text_end, data_end) else {
            return;
        };
        if !(text_end <= data_base || data_end <= text_base) {
            self.err(
                0,
                format!(
                    "text [{text_base:#x},{text_end:#x}) overlaps data [{data_base:#x},{data_end:#x})"
                ),
            );
        }
        // Labels in the text sit on instruction addresses: an entry in the
        // range is one.
        if text_len > 0 && !(text_base..text_end).contains(&entry) {
            self.err(0, format!("entry {entry:#x} is outside the text segment"));
        }
    }

    fn parse_int(&self, s: &str) -> Option<i64> {
        parse_int_with(&self.equs, s)
    }

    fn parse_operands(&mut self, line: usize, args: &str) -> Option<Vec<Operand>> {
        let mut ops = Vec::new();
        for piece in split_commas(args) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            // off(base) or (base)
            if let Some(open) = piece.find('(') {
                if !piece.ends_with(')') {
                    self.err(line, format!("bad memory operand `{piece}`"));
                    return None;
                }
                let off_str = piece[..open].trim();
                let base_str = piece[open + 1..piece.len() - 1].trim();
                let off = if off_str.is_empty() {
                    0
                } else {
                    match self.parse_int(off_str) {
                        Some(v) => v,
                        None => {
                            self.err(line, format!("bad offset `{off_str}`"));
                            return None;
                        }
                    }
                };
                let base: Reg = match base_str.parse() {
                    Ok(r) => r,
                    Err(_) => {
                        self.err(line, format!("bad base register `{base_str}`"));
                        return None;
                    }
                };
                ops.push(Operand::Mem(off, base));
                continue;
            }
            if let Ok(r) = piece.parse::<Reg>() {
                ops.push(Operand::Reg(r));
                continue;
            }
            if let Some(v) = self.parse_int(piece) {
                ops.push(Operand::Imm(v));
                continue;
            }
            if is_ident(piece) {
                ops.push(Operand::Sym(piece.to_string()));
                continue;
            }
            self.err(line, format!("unparseable operand `{piece}`"));
            return None;
        }
        Some(ops)
    }

    /// Number of instructions a (pseudo-)instruction expands to.
    fn instr_size(&mut self, line: usize, mnemonic: &str, ops: &[Operand]) -> Option<u64> {
        Some(match mnemonic {
            "li" => match ops {
                [Operand::Reg(_), Operand::Imm(v)] => li_sequence(Reg::ZERO, *v).len() as u64,
                _ => {
                    self.err(line, "li needs `reg, constant`");
                    return None;
                }
            },
            // `la` always expands to lui+addi so pass-1 layout is stable.
            "la" => 2,
            // `not` expands to sub+addi.
            "not" => 2,
            _ => 1,
        })
    }

    fn expect_regs<const N: usize>(
        &mut self,
        line: usize,
        m: &str,
        ops: &[Operand],
    ) -> Option<[Reg; N]> {
        if ops.len() != N {
            self.err(line, format!("`{m}` needs {N} register operand(s)"));
            return None;
        }
        let mut out = [Reg::ZERO; N];
        for (i, op) in ops.iter().enumerate() {
            match op {
                Operand::Reg(r) => out[i] = *r,
                _ => {
                    self.err(line, format!("`{m}` operand {} must be a register", i + 1));
                    return None;
                }
            }
        }
        Some(out)
    }

    fn imm16(&mut self, line: usize, v: i64, what: &str) -> Option<i16> {
        if v < i16::MIN as i64 || v > i16::MAX as i64 {
            self.err(line, format!("{what} {v} does not fit in 16 signed bits"));
            None
        } else {
            Some(v as i16)
        }
    }

    fn uimm16(&mut self, line: usize, v: i64, what: &str) -> Option<i16> {
        if !(0..=u16::MAX as i64).contains(&v) {
            self.err(line, format!("{what} {v} does not fit in 16 unsigned bits"));
            None
        } else {
            Some(v as u16 as i16)
        }
    }

    fn branch_off(
        &mut self,
        line: usize,
        pc: u64,
        target_op: &Operand,
        symbols: &BTreeMap<String, u64>,
    ) -> Option<i16> {
        let target = match target_op {
            Operand::Sym(s) => match symbols.get(s) {
                Some(&t) => t,
                None => {
                    self.err(line, format!("undefined label `{s}`"));
                    return None;
                }
            },
            Operand::Imm(v) => *v as u64,
            _ => {
                self.err(line, "branch target must be a label or address");
                return None;
            }
        };
        let delta = target.wrapping_sub(pc.wrapping_add(INSTR_BYTES)) as i64;
        self.imm16(line, delta, "branch displacement")
    }

    /// The `reg, off(base)` operands of a load or store.
    fn mem_operands(&mut self, line: usize, m: &str, ops: &[Operand]) -> Option<(Reg, Reg, i16)> {
        match ops {
            [Operand::Reg(r), Operand::Mem(off, base)] => {
                Some((*r, *base, self.imm16(line, *off, "memory offset")?))
            }
            _ => {
                self.err(line, format!("`{m}` needs `reg, off(base)`"));
                None
            }
        }
    }

    fn emit(&mut self, item: &PendingInstr, symbols: &BTreeMap<String, u64>, out: &mut Vec<Instr>) {
        use Operand as O;
        let line = item.line;
        let m = item.mnemonic.as_str();
        let ops = &item.operands;
        let pc = item.pc;

        if let Some(op) = opcode(&AluOp::ALL, m, AluOp::mnemonic) {
            if let Some([rd, a, b]) = self.expect_regs::<3>(line, m, ops) {
                out.push(Instr::Alu(op, rd, a, b));
            }
            return;
        }
        if let Some(op) = opcode(&ImmOp::ALL, m, ImmOp::mnemonic) {
            match ops.as_slice() {
                [O::Reg(rd), O::Reg(rs), O::Imm(v)] if !op.is_shift() || (0..64).contains(v) => {
                    let imm = if op.is_shift() {
                        Some(*v as i16)
                    } else if op.zero_extends() {
                        self.uimm16(line, *v, "immediate")
                    } else {
                        self.imm16(line, *v, "immediate")
                    };
                    if let Some(imm) = imm {
                        out.push(Instr::AluImm(op, *rd, *rs, imm));
                    }
                }
                _ if op.is_shift() => self.err(
                    line,
                    format!("`{m}` needs `reg, reg, shamt` with shamt in 0..64"),
                ),
                _ => self.err(line, format!("`{m}` needs `reg, reg, imm`")),
            }
            return;
        }
        if let Some(op) = opcode(&LoadOp::ALL, m, LoadOp::mnemonic) {
            if let Some((rd, base, off)) = self.mem_operands(line, m, ops) {
                out.push(Instr::Load(op, rd, base, off));
            }
            return;
        }
        if let Some(op) = opcode(&StoreOp::ALL, m, StoreOp::mnemonic) {
            if let Some((src, base, off)) = self.mem_operands(line, m, ops) {
                out.push(Instr::Store(op, src, base, off));
            }
            return;
        }

        // Branches. `<b>z a, label` is `<b> a, zero, label`; `bgt`, `ble`,
        // `bgtu` and `bleu` are `blt`, `bge`, `bltu` and `bgeu` with their
        // operands swapped.
        let (name, zero) = match m {
            "beqz" | "bnez" | "bltz" | "bgez" | "bgtz" | "blez" => (&m[..m.len() - 1], true),
            _ => (m, false),
        };
        let (cond, swapped) = match name {
            "bgt" => (Some(Cond::Blt), true),
            "ble" => (Some(Cond::Bge), true),
            "bgtu" => (Some(Cond::Bltu), true),
            "bleu" => (Some(Cond::Bgeu), true),
            _ => (opcode(&Cond::ALL, name, Cond::mnemonic), false),
        };
        if let Some(cond) = cond {
            let operands = match (ops.as_slice(), zero) {
                ([O::Reg(a), O::Reg(b), target], false) => Some((*a, *b, target)),
                ([O::Reg(a), target], true) => Some((*a, Reg::ZERO, target)),
                _ => None,
            };
            let Some((a, b, target)) = operands else {
                let form = if zero {
                    "reg, label"
                } else {
                    "reg, reg, label"
                };
                self.err(line, format!("`{m}` needs `{form}`"));
                return;
            };
            if let Some(off) = self.branch_off(line, pc, target, symbols) {
                let (a, b) = if swapped { (b, a) } else { (a, b) };
                out.push(Instr::Branch(cond, a, b, off));
            }
            return;
        }

        match m {
            "lui" => match ops.as_slice() {
                [O::Reg(rd), O::Imm(v)] => {
                    if let Some(imm) = self.imm16(line, *v, "lui immediate") {
                        out.push(Instr::Lui(*rd, imm));
                    }
                }
                _ => self.err(line, "`lui` needs `reg, imm`"),
            },
            "jal" => match ops.as_slice() {
                // `jal label` defaults the link register to ra.
                [target @ (O::Sym(_) | O::Imm(_))] => {
                    if let Some(off) = self.branch_off(line, pc, target, symbols) {
                        out.push(Instr::Jal(Reg::RA, off));
                    }
                }
                [O::Reg(rd), target] => {
                    if let Some(off) = self.branch_off(line, pc, target, symbols) {
                        out.push(Instr::Jal(*rd, off));
                    }
                }
                _ => self.err(line, "`jal` needs `[reg,] label`"),
            },
            "call" => match ops.as_slice() {
                [target @ (O::Sym(_) | O::Imm(_))] => {
                    if let Some(off) = self.branch_off(line, pc, target, symbols) {
                        out.push(Instr::Jal(Reg::RA, off));
                    }
                }
                _ => self.err(line, "`call` needs a label"),
            },
            "j" => match ops.as_slice() {
                [target @ (O::Sym(_) | O::Imm(_))] => {
                    if let Some(off) = self.branch_off(line, pc, target, symbols) {
                        out.push(Instr::Jal(Reg::ZERO, off));
                    }
                }
                _ => self.err(line, "`j` needs a label"),
            },
            "jalr" => match ops.as_slice() {
                [O::Reg(rd), O::Mem(off, base)] => {
                    if let Some(off) = self.imm16(line, *off, "jalr offset") {
                        out.push(Instr::Jalr(*rd, *base, off));
                    }
                }
                [O::Reg(base)] => out.push(Instr::Jalr(Reg::RA, *base, 0)),
                _ => self.err(line, "`jalr` needs `reg, off(base)` or `reg`"),
            },
            "ret" => {
                if ops.is_empty() {
                    out.push(Instr::Jalr(Reg::ZERO, Reg::RA, 0));
                } else {
                    self.err(line, "`ret` takes no operands");
                }
            }
            "nop" => {
                if ops.is_empty() {
                    out.push(Instr::nop());
                } else {
                    self.err(line, "`nop` takes no operands");
                }
            }
            "halt" => {
                if ops.is_empty() {
                    out.push(Instr::Halt);
                } else {
                    self.err(line, "`halt` takes no operands");
                }
            }
            "mv" => {
                if let Some([rd, rs]) = self.expect_regs::<2>(line, m, ops) {
                    out.push(Instr::AluImm(ImmOp::Addi, rd, rs, 0));
                }
            }
            "not" => {
                if let Some([rd, rs]) = self.expect_regs::<2>(line, m, ops) {
                    // `xori` zero-extends, so `not` is `sub` then `addi -1`.
                    out.push(Instr::Alu(AluOp::Sub, rd, Reg::ZERO, rs));
                    out.push(Instr::AluImm(ImmOp::Addi, rd, rd, -1));
                }
            }
            "neg" => {
                if let Some([rd, rs]) = self.expect_regs::<2>(line, m, ops) {
                    out.push(Instr::Alu(AluOp::Sub, rd, Reg::ZERO, rs));
                }
            }
            "seqz" => {
                if let Some([rd, rs]) = self.expect_regs::<2>(line, m, ops) {
                    out.push(Instr::AluImm(ImmOp::Sltiu, rd, rs, 1));
                }
            }
            "snez" => {
                if let Some([rd, rs]) = self.expect_regs::<2>(line, m, ops) {
                    out.push(Instr::Alu(AluOp::Sltu, rd, Reg::ZERO, rs));
                }
            }
            "li" => match ops.as_slice() {
                [O::Reg(rd), O::Imm(v)] => out.extend(li_sequence(*rd, *v)),
                _ => self.err(line, "`li` needs `reg, constant`"),
            },
            "la" => match ops.as_slice() {
                [O::Reg(rd), O::Sym(s)] => match symbols.get(s) {
                    Some(&addr) => {
                        if addr > i32::MAX as u64 {
                            self.err(line, format!("address of `{s}` does not fit in 31 bits"));
                        } else {
                            let hi = ((addr.wrapping_add(0x8000)) >> 16) as i16;
                            let lo = addr as i16;
                            out.push(Instr::Lui(*rd, hi));
                            out.push(Instr::AluImm(ImmOp::Addi, *rd, *rd, lo));
                        }
                    }
                    None => self.err(line, format!("undefined symbol `{s}`")),
                },
                _ => self.err(line, "`la` needs `reg, symbol`"),
            },
            other => self.err(line, format!("unknown mnemonic `{other}`")),
        }
    }
}

/// The `li` expansion: a minimal instruction sequence materializing `value`
/// into `rd`. Exposed for the distiller and program builder.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::li_sequence;
/// use mssp_isa::Reg;
/// assert_eq!(li_sequence(Reg::A0, 7).len(), 1);
/// assert!(li_sequence(Reg::A0, 0x1234_5678_9ABCi64).len() > 2);
/// ```
#[must_use]
pub fn li_sequence(rd: Reg, value: i64) -> Vec<Instr> {
    use ImmOp::{Addi, Ori, Slli};
    if (i16::MIN as i64..=i16::MAX as i64).contains(&value) {
        return vec![Instr::AluImm(Addi, rd, Reg::ZERO, value as i16)];
    }
    if (0..=u16::MAX as i64).contains(&value) {
        return vec![Instr::AluImm(Ori, rd, Reg::ZERO, value as u16 as i16)];
    }
    if (i32::MIN as i64..=i32::MAX as i64).contains(&value) {
        // lui sign-extends from bit 31; the +0x8000 trick pairs with the
        // sign-extending addi of the low half.
        let hi = (((value as u64).wrapping_add(0x8000)) >> 16) as i16;
        let lo = value as i16;
        let mut seq = vec![Instr::Lui(rd, hi)];
        if lo != 0 {
            seq.push(Instr::AluImm(Addi, rd, rd, lo));
        }
        return seq;
    }
    // Full 64-bit: splice 16-bit chunks via zero-extending ori.
    let v = value as u64;
    let chunks = [
        ((v >> 48) & 0xFFFF) as u16,
        ((v >> 32) & 0xFFFF) as u16,
        ((v >> 16) & 0xFFFF) as u16,
        (v & 0xFFFF) as u16,
    ];
    let mut seq = vec![Instr::AluImm(Ori, rd, Reg::ZERO, chunks[0] as i16)];
    for &c in &chunks[1..] {
        seq.push(Instr::AluImm(Slli, rd, rd, 16));
        if c != 0 {
            seq.push(Instr::AluImm(Ori, rd, rd, c as i16));
        }
    }
    seq
}

/// The opcode among `ops` spelled `m`.
fn opcode<T: Copy>(ops: &[T], m: &str, mnemonic: fn(T) -> &'static str) -> Option<T> {
    ops.iter().copied().find(|&op| mnemonic(op) == m)
}

fn strip_comment(line: &str) -> &str {
    // Comments: ';' or '#' outside string literals.
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            ';' | '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    line
}

/// Finds the colon terminating a leading label, if any.
fn find_label(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    // Reject things like `ld a0, 0(a1): junk` — label must be a pure ident.
    if is_ident(s[..colon].trim()) {
        Some(colon)
    } else {
        None
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

/// Splits on commas that are outside parentheses and string literals.
fn split_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = 0usize;
    let mut prev_escape = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            '(' if !in_str => depth += 1,
            ')' if !in_str => depth = depth.saturating_sub(1),
            ',' if depth == 0 && !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    if start < s.len() || !s.is_empty() {
        out.push(&s[start..]);
    }
    out
}

fn parse_int_with(equs: &BTreeMap<String, i64>, s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(v) = equs.get(s) {
        return Some(*v);
    }
    if let Some(c) = s.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        let bytes = unescape(c)?;
        if bytes.len() == 1 {
            return Some(bytes[0] as i64);
        }
        return None;
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let body = body.trim();
    let magnitude = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        u64::from_str_radix(&bin.replace('_', ""), 2).ok()?
    } else {
        body.replace('_', "").parse::<u64>().ok()?
    };
    if neg {
        Some((magnitude as i64).wrapping_neg())
    } else {
        Some(magnitude as i64)
    }
}

fn parse_string(s: &str) -> Option<Vec<u8>> {
    let body = s.strip_prefix('"')?.strip_suffix('"')?;
    unescape(body)
}

fn unescape(body: &str) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push(b'\n'),
                't' => out.push(b'\t'),
                'r' => out.push(b'\r'),
                '0' => out.push(0),
                '\\' => out.push(b'\\'),
                '"' => out.push(b'"'),
                '\'' => out.push(b'\''),
                _ => return None,
            }
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_program_assembles() {
        let p = assemble(
            "main:\n  addi a0, zero, 5\n  addi a1, zero, 0\nloop:\n  add a1, a1, a0\n  addi a0, a0, -1\n  bnez a0, loop\n  halt\n",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.entry(), p.symbol("main").unwrap());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble("a: j b\nb: j a\n   halt").unwrap();
        let a = p.symbol("a").unwrap();
        let b = p.symbol("b").unwrap();
        assert_eq!(p.fetch(a).unwrap().static_target(a), Some(b));
        assert_eq!(p.fetch(b).unwrap().static_target(b), Some(a));
    }

    #[test]
    fn data_directives_lay_out_correctly() {
        let p = assemble(
            ".data\nbytes: .byte 1, 2, 3\n.align 8\nwords: .dword 0x1122334455667788\nmsg: .asciz \"hi\"\n.text\nmain: halt",
        )
        .unwrap();
        let base = p.data_base();
        assert_eq!(p.symbol("bytes"), Some(base));
        assert_eq!(p.symbol("words"), Some(base + 8));
        assert_eq!(&p.data()[0..3], &[1, 2, 3]);
        assert_eq!(
            u64::from_le_bytes(p.data()[8..16].try_into().unwrap()),
            0x1122334455667788
        );
        assert_eq!(&p.data()[16..19], b"hi\0");
    }

    #[test]
    fn data_symbol_fixups_point_at_labels() {
        let p =
            assemble(".data\nptr: .dword target\ntarget: .dword 42\n.text\nmain: halt").unwrap();
        let ptr = u64::from_le_bytes(p.data()[0..8].try_into().unwrap());
        assert_eq!(ptr, p.symbol("target").unwrap());
    }

    #[test]
    fn li_expansions_cover_all_ranges() {
        for &v in &[
            0i64,
            1,
            -1,
            i16::MAX as i64,
            i16::MIN as i64,
            0xFFFF,
            0x10000,
            -0x10000,
            i32::MAX as i64,
            i32::MIN as i64,
            0x8000_0000,
            0x1234_5678_9ABC_DEF0u64 as i64,
            -0x1234_5678_9ABC,
            u64::MAX as i64,
        ] {
            let seq = li_sequence(Reg::A0, v);
            assert!(!seq.is_empty() && seq.len() <= 8, "bad length for {v:#x}");
        }
    }

    #[test]
    fn equ_constants_usable_in_immediates() {
        let p = assemble(".equ N, 12\nmain: addi a0, zero, N\n halt").unwrap();
        assert_eq!(
            p.text()[0],
            Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 12)
        );
    }

    #[test]
    fn pseudo_instructions_expand() {
        let p = assemble(
            "main:\n mv a0, a1\n neg a2, a3\n seqz a4, a5\n snez a6, a7\n nop\n ret\n halt",
        )
        .unwrap();
        assert_eq!(p.text()[0], Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::A1, 0));
        assert_eq!(
            p.text()[1],
            Instr::Alu(AluOp::Sub, Reg::A2, Reg::ZERO, Reg::A3)
        );
        assert_eq!(
            p.text()[2],
            Instr::AluImm(ImmOp::Sltiu, Reg::A4, Reg::A5, 1)
        );
        assert_eq!(
            p.text()[3],
            Instr::Alu(AluOp::Sltu, Reg::A6, Reg::ZERO, Reg::A7)
        );
        assert_eq!(p.text()[5], Instr::Jalr(Reg::ZERO, Reg::RA, 0));
    }

    #[test]
    fn branch_out_of_range_is_reported() {
        // Build a program with a branch to a label > 32 KiB away.
        let mut src = String::from("main: beq a0, a1, far\n");
        for _ in 0..9000 {
            src.push_str(" nop\n");
        }
        src.push_str("far: halt\n");
        let errs = assemble(&src).unwrap_err();
        assert!(errs[0].msg.contains("does not fit"));
    }

    #[test]
    fn undefined_label_is_reported() {
        let errs = assemble("main: j nowhere\n halt").unwrap_err();
        assert!(errs[0].msg.contains("undefined label"));
    }

    #[test]
    fn duplicate_label_is_reported() {
        let errs = assemble("x: nop\nx: halt").unwrap_err();
        assert!(errs[0].msg.contains("duplicate"));
    }

    #[test]
    fn multiple_errors_collected() {
        let errs = assemble("main: bogus a0\n alsobogus\n halt").unwrap_err();
        assert!(errs.len() >= 2);
    }

    #[test]
    fn la_loads_data_addresses() {
        let p =
            assemble(".data\nv: .dword 9\n.text\nmain: la a0, v\n ld a1, 0(a0)\n halt").unwrap();
        // la expands to lui+addi; simulate the pair.
        let (hi, lo) = match (p.text()[0], p.text()[1]) {
            (Instr::Lui(_, hi), Instr::AluImm(ImmOp::Addi, _, _, lo)) => (hi, lo),
            other => panic!("unexpected la expansion: {other:?}"),
        };
        let addr = (((hi as i64) << 16) + lo as i64) as u64;
        assert_eq!(addr, p.symbol("v").unwrap());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("; leading comment\n\nmain: # trailing\n halt ; end\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn entry_directive_overrides_main() {
        let p = assemble(".entry start\nmain: nop\nstart: halt").unwrap();
        assert_eq!(p.entry(), p.symbol("start").unwrap());
    }

    #[test]
    fn oversized_data_is_an_error_not_an_allocation() {
        for src in [
            ".data\n.space 9223372036854775807",
            ".data\nx: .byte 1\n.align 0x4000000000000000",
        ] {
            let errs = assemble(&format!("{src}\n.text\nmain: halt")).unwrap_err();
            assert!(errs[0].msg.contains("-byte limit"), "{errs:?}");
        }
        let p = assemble(".data\n.space 16\n.align 64\n.text\nmain: halt").unwrap();
        assert_eq!(p.data().len(), 64);
    }

    #[test]
    fn char_literals_parse() {
        let p = assemble("main: addi a0, zero, 'A'\n halt").unwrap();
        assert_eq!(
            p.text()[0],
            Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 65)
        );
    }
}
