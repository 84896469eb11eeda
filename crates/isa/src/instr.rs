//! The MSSP instruction set.
//!
//! A compact 64-bit RISC ISA in the style of RISC-V/Alpha, rich enough to
//! express the SPEC-like workloads the MSSP evaluation needs while staying
//! simple enough that the sequential reference semantics (the `SEQ` model of
//! the paper) fit in one small interpreter.
//!
//! Every instruction occupies [`INSTR_BYTES`] of the address space.
//! Immediates are 16-bit signed values; branch/jump offsets are in bytes
//! relative to the *next* instruction's address, exactly like RISC-V's
//! `pc + 4` convention would be — here we use `pc + 4 + off`.

use std::fmt;

use crate::Reg;

/// The PC stride: the address distance between consecutive instructions.
pub const INSTR_BYTES: u64 = 4;

/// An MSSP instruction.
///
/// Field order conventions:
/// * ALU register ops: `(rd, rs1, rs2)` — `rd = rs1 op rs2`.
/// * ALU immediate ops: `(rd, rs1, imm)` — `rd = rs1 op imm`.
/// * Loads: `(rd, base, off)` — `rd = mem[base + off]`.
/// * Stores: `(src, base, off)` — `mem[base + off] = src`.
/// * Branches: `(rs1, rs2, off)` — taken target is `pc + 4 + off`.
/// * [`Instr::Jal`]: `(rd, off)` — `rd = pc + 4; pc = pc + 4 + off`.
/// * [`Instr::Jalr`]: `(rd, base, off)` — `rd = pc + 4; pc = base + off`.
///
/// # Examples
///
/// ```
/// use mssp_isa::{Instr, Reg};
///
/// let add = Instr::Add(Reg::A0, Reg::A1, Reg::A2);
/// assert_eq!(add.def_reg(), Some(Reg::A0));
/// assert!(!add.is_control());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd = rs1 + rs2` (wrapping).
    Add(Reg, Reg, Reg),
    /// `rd = rs1 - rs2` (wrapping).
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`.
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`.
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`.
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 63)`.
    Sll(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 63)` (logical).
    Srl(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic).
    Sra(Reg, Reg, Reg),
    /// `rd = (rs1 <ₛ rs2) ? 1 : 0` (signed).
    Slt(Reg, Reg, Reg),
    /// `rd = (rs1 <ᵤ rs2) ? 1 : 0` (unsigned).
    Sltu(Reg, Reg, Reg),
    /// `rd = rs1 * rs2` (wrapping, low 64 bits).
    Mul(Reg, Reg, Reg),
    /// `rd = rs1 / rs2` (signed; division by zero yields `-1`,
    /// `i64::MIN / -1` yields `i64::MIN`, RISC-V style).
    Div(Reg, Reg, Reg),
    /// `rd = rs1 / rs2` (unsigned; division by zero yields `u64::MAX`).
    Divu(Reg, Reg, Reg),
    /// `rd = rs1 % rs2` (signed; modulo by zero yields `rs1`).
    Rem(Reg, Reg, Reg),
    /// `rd = rs1 % rs2` (unsigned; modulo by zero yields `rs1`).
    Remu(Reg, Reg, Reg),

    /// `rd = rs1 + imm` (wrapping).
    Addi(Reg, Reg, i16),
    /// `rd = rs1 & zext(imm)` — logical immediates zero-extend, MIPS-style,
    /// so `ori` can splice 16-bit chunks when building wide constants.
    Andi(Reg, Reg, i16),
    /// `rd = rs1 | zext(imm)` (zero-extended immediate).
    Ori(Reg, Reg, i16),
    /// `rd = rs1 ^ zext(imm)` (zero-extended immediate).
    Xori(Reg, Reg, i16),
    /// `rd = (rs1 <ₛ sext(imm)) ? 1 : 0`.
    Slti(Reg, Reg, i16),
    /// `rd = (rs1 <ᵤ sext(imm)) ? 1 : 0`.
    Sltiu(Reg, Reg, i16),
    /// `rd = rs1 << shamt` (`shamt` in `0..64`).
    Slli(Reg, Reg, u8),
    /// `rd = rs1 >> shamt` (logical).
    Srli(Reg, Reg, u8),
    /// `rd = rs1 >> shamt` (arithmetic).
    Srai(Reg, Reg, u8),
    /// `rd = sext(imm) << 16` — load-upper-immediate; pair with
    /// [`Instr::Ori`] to build 32-bit constants.
    Lui(Reg, i16),

    /// Load signed byte: `rd = sext8(mem[base + off])`.
    Lb(Reg, Reg, i16),
    /// Load unsigned byte.
    Lbu(Reg, Reg, i16),
    /// Load signed 16-bit halfword.
    Lh(Reg, Reg, i16),
    /// Load unsigned 16-bit halfword.
    Lhu(Reg, Reg, i16),
    /// Load signed 32-bit word.
    Lw(Reg, Reg, i16),
    /// Load unsigned 32-bit word.
    Lwu(Reg, Reg, i16),
    /// Load 64-bit doubleword.
    Ld(Reg, Reg, i16),
    /// Store low byte of `src`.
    Sb(Reg, Reg, i16),
    /// Store low 16 bits of `src`.
    Sh(Reg, Reg, i16),
    /// Store low 32 bits of `src`.
    Sw(Reg, Reg, i16),
    /// Store all 64 bits of `src`.
    Sd(Reg, Reg, i16),

    /// Branch if `rs1 == rs2`.
    Beq(Reg, Reg, i16),
    /// Branch if `rs1 != rs2`.
    Bne(Reg, Reg, i16),
    /// Branch if `rs1 <ₛ rs2` (signed).
    Blt(Reg, Reg, i16),
    /// Branch if `rs1 >=ₛ rs2` (signed).
    Bge(Reg, Reg, i16),
    /// Branch if `rs1 <ᵤ rs2` (unsigned).
    Bltu(Reg, Reg, i16),
    /// Branch if `rs1 >=ᵤ rs2` (unsigned).
    Bgeu(Reg, Reg, i16),
    /// Jump-and-link: `rd = pc + 4; pc += 4 + off`.
    Jal(Reg, i16),
    /// Indirect jump-and-link: `rd = pc + 4; pc = base + off`.
    Jalr(Reg, Reg, i16),

    /// Stop execution; the machine state at `Halt` is the program's result.
    Halt,
}

impl Instr {
    /// The register written by this instruction, if any.
    ///
    /// Writes to [`Reg::ZERO`] are architecturally discarded, so an
    /// instruction whose destination is `zero` reports `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Instr, Reg};
    /// assert_eq!(Instr::Addi(Reg::A0, Reg::ZERO, 1).def_reg(), Some(Reg::A0));
    /// assert_eq!(Instr::Sd(Reg::A0, Reg::SP, 0).def_reg(), None);
    /// assert_eq!(Instr::Addi(Reg::ZERO, Reg::A0, 1).def_reg(), None);
    /// ```
    #[must_use]
    pub fn def_reg(&self) -> Option<Reg> {
        use Instr::*;
        let rd = match *self {
            Add(rd, ..)
            | Sub(rd, ..)
            | And(rd, ..)
            | Or(rd, ..)
            | Xor(rd, ..)
            | Sll(rd, ..)
            | Srl(rd, ..)
            | Sra(rd, ..)
            | Slt(rd, ..)
            | Sltu(rd, ..)
            | Mul(rd, ..)
            | Div(rd, ..)
            | Divu(rd, ..)
            | Rem(rd, ..)
            | Remu(rd, ..)
            | Addi(rd, ..)
            | Andi(rd, ..)
            | Ori(rd, ..)
            | Xori(rd, ..)
            | Slti(rd, ..)
            | Sltiu(rd, ..)
            | Slli(rd, ..)
            | Srli(rd, ..)
            | Srai(rd, ..)
            | Lui(rd, ..)
            | Lb(rd, ..)
            | Lbu(rd, ..)
            | Lh(rd, ..)
            | Lhu(rd, ..)
            | Lw(rd, ..)
            | Lwu(rd, ..)
            | Ld(rd, ..)
            | Jal(rd, ..)
            | Jalr(rd, ..) => rd,
            Sb(..) | Sh(..) | Sw(..) | Sd(..) | Beq(..) | Bne(..) | Blt(..) | Bge(..)
            | Bltu(..) | Bgeu(..) | Halt => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// The registers read by this instruction, in operand order.
    ///
    /// Reads of [`Reg::ZERO`] are included (they read the constant zero);
    /// callers that care only about dataflow can filter them out.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Instr, Reg};
    /// let uses = Instr::Beq(Reg::A0, Reg::A1, 8).use_regs();
    /// assert_eq!(uses, [Some(Reg::A0), Some(Reg::A1)]);
    /// ```
    #[must_use]
    pub fn use_regs(&self) -> [Option<Reg>; 2] {
        use Instr::*;
        match *self {
            Add(_, a, b)
            | Sub(_, a, b)
            | And(_, a, b)
            | Or(_, a, b)
            | Xor(_, a, b)
            | Sll(_, a, b)
            | Srl(_, a, b)
            | Sra(_, a, b)
            | Slt(_, a, b)
            | Sltu(_, a, b)
            | Mul(_, a, b)
            | Div(_, a, b)
            | Divu(_, a, b)
            | Rem(_, a, b)
            | Remu(_, a, b) => [Some(a), Some(b)],
            Addi(_, a, _)
            | Andi(_, a, _)
            | Ori(_, a, _)
            | Xori(_, a, _)
            | Slti(_, a, _)
            | Sltiu(_, a, _)
            | Slli(_, a, _)
            | Srli(_, a, _)
            | Srai(_, a, _) => [Some(a), None],
            Lui(..) | Jal(..) | Halt => [None, None],
            Lb(_, b, _)
            | Lbu(_, b, _)
            | Lh(_, b, _)
            | Lhu(_, b, _)
            | Lw(_, b, _)
            | Lwu(_, b, _)
            | Ld(_, b, _)
            | Jalr(_, b, _) => [Some(b), None],
            Sb(s, b, _) | Sh(s, b, _) | Sw(s, b, _) | Sd(s, b, _) => [Some(s), Some(b)],
            Beq(a, b, _)
            | Bne(a, b, _)
            | Blt(a, b, _)
            | Bge(a, b, _)
            | Bltu(a, b, _)
            | Bgeu(a, b, _) => [Some(a), Some(b)],
        }
    }

    /// Rewrites every *source* operand through `f`, leaving destinations,
    /// immediates and offsets untouched.
    ///
    /// This is the substitution primitive of copy propagation: replacing a
    /// use of `r` with a register holding the same value never changes the
    /// instruction's result. Reads of [`Reg::ZERO`] are passed through `f`
    /// like any other (a well-behaved `f` maps `zero` to itself).
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Instr, Reg};
    /// let add = Instr::Add(Reg::A0, Reg::A1, Reg::A2);
    /// let swapped = add.map_uses(|r| if r == Reg::A1 { Reg::T0 } else { r });
    /// assert_eq!(swapped, Instr::Add(Reg::A0, Reg::T0, Reg::A2));
    /// ```
    #[must_use]
    pub fn map_uses(self, mut f: impl FnMut(Reg) -> Reg) -> Instr {
        use Instr::*;
        match self {
            Add(rd, a, b) => Add(rd, f(a), f(b)),
            Sub(rd, a, b) => Sub(rd, f(a), f(b)),
            And(rd, a, b) => And(rd, f(a), f(b)),
            Or(rd, a, b) => Or(rd, f(a), f(b)),
            Xor(rd, a, b) => Xor(rd, f(a), f(b)),
            Sll(rd, a, b) => Sll(rd, f(a), f(b)),
            Srl(rd, a, b) => Srl(rd, f(a), f(b)),
            Sra(rd, a, b) => Sra(rd, f(a), f(b)),
            Slt(rd, a, b) => Slt(rd, f(a), f(b)),
            Sltu(rd, a, b) => Sltu(rd, f(a), f(b)),
            Mul(rd, a, b) => Mul(rd, f(a), f(b)),
            Div(rd, a, b) => Div(rd, f(a), f(b)),
            Divu(rd, a, b) => Divu(rd, f(a), f(b)),
            Rem(rd, a, b) => Rem(rd, f(a), f(b)),
            Remu(rd, a, b) => Remu(rd, f(a), f(b)),
            Addi(rd, a, i) => Addi(rd, f(a), i),
            Andi(rd, a, i) => Andi(rd, f(a), i),
            Ori(rd, a, i) => Ori(rd, f(a), i),
            Xori(rd, a, i) => Xori(rd, f(a), i),
            Slti(rd, a, i) => Slti(rd, f(a), i),
            Sltiu(rd, a, i) => Sltiu(rd, f(a), i),
            Slli(rd, a, s) => Slli(rd, f(a), s),
            Srli(rd, a, s) => Srli(rd, f(a), s),
            Srai(rd, a, s) => Srai(rd, f(a), s),
            Lui(..) | Jal(..) | Halt => self,
            Lb(rd, b, o) => Lb(rd, f(b), o),
            Lbu(rd, b, o) => Lbu(rd, f(b), o),
            Lh(rd, b, o) => Lh(rd, f(b), o),
            Lhu(rd, b, o) => Lhu(rd, f(b), o),
            Lw(rd, b, o) => Lw(rd, f(b), o),
            Lwu(rd, b, o) => Lwu(rd, f(b), o),
            Ld(rd, b, o) => Ld(rd, f(b), o),
            Sb(s, b, o) => Sb(f(s), f(b), o),
            Sh(s, b, o) => Sh(f(s), f(b), o),
            Sw(s, b, o) => Sw(f(s), f(b), o),
            Sd(s, b, o) => Sd(f(s), f(b), o),
            Beq(a, b, o) => Beq(f(a), f(b), o),
            Bne(a, b, o) => Bne(f(a), f(b), o),
            Blt(a, b, o) => Blt(f(a), f(b), o),
            Bge(a, b, o) => Bge(f(a), f(b), o),
            Bltu(a, b, o) => Bltu(f(a), f(b), o),
            Bgeu(a, b, o) => Bgeu(f(a), f(b), o),
            Jalr(rd, b, o) => Jalr(rd, f(b), o),
        }
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instr::Beq(..)
                | Instr::Bne(..)
                | Instr::Blt(..)
                | Instr::Bge(..)
                | Instr::Bltu(..)
                | Instr::Bgeu(..)
        )
    }

    /// Whether this is an unconditional direct jump ([`Instr::Jal`]).
    #[must_use]
    pub fn is_jump(&self) -> bool {
        matches!(self, Instr::Jal(..))
    }

    /// Whether this is an indirect jump ([`Instr::Jalr`]).
    #[must_use]
    pub fn is_indirect_jump(&self) -> bool {
        matches!(self, Instr::Jalr(..))
    }

    /// Whether this instruction can redirect control flow (branch, jump,
    /// indirect jump, or halt).
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.is_branch() || self.is_jump() || self.is_indirect_jump() || self.is_halt()
    }

    /// Whether this is a memory load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Instr::Lb(..)
                | Instr::Lbu(..)
                | Instr::Lh(..)
                | Instr::Lhu(..)
                | Instr::Lw(..)
                | Instr::Lwu(..)
                | Instr::Ld(..)
        )
    }

    /// Whether this is a memory store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Instr::Sb(..) | Instr::Sh(..) | Instr::Sw(..) | Instr::Sd(..)
        )
    }

    /// Whether this instruction accesses memory at all.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this is the [`Instr::Halt`] instruction.
    #[must_use]
    pub fn is_halt(&self) -> bool {
        matches!(self, Instr::Halt)
    }

    /// The statically-known control-flow target of a branch or `jal` located
    /// at address `pc`, or `None` for non-control and indirect instructions.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Instr, Reg};
    /// // A branch at 0x100 with offset 8 targets 0x10C (pc + 4 + off).
    /// let b = Instr::Beq(Reg::A0, Reg::ZERO, 8);
    /// assert_eq!(b.static_target(0x100), Some(0x10C));
    /// ```
    #[must_use]
    pub fn static_target(&self, pc: u64) -> Option<u64> {
        use Instr::*;
        match *self {
            Beq(_, _, off)
            | Bne(_, _, off)
            | Blt(_, _, off)
            | Bge(_, _, off)
            | Bltu(_, _, off)
            | Bgeu(_, _, off)
            | Jal(_, off) => Some(pc.wrapping_add(INSTR_BYTES).wrapping_add(off as i64 as u64)),
            _ => None,
        }
    }

    /// The mnemonic for this instruction, e.g. `"addi"`.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        use Instr::*;
        match self {
            Add(..) => "add",
            Sub(..) => "sub",
            And(..) => "and",
            Or(..) => "or",
            Xor(..) => "xor",
            Sll(..) => "sll",
            Srl(..) => "srl",
            Sra(..) => "sra",
            Slt(..) => "slt",
            Sltu(..) => "sltu",
            Mul(..) => "mul",
            Div(..) => "div",
            Divu(..) => "divu",
            Rem(..) => "rem",
            Remu(..) => "remu",
            Addi(..) => "addi",
            Andi(..) => "andi",
            Ori(..) => "ori",
            Xori(..) => "xori",
            Slti(..) => "slti",
            Sltiu(..) => "sltiu",
            Slli(..) => "slli",
            Srli(..) => "srli",
            Srai(..) => "srai",
            Lui(..) => "lui",
            Lb(..) => "lb",
            Lbu(..) => "lbu",
            Lh(..) => "lh",
            Lhu(..) => "lhu",
            Lw(..) => "lw",
            Lwu(..) => "lwu",
            Ld(..) => "ld",
            Sb(..) => "sb",
            Sh(..) => "sh",
            Sw(..) => "sw",
            Sd(..) => "sd",
            Beq(..) => "beq",
            Bne(..) => "bne",
            Blt(..) => "blt",
            Bge(..) => "bge",
            Bltu(..) => "bltu",
            Bgeu(..) => "bgeu",
            Jal(..) => "jal",
            Jalr(..) => "jalr",
            Halt => "halt",
        }
    }

    /// Rewrites the branch/jump offset of a control instruction.
    ///
    /// Used by the distiller when relocating code. Returns `None` if the
    /// instruction carries no relative offset.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Instr, Reg};
    /// let b = Instr::Beq(Reg::A0, Reg::ZERO, 8);
    /// assert_eq!(b.with_offset(-4), Some(Instr::Beq(Reg::A0, Reg::ZERO, -4)));
    /// assert_eq!(Instr::Halt.with_offset(0), None);
    /// ```
    #[must_use]
    pub fn with_offset(&self, off: i16) -> Option<Instr> {
        use Instr::*;
        Some(match *self {
            Beq(a, b, _) => Beq(a, b, off),
            Bne(a, b, _) => Bne(a, b, off),
            Blt(a, b, _) => Blt(a, b, off),
            Bge(a, b, _) => Bge(a, b, off),
            Bltu(a, b, _) => Bltu(a, b, off),
            Bgeu(a, b, _) => Bgeu(a, b, off),
            Jal(rd, _) => Jal(rd, off),
            _ => return None,
        })
    }

    /// Flips the polarity of a conditional branch, preserving its offset.
    ///
    /// `beq ↔ bne`, `blt ↔ bge`, `bltu ↔ bgeu`. Returns `None` for
    /// non-branches.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Instr, Reg};
    /// let b = Instr::Blt(Reg::A0, Reg::A1, 12);
    /// assert_eq!(b.negated(), Some(Instr::Bge(Reg::A0, Reg::A1, 12)));
    /// ```
    #[must_use]
    pub fn negated(&self) -> Option<Instr> {
        use Instr::*;
        Some(match *self {
            Beq(a, b, off) => Bne(a, b, off),
            Bne(a, b, off) => Beq(a, b, off),
            Blt(a, b, off) => Bge(a, b, off),
            Bge(a, b, off) => Blt(a, b, off),
            Bltu(a, b, off) => Bgeu(a, b, off),
            Bgeu(a, b, off) => Bltu(a, b, off),
            _ => return None,
        })
    }

    /// A canonical no-op (`addi zero, zero, 0`).
    #[must_use]
    pub fn nop() -> Instr {
        Instr::Addi(Reg::ZERO, Reg::ZERO, 0)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        let m = self.mnemonic();
        match *self {
            Add(rd, a, b)
            | Sub(rd, a, b)
            | And(rd, a, b)
            | Or(rd, a, b)
            | Xor(rd, a, b)
            | Sll(rd, a, b)
            | Srl(rd, a, b)
            | Sra(rd, a, b)
            | Slt(rd, a, b)
            | Sltu(rd, a, b)
            | Mul(rd, a, b)
            | Div(rd, a, b)
            | Divu(rd, a, b)
            | Rem(rd, a, b)
            | Remu(rd, a, b) => {
                write!(f, "{m} {rd}, {a}, {b}")
            }
            Addi(rd, a, i)
            | Andi(rd, a, i)
            | Ori(rd, a, i)
            | Xori(rd, a, i)
            | Slti(rd, a, i)
            | Sltiu(rd, a, i) => write!(f, "{m} {rd}, {a}, {i}"),
            Slli(rd, a, s) | Srli(rd, a, s) | Srai(rd, a, s) => write!(f, "{m} {rd}, {a}, {s}"),
            Lui(rd, i) => write!(f, "{m} {rd}, {i}"),
            Lb(rd, b, o)
            | Lbu(rd, b, o)
            | Lh(rd, b, o)
            | Lhu(rd, b, o)
            | Lw(rd, b, o)
            | Lwu(rd, b, o)
            | Ld(rd, b, o) => write!(f, "{m} {rd}, {o}({b})"),
            Sb(s, b, o) | Sh(s, b, o) | Sw(s, b, o) | Sd(s, b, o) => {
                write!(f, "{m} {s}, {o}({b})")
            }
            Beq(a, b, o)
            | Bne(a, b, o)
            | Blt(a, b, o)
            | Bge(a, b, o)
            | Bltu(a, b, o)
            | Bgeu(a, b, o) => write!(f, "{m} {a}, {b}, {o}"),
            Jal(rd, o) => write!(f, "{m} {rd}, {o}"),
            Jalr(rd, b, o) => write!(f, "{m} {rd}, {o}({b})"),
            Halt => f.write_str(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_reg_zero_is_discarded() {
        assert_eq!(Instr::Add(Reg::ZERO, Reg::A0, Reg::A1).def_reg(), None);
        assert_eq!(Instr::Jal(Reg::ZERO, 4).def_reg(), None);
        assert_eq!(Instr::Jal(Reg::RA, 4).def_reg(), Some(Reg::RA));
    }

    #[test]
    fn classification_is_disjoint_for_control() {
        let b = Instr::Bne(Reg::A0, Reg::ZERO, -8);
        assert!(b.is_branch() && b.is_control() && !b.is_jump());
        let j = Instr::Jal(Reg::ZERO, 16);
        assert!(j.is_jump() && j.is_control() && !j.is_branch());
        let jr = Instr::Jalr(Reg::ZERO, Reg::RA, 0);
        assert!(jr.is_indirect_jump() && jr.is_control());
        assert!(Instr::Halt.is_control());
        assert!(!Instr::nop().is_control());
    }

    #[test]
    fn loads_and_stores_classified() {
        let l = Instr::Ld(Reg::A0, Reg::SP, 8);
        let s = Instr::Sd(Reg::A0, Reg::SP, 8);
        assert!(l.is_load() && !l.is_store() && l.is_mem());
        assert!(s.is_store() && !s.is_load() && s.is_mem());
    }

    #[test]
    fn static_target_handles_negative_offsets() {
        let b = Instr::Bne(Reg::A0, Reg::ZERO, -8);
        assert_eq!(b.static_target(0x100), Some(0x100 + 4 - 8));
        assert_eq!(
            Instr::Jalr(Reg::ZERO, Reg::RA, 0).static_target(0x100),
            None
        );
    }

    #[test]
    fn negation_round_trips() {
        let branches = [
            Instr::Beq(Reg::A0, Reg::A1, 4),
            Instr::Bne(Reg::A0, Reg::A1, 4),
            Instr::Blt(Reg::A0, Reg::A1, 4),
            Instr::Bge(Reg::A0, Reg::A1, 4),
            Instr::Bltu(Reg::A0, Reg::A1, 4),
            Instr::Bgeu(Reg::A0, Reg::A1, 4),
        ];
        for b in branches {
            assert_eq!(b.negated().unwrap().negated().unwrap(), b);
        }
        assert_eq!(Instr::Halt.negated(), None);
    }

    #[test]
    fn display_is_parseable_looking() {
        assert_eq!(
            Instr::Add(Reg::A0, Reg::A1, Reg::A2).to_string(),
            "add a0, a1, a2"
        );
        assert_eq!(
            Instr::Ld(Reg::A0, Reg::SP, -16).to_string(),
            "ld a0, -16(sp)"
        );
        assert_eq!(Instr::Halt.to_string(), "halt");
    }

    #[test]
    fn map_uses_touches_only_sources() {
        let subst = |r: Reg| if r == Reg::A0 { Reg::T1 } else { r };
        // Store: both the value and the base are sources.
        assert_eq!(
            Instr::Sd(Reg::A0, Reg::A0, 8).map_uses(subst),
            Instr::Sd(Reg::T1, Reg::T1, 8)
        );
        // The destination register is never rewritten.
        assert_eq!(
            Instr::Addi(Reg::A0, Reg::A0, 1).map_uses(subst),
            Instr::Addi(Reg::A0, Reg::T1, 1)
        );
        // Instructions without register sources pass through unchanged.
        assert_eq!(
            Instr::Lui(Reg::A0, 3).map_uses(subst),
            Instr::Lui(Reg::A0, 3)
        );
        assert_eq!(Instr::Halt.map_uses(subst), Instr::Halt);
    }

    #[test]
    fn use_regs_covers_stores_and_branches() {
        assert_eq!(
            Instr::Sd(Reg::A0, Reg::SP, 0).use_regs(),
            [Some(Reg::A0), Some(Reg::SP)]
        );
        assert_eq!(
            Instr::Jalr(Reg::RA, Reg::T0, 0).use_regs(),
            [Some(Reg::T0), None]
        );
        assert_eq!(Instr::Lui(Reg::A0, 5).use_regs(), [None, None]);
    }
}
