//! The MSSP instruction set.
//!
//! A compact 64-bit RISC ISA in the style of RISC-V/Alpha, rich enough to
//! express the SPEC-like workloads the MSSP evaluation needs while staying
//! simple enough that the sequential reference semantics (the `SEQ` model of
//! the paper) fit in one small interpreter.
//!
//! Every instruction occupies [`INSTR_BYTES`] of the address space.
//! Immediates are 16 bits wide, sign-extended except where [`ImmOp`] says
//! otherwise; branch/jump offsets are in bytes relative to the *next*
//! instruction's address, exactly like RISC-V's `pc + 4` convention would
//! be — here we use `pc + 4 + off`.
//!
//! Each opcode's meaning and spelling is defined once, by the op enum of
//! its format: [`AluOp::eval`], [`ImmOp::eval`], [`LoadOp::extend`] and
//! [`Cond::holds`] are what the interpreter executes and what constant
//! propagation predicts, and each op's `mnemonic` is what the assembler
//! parses and the disassembler prints.

use std::fmt;

use crate::Reg;

/// The PC stride: the address distance between consecutive instructions.
pub const INSTR_BYTES: u64 = 4;

/// An MSSP instruction, grouped by operand format.
///
/// Each format's op enum ([`AluOp`], [`ImmOp`], [`LoadOp`], [`StoreOp`],
/// [`Cond`]) owns its opcodes' mnemonics and semantics, so the
/// interpreter, constant propagation, the assembler and the disassembler
/// all read an opcode's meaning and spelling from one place.
///
/// Field order conventions, per format:
/// * [`Instr::Alu`]: `(op, rd, rs1, rs2)` — `rd = rs1 op rs2`.
/// * [`Instr::AluImm`]: `(op, rd, rs1, imm)` — `rd = rs1 op imm`, the
///   immediate extended as [`ImmOp`] says.
/// * [`Instr::Lui`]: `(rd, imm)` — `rd = sext(imm) << 16`.
/// * [`Instr::Load`]: `(op, rd, base, off)` — `rd = mem[base + off]`.
/// * [`Instr::Store`]: `(op, src, base, off)` — `mem[base + off] = src`.
/// * [`Instr::Branch`]: `(cond, rs1, rs2, off)` — taken target is
///   `pc + 4 + off`.
/// * [`Instr::Jal`]: `(rd, off)` — `rd = pc + 4; pc = pc + 4 + off`.
/// * [`Instr::Jalr`]: `(rd, base, off)` — `rd = pc + 4; pc = base + off`.
///
/// # Examples
///
/// ```
/// use mssp_isa::{AluOp, Instr, Reg};
///
/// let add = Instr::Alu(AluOp::Add, Reg::A0, Reg::A1, Reg::A2);
/// assert_eq!(add.def_reg(), Some(Reg::A0));
/// assert!(!add.is_control());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// A register-register ALU operation.
    Alu(AluOp, Reg, Reg, Reg),
    /// An ALU operation with a 16-bit immediate (or a shift amount).
    AluImm(ImmOp, Reg, Reg, i16),
    /// Load-upper-immediate: `rd = sext(imm) << 16`; pair with `ori` to
    /// build 32-bit constants.
    Lui(Reg, i16),
    /// A memory load.
    Load(LoadOp, Reg, Reg, i16),
    /// A memory store.
    Store(StoreOp, Reg, Reg, i16),
    /// A conditional branch.
    Branch(Cond, Reg, Reg, i16),
    /// Jump-and-link: `rd = pc + 4; pc += 4 + off`.
    Jal(Reg, i16),
    /// Indirect jump-and-link: `rd = pc + 4; pc = base + off`.
    Jalr(Reg, Reg, i16),
    /// Stop execution; the machine state at `Halt` is the program's result.
    Halt,
}

/// Register-register ALU operations: `rd = rs1 op rs2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Shift left by `rs2 & 63`.
    Sll,
    /// Logical shift right by `rs2 & 63`.
    Srl,
    /// Arithmetic shift right by `rs2 & 63`.
    Sra,
    /// `1` if `rs1 <ₛ rs2` (signed), else `0`.
    Slt,
    /// `1` if `rs1 <ᵤ rs2` (unsigned), else `0`.
    Sltu,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Signed division; division by zero yields `-1`, `i64::MIN / -1`
    /// yields `i64::MIN` (RISC-V style).
    Div,
    /// Unsigned division; division by zero yields `u64::MAX`.
    Divu,
    /// Signed remainder; remainder by zero yields `rs1`.
    Rem,
    /// Unsigned remainder; remainder by zero yields `rs1`.
    Remu,
}

impl AluOp {
    /// Every register-register operation.
    pub const ALL: [AluOp; 15] = {
        use AluOp::*;
        [
            Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Div, Divu, Rem, Remu,
        ]
    };

    /// The assembly mnemonic, e.g. `"add"` (indexed by declaration order).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        [
            "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu", "mul", "div",
            "divu", "rem", "remu",
        ][self as usize]
    }

    /// `x op y`: the value the machine writes to `rd`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::AluOp;
    /// assert_eq!(AluOp::Div.eval(7, 0), u64::MAX);
    /// assert_eq!(AluOp::Sll.eval(1, 65), 2);
    /// ```
    // Inlined into `exec::step`'s arms, as `step` is into its callers.
    #[inline(always)]
    #[must_use]
    pub fn eval(self, x: u64, y: u64) -> u64 {
        use AluOp::*;
        let shamt = (y & 63) as u32;
        match self {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Sll => x << shamt,
            Srl => x >> shamt,
            Sra => ((x as i64) >> shamt) as u64,
            Slt => u64::from((x as i64) < (y as i64)),
            Sltu => u64::from(x < y),
            Mul => x.wrapping_mul(y),
            Div if y == 0 => u64::MAX,
            Div => (x as i64).wrapping_div(y as i64) as u64,
            Divu => x.checked_div(y).unwrap_or(u64::MAX),
            Rem if y == 0 => x,
            Rem => (x as i64).wrapping_rem(y as i64) as u64,
            Remu => x.checked_rem(y).unwrap_or(x),
        }
    }
}

/// ALU operations with an immediate operand: `rd = rs1 op imm`.
///
/// Each computes its register-register counterpart on the extended
/// immediate. Logical immediates zero-extend, MIPS-style, so `ori` can
/// splice 16-bit chunks when building wide constants; the others
/// sign-extend. A shift's immediate is its shift amount, in `0..64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImmOp {
    /// `rd = rs1 + sext(imm)` (wrapping).
    Addi,
    /// `rd = rs1 & zext(imm)`.
    Andi,
    /// `rd = rs1 | zext(imm)`.
    Ori,
    /// `rd = rs1 ^ zext(imm)`.
    Xori,
    /// `rd = (rs1 <ₛ sext(imm)) ? 1 : 0`.
    Slti,
    /// `rd = (rs1 <ᵤ sext(imm)) ? 1 : 0`.
    Sltiu,
    /// `rd = rs1 << shamt`.
    Slli,
    /// `rd = rs1 >> shamt` (logical).
    Srli,
    /// `rd = rs1 >> shamt` (arithmetic).
    Srai,
}

impl ImmOp {
    /// Every immediate operation.
    pub const ALL: [ImmOp; 9] = {
        use ImmOp::*;
        [Addi, Andi, Ori, Xori, Slti, Sltiu, Slli, Srli, Srai]
    };

    /// The assembly mnemonic, e.g. `"addi"` (indexed by declaration order).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        [
            "addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "srai",
        ][self as usize]
    }

    /// Whether the immediate is zero-extended (the logical operations)
    /// rather than sign-extended.
    #[must_use]
    pub(crate) fn zero_extends(self) -> bool {
        matches!(self, ImmOp::Andi | ImmOp::Ori | ImmOp::Xori)
    }

    /// Whether the immediate is a shift amount.
    #[must_use]
    pub(crate) fn is_shift(self) -> bool {
        matches!(self, ImmOp::Slli | ImmOp::Srli | ImmOp::Srai)
    }

    /// `x op imm`: the value the machine writes to `rd`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::ImmOp;
    /// assert_eq!(ImmOp::Ori.eval(0, -1), 0xFFFF);
    /// assert_eq!(ImmOp::Addi.eval(0, -1), u64::MAX);
    /// ```
    #[inline(always)]
    #[must_use]
    pub fn eval(self, x: u64, imm: i16) -> u64 {
        use ImmOp::*;
        let y = if self.zero_extends() {
            u64::from(imm as u16)
        } else {
            imm as i64 as u64
        };
        let op = match self {
            Addi => AluOp::Add,
            Andi => AluOp::And,
            Ori => AluOp::Or,
            Xori => AluOp::Xor,
            Slti => AluOp::Slt,
            Sltiu => AluOp::Sltu,
            Slli => AluOp::Sll,
            Srli => AluOp::Srl,
            Srai => AluOp::Sra,
        };
        op.eval(x, y)
    }
}

/// The value `lui rd, imm` writes: `sext(imm) << 16`.
#[inline(always)]
#[must_use]
pub fn lui_value(imm: i16) -> u64 {
    ((imm as i64) << 16) as u64
}

/// Memory loads: `rd = mem[base + off]`, extended to 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Signed byte.
    Lb,
    /// Unsigned byte.
    Lbu,
    /// Signed 16-bit halfword.
    Lh,
    /// Unsigned 16-bit halfword.
    Lhu,
    /// Signed 32-bit word.
    Lw,
    /// Unsigned 32-bit word.
    Lwu,
    /// 64-bit doubleword.
    Ld,
}

impl LoadOp {
    /// Every load.
    pub const ALL: [LoadOp; 7] = {
        use LoadOp::*;
        [Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld]
    };

    /// The assembly mnemonic, e.g. `"ld"` (indexed by declaration order).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        ["lb", "lbu", "lh", "lhu", "lw", "lwu", "ld"][self as usize]
    }

    /// The access width in bytes.
    #[inline(always)]
    #[must_use]
    pub fn bytes(self) -> u8 {
        use LoadOp::*;
        match self {
            Lb | Lbu => 1,
            Lh | Lhu => 2,
            Lw | Lwu => 4,
            Ld => 8,
        }
    }

    /// The register value of `raw`, the [`LoadOp::bytes`] loaded
    /// (zero-extended): sign-extended for `lb`, `lh` and `lw`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::LoadOp;
    /// assert_eq!(LoadOp::Lb.extend(0xFF), u64::MAX);
    /// assert_eq!(LoadOp::Lbu.extend(0xFF), 0xFF);
    /// ```
    #[inline(always)]
    #[must_use]
    pub fn extend(self, raw: u64) -> u64 {
        let shift = 64 - 8 * u32::from(self.bytes());
        match self {
            LoadOp::Lb | LoadOp::Lh | LoadOp::Lw => (((raw << shift) as i64) >> shift) as u64,
            _ => raw,
        }
    }
}

/// Memory stores: `mem[base + off] = low bytes of src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Low byte.
    Sb,
    /// Low 16 bits.
    Sh,
    /// Low 32 bits.
    Sw,
    /// All 64 bits.
    Sd,
}

impl StoreOp {
    /// Every store.
    pub const ALL: [StoreOp; 4] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw, StoreOp::Sd];

    /// The assembly mnemonic, e.g. `"sd"` (indexed by declaration order).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        ["sb", "sh", "sw", "sd"][self as usize]
    }

    /// The access width in bytes.
    #[inline(always)]
    #[must_use]
    pub fn bytes(self) -> u8 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }
}

/// Branch conditions: the branch is taken when `rs1 cond rs2` holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `rs1 == rs2`.
    Beq,
    /// `rs1 != rs2`.
    Bne,
    /// `rs1 <ₛ rs2` (signed).
    Blt,
    /// `rs1 >=ₛ rs2` (signed).
    Bge,
    /// `rs1 <ᵤ rs2` (unsigned).
    Bltu,
    /// `rs1 >=ᵤ rs2` (unsigned).
    Bgeu,
}

impl Cond {
    /// Every branch condition.
    pub const ALL: [Cond; 6] = {
        use Cond::*;
        [Beq, Bne, Blt, Bge, Bltu, Bgeu]
    };

    /// The assembly mnemonic, e.g. `"beq"` (indexed by declaration order).
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        ["beq", "bne", "blt", "bge", "bltu", "bgeu"][self as usize]
    }

    /// Whether a branch on this condition is taken for operands `x`, `y`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::Cond;
    /// assert!(Cond::Blt.holds(u64::MAX, 0)); // -1 < 0
    /// assert!(!Cond::Bltu.holds(u64::MAX, 0));
    /// ```
    #[inline(always)]
    #[must_use]
    pub fn holds(self, x: u64, y: u64) -> bool {
        use Cond::*;
        match self {
            Beq => x == y,
            Bne => x != y,
            Blt => (x as i64) < (y as i64),
            Bge => (x as i64) >= (y as i64),
            Bltu => x < y,
            Bgeu => x >= y,
        }
    }

    /// The opposite condition: `beq ↔ bne`, `blt ↔ bge`, `bltu ↔ bgeu`.
    #[must_use]
    pub(crate) fn negated(self) -> Cond {
        use Cond::*;
        match self {
            Beq => Bne,
            Bne => Beq,
            Blt => Bge,
            Bge => Blt,
            Bltu => Bgeu,
            Bgeu => Bltu,
        }
    }
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
    /// use mssp_isa::{ImmOp, Instr, Reg, StoreOp};
    /// assert_eq!(Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 1).def_reg(), Some(Reg::A0));
    /// assert_eq!(Instr::Store(StoreOp::Sd, Reg::A0, Reg::SP, 0).def_reg(), None);
    /// assert_eq!(Instr::AluImm(ImmOp::Addi, Reg::ZERO, Reg::A0, 1).def_reg(), None);
    /// ```
    #[must_use]
    pub fn def_reg(&self) -> Option<Reg> {
        use Instr::*;
        let rd = match *self {
            Alu(_, rd, ..)
            | AluImm(_, rd, ..)
            | Lui(rd, _)
            | Load(_, rd, ..)
            | Jal(rd, _)
            | Jalr(rd, ..) => rd,
            Store(..) | Branch(..) | Halt => return None,
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
    /// use mssp_isa::{Cond, Instr, Reg};
    /// let uses = Instr::Branch(Cond::Beq, Reg::A0, Reg::A1, 8).use_regs();
    /// assert_eq!(uses, [Some(Reg::A0), Some(Reg::A1)]);
    /// ```
    #[must_use]
    pub fn use_regs(&self) -> [Option<Reg>; 2] {
        use Instr::*;
        match *self {
            Alu(_, _, a, b) | Store(_, a, b, _) | Branch(_, a, b, _) => [Some(a), Some(b)],
            AluImm(_, _, a, _) | Load(_, _, a, _) | Jalr(_, a, _) => [Some(a), None],
            Lui(..) | Jal(..) | Halt => [None, None],
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
    /// use mssp_isa::{AluOp, Instr, Reg};
    /// let add = Instr::Alu(AluOp::Add, Reg::A0, Reg::A1, Reg::A2);
    /// let swapped = add.map_uses(|r| if r == Reg::A1 { Reg::T0 } else { r });
    /// assert_eq!(swapped, Instr::Alu(AluOp::Add, Reg::A0, Reg::T0, Reg::A2));
    /// ```
    #[must_use]
    pub fn map_uses(self, mut f: impl FnMut(Reg) -> Reg) -> Instr {
        use Instr::*;
        match self {
            Alu(op, rd, a, b) => Alu(op, rd, f(a), f(b)),
            AluImm(op, rd, a, i) => AluImm(op, rd, f(a), i),
            Load(op, rd, b, o) => Load(op, rd, f(b), o),
            Store(op, s, b, o) => Store(op, f(s), f(b), o),
            Branch(c, a, b, o) => Branch(c, f(a), f(b), o),
            Jalr(rd, b, o) => Jalr(rd, f(b), o),
            Lui(..) | Jal(..) | Halt => self,
        }
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Instr::Branch(..))
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
        matches!(
            self,
            Instr::Branch(..) | Instr::Jal(..) | Instr::Jalr(..) | Instr::Halt
        )
    }

    /// Whether this is a pure ALU instruction: it only computes a register
    /// from registers and immediates (no memory, no control).
    #[must_use]
    pub fn is_alu(&self) -> bool {
        matches!(self, Instr::Alu(..) | Instr::AluImm(..) | Instr::Lui(..))
    }

    /// Whether this is a memory load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load(..))
    }

    /// Whether this is a memory store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store(..))
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
    /// use mssp_isa::{Cond, Instr, Reg};
    /// // A branch at 0x100 with offset 8 targets 0x10C (pc + 4 + off).
    /// let b = Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, 8);
    /// assert_eq!(b.static_target(0x100), Some(0x10C));
    /// ```
    #[must_use]
    pub fn static_target(&self, pc: u64) -> Option<u64> {
        match *self {
            Instr::Branch(.., off) | Instr::Jal(_, off) => {
                Some(pc.wrapping_add(INSTR_BYTES).wrapping_add(off as i64 as u64))
            }
            _ => None,
        }
    }

    /// The mnemonic for this instruction, e.g. `"addi"`.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        use Instr::*;
        match self {
            Alu(op, ..) => op.mnemonic(),
            AluImm(op, ..) => op.mnemonic(),
            Lui(..) => "lui",
            Load(op, ..) => op.mnemonic(),
            Store(op, ..) => op.mnemonic(),
            Branch(c, ..) => c.mnemonic(),
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
    /// use mssp_isa::{Cond, Instr, Reg};
    /// let b = Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, 8);
    /// assert_eq!(b.with_offset(-4), Some(Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, -4)));
    /// assert_eq!(Instr::Halt.with_offset(0), None);
    /// ```
    #[must_use]
    pub fn with_offset(&self, off: i16) -> Option<Instr> {
        match *self {
            Instr::Branch(c, a, b, _) => Some(Instr::Branch(c, a, b, off)),
            Instr::Jal(rd, _) => Some(Instr::Jal(rd, off)),
            _ => None,
        }
    }

    /// Flips the polarity of a conditional branch, preserving its offset:
    /// `beq ↔ bne`, `blt ↔ bge`, `bltu ↔ bgeu`. Returns `None` for
    /// non-branches.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Cond, Instr, Reg};
    /// let b = Instr::Branch(Cond::Blt, Reg::A0, Reg::A1, 12);
    /// assert_eq!(b.negated(), Some(Instr::Branch(Cond::Bge, Reg::A0, Reg::A1, 12)));
    /// ```
    #[must_use]
    pub fn negated(&self) -> Option<Instr> {
        match *self {
            Instr::Branch(c, a, b, off) => Some(Instr::Branch(c.negated(), a, b, off)),
            _ => None,
        }
    }

    /// A canonical no-op (`addi zero, zero, 0`).
    #[must_use]
    pub fn nop() -> Instr {
        Instr::AluImm(ImmOp::Addi, Reg::ZERO, Reg::ZERO, 0)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        let m = self.mnemonic();
        match *self {
            Alu(_, rd, a, b) => write!(f, "{m} {rd}, {a}, {b}"),
            // Printed as the value the machine uses, so the text re-assembles.
            AluImm(op, rd, a, i) if op.zero_extends() => write!(f, "{m} {rd}, {a}, {}", i as u16),
            AluImm(_, rd, a, i) => write!(f, "{m} {rd}, {a}, {i}"),
            Lui(rd, i) | Jal(rd, i) => write!(f, "{m} {rd}, {i}"),
            Load(_, r, b, o) | Store(_, r, b, o) | Jalr(r, b, o) => write!(f, "{m} {r}, {o}({b})"),
            Branch(_, a, b, o) => write!(f, "{m} {a}, {b}, {o}"),
            Halt => f.write_str(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_reg_zero_is_discarded() {
        assert_eq!(
            Instr::Alu(AluOp::Add, Reg::ZERO, Reg::A0, Reg::A1).def_reg(),
            None
        );
        assert_eq!(Instr::Jal(Reg::ZERO, 4).def_reg(), None);
        assert_eq!(Instr::Jal(Reg::RA, 4).def_reg(), Some(Reg::RA));
    }

    #[test]
    fn classification_is_disjoint_for_control() {
        let b = Instr::Branch(Cond::Bne, Reg::A0, Reg::ZERO, -8);
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
        let l = Instr::Load(LoadOp::Ld, Reg::A0, Reg::SP, 8);
        let s = Instr::Store(StoreOp::Sd, Reg::A0, Reg::SP, 8);
        assert!(l.is_load() && !l.is_store() && l.is_mem());
        assert!(s.is_store() && !s.is_load() && s.is_mem());
    }

    #[test]
    fn static_target_handles_negative_offsets() {
        let b = Instr::Branch(Cond::Bne, Reg::A0, Reg::ZERO, -8);
        assert_eq!(b.static_target(0x100), Some(0x100 + 4 - 8));
        assert_eq!(
            Instr::Jalr(Reg::ZERO, Reg::RA, 0).static_target(0x100),
            None
        );
    }

    #[test]
    fn negation_round_trips() {
        for c in Cond::ALL {
            let b = Instr::Branch(c, Reg::A0, Reg::A1, 4);
            assert_ne!(b.negated(), Some(b));
            assert_eq!(b.negated().unwrap().negated().unwrap(), b);
        }
        assert_eq!(Instr::Halt.negated(), None);
    }

    #[test]
    fn every_op_is_listed_in_order_and_spelled_as_named() {
        fn check<T: Copy + fmt::Debug>(
            all: &[T],
            index: fn(T) -> usize,
            mnemonic: fn(T) -> &'static str,
        ) {
            for (i, &op) in all.iter().enumerate() {
                assert_eq!(index(op), i, "{op:?}");
                assert_eq!(mnemonic(op), format!("{op:?}").to_lowercase());
            }
        }
        check(&AluOp::ALL, |op| op as usize, AluOp::mnemonic);
        check(&ImmOp::ALL, |op| op as usize, ImmOp::mnemonic);
        check(&LoadOp::ALL, |op| op as usize, LoadOp::mnemonic);
        check(&StoreOp::ALL, |op| op as usize, StoreOp::mnemonic);
        check(&Cond::ALL, |op| op as usize, Cond::mnemonic);
    }

    #[test]
    fn an_instruction_is_six_bytes() {
        assert_eq!(std::mem::size_of::<Instr>(), 6);
    }

    #[test]
    fn alu_instructions_are_the_register_computations() {
        assert!(Instr::nop().is_alu() && Instr::Lui(Reg::A0, 1).is_alu());
        assert!(Instr::Alu(AluOp::Div, Reg::A0, Reg::A1, Reg::A2).is_alu());
        for i in [
            Instr::Load(LoadOp::Ld, Reg::A0, Reg::SP, 0),
            Instr::Store(StoreOp::Sd, Reg::A0, Reg::SP, 0),
            Instr::Branch(Cond::Beq, Reg::A0, Reg::A1, 4),
            Instr::Jal(Reg::RA, 4),
            Instr::Jalr(Reg::ZERO, Reg::RA, 0),
            Instr::Halt,
        ] {
            assert!(!i.is_alu(), "{i}");
        }
    }

    #[test]
    fn display_is_parseable_looking() {
        assert_eq!(
            Instr::Alu(AluOp::Add, Reg::A0, Reg::A1, Reg::A2).to_string(),
            "add a0, a1, a2"
        );
        assert_eq!(
            Instr::Load(LoadOp::Ld, Reg::A0, Reg::SP, -16).to_string(),
            "ld a0, -16(sp)"
        );
        assert_eq!(Instr::Halt.to_string(), "halt");
    }

    #[test]
    fn map_uses_touches_only_sources() {
        let subst = |r: Reg| if r == Reg::A0 { Reg::T1 } else { r };
        // Store: both the value and the base are sources.
        assert_eq!(
            Instr::Store(StoreOp::Sd, Reg::A0, Reg::A0, 8).map_uses(subst),
            Instr::Store(StoreOp::Sd, Reg::T1, Reg::T1, 8)
        );
        // The destination register is never rewritten.
        assert_eq!(
            Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::A0, 1).map_uses(subst),
            Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::T1, 1)
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
            Instr::Store(StoreOp::Sd, Reg::A0, Reg::SP, 0).use_regs(),
            [Some(Reg::A0), Some(Reg::SP)]
        );
        assert_eq!(
            Instr::Jalr(Reg::RA, Reg::T0, 0).use_regs(),
            [Some(Reg::T0), None]
        );
        assert_eq!(Instr::Lui(Reg::A0, 5).use_regs(), [None, None]);
    }
}
