//! Program images: a text segment of instructions plus an initialized data
//! segment, with symbols.
//!
//! A [`Program`] is what the assembler produces and what both the sequential
//! reference machine and the MSSP engine execute. The distiller consumes a
//! `Program` (the *original* binary) and produces another `Program` (the
//! *distilled* binary) plus a PC correspondence map.

use std::collections::BTreeMap;
use std::fmt;

use crate::{encode, Instr, INSTR_BYTES};

/// Default base address of the text (code) segment.
pub const TEXT_BASE: u64 = 0x0001_0000;

/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Default initial stack pointer (stacks grow down).
pub const STACK_TOP: u64 = 0x7FFF_FFF0;

/// Default base address for workload heap areas (by convention only; the
/// machine itself places no significance on it).
pub const HEAP_BASE: u64 = 0x0100_0000;

/// An executable program image.
///
/// # Examples
///
/// ```
/// use mssp_isa::{Instr, Program, Reg};
///
/// let prog = Program::from_instrs(vec![
///     Instr::Addi(Reg::A0, Reg::ZERO, 7),
///     Instr::Halt,
/// ]);
/// assert_eq!(prog.fetch(prog.entry()), Some(Instr::Addi(Reg::A0, Reg::ZERO, 7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    text: Vec<Instr>,
    text_base: u64,
    data: Vec<u8>,
    data_base: u64,
    entry: u64,
    symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Creates a program from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `text_base` is not 4-byte aligned, if either segment runs
    /// past the top of the 64-bit address space (its end must be a `u64`),
    /// if the text and data segments overlap, or if `entry` does not point
    /// into the text segment.
    #[must_use]
    pub fn new(
        text: Vec<Instr>,
        text_base: u64,
        data: Vec<u8>,
        data_base: u64,
        entry: u64,
        symbols: BTreeMap<String, u64>,
    ) -> Program {
        assert_eq!(
            text_base % INSTR_BYTES,
            0,
            "text base must be 4-byte aligned"
        );
        let text_end = segment_end(text_base, text.len(), INSTR_BYTES)
            .expect("text segment runs past the top of the address space");
        let data_end = segment_end(data_base, data.len(), 1)
            .expect("data segment runs past the top of the address space");
        assert!(
            text_end <= data_base || data_end <= text_base,
            "text [{text_base:#x},{text_end:#x}) overlaps data [{data_base:#x},{data_end:#x})"
        );
        let prog = Program {
            text,
            text_base,
            data,
            data_base,
            entry,
            symbols,
        };
        assert!(
            prog.text.is_empty() || prog.contains_pc(entry),
            "entry {entry:#x} is outside the text segment"
        );
        prog
    }

    /// Creates a minimal program: instructions at [`TEXT_BASE`], no data,
    /// entry at the first instruction.
    #[must_use]
    pub fn from_instrs(text: Vec<Instr>) -> Program {
        Program::new(
            text,
            TEXT_BASE,
            Vec::new(),
            DATA_BASE,
            TEXT_BASE,
            BTreeMap::new(),
        )
    }

    /// Decodes a binary text image (one 32-bit word per instruction) into
    /// a program at [`TEXT_BASE`] — the loader counterpart of
    /// [`Program::encode_text`].
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::DecodeError`] if any word is not a valid
    /// instruction.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::{Program, Instr, Reg};
    /// let original = Program::from_instrs(vec![
    ///     Instr::Addi(Reg::A0, Reg::ZERO, 9),
    ///     Instr::Halt,
    /// ]);
    /// let reloaded = Program::from_encoded(&original.encode_text()).unwrap();
    /// assert_eq!(reloaded.text(), original.text());
    /// ```
    pub fn from_encoded(words: &[u32]) -> Result<Program, crate::DecodeError> {
        let text = words
            .iter()
            .map(|&w| crate::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::from_instrs(text))
    }

    /// The instructions of the text segment, in address order.
    #[must_use]
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// Base address of the text segment.
    #[must_use]
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// One past the last text address.
    #[must_use]
    #[inline]
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64 * INSTR_BYTES
    }

    /// The initialized data image.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Base address of the data segment.
    #[must_use]
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// The program entry point.
    #[must_use]
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Looks up a symbol's address.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::asm::assemble;
    /// let p = assemble("main: halt").unwrap();
    /// assert_eq!(p.symbol("main"), Some(p.entry()));
    /// ```
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Whether `pc` addresses an instruction in the text segment.
    #[must_use]
    #[inline]
    pub fn contains_pc(&self, pc: u64) -> bool {
        self.index_of_pc(pc).is_some()
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the
    /// text segment or misaligned.
    ///
    /// This is the interpreter's fetch, once per executed instruction on
    /// every storage, so it is one subtraction, one alignment test and one
    /// bounds-checked index (see [`Program::index_of_pc`]).
    #[must_use]
    #[inline]
    pub fn fetch(&self, pc: u64) -> Option<Instr> {
        self.text.get(self.index_of_pc(pc)?).copied()
    }

    /// Converts an instruction address to its index in [`Program::text`].
    ///
    /// The offset from the text base wraps, so a `pc` below the base
    /// becomes an offset past any segment [`Program::new`] accepts, and a
    /// single comparison against the length rejects both sides.
    #[must_use]
    #[inline]
    pub fn index_of_pc(&self, pc: u64) -> Option<usize> {
        let offset = pc.wrapping_sub(self.text_base);
        if !offset.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let index = usize::try_from(offset / INSTR_BYTES).ok()?;
        (index < self.text.len()).then_some(index)
    }

    /// Converts a text index to its instruction address.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub(crate) fn pc_of_index(&self, index: usize) -> u64 {
        assert!(index <= self.text.len(), "index {index} out of bounds");
        self.text_base + index as u64 * INSTR_BYTES
    }

    /// Iterates over `(pc, instruction)` pairs in address order.
    pub fn iter_pcs(&self) -> impl Iterator<Item = (u64, Instr)> + '_ {
        self.text
            .iter()
            .enumerate()
            .map(move |(i, &instr)| (self.pc_of_index(i), instr))
    }

    /// Number of instructions in the text segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Encodes the text segment to binary words.
    #[must_use]
    pub fn encode_text(&self) -> Vec<u32> {
        self.text.iter().map(|&i| encode(i)).collect()
    }

    /// Checks static well-formedness: every direct branch/jump target must
    /// land on an instruction inside the text segment.
    ///
    /// # Errors
    ///
    /// Returns the PC and target of the first violating instruction.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for (pc, instr) in self.iter_pcs() {
            if let Some(target) = instr.static_target(pc) {
                if !self.contains_pc(target) {
                    return Err(ValidateError { pc, target });
                }
            }
        }
        Ok(())
    }

    /// Renders a full disassembly listing (with symbols as comments).
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut by_addr: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (name, &addr) in &self.symbols {
            by_addr.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (pc, instr) in self.iter_pcs() {
            if let Some(names) = by_addr.get(&pc) {
                for n in names {
                    out.push_str(&format!("{n}:\n"));
                }
            }
            out.push_str(&format!("  {pc:#08x}: {instr}\n"));
        }
        out
    }
}

/// One past the last byte of `len` items of `item_bytes` bytes at `base`,
/// or `None` if the segment runs past the top of the address space.
pub(crate) fn segment_end(base: u64, len: usize, item_bytes: u64) -> Option<u64> {
    u64::try_from(len)
        .ok()?
        .checked_mul(item_bytes)?
        .checked_add(base)
}

/// Error returned by [`Program::validate`] when a static control-flow target
/// escapes the text segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidateError {
    /// Address of the offending instruction.
    pub pc: u64,
    /// The out-of-range target.
    pub target: u64,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instruction at {:#x} targets {:#x}, outside the text segment",
            self.pc, self.target
        )
    }
}

impl std::error::Error for ValidateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    fn tiny() -> Program {
        Program::from_instrs(vec![
            Instr::Addi(Reg::A0, Reg::ZERO, 1),
            Instr::Jal(Reg::ZERO, -8),
            Instr::Halt,
        ])
    }

    #[test]
    fn fetch_and_indexing_agree() {
        let p = tiny();
        for (i, (pc, instr)) in p.iter_pcs().enumerate() {
            assert_eq!(p.index_of_pc(pc), Some(i));
            assert_eq!(p.pc_of_index(i), pc);
            assert_eq!(p.fetch(pc), Some(instr));
        }
    }

    #[test]
    fn fetch_rejects_misaligned_and_out_of_range() {
        let p = tiny();
        assert_eq!(p.fetch(p.text_base() + 1), None);
        assert_eq!(p.fetch(p.text_end()), None);
        assert_eq!(p.fetch(0), None);
    }

    #[test]
    fn validate_accepts_in_range_targets() {
        let p = tiny();
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_escaping_branch() {
        let p = Program::from_instrs(vec![Instr::Jal(Reg::ZERO, 0x400), Instr::Halt]);
        let err = p.validate().unwrap_err();
        assert_eq!(err.pc, p.text_base());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_segments_rejected() {
        let _ = Program::new(
            vec![Instr::Halt; 4],
            0x1000,
            vec![0; 64],
            0x1004,
            0x1000,
            BTreeMap::new(),
        );
    }

    #[test]
    fn disassembly_mentions_every_instruction() {
        let p = tiny();
        let dis = p.disassemble();
        assert!(dis.contains("addi a0, zero, 1"));
        assert!(dis.contains("halt"));
    }
}
