//! Full machine state and the [`Storage`] abstraction the interpreter
//! executes against.

use mssp_isa::{Reg, NUM_REGS, STACK_TOP};

use crate::{Cell, Delta, MaskedVal, SparseMem};

/// A complete architectural machine state: 32 registers, the PC, and
/// sparse memory.
///
/// This is the paper's architected state — the "pristine" state held in the
/// shared L2 in a real MSSP machine. It is *total*: every cell has a value
/// (unwritten memory reads as zero).
///
/// # Examples
///
/// ```
/// use mssp_machine::MachineState;
/// use mssp_isa::Reg;
///
/// let mut s = MachineState::new();
/// s.set_reg(Reg::A0, 42);
/// assert_eq!(s.reg(Reg::A0), 42);
/// assert_eq!(s.reg(Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineState {
    regs: [u64; NUM_REGS],
    pc: u64,
    mem: SparseMem,
}

impl MachineState {
    /// Creates an all-zero machine state.
    #[must_use]
    pub fn new() -> MachineState {
        MachineState::default()
    }

    /// Creates the boot state for a program: data segment loaded, PC at the
    /// entry point, stack pointer at [`STACK_TOP`], all other cells zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::asm::assemble;
    /// use mssp_machine::MachineState;
    ///
    /// let p = assemble(".data\nv: .dword 7\n.text\nmain: halt").unwrap();
    /// let s = MachineState::boot(&p);
    /// assert_eq!(s.pc(), p.entry());
    /// assert_eq!(s.load_word(p.symbol("v").unwrap() >> 3), 7);
    /// ```
    #[must_use]
    pub fn boot(program: &mssp_isa::Program) -> MachineState {
        let mut s = MachineState::new();
        s.mem.write_image(program.data_base(), program.data());
        s.set_reg(Reg::SP, STACK_TOP);
        s.set_pc(program.entry());
        s
    }

    /// Reads a register (the zero register always reads zero).
    #[must_use]
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to the zero register are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// The program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Loads the 64-bit word at word index `widx`.
    #[must_use]
    #[inline]
    pub fn load_word(&self, widx: u64) -> u64 {
        self.mem.load(widx)
    }

    /// Stores a 64-bit word at word index `widx`.
    #[inline]
    pub fn store_word(&mut self, widx: u64, value: u64) {
        self.mem.store(widx, value);
    }

    /// Read access to the underlying sparse memory.
    #[must_use]
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Reads any cell uniformly.
    #[must_use]
    #[inline]
    pub fn read_cell(&self, cell: Cell) -> u64 {
        match cell {
            Cell::Reg(r) => self.reg(r),
            Cell::Pc => self.pc,
            Cell::Mem(w) => self.mem.load(w),
        }
    }

    /// Writes any cell uniformly.
    #[inline]
    pub fn write_cell(&mut self, cell: Cell, value: u64) {
        match cell {
            Cell::Reg(r) => self.set_reg(r, value),
            Cell::Pc => self.pc = value,
            Cell::Mem(w) => self.mem.store(w, value),
        }
    }

    /// Superimposes a partial state onto this state (`self ← delta`) —
    /// the commit operation of MSSP.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_machine::{Cell, Delta, MachineState};
    ///
    /// let mut s = MachineState::new();
    /// let mut d = Delta::new();
    /// d.set(Cell::Mem(3), 99);
    /// s.apply(&d);
    /// assert_eq!(s.load_word(3), 99);
    /// ```
    pub fn apply(&mut self, delta: &Delta) {
        // Each cell is bound once, so the order of the writes is free.
        for (c, m) in delta.banked() {
            self.write_masked(c, m);
        }
        for (c, m) in delta.mem_unordered() {
            self.write_masked(c, m);
        }
    }

    /// Overwrites the bound bytes of `cell` with `binding`'s.
    #[inline]
    fn write_masked(&mut self, cell: Cell, binding: MaskedVal) {
        if binding.is_full() {
            self.write_cell(cell, binding.value);
        } else {
            let em = crate::expand_mask(binding.mask);
            let old = self.read_cell(cell);
            self.write_cell(cell, (old & !em) | binding.value);
        }
    }
}

/// The storage interface the interpreter executes against.
///
/// [`MachineState`] implements it directly: the sequential machine and
/// recovery step architected state, and the MSSP master its private copy
/// of it, learning what each step wrote from
/// [`StepInfo::record_writes`](crate::StepInfo::record_writes). A slave
/// steps a layered view instead (task-local writes → master checkpoint →
/// committed view → architected state) that records live-ins as a side
/// effect; `mssp-core` also keeps a buffered recovery storage that only
/// the benchmark's trace loop steps, and spawn-guard slices step a
/// register file over a memory reader. Read methods take `&mut self`
/// precisely so implementations can record what was read.
///
/// Byte-granular accesses are provided methods built on the word-granular
/// primitives, so every implementation inherits identical sub-word and
/// unaligned semantics (little-endian, read-modify-write of containing
/// words).
pub trait Storage {
    /// Reads a register. Must return 0 for [`Reg::ZERO`].
    fn read_reg(&mut self, r: Reg) -> u64;
    /// Writes a register. Must discard writes to [`Reg::ZERO`].
    fn write_reg(&mut self, r: Reg, value: u64);
    /// Reads the 64-bit word at word index `widx`.
    fn load_word(&mut self, widx: u64) -> u64;
    /// Writes the 64-bit word at word index `widx`.
    fn store_word(&mut self, widx: u64, value: u64);

    /// Reads the word at `widx` needing only the bytes in `mask`.
    ///
    /// The default reads the whole word; live-in-recording storages
    /// override this so a one-byte load records a one-byte live-in instead
    /// of a false whole-word dependency.
    fn load_word_masked(&mut self, widx: u64, mask: u8) -> u64 {
        let _ = mask;
        self.load_word(widx)
    }

    /// Writes the bytes of `value` selected by `mask` into the word at
    /// `widx`, leaving other bytes untouched.
    ///
    /// The default performs read-modify-write; buffering storages override
    /// it to record a byte-masked write without reading (avoiding a false
    /// dependency on the untouched bytes).
    fn store_word_masked(&mut self, widx: u64, value: u64, mask: u8) {
        if mask == 0xFF {
            self.store_word(widx, value);
        } else {
            let em = crate::expand_mask(mask);
            let old = self.load_word(widx);
            self.store_word(widx, (old & !em) | (value & em));
        }
    }

    /// Loads `len ∈ {1,2,4,8}` bytes at byte address `addr`, little-endian,
    /// zero-extended into a `u64`.
    fn load_bytes(&mut self, addr: u64, len: u8) -> u64 {
        let mut out = 0u64;
        let mut done = 0u64; // bytes gathered so far
        while done < len as u64 {
            let a = addr.wrapping_add(done);
            let widx = a >> 3;
            let first = a & 7; // first byte within this word
            let take = (8 - first).min(len as u64 - done);
            let mask = (((1u16 << take) - 1) as u8) << first;
            let word = self.load_word_masked(widx, mask);
            let chunk = (word >> (first * 8)) & ones(take);
            out |= chunk << (done * 8);
            done += take;
        }
        out
    }

    /// Stores the low `len ∈ {1,2,4,8}` bytes of `value` at byte address
    /// `addr`, little-endian.
    fn store_bytes(&mut self, addr: u64, len: u8, value: u64) {
        let mut done = 0u64;
        while done < len as u64 {
            let a = addr.wrapping_add(done);
            let widx = a >> 3;
            let first = a & 7;
            let take = (8 - first).min(len as u64 - done);
            let mask = (((1u16 << take) - 1) as u8) << first;
            let chunk = ((value >> (done * 8)) & ones(take)) << (first * 8);
            self.store_word_masked(widx, chunk, mask);
            done += take;
        }
    }
}

/// A value with the low `n` bytes set.
fn ones(n: u64) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (n * 8)) - 1
    }
}

impl Storage for MachineState {
    fn read_reg(&mut self, r: Reg) -> u64 {
        self.reg(r)
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        self.set_reg(r, value);
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.mem.load(widx)
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.mem.store(widx, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut s = MachineState::new();
        s.set_reg(Reg::ZERO, 77);
        assert_eq!(s.reg(Reg::ZERO), 0);
        Storage::write_reg(&mut s, Reg::ZERO, 77);
        assert_eq!(s.reg(Reg::ZERO), 0);
    }

    #[test]
    fn cell_read_write_round_trip() {
        let mut s = MachineState::new();
        for (cell, v) in [
            (Cell::Reg(Reg::A3), 11u64),
            (Cell::Pc, 0x4000),
            (Cell::Mem(99), 123),
        ] {
            s.write_cell(cell, v);
            assert_eq!(s.read_cell(cell), v);
        }
    }

    #[test]
    fn apply_matches_write_cell() {
        let mut a = MachineState::new();
        let mut b = MachineState::new();
        let delta: Delta = [(Cell::Reg(Reg::T0), 5u64), (Cell::Mem(1), 6)]
            .into_iter()
            .collect();
        a.apply(&delta);
        for (c, v) in delta.iter() {
            b.write_cell(c, v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn byte_helpers_little_endian_and_unaligned() {
        let mut s = MachineState::new();
        s.store_bytes(13, 4, 0xDDCC_BBAA);
        assert_eq!(s.load_bytes(13, 4), 0xDDCC_BBAA);
        assert_eq!(s.load_bytes(13, 1), 0xAA);
        assert_eq!(s.load_bytes(14, 1), 0xBB);
        // Crossing a word boundary.
        s.store_bytes(6, 8, 0x1122_3344_5566_7788);
        assert_eq!(s.load_bytes(6, 8), 0x1122_3344_5566_7788);
    }
}
