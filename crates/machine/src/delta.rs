//! Partial machine states and the formal operators of the MSSP model.
//!
//! A [`Delta`] is a finite partial map from [`Cell`]s to values — the
//! paper's notion of a machine state "holding members for only a subset of
//! all ISA-visible cells". Live-in sets, live-out sets, master checkpoints
//! and cumulative-write sets (`Δ(S, n)`) are all `Delta`s.
//!
//! Memory cells are tracked at **byte granularity** via per-cell masks:
//! a task that stores one byte of a word records (and is verified
//! against) only that byte. Coarser, whole-word tracking would create
//! false dependencies between adjacent tasks writing neighbouring bytes —
//! the classic false-sharing problem, which the paper's verify/commit
//! hardware likewise avoided by checking at fine granularity. Register
//! and PC cells always carry a full mask.
//!
//! Two operators come straight from the formal model:
//!
//! * **Superimposition** `S₀ ← S₁` ([`Delta::superimpose`] /
//!   [`crate::MachineState::apply`]): overwrite `S₀` with every binding of
//!   `S₁` (byte-wise). The commit step of MSSP is exactly a
//!   superimposition of a task's live-outs onto architected state.
//! * **Consistency** `S₁ ⊑ S₂` ([`Delta::consistent_with`]): every bound
//!   byte of `S₁` is present in `S₂` with the same value. Task
//!   verification is a consistency check of recorded live-ins against
//!   architected state.
//!
//! The algebraic laws of Definition 8 (associativity, containment,
//! idempotency) are verified by unit and property tests in this crate and
//! re-checked end-to-end by the `t10_formal` experiment.
//!
//! # Representation
//!
//! A `Delta` has two parts, split by cell kind:
//!
//! * **Register cells** live in a dense bank — 32 values, 32 byte-masks
//!   and a 32-bit *bound* bitmap guarding them, behind one pointer.
//!   Looking up, binding or testing a register is an index and a bit
//!   test, which is what the speculative storages do on every operand of
//!   every instruction — through [`Delta::get_reg`] / [`Delta::set_reg`],
//!   which skip the `Cell` and are inlined into the caller. The bank is
//!   allocated on the first register binding and sits behind a pointer
//!   because ring slots and arena pools hold `Delta`s by value: some 300
//!   inline bytes per delta would be paid by every one of them, bound
//!   registers or not.
//! * **`Pc` and memory cells** live in one sorted `Vec<(Cell, MaskedVal)>`:
//!   lookups are binary searches, iteration is a linear slice walk.
//!   Typical live-in/live-out sets hold tens of memory cells, where a
//!   flat sorted vector beats a B-tree on cache behaviour and constant
//!   factors.
//!
//! Iteration yields the bank's bound registers in index order and then
//! the vector, which is cell order (`Reg < Pc < Mem`).
//!
//! [`Delta::clear`] resets the bitmap and empties the vector but keeps
//! both allocations, so a recycled delta (see [`crate::DeltaArena`])
//! performs no heap allocation in steady state. The price is that an
//! *unbound* bank entry may hold a value from an earlier life: nothing
//! reads the bank except through the bitmap, and equality, cloning and
//! iteration are written out by hand for that reason rather than derived.

use std::fmt;

use mssp_isa::{Reg, NUM_REGS};

use crate::{Cell, MachineState};

/// A partially-defined 64-bit value: `mask` bit *i* set means byte *i*
/// (little-endian) of `value` is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskedVal {
    /// The value; bytes outside `mask` are zero.
    pub value: u64,
    /// Byte-validity mask.
    pub mask: u8,
}

/// [`expand_mask`] of every byte mask.
const EXPANDED: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut mask = 0;
    while mask < 256 {
        let mut byte = 0;
        while byte < 8 {
            if mask & (1 << byte) != 0 {
                table[mask] |= 0xFF << (byte * 8);
            }
            byte += 1;
        }
        mask += 1;
    }
    table
};

/// Expands a byte mask to a per-bit mask (`0b101` → `0x00FF_00FF`-style).
#[must_use]
#[inline]
pub fn expand_mask(mask: u8) -> u64 {
    EXPANDED[mask as usize]
}

impl MaskedVal {
    /// A fully-defined value.
    #[must_use]
    #[inline]
    pub fn full(value: u64) -> MaskedVal {
        MaskedVal { value, mask: 0xFF }
    }

    /// A partially-defined value (bytes outside the mask are cleared).
    #[must_use]
    #[inline]
    pub fn partial(value: u64, mask: u8) -> MaskedVal {
        MaskedVal {
            value: value & expand_mask(mask),
            mask,
        }
    }

    /// Whether every byte is defined.
    #[must_use]
    #[inline]
    pub fn is_full(self) -> bool {
        self.mask == 0xFF
    }

    /// Overwrites `self` with the defined bytes of `newer`.
    #[must_use]
    #[inline]
    pub fn overwrite_with(self, newer: MaskedVal) -> MaskedVal {
        let nm = expand_mask(newer.mask);
        MaskedVal {
            value: (self.value & !nm) | (newer.value & nm),
            mask: self.mask | newer.mask,
        }
    }

    /// Fills *undefined* bytes of `self` from `older` (first-writer-wins
    /// merge used when recording live-ins).
    #[must_use]
    #[inline]
    pub fn backfill_with(self, older: MaskedVal) -> MaskedVal {
        older.overwrite_with(self)
    }
}

/// A partial machine state: a finite map from cells to (byte-masked)
/// values.
///
/// Iteration order is deterministic (cells are ordered), which keeps every
/// downstream consumer — hashing, verification, serialization — stable
/// across runs.
///
/// # Examples
///
/// ```
/// use mssp_machine::{Cell, Delta};
/// use mssp_isa::Reg;
///
/// let mut a = Delta::new();
/// a.set(Cell::Reg(Reg::A0), 1);
/// let mut b = Delta::new();
/// b.set(Cell::Reg(Reg::A0), 2);
/// b.set(Cell::Reg(Reg::A1), 3);
///
/// let c = a.superimpose(&b); // b wins on conflicts
/// assert_eq!(c.get(Cell::Reg(Reg::A0)), Some(2));
/// assert_eq!(c.get(Cell::Reg(Reg::A1)), Some(3));
/// ```
#[derive(Default)]
pub struct Delta {
    /// `Pc` and memory bindings, sorted by cell, one entry per bound cell.
    cells: Vec<(Cell, MaskedVal)>,
    /// Register bindings. Allocated on the first register binding and
    /// kept by `clear`; `None` reads as [`NO_BANK`].
    bank: Option<Box<RegBank>>,
}

/// The dense register part of a [`Delta`], indexed by register number.
#[derive(Clone)]
struct RegBank {
    /// Bit `i` set: register `i` is bound, `values[i]` and `masks[i]`
    /// are its binding. The other entries are leftovers.
    bound: u32,
    values: [u64; NUM_REGS],
    masks: [u8; NUM_REGS],
}

/// The bank of a delta that never bound a register.
static NO_BANK: RegBank = RegBank {
    bound: 0,
    values: [0; NUM_REGS],
    masks: [0; NUM_REGS],
};

impl RegBank {
    /// Entry `index`, bound or not.
    #[inline]
    fn entry(&self, index: usize) -> MaskedVal {
        MaskedVal {
            value: self.values[index],
            mask: self.masks[index],
        }
    }

    #[inline(always)]
    fn get(&self, r: Reg) -> Option<MaskedVal> {
        (self.bound & (1 << r.index()) != 0).then(|| self.entry(r.index()))
    }

    #[inline(always)]
    fn bind(&mut self, r: Reg, binding: MaskedVal) {
        self.values[r.index()] = binding.value;
        self.masks[r.index()] = binding.mask;
        self.bound |= 1 << r.index();
    }
}

/// The first register binding of a delta's life allocates its bank.
#[cold]
fn new_bank() -> Box<RegBank> {
    Box::new(NO_BANK.clone())
}

/// The indices of the set bits of a word, lowest first.
struct Bits(u32);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let index = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(index)
    }
}

impl Clone for Delta {
    fn clone(&self) -> Delta {
        Delta {
            cells: self.cells.clone(),
            bank: self.bank.as_ref().filter(|bank| bank.bound != 0).cloned(),
        }
    }

    /// Clones into an existing delta, **reusing its allocations** — the
    /// copy a recycled arena buffer wants (no allocation once the buffer
    /// has grown to steady-state size).
    fn clone_from(&mut self, source: &Delta) {
        self.cells.clone_from(&source.cells);
        match (&mut self.bank, source.bank()) {
            (Some(mine), theirs) => (**mine).clone_from(theirs),
            (None, theirs) if theirs.bound != 0 => self.bank = Some(Box::new(theirs.clone())),
            (None, _) => {}
        }
    }
}

impl PartialEq for Delta {
    fn eq(&self, other: &Delta) -> bool {
        self.cells == other.cells && self.regs().eq(other.regs())
    }
}

impl Eq for Delta {}

impl fmt::Debug for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_masked()).finish()
    }
}

impl Delta {
    /// Creates an empty partial state (`∅`).
    #[must_use]
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Creates an empty partial state with room for `capacity` cells.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Delta {
        Delta {
            cells: Vec::with_capacity(capacity),
            ..Delta::default()
        }
    }

    /// Removes every binding, **retaining the allocations** so the
    /// buffer can be recycled without touching the heap.
    pub fn clear(&mut self) {
        self.cells.clear();
        if let Some(bank) = &mut self.bank {
            bank.bound = 0;
        }
    }

    #[inline(always)]
    fn bank(&self) -> &RegBank {
        self.bank.as_deref().unwrap_or(&NO_BANK)
    }

    #[inline(always)]
    fn bank_mut(&mut self) -> &mut RegBank {
        self.bank.get_or_insert_with(new_bank)
    }

    /// The masked binding of register `r`, if any: what
    /// [`Delta::get_masked`] answers for `Cell::Reg(r)`, without the cell.
    ///
    /// The register accessors are the speculative storages' operand path
    /// and are forced inline all the way down: inside `exec::step` an
    /// operand is an index and a bit test, not a call and a `Cell` match.
    #[must_use]
    #[inline(always)]
    pub fn get_reg(&self, r: Reg) -> Option<MaskedVal> {
        self.bank().get(r)
    }

    /// Binds register `r` fully to `value`: [`Delta::set`] on
    /// `Cell::Reg(r)`, without the cell or the previous binding.
    #[inline(always)]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.bank_mut().bind(r, MaskedVal::full(value));
    }

    /// The index of a `Pc` or memory cell in the sorted vector, or its
    /// insertion point.
    #[inline]
    fn find(&self, cell: Cell) -> Result<usize, usize> {
        self.cells.binary_search_by(|&(c, _)| c.cmp(&cell))
    }

    /// The one probe-then-write path: looks `cell` up once, binds it to
    /// `merge(previous binding)` and returns the previous binding.
    #[inline]
    fn upsert(
        &mut self,
        cell: Cell,
        merge: impl FnOnce(Option<MaskedVal>) -> MaskedVal,
    ) -> Option<MaskedVal> {
        match cell {
            Cell::Reg(r) => {
                let bank = self.bank_mut();
                let old = bank.get(r);
                bank.bind(r, merge(old));
                old
            }
            _ => match self.find(cell) {
                Ok(i) => {
                    let old = self.cells[i].1;
                    self.cells[i].1 = merge(Some(old));
                    Some(old)
                }
                Err(i) => {
                    self.cells.insert(i, (cell, merge(None)));
                    None
                }
            },
        }
    }

    /// Binds `cell` fully to `value`, returning the previous fully-bound
    /// value if there was one.
    #[inline]
    pub fn set(&mut self, cell: Cell, value: u64) -> Option<u64> {
        self.upsert(cell, |_| MaskedVal::full(value))
            .and_then(|old| old.is_full().then_some(old.value))
    }

    /// Overwrites the masked bytes of `cell` (newest-wins merge with any
    /// existing binding).
    #[inline]
    pub fn set_bytes(&mut self, cell: Cell, value: u64, mask: u8) {
        if mask == 0 {
            return;
        }
        let new = MaskedVal::partial(value, mask);
        self.upsert(cell, |old| old.map_or(new, |old| old.overwrite_with(new)));
    }

    /// Records the masked bytes of `cell` *only where not already bound*
    /// (first-observation-wins; used for live-in recording so re-reads
    /// stay repeatable).
    #[inline]
    pub fn record_bytes(&mut self, cell: Cell, value: u64, mask: u8) {
        if mask == 0 {
            return;
        }
        let new = MaskedVal::partial(value, mask);
        self.upsert(cell, |old| old.map_or(new, |old| old.backfill_with(new)));
    }

    /// Reads the `mask` bytes of `cell`, first recording — as
    /// [`Delta::record_bytes`] would — `fetch(unbound)` for those of them
    /// that are not bound yet. `fetch` is not called when all are bound.
    ///
    /// This is a recording read in one probe: a slave's live-in set is
    /// looked up once per operand, whether the operand hits or misses.
    #[inline]
    pub fn read_or_record(&mut self, cell: Cell, mask: u8, fetch: impl FnOnce(u8) -> u64) -> u64 {
        if mask == 0 {
            return 0;
        }
        let mut read = 0;
        self.upsert(cell, |old| {
            let old = old.unwrap_or(MaskedVal { value: 0, mask: 0 });
            let unbound = mask & !old.mask;
            let new = if unbound == 0 {
                old
            } else {
                old.backfill_with(MaskedVal::partial(fetch(unbound), unbound))
            };
            read = new.value & expand_mask(mask);
            new
        });
        read
    }

    /// The fully-bound value of `cell` (`None` if absent or partial).
    #[must_use]
    #[inline]
    pub fn get(&self, cell: Cell) -> Option<u64> {
        self.get_masked(cell)
            .and_then(|m| m.is_full().then_some(m.value))
    }

    /// The masked binding of `cell`, if any.
    #[must_use]
    #[inline]
    pub fn get_masked(&self, cell: Cell) -> Option<MaskedVal> {
        match cell {
            Cell::Reg(r) => self.get_reg(r),
            _ => self.find(cell).ok().map(|i| self.cells[i].1),
        }
    }

    /// Whether `cell` has any bound byte.
    #[must_use]
    #[inline]
    pub fn contains(&self, cell: Cell) -> bool {
        match cell {
            Cell::Reg(r) => self.bank().bound & (1 << r.index()) != 0,
            _ => self.find(cell).is_ok(),
        }
    }

    /// Removes a binding, returning it if present.
    pub fn remove(&mut self, cell: Cell) -> Option<u64> {
        match cell {
            Cell::Reg(r) => {
                let bank = self.bank.as_mut()?;
                let old = bank.get(r)?;
                bank.bound &= !(1 << r.index());
                Some(old.value)
            }
            _ => self.find(cell).ok().map(|i| self.cells.remove(i).1.value),
        }
    }

    /// Number of bound cells.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.reg_cells() + self.cells.len()
    }

    /// Whether no cells are bound.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bank().bound == 0 && self.cells.is_empty()
    }

    /// The bound registers, in index order.
    fn regs(&self) -> impl Iterator<Item = (Cell, MaskedVal)> + '_ {
        let bank = self.bank();
        Bits(bank.bound).map(move |i| (Cell::Reg(Reg::new(i as u8)), bank.entry(i)))
    }

    /// Iterates over fully- and partially-bound cells as
    /// `(cell, masked value)` in cell order.
    pub fn iter_masked(&self) -> impl Iterator<Item = (Cell, MaskedVal)> + '_ {
        self.regs().chain(self.cells.iter().copied())
    }

    /// Iterates over `(cell, value)` bindings in cell order. Partial
    /// bindings yield their value with unbound bytes as zero.
    pub fn iter(&self) -> impl Iterator<Item = (Cell, u64)> + '_ {
        self.iter_masked().map(|(c, m)| (c, m.value))
    }

    /// Number of bound *memory* cells (useful for bandwidth accounting).
    #[must_use]
    pub fn mem_cells(&self) -> usize {
        // `Pc` sorts before every memory cell.
        let pc = matches!(self.cells.first(), Some((Cell::Pc, _)));
        self.cells.len() - usize::from(pc)
    }

    /// Number of bound *register* cells.
    #[must_use]
    #[inline]
    pub fn reg_cells(&self) -> usize {
        self.bank().bound.count_ones() as usize
    }

    /// Superimposition `self ← other`: a new delta containing every binding
    /// of `self` overwritten (byte-wise) by every binding of `other`.
    ///
    /// # Examples
    ///
    /// See the [type-level example](Delta).
    #[must_use]
    pub fn superimpose(&self, other: &Delta) -> Delta {
        let mut out = self.clone();
        out.superimpose_in_place(other);
        out
    }

    /// In-place superimposition `self ← other`.
    pub fn superimpose_in_place(&mut self, other: &Delta) {
        for (c, m) in other.iter_masked() {
            self.set_bytes(c, m.value, m.mask);
        }
    }

    /// Consistency `self ⊑ other` between partial states: every bound byte
    /// of `self` is bound identically in `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_machine::{Cell, Delta};
    /// let mut small = Delta::new();
    /// small.set(Cell::Mem(1), 5);
    /// let mut big = small.clone();
    /// big.set(Cell::Mem(2), 6);
    /// assert!(small.consistent_with(&big));
    /// assert!(!big.consistent_with(&small));
    /// ```
    #[must_use]
    pub fn consistent_with(&self, other: &Delta) -> bool {
        self.iter_masked().all(|(c, m)| match other.get_masked(c) {
            Some(o) => (o.mask & m.mask) == m.mask && (o.value & expand_mask(m.mask)) == m.value,
            None => false,
        })
    }

    /// Consistency `self ⊑ S` against a *full* machine state: every bound
    /// byte of `self` equals the corresponding byte `S` holds.
    ///
    /// Because a full state is total (unwritten memory reads as zero),
    /// every cell is considered present in it. This is exactly the check
    /// the verify unit performs on a task's recorded live-ins.
    #[must_use]
    pub fn consistent_with_state(&self, state: &MachineState) -> bool {
        self.iter_masked()
            .all(|(c, m)| state.read_cell(c) & expand_mask(m.mask) == m.value)
    }

    /// The cells whose bound bytes disagree with `state` — the diagnostic
    /// counterpart of [`Delta::consistent_with_state`]. Reports
    /// `(cell, bound value, architected value)` with both masked to the
    /// bound bytes.
    #[must_use]
    pub fn mismatches_against(&self, state: &MachineState) -> Vec<(Cell, u64, u64)> {
        self.mismatches_iter(state).collect()
    }

    /// The first bound cell disagreeing with `state`, or `None` if the
    /// delta is consistent. Unlike [`Delta::mismatches_against`] this
    /// allocates nothing and stops at the first disagreement — it is the
    /// right shape for verify-path squash diagnostics, where only one
    /// offending cell needs naming.
    #[must_use]
    pub fn first_mismatch_against(&self, state: &MachineState) -> Option<(Cell, u64, u64)> {
        self.mismatches_iter(state).next()
    }

    fn mismatches_iter<'a>(
        &'a self,
        state: &'a MachineState,
    ) -> impl Iterator<Item = (Cell, u64, u64)> + 'a {
        self.iter_masked().filter_map(move |(c, m)| {
            let actual = state.read_cell(c) & expand_mask(m.mask);
            (actual != m.value).then_some((c, m.value, actual))
        })
    }
}

impl FromIterator<(Cell, u64)> for Delta {
    fn from_iter<I: IntoIterator<Item = (Cell, u64)>>(iter: I) -> Delta {
        let mut delta = Delta::new();
        let mut cells: Vec<(Cell, MaskedVal)> = Vec::new();
        for (c, v) in iter {
            match c {
                Cell::Reg(_) => {
                    delta.set(c, v);
                }
                _ => cells.push((c, MaskedVal::full(v))),
            }
        }
        // Stable sort + keep-last dedup reproduces map-insert semantics
        // (the latest binding for a repeated cell wins).
        cells.sort_by_key(|&(c, _)| c);
        cells.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                *earlier = *later;
                true
            } else {
                false
            }
        });
        delta.cells = cells;
        delta
    }
}

impl Extend<(Cell, u64)> for Delta {
    fn extend<I: IntoIterator<Item = (Cell, u64)>>(&mut self, iter: I) {
        for (c, v) in iter {
            self.set(c, v);
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (c, m)) in self.iter_masked().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if m.is_full() {
                write!(f, "{c}={:#x}", m.value)?;
            } else {
                write!(f, "{c}={:#x}/{:#04x}", m.value, m.mask)?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::Reg;

    fn d(pairs: &[(Cell, u64)]) -> Delta {
        pairs.iter().copied().collect()
    }

    #[test]
    fn superimpose_right_bias() {
        let a = d(&[(Cell::Mem(0), 1), (Cell::Mem(1), 2)]);
        let b = d(&[(Cell::Mem(1), 9), (Cell::Mem(2), 3)]);
        let c = a.superimpose(&b);
        assert_eq!(c.get(Cell::Mem(0)), Some(1));
        assert_eq!(c.get(Cell::Mem(1)), Some(9));
        assert_eq!(c.get(Cell::Mem(2)), Some(3));
    }

    #[test]
    fn superimpose_associativity() {
        // Definition 8, property 1.
        let s1 = d(&[(Cell::Mem(0), 1), (Cell::Reg(Reg::A0), 2)]);
        let s2 = d(&[(Cell::Mem(0), 3), (Cell::Mem(1), 4)]);
        let s3 = d(&[(Cell::Mem(1), 5), (Cell::Pc, 6)]);
        assert_eq!(
            s1.superimpose(&s2).superimpose(&s3),
            s1.superimpose(&s2.superimpose(&s3))
        );
    }

    #[test]
    fn consistency_containment() {
        // Definition 8, property 2: S1 ⊑ S2 implies (S1 ← S3) ⊑ (S2 ← S3).
        let s1 = d(&[(Cell::Mem(0), 1)]);
        let s2 = d(&[(Cell::Mem(0), 1), (Cell::Mem(1), 2)]);
        let s3 = d(&[(Cell::Mem(0), 7), (Cell::Mem(9), 8)]);
        assert!(s1.consistent_with(&s2));
        assert!(s1.superimpose(&s3).consistent_with(&s2.superimpose(&s3)));
    }

    #[test]
    fn superimpose_idempotency() {
        // Definition 8, property 3: S2 ⊑ S1 implies S1 ← S2 = S1.
        let s1 = d(&[(Cell::Mem(0), 1), (Cell::Mem(1), 2), (Cell::Pc, 3)]);
        let s2 = d(&[(Cell::Mem(1), 2), (Cell::Pc, 3)]);
        assert!(s2.consistent_with(&s1));
        assert_eq!(s1.superimpose(&s2), s1);
    }

    #[test]
    fn empty_delta_is_identity() {
        let s = d(&[(Cell::Mem(4), 4)]);
        assert_eq!(s.superimpose(&Delta::new()), s);
        assert_eq!(Delta::new().superimpose(&s), s);
        assert!(Delta::new().consistent_with(&s));
    }

    #[test]
    fn consistency_against_full_state_treats_memory_as_total() {
        let state = MachineState::new();
        // Unwritten memory reads as zero, so a zero binding is consistent...
        assert!(d(&[(Cell::Mem(1000), 0)]).consistent_with_state(&state));
        // ...and a nonzero one is not.
        assert!(!d(&[(Cell::Mem(1000), 1)]).consistent_with_state(&state));
    }

    #[test]
    fn mismatches_reports_cell_and_both_values() {
        let mut state = MachineState::new();
        state.set_reg(Reg::A0, 5);
        let probe = d(&[(Cell::Reg(Reg::A0), 6), (Cell::Reg(Reg::A1), 0)]);
        let mm = probe.mismatches_against(&state);
        assert_eq!(mm, vec![(Cell::Reg(Reg::A0), 6, 5)]);
    }

    #[test]
    fn first_mismatch_matches_full_report() {
        let mut state = MachineState::new();
        state.set_reg(Reg::A0, 5);
        state.store_word(7, 70);
        let probe = d(&[
            (Cell::Reg(Reg::A0), 6),
            (Cell::Reg(Reg::A1), 0),
            (Cell::Mem(7), 71),
        ]);
        let all = probe.mismatches_against(&state);
        assert_eq!(all.len(), 2);
        assert_eq!(probe.first_mismatch_against(&state), Some(all[0]));
        let consistent = d(&[(Cell::Reg(Reg::A1), 0)]);
        assert_eq!(consistent.first_mismatch_against(&state), None);
        assert!(consistent.mismatches_against(&state).is_empty());
    }

    #[test]
    fn a_delta_stays_small_by_value() {
        // Ring slots and arena pools hold deltas by value: the register
        // bank must stay behind its pointer.
        assert!(std::mem::size_of::<Delta>() <= 64);
        assert!(std::mem::size_of::<RegBank>() > 64);
    }

    #[test]
    fn counts_by_kind() {
        let s = d(&[
            (Cell::Mem(0), 1),
            (Cell::Mem(1), 2),
            (Cell::Reg(Reg::A0), 3),
            (Cell::Pc, 4),
        ]);
        assert_eq!(s.mem_cells(), 2);
        assert_eq!(s.reg_cells(), 1);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn register_accessors_agree_with_the_cell_path() {
        let (a0, a1, a2) = (Reg::A0, Reg::A1, Reg::A2);
        // One delta through the accessors, one through the cells.
        let mut fast = Delta::new();
        let mut slow = Delta::new();
        assert_eq!(fast.get_reg(a0), None); // unbound, no bank yet
        fast.set_reg(a0, 5);
        slow.set(Cell::Reg(a0), 5);
        // Partially bound: only the cell path can build one.
        for delta in [&mut fast, &mut slow] {
            delta.set_bytes(Cell::Reg(a1), 0xBEEF, 0x03);
            delta.set(Cell::Mem(9), 9);
        }
        for delta in [&fast, &slow] {
            assert_eq!(delta.get_reg(a0), Some(MaskedVal::full(5)));
            assert_eq!(delta.get_reg(a1), Some(MaskedVal::partial(0xBEEF, 0x03)));
            assert_eq!(delta.get_reg(a2), None); // unbound beside bound ones
            for r in Reg::all() {
                assert_eq!(delta.get_reg(r), delta.get_masked(Cell::Reg(r)), "{r}");
            }
        }
        // `set_reg` over a partial binding binds fully, as `set` does.
        fast.set_reg(a1, 7);
        slow.set(Cell::Reg(a1), 7);
        assert_eq!(fast.get_reg(a1), Some(MaskedVal::full(7)));
        assert_eq!(fast, slow);
        assert!(fast.iter_masked().eq(slow.iter_masked()));

        // Recycled: the bank keeps a0 = 5 and a1 = 7, unbound.
        fast.clear();
        assert_eq!(fast.get_reg(a0), None);
        assert_eq!(fast.get_reg(a1), None);
        fast.set_reg(a2, 1);
        fast.set(Cell::Pc, 0x40);
        fast.set_reg(a0, 2); // bound later, iterates first
        let fresh = d(&[(Cell::Reg(a2), 1), (Cell::Pc, 0x40), (Cell::Reg(a0), 2)]);
        assert_eq!(fast, fresh);
        assert_eq!(fresh, fast);
        let order: Vec<Cell> = fast.iter().map(|(c, _)| c).collect();
        assert_eq!(order, [Cell::Reg(a0), Cell::Reg(a2), Cell::Pc]);
        assert_eq!(fast.len(), 3);
    }

    // ---- byte-masked behaviour -----------------------------------------

    #[test]
    fn masked_writes_merge_newest_wins() {
        let mut delta = Delta::new();
        delta.set_bytes(Cell::Mem(0), 0x1111_1111_1111_1111, 0x0F);
        delta.set_bytes(Cell::Mem(0), 0x22_0000, 0x04); // overwrite byte 2
        let m = delta.get_masked(Cell::Mem(0)).unwrap();
        assert_eq!(m.mask, 0x0F);
        assert_eq!(m.value, 0x1122_1111); // byte 2 replaced, others kept
    }

    #[test]
    fn record_bytes_is_first_observation_wins() {
        let mut delta = Delta::new();
        delta.record_bytes(Cell::Mem(0), 0xAA, 0x01);
        delta.record_bytes(Cell::Mem(0), 0xBB, 0x01); // ignored: already bound
        delta.record_bytes(Cell::Mem(0), 0xCC00, 0x02); // new byte: recorded
        let m = delta.get_masked(Cell::Mem(0)).unwrap();
        assert_eq!(m.mask, 0x03);
        assert_eq!(m.value, 0xCCAA);
    }

    #[test]
    fn partial_binding_is_not_a_full_get() {
        let mut delta = Delta::new();
        delta.set_bytes(Cell::Mem(0), 0xFF, 0x01);
        assert_eq!(delta.get(Cell::Mem(0)), None);
        assert!(delta.contains(Cell::Mem(0)));
        delta.set_bytes(Cell::Mem(0), u64::MAX, 0xFE);
        assert!(delta.get(Cell::Mem(0)).is_some());
    }

    #[test]
    fn masked_consistency_ignores_unbound_bytes() {
        let mut state = MachineState::new();
        state.store_word(0, 0xDEAD_BEEF_0000_0011);
        let mut probe = Delta::new();
        probe.set_bytes(Cell::Mem(0), 0x11, 0x01); // matches byte 0 only
        assert!(probe.consistent_with_state(&state));
        probe.set_bytes(Cell::Mem(0), 0x9900, 0x02); // byte 1 differs (0x00)
        assert!(!probe.consistent_with_state(&state));
    }

    #[test]
    fn masked_superimpose_onto_state_via_apply() {
        let mut state = MachineState::new();
        state.store_word(3, 0x8877_6655_4433_2211);
        let mut delta = Delta::new();
        delta.set_bytes(Cell::Mem(3), 0xAA00, 0x02); // replace byte 1
        state.apply(&delta);
        assert_eq!(state.load_word(3), 0x8877_6655_4433_AA11);
    }

    #[test]
    fn expand_mask_examples() {
        assert_eq!(expand_mask(0x00), 0);
        assert_eq!(expand_mask(0x01), 0xFF);
        assert_eq!(expand_mask(0x80), 0xFF00_0000_0000_0000);
        assert_eq!(expand_mask(0xFF), u64::MAX);
    }

    #[test]
    fn masked_consistency_between_deltas() {
        let mut small = Delta::new();
        small.set_bytes(Cell::Mem(0), 0x34, 0x01);
        let mut big = Delta::new();
        big.set_bytes(Cell::Mem(0), 0x1234, 0x03);
        assert!(small.consistent_with(&big));
        assert!(!big.consistent_with(&small)); // byte 1 unbound in small
    }
}
