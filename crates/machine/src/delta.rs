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
//! A `Delta` is one pointer to its two parts, split by cell kind. Ring
//! slots and arena pools hold `Delta`s by value — three to a message, a
//! thousand messages to a ring — so what a delta costs *unbound* is paid
//! thousands of times over: the parts are allocated on the first binding
//! and an empty delta is a null pointer.
//!
//! * **Register cells and `Pc`** live in a dense bank — one value and one
//!   byte-mask per register plus one pair for `Pc`, and a *bound* bitmap
//!   guarding them. Looking up, binding or testing a register is an index
//!   and a bit test, which is what the speculative storages do on every
//!   operand of every instruction — through [`Delta::get_reg`] /
//!   [`Delta::set_reg`], which skip the `Cell` and are inlined into the
//!   caller.
//! * **Memory cells** live in a vector of `(word index, value, mask)`
//!   entries in **first-touch order**: a new binding is appended, never
//!   inserted. Up to `SCAN_MAX` entries are found by scanning the
//!   vector; past that an open-addressing index (multiplicative hash,
//!   linear probing, at most half full, `u32` positions into the vector)
//!   finds an entry — or the empty slot that says there is none — in one
//!   probe, so a load that misses a layer of a slave's view costs that
//!   layer one probe and the first touch of a word costs one push.
//!
//! **Ordered iteration is the cold path.** The public iterators
//! ([`Delta::iter`], [`Delta::iter_masked`]), `Display`/`Debug` and
//! [`Delta::mismatches_against`] still yield cell order (`Reg < Pc <
//! Mem`, memory by word index), and equality is independent of the order
//! cells were bound in — but they pay for it where they are called, with
//! a sorted copy of the memory entries, instead of every binding paying
//! to keep the vector sorted. They are for reports, squash diagnostics
//! and tests. Everything the executors run per task — superimposition,
//! [`crate::MachineState::apply`], the consistency checks,
//! [`Delta::first_mismatch_against`] — walks storage order, which is
//! sound because each cell is bound once and the operators are
//! cell-wise, and allocates nothing.
//!
//! [`Delta::clear`] resets the bitmap and empties the vector and the
//! index but keeps all three allocations, so a recycled delta (see
//! [`crate::DeltaArena`]) performs no heap allocation in steady state.
//! The index is rebuilt (zero-filled, then filled from the entries) each
//! time a life outgrows the scan, so nothing indexed in an earlier life
//! can be found in a later one. The price of recycling is that an
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
    /// Every binding. Allocated on the first one and kept by `clear`;
    /// `None` reads as [`NO_PARTS`].
    parts: Option<Box<Parts>>,
}

/// What a [`Delta`] points to: its two parts, split by cell kind.
#[derive(Clone)]
struct Parts {
    /// Register and `Pc` bindings.
    bank: RegBank,
    /// Memory bindings.
    mem: MemCells,
}

impl Parts {
    const EMPTY: Parts = Parts {
        bank: RegBank {
            bound: 0,
            values: [0; BANK_SLOTS],
            masks: [0; BANK_SLOTS],
        },
        mem: MemCells {
            entries: Vec::new(),
            index: Vec::new(),
        },
    };
}

/// The parts of a delta that never bound a cell.
static NO_PARTS: Parts = Parts::EMPTY;

/// The first binding of a delta's life allocates its parts.
#[cold]
fn new_parts() -> Box<Parts> {
    Box::new(Parts::EMPTY)
}

/// Slots of a [`RegBank`]: one per register, then `Pc`.
const BANK_SLOTS: usize = NUM_REGS + 1;

/// The bank slot of `Pc`. Registers sit at their index, so slot order is
/// cell order.
const PC_SLOT: usize = NUM_REGS;

/// The dense register-and-`Pc` part of a [`Delta`], indexed by slot.
#[derive(Clone)]
struct RegBank {
    /// Bit `i` set: slot `i` is bound, `values[i]` and `masks[i]` are its
    /// binding. The other entries are leftovers.
    bound: u64,
    values: [u64; BANK_SLOTS],
    masks: [u8; BANK_SLOTS],
}

impl RegBank {
    /// Entry `slot`, bound or not.
    #[inline]
    fn entry(&self, slot: usize) -> MaskedVal {
        MaskedVal {
            value: self.values[slot],
            mask: self.masks[slot],
        }
    }

    #[inline(always)]
    fn get(&self, slot: usize) -> Option<MaskedVal> {
        (self.bound & (1 << slot) != 0).then(|| self.entry(slot))
    }

    #[inline(always)]
    fn bind(&mut self, slot: usize, binding: MaskedVal) {
        self.values[slot] = binding.value;
        self.masks[slot] = binding.mask;
        self.bound |= 1 << slot;
    }

    /// Binds `slot` to `merge(previous binding)`; returns the previous
    /// binding.
    #[inline(always)]
    fn upsert(
        &mut self,
        slot: usize,
        merge: impl FnOnce(Option<MaskedVal>) -> MaskedVal,
    ) -> Option<MaskedVal> {
        let old = self.get(slot);
        self.bind(slot, merge(old));
        old
    }
}

/// The cell a bank slot holds: a register's at its index, `Pc`'s after.
#[inline]
fn bank_cell(slot: usize) -> Cell {
    match Reg::try_new(slot as u8) {
        Some(r) => Cell::Reg(r),
        None => Cell::Pc,
    }
}

/// The indices of the set bits of a word, lowest first.
struct Bits(u64);

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

/// One bound memory word. The binding is kept as its two fields, not as
/// a `MaskedVal`: same 24 bytes, but with the pair stored as a unit the
/// discrete engine measured 7-11 % slower on `mcf_chase` and
/// `phase_flip_frozen` (the probe is inlined into every storage read).
#[derive(Clone, Copy)]
struct MemEntry {
    widx: u64,
    value: u64,
    mask: u8,
}

impl MemEntry {
    #[inline]
    fn binding(&self) -> MaskedVal {
        MaskedVal {
            value: self.value,
            mask: self.mask,
        }
    }

    #[inline]
    fn cell(&self) -> (Cell, MaskedVal) {
        (Cell::Mem(self.widx), self.binding())
    }
}

/// Most memory entries a delta finds by scanning; one more and it builds
/// its index. Eight entries are three cache lines and at most eight
/// compares, about what a probe's two dependent loads cost; the
/// benchmark's workloads cannot tell 4, 8 and 16 apart.
const SCAN_MAX: usize = 8;

/// The memory part of a [`Delta`]: entries in first-touch order, found
/// through `index` once there are more than [`SCAN_MAX`] of them.
#[derive(Clone, Default)]
struct MemCells {
    entries: Vec<MemEntry>,
    /// Open-addressing index over `entries`, linear probing: a slot holds
    /// an entry's position plus one, or 0 for empty. Either empty (no
    /// slots at all: `entries` is scanned) or a power of two of slots, at
    /// most half of them used, indexing every entry.
    index: Vec<u32>,
}

/// Where a probe for a memory word ended.
enum Probe {
    /// Bound: its position in `entries`.
    Found(usize),
    /// Unbound: the index slot that would hold it (meaningless while the
    /// entries are scanned).
    Vacant(usize),
}

impl MemCells {
    /// The slot a probe for `widx` starts at. Fibonacci hashing: the top
    /// bits of the product spread word indices that differ in any bits,
    /// and consecutive ones (the common case) land far apart.
    #[inline]
    fn home(&self, widx: u64) -> usize {
        debug_assert!(self.index.len().is_power_of_two());
        let bits = self.index.len().trailing_zeros();
        (widx.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    #[inline]
    fn probe(&self, widx: u64) -> Probe {
        if self.index.is_empty() {
            return match self.entries.iter().position(|e| e.widx == widx) {
                Some(position) => Probe::Found(position),
                None => Probe::Vacant(0),
            };
        }
        let last = self.index.len() - 1;
        let mut slot = self.home(widx);
        loop {
            match self.index[slot] {
                0 => return Probe::Vacant(slot),
                held => {
                    let position = held as usize - 1;
                    if self.entries[position].widx == widx {
                        return Probe::Found(position);
                    }
                }
            }
            slot = (slot + 1) & last;
        }
    }

    #[inline]
    fn get(&self, widx: u64) -> Option<MaskedVal> {
        match self.probe(widx) {
            Probe::Found(position) => Some(self.entries[position].binding()),
            Probe::Vacant(_) => None,
        }
    }

    /// Binds `widx` to `merge(previous binding)` in one probe; returns the
    /// previous binding.
    #[inline]
    fn upsert(
        &mut self,
        widx: u64,
        merge: impl FnOnce(Option<MaskedVal>) -> MaskedVal,
    ) -> Option<MaskedVal> {
        match self.probe(widx) {
            Probe::Found(position) => {
                let entry = &mut self.entries[position];
                let old = entry.binding();
                let new = merge(Some(old));
                (entry.value, entry.mask) = (new.value, new.mask);
                Some(old)
            }
            Probe::Vacant(slot) => {
                let MaskedVal { value, mask } = merge(None);
                self.entries.push(MemEntry { widx, value, mask });
                let len = self.entries.len();
                if self.index.is_empty() {
                    if len > SCAN_MAX {
                        self.reindex();
                    }
                } else if len * 2 > self.index.len() {
                    self.reindex();
                } else {
                    self.index[slot] = position_plus_one(len - 1);
                }
                None
            }
        }
    }

    /// Rebuilds the index for the entries as they are: none if they can
    /// be scanned, otherwise the smallest power of two of slots that
    /// leaves at least half of them empty.
    #[cold]
    fn reindex(&mut self) {
        self.index.clear();
        if self.entries.len() <= SCAN_MAX {
            return;
        }
        let slots = (self.entries.len() * 2).next_power_of_two();
        self.index.resize(slots, 0);
        for position in 0..self.entries.len() {
            let mut slot = self.home(self.entries[position].widx);
            while self.index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.index[slot] = position_plus_one(position);
        }
    }

    fn remove(&mut self, widx: u64) -> Option<MaskedVal> {
        let Probe::Found(position) = self.probe(widx) else {
            return None;
        };
        let old = self.entries.swap_remove(position).binding();
        // Positions moved; removals are rare enough to start over.
        self.reindex();
        Some(old)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// The entries sorted by word index — the cold, ordered view.
    fn sorted(&self) -> Vec<MemEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|e| e.widx);
        sorted
    }
}

/// What an index slot holds for the entry at `position`.
#[inline]
fn position_plus_one(position: usize) -> u32 {
    u32::try_from(position + 1).expect("a delta holds fewer than 2^32 memory cells")
}

impl Clone for Delta {
    fn clone(&self) -> Delta {
        Delta {
            parts: self.parts.as_ref().filter(|_| !self.is_empty()).cloned(),
        }
    }

    /// Clones into an existing delta, **reusing its allocations** — the
    /// copy a recycled arena buffer wants (no allocation once the buffer
    /// has grown to steady-state size).
    fn clone_from(&mut self, source: &Delta) {
        match &mut self.parts {
            Some(mine) => {
                let theirs = source.parts();
                mine.bank.clone_from(&theirs.bank);
                // Same entries in the same order, so their index serves.
                mine.mem.entries.clone_from(&theirs.mem.entries);
                mine.mem.index.clone_from(&theirs.mem.index);
            }
            None => *self = source.clone(),
        }
    }
}

impl PartialEq for Delta {
    fn eq(&self, other: &Delta) -> bool {
        // Memory entries sit in first-touch order, which is history, not
        // content: equal sizes and every binding of one found in the other.
        let (mine, theirs) = (self.mem(), other.mem());
        self.banked().eq(other.banked())
            && mine.entries.len() == theirs.entries.len()
            && (mine.entries.iter()).all(|e| theirs.get(e.widx) == Some(e.binding()))
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

    /// Removes every binding, **retaining the allocations** so the
    /// buffer can be recycled without touching the heap.
    pub fn clear(&mut self) {
        if let Some(parts) = &mut self.parts {
            parts.bank.bound = 0;
            parts.mem.clear();
        }
    }

    #[inline(always)]
    fn parts(&self) -> &Parts {
        self.parts.as_deref().unwrap_or(&NO_PARTS)
    }

    #[inline(always)]
    fn parts_mut(&mut self) -> &mut Parts {
        self.parts.get_or_insert_with(new_parts)
    }

    #[inline(always)]
    fn bank(&self) -> &RegBank {
        &self.parts().bank
    }

    #[inline(always)]
    fn mem(&self) -> &MemCells {
        &self.parts().mem
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
        self.bank().get(r.index())
    }

    /// Binds register `r` fully to `value`: [`Delta::set`] on
    /// `Cell::Reg(r)`, without the cell or the previous binding.
    #[inline(always)]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.parts_mut()
            .bank
            .bind(r.index(), MaskedVal::full(value));
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
            Cell::Mem(widx) => self.parts_mut().mem.upsert(widx, merge),
            Cell::Reg(r) => self.parts_mut().bank.upsert(r.index(), merge),
            Cell::Pc => self.parts_mut().bank.upsert(PC_SLOT, merge),
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
        self.upsert(cell, |old| overwritten(old, new));
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
            Cell::Mem(widx) => self.mem().get(widx),
            Cell::Reg(r) => self.get_reg(r),
            Cell::Pc => self.bank().get(PC_SLOT),
        }
    }

    /// Whether `cell` has any bound byte.
    #[must_use]
    #[inline]
    pub fn contains(&self, cell: Cell) -> bool {
        self.get_masked(cell).is_some()
    }

    /// Removes a binding, returning it if present.
    pub fn remove(&mut self, cell: Cell) -> Option<u64> {
        let parts = self.parts.as_mut()?;
        let slot = match cell {
            Cell::Mem(widx) => return parts.mem.remove(widx).map(|old| old.value),
            Cell::Reg(r) => r.index(),
            Cell::Pc => PC_SLOT,
        };
        let old = parts.bank.get(slot)?;
        parts.bank.bound &= !(1 << slot);
        Some(old.value)
    }

    /// Number of bound cells.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.bank().bound.count_ones() as usize + self.mem().entries.len()
    }

    /// Whether no cells are bound.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bank().bound == 0 && self.mem().entries.is_empty()
    }

    /// The bound registers in index order, then `Pc` if bound.
    pub(crate) fn banked(&self) -> impl Iterator<Item = (Cell, MaskedVal)> + '_ {
        let bank = self.bank();
        Bits(bank.bound).map(move |slot| (bank_cell(slot), bank.entry(slot)))
    }

    /// The bound memory cells in storage (first-touch) order. With
    /// [`Delta::banked`], every binding once — for the cell-wise
    /// operators, whose result does not depend on the order. They walk
    /// the two parts in two loops, not one chained: here every cell is a
    /// `Cell::Mem`, and the loop body compiles to the memory case alone.
    pub(crate) fn mem_unordered(&self) -> impl Iterator<Item = (Cell, MaskedVal)> + '_ {
        self.mem().entries.iter().map(MemEntry::cell)
    }

    /// Iterates over fully- and partially-bound cells as
    /// `(cell, masked value)` in cell order. Sorts a copy of the memory
    /// cells: for reports and tests, not for per-task work.
    pub fn iter_masked(&self) -> impl Iterator<Item = (Cell, MaskedVal)> + '_ {
        let sorted = self.mem().sorted();
        self.banked().chain(sorted.into_iter().map(|e| e.cell()))
    }

    /// Iterates over `(cell, value)` bindings in cell order, at the cost
    /// of [`Delta::iter_masked`]. Partial bindings yield their value with
    /// unbound bytes as zero.
    pub fn iter(&self) -> impl Iterator<Item = (Cell, u64)> + '_ {
        self.iter_masked().map(|(c, m)| (c, m.value))
    }

    /// Number of bound *memory* cells (useful for bandwidth accounting).
    #[must_use]
    #[inline]
    pub fn mem_cells(&self) -> usize {
        self.mem().entries.len()
    }

    /// Number of bound *register* cells.
    #[must_use]
    #[inline]
    pub fn reg_cells(&self) -> usize {
        (self.bank().bound & !(1 << PC_SLOT)).count_ones() as usize
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

    /// In-place superimposition `self ← other`: one probe of `self` per
    /// cell of `other`.
    pub fn superimpose_in_place(&mut self, other: &Delta) {
        if other.is_empty() {
            return;
        }
        // Part by part, slot by slot: no cell is built only to be matched.
        let (mine, theirs) = (self.parts_mut(), other.parts());
        for slot in Bits(theirs.bank.bound) {
            let new = theirs.bank.entry(slot);
            (mine.bank).upsert(slot, |old| overwritten(old, new));
        }
        for e in &theirs.mem.entries {
            let new = e.binding();
            (mine.mem).upsert(e.widx, |old| overwritten(old, new));
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
        let bound_alike = |(c, m): (Cell, MaskedVal)| match other.get_masked(c) {
            Some(o) => (o.mask & m.mask) == m.mask && (o.value & expand_mask(m.mask)) == m.value,
            None => false,
        };
        self.banked().all(bound_alike) && self.mem_unordered().all(bound_alike)
    }

    /// Consistency `self ⊑ S` against a *full* machine state: every bound
    /// byte of `self` equals the corresponding byte `S` holds.
    ///
    /// Because a full state is total (unwritten memory reads as zero),
    /// every cell is considered present in it. This is exactly the check
    /// the verify unit performs on a task's recorded live-ins.
    #[must_use]
    pub fn consistent_with_state(&self, state: &MachineState) -> bool {
        self.banked().all(|cell| mismatch(cell, state).is_none())
            && (self.mem_unordered()).all(|cell| mismatch(cell, state).is_none())
    }

    /// The cells whose bound bytes disagree with `state`, in cell order —
    /// the diagnostic counterpart of [`Delta::consistent_with_state`].
    /// Reports `(cell, bound value, architected value)` with both masked
    /// to the bound bytes.
    #[must_use]
    pub fn mismatches_against(&self, state: &MachineState) -> Vec<(Cell, u64, u64)> {
        let mut all: Vec<_> = (self.banked().chain(self.mem_unordered()))
            .filter_map(|cell| mismatch(cell, state))
            .collect();
        all.sort_unstable_by_key(|&(c, _, _)| c);
        all
    }

    /// The first bound cell, in cell order, disagreeing with `state`, or
    /// `None` if the delta is consistent. Unlike
    /// [`Delta::mismatches_against`] this allocates nothing — it is the
    /// right shape for verify-path squash diagnostics, where only one
    /// offending cell needs naming. A banked mismatch ends the search;
    /// the memory cells are all compared, keeping the lowest one that
    /// disagrees, which is no more than a consistent delta costs anyway.
    #[must_use]
    pub fn first_mismatch_against(&self, state: &MachineState) -> Option<(Cell, u64, u64)> {
        self.banked()
            .find_map(|cell| mismatch(cell, state))
            .or_else(|| {
                (self.mem_unordered())
                    .filter_map(|cell| mismatch(cell, state))
                    .min_by_key(|&(c, _, _)| c)
            })
    }
}

/// The newest-wins merge: `new` over whatever was bound before.
#[inline]
fn overwritten(old: Option<MaskedVal>, new: MaskedVal) -> MaskedVal {
    old.map_or(new, |old| old.overwrite_with(new))
}

/// `(cell, bound value, architected value)` if the binding's bytes
/// disagree with `state`.
#[inline]
fn mismatch((c, m): (Cell, MaskedVal), state: &MachineState) -> Option<(Cell, u64, u64)> {
    let actual = state.read_cell(c) & expand_mask(m.mask);
    (actual != m.value).then_some((c, m.value, actual))
}

impl FromIterator<(Cell, u64)> for Delta {
    /// Map-insert semantics: the latest binding of a repeated cell wins.
    fn from_iter<I: IntoIterator<Item = (Cell, u64)>>(iter: I) -> Delta {
        let mut delta = Delta::new();
        delta.extend(iter);
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

    // ---- the memory-cell store -------------------------------------------

    use mssp_testkit::Rng;
    use std::collections::BTreeMap;

    /// `n` distinct word indices spread over the address space, shuffled.
    fn shuffled_words(rng: &mut Rng, n: u64) -> Vec<u64> {
        let mut words: Vec<u64> = (0..n).map(|i| (i * i) << (i % 40)).collect();
        words.sort_unstable();
        words.dedup();
        for i in (1..words.len()).rev() {
            words.swap(i, rng.gen_index(0, i + 1));
        }
        words
    }

    /// Everything a delta of memory cells shows agrees with `model`.
    fn assert_mem_matches(delta: &Delta, model: &BTreeMap<u64, MaskedVal>, absent: &[u64]) {
        for (&w, &m) in model {
            assert_eq!(delta.get_masked(Cell::Mem(w)), Some(m), "word {w:#x}");
            assert!(delta.contains(Cell::Mem(w)));
        }
        for &w in absent {
            assert_eq!(delta.get_masked(Cell::Mem(w)), None, "word {w:#x}");
        }
        assert_eq!(delta.mem_cells(), model.len());
        assert_eq!(delta.len(), model.len());
        assert!(!delta.contains(Cell::Pc));
        let want: Vec<(Cell, MaskedVal)> = model.iter().map(|(&w, &m)| (Cell::Mem(w), m)).collect();
        assert_eq!(delta.iter_masked().collect::<Vec<_>>(), want);
        // The index is either absent or covers every entry, half empty.
        let mem = delta.mem();
        if mem.index.is_empty() {
            assert!(mem.entries.len() <= SCAN_MAX);
        } else {
            assert!(mem.index.len().is_power_of_two());
            assert!(mem.entries.len() * 2 <= mem.index.len());
            let used = mem.index.iter().filter(|&&held| held != 0).count();
            assert_eq!(used, mem.entries.len());
        }
    }

    #[test]
    fn binding_order_is_history_not_content() {
        // Ascending, descending and shuffled, across the scan threshold
        // and three index growths (9, 17, 33 and 65 entries).
        let mut rng = Rng::new(0xDE17_A002);
        let shuffled = shuffled_words(&mut rng, 100);
        let mut ascending = shuffled.clone();
        ascending.sort_unstable();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        assert!(ascending.len() > 65);

        let mut deltas = [Delta::new(), Delta::new(), Delta::new()];
        let mut models = [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()];
        for step in 0..ascending.len() {
            for (order, (delta, model)) in [&ascending, &descending, &shuffled]
                .into_iter()
                .zip(deltas.iter_mut().zip(models.iter_mut()))
            {
                let w = order[step];
                match step % 4 {
                    0 => assert_eq!(delta.set(Cell::Mem(w), w ^ 1), None),
                    1 => delta.set_bytes(Cell::Mem(w), w ^ 1, 0xFF),
                    2 => delta.record_bytes(Cell::Mem(w), w ^ 1, 0xFF),
                    _ => assert_eq!(delta.read_or_record(Cell::Mem(w), 0xFF, |_| w ^ 1), w ^ 1),
                }
                model.insert(w, MaskedVal::full(w ^ 1));
                assert_mem_matches(delta, model, &order[step + 1..]);
            }
        }
        assert_eq!(models[0], models[1]);
        assert_eq!(deltas[0], deltas[1]);
        assert_eq!(deltas[1], deltas[2]);
        assert_eq!(deltas[2], deltas[0]);
        assert_eq!(deltas[0].to_string(), deltas[2].to_string());
        // One binding apart is not equal, either way round.
        let mut other = deltas[2].clone();
        other.set_bytes(Cell::Mem(shuffled[0]), 0, 0x01);
        assert_ne!(deltas[0], other);
        assert_ne!(other, deltas[0]);
        other.remove(Cell::Mem(shuffled[0]));
        other.set(Cell::Mem(u64::MAX), 0);
        assert_ne!(deltas[0], other);
    }

    #[test]
    fn a_cleared_index_resurrects_nothing() {
        let mut rng = Rng::new(0xDE17_A003);
        let words = shuffled_words(&mut rng, 40);
        let mut delta = Delta::new();
        for &w in &words {
            delta.set(Cell::Mem(w), 7);
        }
        assert!(!delta.mem().index.is_empty());
        let (entries, slots) = (delta.mem().entries.capacity(), delta.mem().index.capacity());
        delta.clear();
        assert_mem_matches(&delta, &BTreeMap::new(), &words);
        assert_eq!(delta, Delta::new());

        // A short life in the recycled buffer scans, a longer one
        // re-indexes: neither finds a word of the first life.
        let mut model = BTreeMap::new();
        for (i, &w) in words.iter().rev().take(20).enumerate() {
            delta.set_bytes(Cell::Mem(w), 0xAB, 0x01);
            model.insert(w, MaskedVal::partial(0xAB, 0x01));
            assert_mem_matches(&delta, &model, &words[..20]);
            assert_eq!(delta.mem().index.is_empty(), i < SCAN_MAX);
        }
        assert_eq!(delta.mem().entries.capacity(), entries);
        assert_eq!(delta.mem().index.capacity(), slots);
    }

    #[test]
    fn words_that_collide_in_the_index_are_told_apart() {
        // Three words with one home slot in the smallest index.
        let mut delta = Delta::new();
        for w in 0..=SCAN_MAX as u64 {
            delta.set(Cell::Mem(w), w);
        }
        let home = delta.mem().home(0);
        let colliding: Vec<u64> = (1 << 20..)
            .filter(|&w| delta.mem().home(w) == home)
            .take(2)
            .collect();
        let mut model: BTreeMap<u64, MaskedVal> = (0..=SCAN_MAX as u64)
            .map(|w| (w, MaskedVal::full(w)))
            .collect();
        assert_mem_matches(&delta, &model, &colliding);
        for &w in &colliding {
            delta.set(Cell::Mem(w), w);
            model.insert(w, MaskedVal::full(w));
        }
        assert_eq!(
            delta.mem().index.len(),
            32,
            "the collision was found for this size"
        );
        assert_mem_matches(&delta, &model, &[]);
        // Removing the first of the chain leaves the others reachable.
        assert_eq!(delta.remove(Cell::Mem(0)), Some(0));
        model.remove(&0);
        assert_mem_matches(&delta, &model, &[0]);
        assert_eq!(delta.remove(Cell::Mem(0)), None);
    }

    #[test]
    fn removal_crosses_the_scan_threshold_both_ways() {
        let mut rng = Rng::new(0xDE17_A004);
        let words = shuffled_words(&mut rng, 24);
        let mut delta = Delta::new();
        let mut model = BTreeMap::new();
        for &w in &words {
            delta.set(Cell::Mem(w), !w);
            model.insert(w, MaskedVal::full(!w));
        }
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(delta.remove(Cell::Mem(w)), Some(!w));
            model.remove(&w);
            assert_mem_matches(&delta, &model, &words[..=i]);
        }
        assert!(delta.is_empty());
        for &w in &words {
            delta.set(Cell::Mem(w), w);
            model.insert(w, MaskedVal::full(w));
        }
        assert_mem_matches(&delta, &model, &[]);
    }

    #[test]
    fn clones_carry_the_index_into_larger_and_smaller_buffers() {
        let mut rng = Rng::new(0xDE17_A005);
        let words = shuffled_words(&mut rng, 90);
        let build = |words: &[u64]| -> (Delta, BTreeMap<u64, MaskedVal>) {
            let mut delta = Delta::new();
            delta.set(Cell::Pc, 0x40);
            for &w in words {
                delta.set(Cell::Mem(w), w);
            }
            delta.remove(Cell::Pc);
            (
                delta,
                words.iter().map(|&w| (w, MaskedVal::full(w))).collect(),
            )
        };
        let (small, small_model) = build(&words[..5]);
        let (medium, medium_model) = build(&words[20..50]);
        let (large, large_model) = build(&words);

        assert_mem_matches(&medium.clone(), &medium_model, &words[..20]);
        // Into a larger recycled buffer, then a smaller one, then an
        // unindexed one and back.
        let mut buffer = large.clone();
        buffer.clear();
        for (source, model) in [
            (&medium, &medium_model),
            (&large, &large_model),
            (&small, &small_model),
            (&medium, &medium_model),
        ] {
            buffer.clone_from(source);
            assert_eq!(&buffer, source);
            let absent: Vec<u64> = (words.iter().copied())
                .filter(|w| !model.contains_key(w))
                .collect();
            assert_mem_matches(&buffer, model, &absent);
            // The copy is live, not a view of the source's index.
            buffer.set(Cell::Mem(u64::MAX), 1);
            assert_eq!(buffer.get(Cell::Mem(u64::MAX)), Some(1));
            assert_eq!(source.get(Cell::Mem(u64::MAX)), None);
        }
    }

    #[test]
    fn mismatch_reports_are_in_cell_order_whatever_the_binding_order() {
        let mut rng = Rng::new(0xDE17_A006);
        let words = shuffled_words(&mut rng, 60);
        let mut state = MachineState::new();
        let mut probe = Delta::new();
        // Every third word disagrees; so do `Pc` and one register.
        for (i, &w) in words.iter().enumerate() {
            state.store_word(w, w);
            probe.set(Cell::Mem(w), if i % 3 == 0 { !w } else { w });
        }
        let all = probe.mismatches_against(&state);
        assert_eq!(all.len(), 20);
        assert!(all.windows(2).all(|pair| pair[0].0 < pair[1].0));
        let lowest = words.iter().step_by(3).min().unwrap();
        assert_eq!(all[0], (Cell::Mem(*lowest), !lowest, *lowest));
        assert_eq!(probe.first_mismatch_against(&state), Some(all[0]));
        assert!(!probe.consistent_with_state(&state));

        probe.set(Cell::Pc, 4);
        assert_eq!(probe.first_mismatch_against(&state), Some((Cell::Pc, 4, 0)));
        probe.set(Cell::Reg(Reg::T0), 9);
        let first = Some((Cell::Reg(Reg::T0), 9, 0));
        assert_eq!(probe.first_mismatch_against(&state), first);
        assert_eq!(probe.mismatches_against(&state).first().copied(), first);
        assert_eq!(probe.mismatches_against(&state).len(), 22);
    }

    #[test]
    fn folding_thousands_of_shuffled_cells_is_the_models_superimposition() {
        let mut rng = Rng::new(0xDE17_A007);
        // Half of the incoming words are already bound, partially.
        let base: Vec<u64> = (0..4096u64).map(|i| i * 3).collect();
        let mut incoming: Vec<u64> = (0..4096u64).map(|i| i * 6 + (i % 2)).collect();
        for i in (1..incoming.len()).rev() {
            incoming.swap(i, rng.gen_index(0, i + 1));
        }
        let mut folded = Delta::new();
        let mut model = BTreeMap::new();
        for &w in &base {
            folded.set_bytes(Cell::Mem(w), u64::MAX, 0x0F);
            model.insert(w, MaskedVal::partial(u64::MAX, 0x0F));
        }
        let mut other = Delta::new();
        for &w in &incoming {
            let (value, mask) = (rng.next_u64(), rng.next_u64() as u8 | 0x80);
            other.set_bytes(Cell::Mem(w), value, mask);
            let new = MaskedVal::partial(value, mask);
            let merged = model.get(&w).map_or(new, |old| old.overwrite_with(new));
            model.insert(w, merged);
        }
        folded.superimpose_in_place(&other);
        assert!(model.len() > 4096 && model.len() < 8192);
        assert_mem_matches(&folded, &model, &[1, 4, u64::MAX]);
        let collected: Delta = model
            .iter()
            .map(|(&w, m)| (Cell::Mem(w), m.value))
            .collect();
        assert_eq!(collected.mem_cells(), model.len());
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
