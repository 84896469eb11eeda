//! Tasks: the unit of speculative work, with live-in/live-out capture.
//!
//! A task executes a segment of the **original** program on a slave,
//! reading through a layered view of machine state:
//!
//! 1. its own writes (the live-out set under construction),
//! 2. previously recorded live-ins (so re-reads are repeatable even while
//!    older tasks commit underneath),
//! 3. the master's checkpoint overlay (predicted values for cells the
//!    master believes it modified since the last committed point),
//! 4. optionally a *committed view* — one folded [`Delta`] of writes
//!    committed after the base snapshot was taken (the threaded
//!    executor ships this instead of a chain of per-commit deltas), and
//! 5. the architected state.
//!
//! Layers 1 to 4 are [`Delta`]s: a register operand costs an index and a
//! bit test in each layer it passes, a memory operand one probe — a
//! short scan or one hashed slot, see `Delta`'s representation — and an
//! empty layer nothing. A register the task already wrote or read —
//! nearly every operand — is answered by layer 1 or 2 alone, through
//! [`Delta::get_reg`] inlined into `exec::step` (no `Cell`, no call); a
//! register write is [`Delta::set_reg`]. Only a register's first read in
//! a task, and every memory operand, takes the general path, where the
//! live-in set is probed once per operand, hit or miss
//! ([`Delta::read_or_record`]), and a word's first touch appends to it.
//!
//! Every read satisfied below layer 1 is recorded as a live-in `(cell,
//! value)`. At commit time, the verify unit re-checks each recorded value
//! against architected state — the memoization test of the paper — which
//! makes the task's execution *safe* in the formal sense: consistency +
//! completeness ⇒ committing it advances architected state exactly as the
//! sequential machine would (Theorem 2).

use std::collections::BTreeSet;
use std::sync::Arc;

use mssp_isa::{Program, Reg, INSTR_BYTES};
use mssp_machine::{expand_mask, step, Cell, Delta, MachineState, StepInfo, Storage};

/// Unique task identity, increasing in spawn (= program) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// How a finished task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEnd {
    /// Reached a task-boundary PC; carries the end PC (the expected start
    /// of the next task).
    Boundary(u64),
    /// Executed `halt`; carries the halt PC.
    Halted(u64),
    /// Exceeded the task instruction cap without reaching a boundary
    /// (typically a mis-steered task); always squashes.
    Overrun,
    /// Faulted (e.g. jumped outside the text segment after consuming a
    /// garbage prediction); always squashes.
    Fault,
}

/// Execution status of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Still executing on its slave.
    Running,
    /// Finished; result available at `done_at` (simulated time).
    Done {
        /// How it ended.
        end: TaskEnd,
        /// Simulated cycle at which the result reached the verify unit.
        done_at: u64,
    },
}

/// A speculative task.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task identity (spawn order).
    pub id: TaskId,
    /// Original-program PC the task starts at.
    pub start_pc: u64,
    /// Current PC while running.
    pub pc: u64,
    /// Slave core executing this task.
    pub slave: usize,
    /// Master-predicted overlay, newest segment first.
    pub overlay: Vec<Arc<Delta>>,
    /// Cells whose overlay values were injected by the live-in value
    /// predictor rather than produced by the master (metrics only: the
    /// verify unit treats them like any other overlay-sourced live-in).
    pub predicted: Vec<Cell>,
    /// Recorded live-ins.
    pub live_ins: Delta,
    /// Accumulated writes (live-outs).
    pub writes: Delta,
    /// Instructions executed so far.
    pub executed: u64,
    /// Boundary crossings seen so far (a task ends at the Nth).
    pub crossings: u64,
    /// Execution status.
    pub status: TaskStatus,
}

impl Task {
    /// Creates a freshly spawned task.
    #[must_use]
    pub fn new(id: TaskId, start_pc: u64, slave: usize, overlay: Vec<Arc<Delta>>) -> Task {
        Task::with_buffers(id, start_pc, slave, overlay, Delta::new(), Delta::new())
    }

    /// Creates a freshly spawned task reusing pooled live-in/write
    /// buffers (both executors take them from a
    /// [`mssp_machine::DeltaArena`] and return them at commit or squash).
    /// Both buffers must be empty; their backing capacity is what gets
    /// recycled.
    #[must_use]
    pub(crate) fn with_buffers(
        id: TaskId,
        start_pc: u64,
        slave: usize,
        overlay: Vec<Arc<Delta>>,
        live_ins: Delta,
        writes: Delta,
    ) -> Task {
        debug_assert!(live_ins.is_empty() && writes.is_empty());
        Task {
            id,
            start_pc,
            pc: start_pc,
            slave,
            overlay,
            predicted: Vec::new(),
            live_ins,
            writes,
            executed: 0,
            crossings: 0,
            status: TaskStatus::Running,
        }
    }

    /// Runs this task to its natural end against an **immutable snapshot**
    /// of architected state — the checkpoint the coordinator published
    /// when the task was spawned. This is the threaded executor's hot
    /// loop: it touches no shared state at all (the snapshot is a plain
    /// `&MachineState`, typically borrowed out of an `Arc`), so workers
    /// execute entire segments with zero lock traffic.
    ///
    /// `abandon` is polled at the points where holding on to doomed work
    /// costs the most: once on entry (immediately after the snapshot was
    /// captured — a squash may already have invalidated this epoch), at
    /// the boundary crossing that ends the task, and every 64
    /// instructions. Returning `true` ends the task as
    /// [`TaskEnd::Overrun`], which always squashes; a stale task's result
    /// is discarded by epoch anyway, so no dedicated "abandoned" variant
    /// is needed.
    pub fn run_segment(
        &mut self,
        program: &Program,
        snapshot: &MachineState,
        rules: &SegmentRules<'_>,
        abandon: impl FnMut() -> bool,
    ) -> TaskEnd {
        self.run_segment_with_view(program, snapshot, None, rules, abandon)
    }

    /// [`Task::run_segment`] with an optional *committed view*: one
    /// folded delta of everything committed after `snapshot` was taken,
    /// layered between the prediction overlay and the snapshot. Reads
    /// satisfied from it are recorded as live-ins exactly like snapshot
    /// reads, so verification semantics are unchanged — the view merely
    /// keeps the task's picture of architected state fresh without
    /// materializing a new snapshot.
    pub(crate) fn run_segment_with_view(
        &mut self,
        program: &Program,
        snapshot: &MachineState,
        committed: Option<&Delta>,
        rules: &SegmentRules<'_>,
        mut abandon: impl FnMut() -> bool,
    ) -> TaskEnd {
        if abandon() {
            return TaskEnd::Overrun;
        }
        loop {
            let pc = self.pc;
            let result = {
                let mut storage = self.storage(snapshot, committed, false);
                step(&mut storage, program, pc)
            };
            let Ok(info) = result else {
                return TaskEnd::Fault;
            };
            match rules.retire(&info, &mut self.pc, &mut self.executed, &mut self.crossings) {
                Some(TaskEnd::Boundary(_)) if abandon() => return TaskEnd::Overrun,
                Some(end) => return end,
                None if self.executed.is_multiple_of(64) && abandon() => {
                    return TaskEnd::Overrun;
                }
                None => {}
            }
        }
    }

    /// A [`Storage`] view for executing one instruction of this task
    /// against the architected state `arch`, with an optional committed
    /// view layered over it. `word_granular` degrades live-in tracking to
    /// whole words (the ablation of byte masking: sub-word stores
    /// read-modify-write their containing word and record it entirely as
    /// a live-in, recreating false sharing between adjacent tasks).
    pub(crate) fn storage<'a>(
        &'a mut self,
        arch: &'a MachineState,
        committed: Option<&'a Delta>,
        word_granular: bool,
    ) -> TaskStorage<'a> {
        self.storage_and_counters(arch, committed, word_granular).0
    }

    /// [`Task::storage`] together with the two counters the view does not
    /// borrow, `executed` and `crossings`, so a caller can run many
    /// instructions under one view.
    pub(crate) fn storage_and_counters<'a>(
        &'a mut self,
        arch: &'a MachineState,
        committed: Option<&'a Delta>,
        word_granular: bool,
    ) -> (TaskStorage<'a>, &'a mut u64, &'a mut u64) {
        let storage = TaskStorage {
            writes: &mut self.writes,
            live_ins: &mut self.live_ins,
            overlay: &self.overlay,
            committed,
            arch,
            word_granular,
        };
        (storage, &mut self.executed, &mut self.crossings)
    }
}

/// When a task segment ends: the boundary-crossing quota and the
/// instruction cap, shared by speculative execution and recovery.
#[derive(Debug, Clone, Copy)]
pub struct SegmentRules<'a> {
    /// Task-boundary PCs of the distilled program.
    pub boundaries: &'a BoundarySet,
    /// A task ends at its Nth boundary crossing.
    pub crossings_per_task: u64,
    /// Instruction cap; exceeding it is an overrun (always squashes).
    pub max_instrs: u64,
}

impl SegmentRules<'_> {
    /// Counts `next_pc` into `crossings` if it is a boundary; true when
    /// that crossing is the segment's last (the quota is reached).
    #[inline]
    pub(crate) fn crossed(&self, next_pc: u64, crossings: &mut u64) -> bool {
        if !self.boundaries.contains(next_pc) {
            return false;
        }
        *crossings += 1;
        *crossings >= self.crossings_per_task
    }

    /// Retires `info`, a speculative task's instruction at `*pc`: counts
    /// it and moves `pc` past it. Returns the end it brings the task to,
    /// if any.
    #[inline(always)]
    pub(crate) fn retire(
        &self,
        info: &StepInfo,
        pc: &mut u64,
        executed: &mut u64,
        crossings: &mut u64,
    ) -> Option<TaskEnd> {
        if info.halted {
            return Some(TaskEnd::Halted(*pc));
        }
        *executed += 1;
        *pc = info.next_pc;
        if self.crossed(*pc, crossings) {
            return Some(TaskEnd::Boundary(*pc));
        }
        (*executed >= self.max_instrs).then_some(TaskEnd::Overrun)
    }
}

/// The layered, live-in-recording storage a slave executes against.
///
/// See the crate documentation for the read path. Writes go only
/// to the task's private write buffer — slaves can never touch architected
/// state, which is the structural reason the fast path cannot compromise
/// correctness.
#[derive(Debug)]
pub struct TaskStorage<'a> {
    writes: &'a mut Delta,
    live_ins: &'a mut Delta,
    overlay: &'a [Arc<Delta>],
    committed: Option<&'a Delta>,
    arch: &'a MachineState,
    word_granular: bool,
}

impl TaskStorage<'_> {
    /// Gathers the requested bytes of `cell`, layer by layer, recording
    /// as live-ins exactly the bytes that had to come from below the
    /// task's own writes.
    fn read_cell_masked(&mut self, cell: Cell, mask: u8) -> u64 {
        let mut out = 0u64;
        let mut need = mask;
        if let Some(w) = self.writes.get_masked(cell) {
            let take = need & w.mask;
            out |= w.value & expand_mask(take);
            need &= !take;
        }
        let (overlay, committed, arch) = (self.overlay, self.committed, self.arch);
        out | self.live_ins.read_or_record(cell, need, |mut need| {
            // Only the bytes no earlier read recorded: newest prediction
            // first, then the committed view, then architected state.
            let mut below = 0u64;
            let predictions = overlay.iter().map(|seg| &**seg).chain(committed);
            for layer in predictions {
                if let Some(p) = layer.get_masked(cell) {
                    let take = need & p.mask;
                    below |= p.value & expand_mask(take);
                    need &= !take;
                    if need == 0 {
                        return below;
                    }
                }
            }
            below | (arch.read_cell(cell) & expand_mask(need))
        })
    }
}

impl Storage for TaskStorage<'_> {
    #[inline(always)]
    fn read_reg(&mut self, r: Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        // A register the task wrote, or read before, is fully bound in
        // every run the engine produces; only a hand-built overlay can
        // bind one partially, and that takes the byte-wise path. (Spelled
        // out rather than `or_else`: the closure form stays out of line.)
        if let Some(own) = self.writes.get_reg(r) {
            if own.is_full() {
                return own.value;
            }
        } else if let Some(seen) = self.live_ins.get_reg(r) {
            if seen.is_full() {
                return seen.value;
            }
        }
        self.read_cell_masked(Cell::Reg(r), 0xFF)
    }

    #[inline(always)]
    fn write_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.writes.set_reg(r, value);
        }
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.read_cell_masked(Cell::Mem(widx), 0xFF)
    }

    fn load_word_masked(&mut self, widx: u64, mask: u8) -> u64 {
        let mask = if self.word_granular { 0xFF } else { mask };
        self.read_cell_masked(Cell::Mem(widx), mask)
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.writes.set(Cell::Mem(widx), value);
    }

    fn store_word_masked(&mut self, widx: u64, value: u64, mask: u8) {
        if self.word_granular && mask != 0xFF {
            // Ablation mode: classic read-modify-write of the whole word,
            // recording a full-word live-in (false sharing included).
            let em = mssp_machine::expand_mask(mask);
            let old = self.read_cell_masked(Cell::Mem(widx), 0xFF);
            self.writes.set(Cell::Mem(widx), (old & !em) | (value & em));
        } else {
            // Byte-masked buffering: no read of the underlying word, hence
            // no false live-in on bytes this task never touches.
            self.writes.set_bytes(Cell::Mem(widx), value, mask);
        }
    }
}

/// Storage for a non-speculative recovery segment: reads see the task's
/// own writes over architected state directly (no prediction overlay, no
/// live-in recording — the values *are* correct by construction), writes
/// are buffered for one atomic commit at segment end.
#[derive(Debug)]
pub struct RecoveryStorage<'a> {
    /// The recovery segment's private write buffer.
    pub writes: &'a mut Delta,
    /// The architected state being read through.
    pub arch: &'a MachineState,
}

impl Storage for RecoveryStorage<'_> {
    #[inline(always)]
    fn read_reg(&mut self, r: Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        match self.writes.get_reg(r) {
            Some(m) if m.is_full() => m.value,
            _ => self.arch.reg(r),
        }
    }

    #[inline(always)]
    fn write_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.writes.set_reg(r, value);
        }
    }

    fn load_word(&mut self, widx: u64) -> u64 {
        self.writes
            .get(Cell::Mem(widx))
            .unwrap_or_else(|| self.arch.load_word(widx))
    }

    fn store_word(&mut self, widx: u64, value: u64) {
        self.writes.set(Cell::Mem(widx), value);
    }
}

/// Most instruction slots a [`BoundarySet`] bitmap may span (128 KiB of
/// bitmap, 4 MiB of program text).
const MAX_BITMAP_SLOTS: u64 = 1 << 20;

/// A static set of task-boundary PCs with the end-of-task test.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundarySet {
    pcs: BTreeSet<u64>,
    /// The membership test every executed instruction pays, as one bit
    /// per instruction slot from the lowest boundary to the highest.
    /// `None` when the set is not instruction-aligned or spans more than
    /// [`MAX_BITMAP_SLOTS`] — a boundary set is caller-supplied data —
    /// and membership falls back to `pcs`.
    bitmap: Option<SlotBitmap>,
}

/// Bit `i` of `words` set: `base + i * INSTR_BYTES` is in the set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotBitmap {
    base: u64,
    words: Vec<u64>,
}

impl SlotBitmap {
    fn new(pcs: &BTreeSet<u64>) -> Option<SlotBitmap> {
        let (&base, &last) = (pcs.first()?, pcs.last()?);
        let slots = (last - base) / INSTR_BYTES + 1;
        if slots > MAX_BITMAP_SLOTS
            || pcs
                .iter()
                .any(|pc| !(pc - base).is_multiple_of(INSTR_BYTES))
        {
            return None;
        }
        let mut words = vec![0u64; slots.div_ceil(64) as usize];
        for pc in pcs {
            let slot = (pc - base) / INSTR_BYTES;
            words[(slot / 64) as usize] |= 1 << (slot % 64);
        }
        Some(SlotBitmap { base, words })
    }

    #[inline]
    fn contains(&self, pc: u64) -> bool {
        // A PC below `base` wraps to an offset past the last slot.
        let offset = pc.wrapping_sub(self.base);
        let slot = offset / INSTR_BYTES;
        offset.is_multiple_of(INSTR_BYTES)
            && self
                .words
                .get((slot / 64) as usize)
                .is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }
}

impl BoundarySet {
    /// Creates a boundary set from original-program PCs.
    #[must_use]
    pub fn new(pcs: BTreeSet<u64>) -> BoundarySet {
        let bitmap = SlotBitmap::new(&pcs);
        BoundarySet { pcs, bitmap }
    }

    /// Whether `pc` is a task boundary.
    #[must_use]
    #[inline]
    pub fn contains(&self, pc: u64) -> bool {
        match &self.bitmap {
            Some(bitmap) => bitmap.contains(pc),
            None => self.pcs.contains(&pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(pairs: &[(Cell, u64)]) -> Arc<Delta> {
        Arc::new(pairs.iter().copied().collect())
    }

    #[test]
    fn reads_layer_in_priority_order() {
        let mut arch = MachineState::new();
        arch.store_word(1, 100);
        arch.store_word(2, 200);
        arch.store_word(3, 300);
        let overlay = vec![
            delta(&[(Cell::Mem(2), 222)]),                      // newest segment
            delta(&[(Cell::Mem(2), 211), (Cell::Mem(3), 333)]), // older
        ];
        let mut task = Task::new(TaskId(0), 0x100, 0, overlay);
        let mut st = task.storage(&arch, None, false);
        assert_eq!(st.load_word(1), 100); // from arch
        assert_eq!(st.load_word(2), 222); // newest overlay wins
        assert_eq!(st.load_word(3), 333); // older overlay
        st.store_word(1, 111);
        assert_eq!(st.load_word(1), 111); // own write wins
    }

    #[test]
    fn live_ins_record_first_observed_value() {
        let mut arch = MachineState::new();
        arch.store_word(5, 50);
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        {
            let mut st = task.storage(&arch, None, false);
            assert_eq!(st.load_word(5), 50);
        }
        // Architected state changes (an older task committed).
        arch.store_word(5, 51);
        {
            let mut st = task.storage(&arch, None, false);
            // The task re-reads its recorded live-in, not the new value:
            // its view stays internally consistent.
            assert_eq!(st.load_word(5), 50);
        }
        assert_eq!(task.live_ins.get(Cell::Mem(5)), Some(50));
        // ...and verification against the *current* state now fails.
        assert!(!task.live_ins.consistent_with_state(&arch));
    }

    #[test]
    fn committed_view_layers_between_overlay_and_arch() {
        let mut arch = MachineState::new();
        arch.store_word(1, 100);
        arch.store_word(2, 200);
        let overlay = vec![delta(&[(Cell::Mem(2), 222)])];
        let committed: Delta = [(Cell::Mem(1), 111), (Cell::Mem(2), 211)]
            .into_iter()
            .collect();
        let mut task = Task::new(TaskId(0), 0, 0, overlay);
        {
            let mut st = task.storage(&arch, Some(&committed), false);
            assert_eq!(st.load_word(2), 222); // prediction overlay wins
            assert_eq!(st.load_word(1), 111); // committed view over arch
            assert_eq!(st.load_word(3), 0); // falls through to arch
        }
        // View reads are live-ins: they face the memoization test like
        // any other read from below the task's own writes.
        assert_eq!(task.live_ins.get(Cell::Mem(1)), Some(111));
        assert_eq!(task.live_ins.get(Cell::Mem(2)), Some(222));
    }

    #[test]
    fn own_writes_are_not_live_ins() {
        let arch = MachineState::new();
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        {
            let mut st = task.storage(&arch, None, false);
            st.write_reg(Reg::A0, 9);
            assert_eq!(st.read_reg(Reg::A0), 9);
        }
        assert!(task.live_ins.is_empty());
        assert_eq!(task.writes.get(Cell::Reg(Reg::A0)), Some(9));
    }

    #[test]
    fn overlay_reads_are_recorded_as_live_ins() {
        let arch = MachineState::new();
        let overlay = vec![delta(&[(Cell::Reg(Reg::A1), 7)])];
        let mut task = Task::new(TaskId(0), 0, 0, overlay);
        {
            let mut st = task.storage(&arch, None, false);
            assert_eq!(st.read_reg(Reg::A1), 7);
        }
        // The predicted value is a live-in: it must match architected
        // state at commit or the task squashes.
        assert_eq!(task.live_ins.get(Cell::Reg(Reg::A1)), Some(7));
        assert!(!task.live_ins.consistent_with_state(&arch)); // arch has 0
    }

    #[test]
    fn zero_register_is_never_recorded() {
        let arch = MachineState::new();
        let mut task = Task::new(TaskId(0), 0, 0, Vec::new());
        {
            let mut st = task.storage(&arch, None, false);
            assert_eq!(st.read_reg(Reg::ZERO), 0);
            st.write_reg(Reg::ZERO, 5);
        }
        assert!(task.live_ins.is_empty());
        assert!(task.writes.is_empty());
    }

    #[test]
    fn recovery_storage_reads_through_and_buffers_writes() {
        let mut arch = MachineState::new();
        arch.set_reg(Reg::A0, 4);
        let mut writes = Delta::new();
        let mut st = RecoveryStorage {
            writes: &mut writes,
            arch: &arch,
        };
        assert_eq!(st.read_reg(Reg::A0), 4);
        st.write_reg(Reg::A0, 5);
        assert_eq!(st.read_reg(Reg::A0), 5);
        // Arch untouched until the atomic commit.
        assert_eq!(arch.reg(Reg::A0), 4);
        assert_eq!(writes.get(Cell::Reg(Reg::A0)), Some(5));
    }

    #[test]
    fn boundary_set_membership() {
        let b = BoundarySet::new(BTreeSet::from([0x100, 0x200]));
        assert!(b.contains(0x100));
        assert!(!b.contains(0x104));
        assert_eq!(b.pcs.len(), 2);
    }

    /// Every PC a test probes a boundary set with: its members, their
    /// neighbours (misaligned ones included) and the ends of the range.
    fn probes(pcs: &BTreeSet<u64>) -> Vec<u64> {
        let mut probes = vec![0, 1, 4, u64::MAX - 4, u64::MAX - 3, u64::MAX];
        for &pc in pcs {
            for d in [1, 2, 3, 4, 64 * 4, 1 << 40] {
                probes.extend([pc, pc.wrapping_sub(d), pc.wrapping_add(d)]);
            }
        }
        probes
    }

    #[test]
    fn boundary_set_answers_like_the_set_it_was_built_from() {
        let sets = [
            BTreeSet::new(),
            BTreeSet::from([0x1_0000]),
            BTreeSet::from([0x1_0000, 0x1_0004, 0x1_00fc, 0x1_0100, 0x1_0104, 0x1_2000]),
            // Misaligned against each other: no slot numbering fits.
            BTreeSet::from([0x1_0000, 0x1_0006]),
            BTreeSet::from([3, 7, 11]),
        ];
        for pcs in sets {
            let b = BoundarySet::new(pcs.clone());
            for pc in probes(&pcs) {
                assert_eq!(b.contains(pc), pcs.contains(&pc), "{pc:#x} in {pcs:x?}");
            }
        }
    }

    #[test]
    fn hostile_boundary_span_does_not_size_the_bitmap() {
        // `Distilled::from_parts` takes any set; one spanning the whole
        // address space must cost a set lookup, not an allocation.
        let hostile = [
            BTreeSet::from([0, u64::MAX]),
            BTreeSet::from([0, u64::MAX - 3]),
            BTreeSet::from([0x1_0000, 0x1_0000 + MAX_BITMAP_SLOTS * INSTR_BYTES]),
        ];
        for pcs in hostile {
            let b = BoundarySet::new(pcs.clone());
            assert_eq!(b.bitmap, None, "{pcs:x?}");
            for pc in probes(&pcs) {
                assert_eq!(b.contains(pc), pcs.contains(&pc), "{pc:#x} in {pcs:x?}");
            }
        }
        // The widest span that still gets one.
        let widest = BTreeSet::from([0x1_0000, 0x1_0000 + (MAX_BITMAP_SLOTS - 1) * INSTR_BYTES]);
        let b = BoundarySet::new(widest.clone());
        assert_eq!(b.bitmap.as_ref().map(|m| m.words.len()), Some(1 << 14));
        for pc in probes(&widest) {
            assert_eq!(b.contains(pc), widest.contains(&pc), "{pc:#x}");
        }
    }
}
