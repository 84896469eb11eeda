//! Dynamic execution profiles.
//!
//! The distiller is profile-guided, as in the paper: a training run of the
//! original program collects per-PC execution counts, branch outcome
//! counts, control-flow edge counts and memory footprints (the words any
//! load read and the words each store wrote). The profile also powers the
//! workload-characterization experiment (T1).
//!
//! # Representation
//!
//! A [`Profile`] keeps its counts in ordered maps keyed by PC (by
//! `(from, to)` for edges), so iteration, equality and every decision
//! derived from a profile are deterministic. [`Profile::observe`], the
//! per-step entry for callers with their own execution loop, updates the
//! maps directly.
//!
//! [`Profile::collect`] does not touch the maps per instruction, and most
//! instructions it does not count at all: it records only what a
//! fall-through does not imply and derives the rest by flow conservation
//! (Ball & Larus, "Optimally Profiling and Tracing Programs", TOPLAS
//! 1994). The training run counts into a dense tally with one slot per
//! instruction of the text segment, indexed by
//! `(pc - text_base) / INSTR_BYTES`, and touches a slot only when
//!
//! * the successor is not `pc + INSTR_BYTES` (a *transfer*): the slot
//!   keeps one transfer target with its count, and any further target (an
//!   indirect jump with several) spills into an edge map;
//! * a conditional branch is taken. A taken branch with offset 0 counts as
//!   taken, but its successor is `pc + INSTR_BYTES`, so it is no transfer;
//! * the instruction accesses memory (see below).
//!
//! After the run one forward pass over the text derives the rest. For the
//! instruction at slot `i`:
//!
//! * `arrivals(i)` = [`i` is the entry] + transfers into `i` +
//!   fall-throughs out of `i - 1`;
//! * `exec(i)` = `arrivals(i)` − [`i` is the PC the run stopped at]. That
//!   PC is the `halt` (which no profile counts), or, if the step budget
//!   cut the run short, the first PC that did not execute;
//! * fall-throughs out of `i` = `exec(i)` − transfers out of `i`;
//! * on a conditional branch, not-taken = `exec(i)` − taken.
//!
//! Debug builds assert that no derived count underflows; release builds
//! subtract unchecked. `collect` yields the profile `observe` builds.
//!
//! Memory footprints are sets of 8-byte word indices (`addr >> 3`) held as
//! 512-word bit pages: eight `u64`s per page, keyed by `word / 512`.
//! During `collect` each set (the loaded words, and each store's written
//! words) fills a one-page buffer. The buffer is ORed into a hash map of
//! pages, hashed with [`PageHasher`], only when an access lands on another
//! page, and once more when the run ends.
//! [`Profile::store_is_write_only`] is a page-wise AND of a store's
//! footprint with the loaded words.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

use mssp_isa::{Program, Reg, INSTR_BYTES};
use mssp_machine::{MemAccess, PageHasher, SeqError, SeqMachine, StepInfo};

/// Outcome counts for one conditional branch site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounts {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times it fell through.
    pub not_taken: u64,
}

impl BranchCounts {
    /// Total executions of the branch.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// The bias toward the dominant direction, in `[0.5, 1.0]`
    /// (`None` if never executed).
    #[must_use]
    pub fn bias(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some(self.taken.max(self.not_taken) as f64 / total as f64)
        }
    }

    /// Whether the dominant direction is "taken".
    #[must_use]
    pub fn mostly_taken(&self) -> bool {
        self.taken >= self.not_taken
    }
}

/// A dynamic profile of one training run.
///
/// Counts live in ordered maps keyed by PC; [`Profile::collect`] fills
/// them once after the run, deriving most counts by flow conservation
/// from the transfers, taken branches and memory accesses it recorded.
/// Memory footprints are sets of 512-word bit pages (see the module
/// documentation).
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::Profile;
///
/// let p = assemble(
///     "main: addi a0, zero, 10
///      loop: addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let profile = Profile::collect(&p, 1_000_000).unwrap();
/// assert_eq!(profile.dynamic_instructions(), 1 + 10 * 2);
/// let branch_pc = p.entry() + 8;
/// assert!(profile.branch(branch_pc).unwrap().bias().unwrap() >= 0.9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    exec: BTreeMap<u64, u64>,
    branches: BTreeMap<u64, BranchCounts>,
    edges: BTreeMap<(u64, u64), u64>,
    instructions: u64,
    loads: u64,
    stores: u64,
    branch_instrs: u64,
    /// Words ever read by a load.
    loaded_words: WordSet,
    /// Per-store-PC footprint of written words.
    store_words: BTreeMap<u64, WordSet>,
    /// Slice feedback: registers whose live-in values the master got
    /// wrong (observed in live-in mismatch squashes).
    hard_live_ins: BTreeSet<Reg>,
    /// Slice feedback: architected PCs where wrong-path squashes landed
    /// (the master's asserted control flow departed from reality here).
    wrong_path_pcs: BTreeSet<u64>,
}

/// Words per bit page of a [`WordSet`].
const PAGE_WORDS: u64 = 512;

/// A set of 8-byte word indices (`addr >> 3`) as 512-word bit pages keyed
/// by `word / PAGE_WORDS`. No page is ever all zeros, so the derived
/// equality is set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct WordSet(BTreeMap<u64, [u64; 8]>);

impl WordSet {
    fn insert(&mut self, word: u64) {
        let page = self.0.entry(word / PAGE_WORDS).or_insert([0; 8]);
        page[(word % PAGE_WORDS / 64) as usize] |= 1 << (word % 64);
    }

    fn insert_access(&mut self, mem: MemAccess) {
        access_words(mem, |word| self.insert(word));
    }

    fn is_disjoint(&self, other: &WordSet) -> bool {
        self.0.iter().all(|(key, bits)| {
            other
                .0
                .get(key)
                .is_none_or(|o| bits.iter().zip(o).all(|(a, b)| a & b == 0))
        })
    }
}

/// Calls `f` on the first word `mem` touches, and on the last if that is
/// another. An access at the top of the address space wraps to word 0, as
/// `Storage::load_bytes` does.
#[inline]
fn access_words(mem: MemAccess, mut f: impl FnMut(u64)) {
    let first = mem.addr >> 3;
    let last = mem.addr.wrapping_add(u64::from(mem.bytes) - 1) >> 3;
    f(first);
    if last != first {
        f(last);
    }
}

/// A [`WordSet`] being filled during [`Profile::collect`]: the bit page
/// the latest access landed on, buffered, in front of a hash map of the
/// pages flushed before it.
#[derive(Clone, Default)]
struct WordTally {
    /// The buffered page's key (`word / PAGE_WORDS`).
    open: u64,
    /// The buffered page's bits; all zeros while it holds no word.
    bits: [u64; 8],
    pages: HashMap<u64, [u64; 8], BuildHasherDefault<PageHasher>>,
}

impl WordTally {
    #[inline]
    fn insert(&mut self, word: u64) {
        let key = word / PAGE_WORDS;
        if key != self.open {
            self.flush();
            self.open = key;
        }
        self.bits[(word % PAGE_WORDS / 64) as usize] |= 1 << (word % 64);
    }

    #[inline]
    fn insert_access(&mut self, mem: MemAccess) {
        access_words(mem, |word| self.insert(word));
    }

    /// ORs the buffered page into the map and empties the buffer.
    fn flush(&mut self) {
        if self.bits != [0; 8] {
            let page = self.pages.entry(self.open).or_insert([0; 8]);
            for (w, b) in page.iter_mut().zip(&self.bits) {
                *w |= b;
            }
            self.bits = [0; 8];
        }
    }

    fn into_words(mut self) -> WordSet {
        self.flush();
        WordSet(self.pages.into_iter().collect())
    }
}

/// What [`Profile::collect`] records for one instruction: only what a
/// fall-through does not imply (see the module documentation).
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The first successor seen other than `pc + INSTR_BYTES`.
    other: u64,
    /// Executions followed by `other`.
    other_n: u64,
    /// Times the branch here was taken.
    taken: u64,
}

/// The dense tally [`Profile::collect`] counts into, one [`Slot`] and one
/// store footprint per instruction of the text segment.
struct Tally {
    text_base: u64,
    slots: Vec<Slot>,
    store_words: Vec<WordTally>,
    /// Transfers to successors beyond a slot's `other`.
    spill: BTreeMap<(u64, u64), u64>,
    loaded_words: WordTally,
    loads: u64,
    stores: u64,
}

/// `a - b` for a count flow conservation derives: checked in debug
/// builds, unchecked in release builds.
#[inline]
fn derive(a: u64, b: u64) -> u64 {
    debug_assert!(b <= a, "derived profile count underflows: {a} - {b}");
    a.wrapping_sub(b)
}

impl Tally {
    fn new(program: &Program) -> Tally {
        Tally {
            text_base: program.text_base(),
            slots: vec![Slot::default(); program.len()],
            store_words: vec![WordTally::default(); program.len()],
            spill: BTreeMap::new(),
            loaded_words: WordTally::default(),
            loads: 0,
            stores: 0,
        }
    }

    /// The slot of `pc`, which the machine fetched, so it indexes the text
    /// segment.
    #[inline]
    fn slot_of(&self, pc: u64) -> usize {
        ((pc - self.text_base) / INSTR_BYTES) as usize
    }

    // Without the hint it stays out of `run_observed`'s loop, and
    // `collect` on `gap_like` ran about 8 % slower (2-thread x86-64 host).
    #[inline]
    fn observe(&mut self, info: &StepInfo) {
        if info.next_pc != info.pc.wrapping_add(INSTR_BYTES) {
            // A `halt` is its own successor, and no profile counts it.
            if info.halted {
                return;
            }
            let i = self.slot_of(info.pc);
            let slot = &mut self.slots[i];
            if slot.other_n == 0 || slot.other == info.next_pc {
                slot.other = info.next_pc;
                slot.other_n += 1;
            } else {
                *self.spill.entry((info.pc, info.next_pc)).or_insert(0) += 1;
            }
        }
        if info.taken == Some(true) {
            let i = self.slot_of(info.pc);
            self.slots[i].taken += 1;
        }
        if let Some(mem) = info.mem {
            if mem.is_store {
                self.stores += 1;
                let i = self.slot_of(info.pc);
                self.store_words[i].insert_access(mem);
            } else {
                self.loads += 1;
                self.loaded_words.insert_access(mem);
            }
        }
    }

    /// Derives every count the run did not record (see the module
    /// documentation) and folds the tally into a [`Profile`]'s ordered
    /// maps. `stop_pc` is the PC the run stopped at. Slots run in PC
    /// order, so every map is built from sorted input.
    fn fold(self, program: &Program, stop_pc: u64) -> Profile {
        let pc_of = |i: usize| self.text_base + i as u64 * INSTR_BYTES;
        // Transfers into and out of each slot.
        let mut into = vec![0; self.slots.len()];
        let mut out: Vec<u64> = self.slots.iter().map(|s| s.other_n).collect();
        for s in self.slots.iter().filter(|s| s.other_n > 0) {
            if let Some(j) = program.index_of_pc(s.other) {
                into[j] += s.other_n;
            }
        }
        for (&(from, to), &n) in &self.spill {
            out[self.slot_of(from)] += n;
            if let Some(j) = program.index_of_pc(to) {
                into[j] += n;
            }
        }
        let entry = program.index_of_pc(program.entry());
        let stop = program.index_of_pc(stop_pc);

        let mut profile = Profile {
            loaded_words: self.loaded_words.into_words(),
            loads: self.loads,
            stores: self.stores,
            ..Profile::default()
        };
        let mut exec = Vec::new();
        let mut edges = Vec::new();
        let mut branches = Vec::new();
        let mut fall_in = 0;
        for (i, (s, instr)) in self.slots.iter().zip(program.text()).enumerate() {
            let arrivals = u64::from(entry == Some(i)) + into[i] + fall_in;
            let n = derive(arrivals, u64::from(stop == Some(i)));
            let fall = derive(n, out[i]);
            fall_in = fall;
            if n == 0 {
                continue;
            }
            let pc = pc_of(i);
            profile.instructions += n;
            exec.push((pc, n));
            if fall > 0 {
                edges.push(((pc, pc.wrapping_add(INSTR_BYTES)), fall));
            }
            if s.other_n > 0 {
                edges.push(((pc, s.other), s.other_n));
            }
            if instr.is_branch() {
                profile.branch_instrs += n;
                let not_taken = derive(n, s.taken);
                branches.push((
                    pc,
                    BranchCounts {
                        taken: s.taken,
                        not_taken,
                    },
                ));
            }
        }
        edges.extend(self.spill);
        profile.exec = exec.into_iter().collect();
        profile.edges = edges.into_iter().collect();
        profile.branches = branches.into_iter().collect();
        profile.store_words = self
            .store_words
            .into_iter()
            .enumerate()
            .map(|(i, words)| (pc_of(i), words.into_words()))
            .filter(|(_, words)| !words.0.is_empty())
            .collect();
        profile
    }
}

impl Profile {
    /// Step budget meaning "run the training program to completion":
    /// [`Profile::collect`] with this bound never cuts a run short.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_isa::asm::assemble;
    /// use mssp_analysis::Profile;
    ///
    /// let p = assemble("main: halt").unwrap();
    /// let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    /// assert_eq!(profile.dynamic_instructions(), 0);
    /// ```
    pub const UNBOUNDED: u64 = u64::MAX;

    /// An empty profile (used when distilling without training data).
    #[must_use]
    pub fn empty() -> Profile {
        Profile::default()
    }

    /// Collects a profile by running `program` to completion (or to
    /// `max_steps`). The run records only transfers, taken branches and
    /// memory accesses, and the other counts are derived once it ends; the
    /// result equals a [`Profile::default`] fed every step through
    /// [`Profile::observe`].
    ///
    /// # Errors
    ///
    /// Propagates faults from the sequential machine.
    pub fn collect(program: &Program, max_steps: u64) -> Result<Profile, SeqError> {
        let mut tally = Tally::new(program);
        let mut machine = SeqMachine::boot(program);
        let run = machine.run_observed(max_steps, |info| tally.observe(info))?;
        let profile = tally.fold(program, machine.state().pc());
        debug_assert_eq!(profile.instructions, run.instructions);
        Ok(profile)
    }

    /// Records one executed instruction. Exposed so callers embedding their
    /// own execution loops (e.g. the MSSP engine's recovery path) can feed
    /// profiles too.
    pub fn observe(&mut self, info: &StepInfo) {
        if info.halted {
            return;
        }
        self.instructions += 1;
        *self.exec.entry(info.pc).or_insert(0) += 1;
        *self.edges.entry((info.pc, info.next_pc)).or_insert(0) += 1;
        if let Some(taken) = info.taken {
            self.branch_instrs += 1;
            let counts = self.branches.entry(info.pc).or_default();
            if taken {
                counts.taken += 1;
            } else {
                counts.not_taken += 1;
            }
        }
        if let Some(mem) = info.mem {
            if mem.is_store {
                self.stores += 1;
                self.store_words
                    .entry(info.pc)
                    .or_default()
                    .insert_access(mem);
            } else {
                self.loads += 1;
                self.loaded_words.insert_access(mem);
            }
        }
    }

    /// Total dynamic instructions in the training run.
    #[must_use]
    pub fn dynamic_instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic load count.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Dynamic store count.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Dynamic conditional-branch count.
    #[must_use]
    pub fn dynamic_branches(&self) -> u64 {
        self.branch_instrs
    }

    /// Times the instruction at `pc` executed.
    #[must_use]
    pub fn exec_count(&self, pc: u64) -> u64 {
        self.exec.get(&pc).copied().unwrap_or(0)
    }

    /// Outcome counts for the branch at `pc`, if it ever executed.
    #[must_use]
    pub fn branch(&self, pc: u64) -> Option<BranchCounts> {
        self.branches.get(&pc).copied()
    }

    /// Times the dynamic edge `from → to` was traversed.
    #[must_use]
    pub fn edge_count(&self, from: u64, to: u64) -> u64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Iterates over `(pc, count)` execution counts.
    pub fn iter_exec(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.exec.iter().map(|(&pc, &n)| (pc, n))
    }

    /// Iterates over all profiled branches.
    pub fn iter_branches(&self) -> impl Iterator<Item = (u64, BranchCounts)> + '_ {
        self.branches.iter().map(|(&pc, &c)| (pc, c))
    }

    /// Whether the store at `pc` only ever wrote words that no load in
    /// the training run ever read — a *write-only* store (result buffers,
    /// logs). The distiller may elide such stores from the master's
    /// program: slaves still perform them (architected state is
    /// unaffected), and no slave can consume them as live-ins unless the
    /// program's runtime behaviour departs from training, in which case
    /// verification squashes.
    #[must_use]
    pub fn store_is_write_only(&self, pc: u64) -> bool {
        match self.store_words.get(&pc) {
            Some(words) => words.is_disjoint(&self.loaded_words),
            None => false, // never executed: leave it to cold-code elision
        }
    }

    /// Marks a register as a hard-to-predict live-in (squash feedback
    /// from a previous MSSP run; consumed by the distiller's slice pass).
    pub fn mark_hard_live_in(&mut self, reg: Reg) {
        self.hard_live_ins.insert(reg);
    }

    /// Marks an architected PC where a wrong-path squash landed (squash
    /// feedback from a previous MSSP run; consumed by the slice pass).
    pub fn mark_wrong_path(&mut self, pc: u64) {
        self.wrong_path_pcs.insert(pc);
    }

    /// Registers flagged as hard-to-predict live-ins.
    #[must_use]
    pub fn hard_live_ins(&self) -> &BTreeSet<Reg> {
        &self.hard_live_ins
    }

    /// Architected PCs of observed wrong-path squashes.
    #[must_use]
    pub fn wrong_path_pcs(&self) -> &BTreeSet<u64> {
        &self.wrong_path_pcs
    }

    /// Whether any slice feedback is present. When `false`, the
    /// distiller's spawn-guard pass is a no-op, so profiles
    /// without feedback distill exactly as before.
    #[must_use]
    pub fn has_slice_feedback(&self) -> bool {
        !self.hard_live_ins.is_empty() || !self.wrong_path_pcs.is_empty()
    }

    /// Exponentially decays every count by halving it, pruning entries
    /// that reach zero, so a live profile forgets old program phases.
    /// Memory footprints and slice-feedback sets are *sticky*: they carry
    /// no weight, only membership, and keeping them is conservative (a
    /// stale write-only word can only suppress an elision; a stale
    /// hard-live-in only adds a validated spawn guard).
    pub fn decay(&mut self) {
        for n in self.exec.values_mut() {
            *n >>= 1;
        }
        self.exec.retain(|_, n| *n > 0);
        for c in self.branches.values_mut() {
            c.taken >>= 1;
            c.not_taken >>= 1;
        }
        self.branches.retain(|_, c| c.total() > 0);
        for n in self.edges.values_mut() {
            *n >>= 1;
        }
        self.edges.retain(|_, n| *n > 0);
        self.instructions >>= 1;
        self.loads >>= 1;
        self.stores >>= 1;
        self.branch_instrs >>= 1;
    }

    /// The average bias of all executed conditional branches, weighted by
    /// execution count (`None` if the run had no branches). One of the
    /// workload-characterization columns: high average bias predicts good
    /// distillability.
    #[must_use]
    pub fn weighted_branch_bias(&self) -> Option<f64> {
        let mut weighted = 0.0;
        let mut total = 0u64;
        for c in self.branches.values() {
            weighted += c.bias().unwrap_or(0.5) * c.total() as f64;
            total += c.total();
        }
        if total == 0 {
            None
        } else {
            Some(weighted / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;

    /// `p`'s profile fed step by step through [`Profile::observe`].
    fn observed(p: &Program) -> Profile {
        let mut prof = Profile::default();
        SeqMachine::boot(p)
            .run_observed(1_000_000, |info| prof.observe(info))
            .unwrap();
        prof
    }

    /// Collects `src`'s profile and checks it against [`observed`].
    fn profiled(src: &str) -> (Program, Profile) {
        let p = assemble(src).unwrap();
        let prof = Profile::collect(&p, 1_000_000).unwrap();
        assert_eq!(prof, observed(&p), "collect and observe disagree");
        (p, prof)
    }

    /// The members of a word set, in order.
    fn members(words: &WordSet) -> Vec<u64> {
        let mut out = Vec::new();
        for (&key, bits) in &words.0 {
            for word in 0..PAGE_WORDS {
                if bits[(word / 64) as usize] >> (word % 64) & 1 == 1 {
                    out.push(key * PAGE_WORDS + word);
                }
            }
        }
        out
    }

    #[test]
    fn counts_match_loop_trip_count() {
        let (p, prof) = profiled(
            "main: addi a0, zero, 7
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        let loop_pc = p.symbol("loop").unwrap();
        assert_eq!(prof.exec_count(loop_pc), 7);
        let b = prof.branch(loop_pc + 4).unwrap();
        assert_eq!(b.taken, 6);
        assert_eq!(b.not_taken, 1);
        assert!(b.mostly_taken());
        assert_eq!(prof.dynamic_instructions(), 1 + 14);
    }

    #[test]
    fn edges_recorded_for_taken_and_fallthrough() {
        let (p, prof) = profiled(
            "main: addi a0, zero, 2
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        let loop_pc = p.symbol("loop").unwrap();
        let branch_pc = loop_pc + 4;
        assert_eq!(prof.edge_count(branch_pc, loop_pc), 1);
        assert_eq!(prof.edge_count(branch_pc, branch_pc + 4), 1);
    }

    #[test]
    fn memory_op_counts() {
        let (_, prof) = profiled(
            "main: sd a0, -8(sp)
                   ld a1, -8(sp)
                   ld a2, -8(sp)
                   halt",
        );
        assert_eq!(prof.stores(), 1);
        assert_eq!(prof.loads(), 2);
    }

    #[test]
    fn bias_of_unexecuted_branch_is_none() {
        let (p, prof) = profiled(
            "main: j end
             skip: beqz a0, skip
             end:  halt",
        );
        let skip = p.symbol("skip").unwrap();
        assert!(prof.branch(skip).is_none());
        assert_eq!(prof.exec_count(skip), 0);
    }

    #[test]
    fn decay_halves_counts_and_prunes_zeros() {
        let (p, mut prof) = profiled(
            "main: addi a0, zero, 9
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        let loop_pc = p.symbol("loop").unwrap();
        let main_pc = p.symbol("main").unwrap();
        assert_eq!(prof.exec_count(main_pc), 1);
        assert_eq!(prof.exec_count(loop_pc), 9);
        prof.mark_hard_live_in(Reg::A0);
        prof.decay();
        // 9 execs halve to 4; the single main exec decays to nothing and
        // its entry is pruned (so reachability roots stop seeing it).
        assert_eq!(prof.exec_count(loop_pc), 4);
        assert_eq!(prof.exec_count(main_pc), 0);
        assert!(prof.iter_exec().all(|(_, n)| n > 0));
        assert_eq!(prof.dynamic_instructions(), 18_u64.div_ceil(2));
        // Feedback sets are sticky.
        assert!(prof.hard_live_ins().contains(&Reg::A0));
        // Enough decay rounds forget the phase entirely.
        for _ in 0..8 {
            prof.decay();
        }
        assert_eq!(prof.exec_count(loop_pc), 0);
        assert_eq!(prof.dynamic_branches(), 0);
        assert!(prof.branch(loop_pc + 4).is_none());
    }

    #[test]
    fn weighted_bias_reflects_hot_branches() {
        let (_, prof) = profiled(
            "main: addi a0, zero, 100
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        assert!(prof.weighted_branch_bias().unwrap() > 0.98);
    }

    #[test]
    fn an_indirect_jump_with_three_targets_spills_past_its_slot() {
        let (p, prof) = profiled(
            "main:  addi s0, zero, 2
                    la   t0, one
                    jal  disp
             one:   la   t0, two
                    jal  disp
             two:   addi s0, s0, -1
                    bnez s0, one
                    la   t0, three
                    jal  disp
             three: halt
             disp:  jalr zero, 0(t0)",
        );
        let sym = |s| p.symbol(s).unwrap();
        let disp = sym("disp");
        assert_eq!(prof.exec_count(disp), 4);
        assert_eq!(prof.edge_count(disp, sym("one")), 1);
        assert_eq!(prof.edge_count(disp, sym("two")), 2);
        assert_eq!(prof.edge_count(disp, sym("three")), 1);
        assert_eq!(prof.edge_count(disp, disp + INSTR_BYTES), 0);
    }

    #[test]
    fn a_taken_branch_with_offset_zero_is_its_fall_through_edge() {
        let (p, prof) = profiled(
            "main: addi a0, zero, 3
             loop: addi a0, a0, -1
                   bnez a0, next
             next: bnez a0, loop
                   halt",
        );
        let branch_pc = p.symbol("loop").unwrap() + INSTR_BYTES;
        assert_eq!(p.symbol("next"), Some(branch_pc + INSTR_BYTES));
        let b = prof.branch(branch_pc).unwrap();
        assert_eq!((b.taken, b.not_taken), (2, 1));
        assert_eq!(prof.edge_count(branch_pc, branch_pc + INSTR_BYTES), 3);
    }

    #[test]
    fn footprints_straddle_words_and_bit_pages() {
        // 4092 = 0xffc: eight bytes there are words 511 and 512, the last
        // word of bit page 0 and the first of page 1.
        let (p, prof) = profiled(
            "main: li   t0, 4092
             st:   sd   a0, 0(t0)
                   ld   a1, -12(t0)
                   lw   a2, 12(t0)
                   halt",
        );
        let st = p.symbol("st").unwrap();
        assert_eq!(members(&prof.store_words[&st]), [511, 512]);
        assert_eq!(members(&prof.loaded_words), [510, 513]);
        assert_eq!(prof.loaded_words.0.len(), 2, "one word on each page");
        assert!(prof.store_is_write_only(st));

        // A two-byte load at 0xfff straddles the same page boundary.
        let (q, straddle) = profiled(
            "main: li   t0, 4092
             st:   sd   a0, 0(t0)
                   lh   a3, 3(t0)
                   halt",
        );
        assert_eq!(q.symbol("st"), Some(st));
        assert_eq!(members(&straddle.loaded_words), [511, 512]);
        assert!(!straddle.store_is_write_only(st));
    }

    #[test]
    fn words_of_one_bit_page_keep_their_own_bits() {
        // Words 1, 65 and 129 share a page and a bit position in their
        // `u64`s, but not a `u64`.
        let (p, prof) = profiled(
            "main: li   t0, 8
             st:   sd   a0, 0(t0)
                   ld   a1, 512(t0)
                   ld   a2, 1024(t0)
                   halt",
        );
        let st = p.symbol("st").unwrap();
        assert_eq!(members(&prof.store_words[&st]), [1]);
        assert_eq!(members(&prof.loaded_words), [65, 129]);
        assert!(prof.store_is_write_only(st));
    }

    #[test]
    fn a_store_is_write_only_until_another_pc_loads_one_of_its_words() {
        let p = assemble(
            "main: addi s0, zero, 3
                   addi t0, sp, -64
             fill: sd   s0, 0(t0)
                   addi t0, t0, 8
                   addi s0, s0, -1
                   bnez s0, fill
             read: ld   a1, -16(t0)
                   halt",
        )
        .unwrap();
        let fill = p.symbol("fill").unwrap();
        let read = p.symbol("read").unwrap();
        let mut prof = Profile::default();
        let mut verdicts = Vec::new();
        SeqMachine::boot(&p)
            .run_observed(1_000, |info| {
                prof.observe(info);
                verdicts.push((info.pc, prof.store_is_write_only(fill)));
            })
            .unwrap();
        // Not yet executed, then write-only through all three stores, then
        // not once `read` has loaded the second word they wrote.
        let expected: Vec<bool> = verdicts
            .iter()
            .map(|&(pc, _)| (fill..read).contains(&pc))
            .collect();
        let got: Vec<bool> = verdicts.iter().map(|&(_, v)| v).collect();
        assert_eq!(got, expected);
        assert_eq!(members(&prof.store_words[&fill]).len(), 3);
        assert_eq!(prof, Profile::collect(&p, 1_000).unwrap());
    }

    #[test]
    fn an_access_that_wraps_the_address_space_ends_in_word_zero() {
        // The load reads 0xffff_ffff_ffff_ffff and the seven bytes after
        // it, which wrap to 0..=6; the store likewise ends at byte 5.
        let (p, prof) = profiled(
            "main: ld a0, -1(zero)
                   sd a0, -2(zero)
                   halt",
        );
        let top = u64::MAX >> 3;
        let store_pc = p.entry() + INSTR_BYTES;
        assert_eq!(members(&prof.loaded_words), [0, top]);
        assert_eq!(members(&prof.store_words[&store_pc]), [0, top]);
        assert!(!prof.store_is_write_only(store_pc));
    }
}
