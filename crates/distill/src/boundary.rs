//! Task boundaries: where tasks end.
//!
//! MSSP splits the dynamic instruction stream into tasks at a static set of
//! program counters. Good boundaries recur at roughly the target task-size
//! interval: loop headers and function entries are the natural candidates
//! (as in the paper, where the distiller inserted fork points at such
//! sites). Selection is profile-guided — a candidate's expected task size
//! is the training run's instruction count divided by how often the
//! candidate was crossed.
//!
//! The boundary set, and how many crossings of it make one task, are the
//! one piece of a distillation the slaves, the verify unit and recovery
//! depend on. [`Segmentation`] is that piece, built once per
//! distillation: the engine's drivers only read it, and a hot-swapped
//! master must keep it unchanged.

use std::collections::BTreeSet;

use mssp_analysis::{natural_loops, Cfg, Dominators, Profile};
use mssp_isa::{Program, INSTR_BYTES};

/// Selects task-boundary PCs (original-program block starts).
///
/// The returned set is never empty for a non-empty program: if profiling
/// found no suitable recurring site, the entry point alone is returned
/// (degrading MSSP to sequential operation rather than failing).
#[must_use]
pub(crate) fn select_boundaries(
    program: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    profile: &Profile,
    target_task_size: u64,
) -> BTreeSet<u64> {
    let target = target_task_size.max(1);
    let total = profile.dynamic_instructions();

    // Candidate sites: loop headers and call targets (function entries).
    let mut candidate_blocks: BTreeSet<usize> = natural_loops(cfg, dom)
        .into_iter()
        .map(|l| l.header)
        .collect();
    candidate_blocks.extend(cfg.call_targets(program));

    struct Candidate {
        pc: u64,
        expected_size: f64,
    }

    // A boundary must *recur* to provide parallelism: a site crossed once
    // yields a single giant task, i.e. sequential execution.
    let mut candidates: Vec<Candidate> = candidate_blocks
        .into_iter()
        .map(|bid| cfg.blocks()[bid].start)
        .filter_map(|pc| {
            let crossings = profile.exec_count(pc);
            if crossings < 2 {
                None
            } else {
                Some(Candidate {
                    pc,
                    expected_size: total as f64 / crossings as f64,
                })
            }
        })
        .collect();

    if candidates.is_empty() || total == 0 {
        return BTreeSet::from([program.entry()]);
    }

    // Prefer candidates whose solo average task size is closest to the
    // target (in log space, so 2× too big and 2× too small tie). Among
    // equals, prefer the earlier address for determinism.
    candidates.sort_by(|a, b| {
        let ka = (a.expected_size.ln() - (target as f64).ln()).abs();
        let kb = (b.expected_size.ln() - (target as f64).ln()).abs();
        ka.partial_cmp(&kb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pc.cmp(&b.pc))
    });

    // Accept every recurring site whose solo task size clears a floor.
    // Multi-phase programs (init / build / main loop) need a boundary in
    // *each* phase or one phase degenerates into a single giant task, so
    // no global crossing quota is applied; only sites producing absurdly
    // tiny tasks (innermost micro-loops) are rejected.
    let floor = (target / 32).max(2) as f64;
    let mut chosen: BTreeSet<u64> = candidates
        .iter()
        .filter(|c| c.expected_size >= floor)
        .map(|c| c.pc)
        .collect();
    if chosen.is_empty() {
        chosen.insert(candidates[0].pc);
    }
    chosen
}

/// Where tasks end: the task-boundary set, and how many boundary
/// crossings make one task (at least 1, whatever the constructor is
/// given).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Segmentation {
    pub(crate) boundaries: BoundarySet,
    pub(crate) crossings_per_task: u64,
}

impl Segmentation {
    pub(crate) fn new(boundaries: BoundarySet, crossings_per_task: u64) -> Segmentation {
        Segmentation {
            boundaries,
            crossings_per_task: crossings_per_task.max(1),
        }
    }

    /// The task-boundary PCs, in original program space.
    #[must_use]
    pub fn boundaries(&self) -> &BoundarySet {
        &self.boundaries
    }
}

/// Most instruction slots a [`BoundarySet`] bitmap may span (128 KiB of
/// bitmap, 4 MiB of program text).
const MAX_BITMAP_SLOTS: u64 = 1 << 20;

/// A static set of task-boundary PCs with the end-of-task test.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundarySet {
    pub(crate) pcs: BTreeSet<u64>,
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

    /// Whether `pc` is a task boundary. Inlined across crates: a slave
    /// asks it once per instruction it executes.
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
    use mssp_isa::asm::assemble;

    fn setup(src: &str) -> (Program, Cfg, Dominators, Profile) {
        let p = assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        let prof = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        (p, cfg, dom, prof)
    }

    #[test]
    fn nested_loop_picks_outer_header_for_large_target() {
        // Inner loop runs 100x per outer iteration; outer runs 50 times.
        let (p, cfg, dom, prof) = setup(
            "main:  addi s0, zero, 50
             outer: addi s1, zero, 100
             inner: addi a0, a0, 1
                    addi s1, s1, -1
                    bnez s1, inner
                    addi s0, s0, -1
                    bnez s0, outer
                    halt",
        );
        // ~15k dynamic instructions; target 300 → outer header (crossed 50
        // times, avg ~300) is ideal; inner header (5000 crossings) is not.
        let b = select_boundaries(&p, &cfg, &dom, &prof, 300);
        assert!(b.contains(&p.symbol("outer").unwrap()));
        assert!(!b.contains(&p.symbol("inner").unwrap()));
    }

    #[test]
    fn small_target_picks_inner_header() {
        let (p, cfg, dom, prof) = setup(
            "main:  addi s0, zero, 50
             outer: addi s1, zero, 100
             inner: addi a0, a0, 1
                    addi s1, s1, -1
                    bnez s1, inner
                    addi s0, s0, -1
                    bnez s0, outer
                    halt",
        );
        let b = select_boundaries(&p, &cfg, &dom, &prof, 3);
        assert!(b.contains(&p.symbol("inner").unwrap()));
    }

    #[test]
    fn straight_line_program_falls_back_to_entry() {
        let (p, cfg, dom, prof) = setup("main: addi a0, zero, 1\n halt");
        let b = select_boundaries(&p, &cfg, &dom, &prof, 100);
        assert_eq!(b, BTreeSet::from([p.entry()]));
    }

    #[test]
    fn untrained_profile_degenerates_to_entry_only() {
        // Even a loopy program degenerates to the entry-only boundary set
        // when no training data exists: every candidate has zero recorded
        // crossings, so MSSP silently falls back to sequential operation.
        // The `degenerate-boundary-set` lint exists to make this audible.
        let (p, cfg, dom, _) = setup(
            "main:  addi s0, zero, 9
             loop:  addi s0, s0, -1
                    bnez s0, loop
                    halt",
        );
        let b = select_boundaries(&p, &cfg, &dom, &Profile::empty(), 100);
        assert_eq!(b, BTreeSet::from([p.entry()]));
    }

    #[test]
    fn function_entries_are_candidates() {
        let (p, cfg, dom, prof) = setup(
            "main:  addi s0, zero, 200
             loop:  call work
                    addi s0, s0, -1
                    bnez s0, loop
                    halt
             work:  addi a0, a0, 1
                    addi a1, a0, 2
                    addi a2, a1, 3
                    ret",
        );
        // `work` is crossed 200 times over ~1800 instructions: avg ~9.
        let b = select_boundaries(&p, &cfg, &dom, &prof, 8);
        assert!(
            b.contains(&p.symbol("work").unwrap()) || b.contains(&p.symbol("loop").unwrap()),
            "expected a recurring site, got {b:?}"
        );
    }

    #[test]
    fn result_is_deterministic() {
        let (p, cfg, dom, prof) = setup(
            "main:  addi s0, zero, 10
             loop:  addi s0, s0, -1
                    bnez s0, loop
                    halt",
        );
        let b1 = select_boundaries(&p, &cfg, &dom, &prof, 2);
        let b2 = select_boundaries(&p, &cfg, &dom, &prof, 2);
        assert_eq!(b1, b2);
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
