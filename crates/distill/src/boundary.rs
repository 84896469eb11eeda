//! Task-boundary selection.
//!
//! MSSP splits the dynamic instruction stream into tasks at a static set of
//! program counters. Good boundaries recur at roughly the target task-size
//! interval: loop headers and function entries are the natural candidates
//! (as in the paper, where the distiller inserted fork points at such
//! sites). Selection is profile-guided — a candidate's expected task size
//! is the training run's instruction count divided by how often the
//! candidate was crossed.

use std::collections::BTreeSet;

use mssp_analysis::{natural_loops, Cfg, Dominators, Profile};
use mssp_isa::Program;

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
}
