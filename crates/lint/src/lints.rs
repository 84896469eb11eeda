//! The lint checks: structural soundness obligations of a distillation.
//!
//! MSSP's distilled program may be arbitrarily *wrong* — slaves execute the
//! original program and verification keeps exact sequential semantics — but
//! a distillation that breaks its *structural* obligations degrades into
//! squash storms, lost masters or silent sequential operation. Each check
//! here approximates one such obligation statically; see `DESIGN.md` for
//! the mapping onto the formal model's invariants.

use std::collections::BTreeMap;

use mssp_analysis::{Cfg, ConstProp, Liveness, Profile, ReachingDefs, RegSet};
use mssp_distill::{Distilled, Slice, MAX_GUARD_WINDOW, MAX_SLICE_LEN};
use mssp_isa::{PcSpan, Program, Reg, NUM_REGS};

use crate::diag::{AddrSpace, Diagnostic, LintId, Report};

/// Tunables for the checks.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    /// Training-run bias below which an asserted branch is reported by
    /// `assert-unjustified`. Defaults to the distiller's own default
    /// threshold, so a distillation asserted under a *weaker* policy than
    /// it was configured for gets flagged.
    pub assert_bias: f64,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            assert_bias: mssp_distill::DistillConfig::default().assert_bias,
        }
    }
}

/// Runs every check over a distillation and returns the findings, errors
/// first.
///
/// `program` is the original binary, `distilled` the distiller's output
/// for it (including the task-boundary set), and `profile` the training
/// profile the distillation was derived from.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::Profile;
/// use mssp_distill::{distill, DistillConfig};
/// use mssp_lint::{lint, LintConfig};
///
/// let p = assemble(
///     "main: addi a0, zero, 500
///      loop: addi a1, a1, 3
///            addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
/// let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
/// let report = lint(&p, &d, &profile, &LintConfig::default());
/// assert!(!report.has_errors());
/// ```
#[must_use]
pub fn lint(
    program: &Program,
    distilled: &Distilled,
    profile: &Profile,
    config: &LintConfig,
) -> Report {
    let mut report = Report::new();
    let dist_prog = distilled.program();
    if program.is_empty() || dist_prog.is_empty() {
        return report;
    }
    // A direct transfer out of the text has no block to build a CFG with.
    for (image, space) in [
        (program, AddrSpace::Original),
        (dist_prog, AddrSpace::Distilled),
    ] {
        if let Err(e) = image.validate() {
            let message = format!("control leaves the text segment: {e}");
            let lint = LintId::CfgFallthroughOffEnd;
            report.push(Diagnostic::new(lint, PcSpan::point(e.pc), space, message));
        }
    }
    if report.has_errors() {
        return report;
    }

    let orig_cfg = Cfg::build(program);
    let dist_cfg = Cfg::build(dist_prog);
    let orig_live = Liveness::compute(program, &orig_cfg);
    let orig_reach = ReachingDefs::compute(program, &orig_cfg);
    let dist_live = Liveness::compute(dist_prog, &dist_cfg);
    let dist_reach = ReachingDefs::compute(dist_prog, &dist_cfg);
    let dist_consts = ConstProp::compute(dist_prog, &dist_cfg);
    let spans = DistSpans::build(distilled);

    check_boundary_unmapped(&mut report, distilled);
    check_liveins_uncovered(
        &mut report,
        distilled,
        &orig_cfg,
        &orig_live,
        &orig_reach,
        &dist_reach,
        &spans,
    );
    check_assert_unjustified(
        &mut report,
        program,
        distilled,
        profile,
        config,
        &orig_cfg,
        &spans,
    );
    check_fallthrough_off_end(&mut report, dist_prog);
    check_unreachable_after_assert(&mut report, distilled, profile, &dist_cfg, &dist_consts);
    check_boundary_in_cold_code(&mut report, distilled, profile);
    check_dead_store_in_distilled(&mut report, distilled, &orig_live, &dist_live);
    check_degenerate_boundary_set(&mut report, program, distilled, profile);
    check_slice_unsound(&mut report, distilled);

    report.sort();
    report
}

/// The distilled-space extent of each retained original block.
///
/// The distiller lays retained blocks out contiguously, so each mapped
/// original start owns the distilled addresses up to the next mapped start.
struct DistSpans {
    by_orig: BTreeMap<u64, PcSpan>,
}

impl DistSpans {
    fn build(distilled: &Distilled) -> DistSpans {
        let mut pairs: Vec<(u64, u64)> = distilled.iter_pc_map().collect();
        pairs.sort_by_key(|&(_, d)| d);
        let text_end = distilled.program().text_end();
        let mut by_orig = BTreeMap::new();
        for (i, &(o, d)) in pairs.iter().enumerate() {
            let end = pairs.get(i + 1).map_or(text_end, |&(_, nd)| nd);
            by_orig.insert(o, PcSpan::new(d, end.max(d)));
        }
        DistSpans { by_orig }
    }

    fn of(&self, orig_start: u64) -> Option<PcSpan> {
        self.by_orig.get(&orig_start).copied()
    }
}

/// `boundary-unmapped` (error): every task boundary must have a distilled
/// PC, or the master can never spawn (or be recovered at) tasks there.
fn check_boundary_unmapped(report: &mut Report, distilled: &Distilled) {
    for &b in distilled.boundaries() {
        if distilled.to_dist(b).is_none() {
            report.push(Diagnostic::new(
                LintId::BoundaryUnmapped,
                PcSpan::point(b),
                AddrSpace::Original,
                format!("task boundary {b:#x} has no distilled-PC correspondence"),
            ));
        }
    }
}

/// `liveins-uncovered` (error): a register that tasks starting at a
/// boundary may read was computed by the original program, but the
/// distilled image of the defining block lost the write and no other
/// definition reaches the boundary in distilled space — the master will
/// predict a stale value every time.
#[allow(clippy::too_many_arguments)]
fn check_liveins_uncovered(
    report: &mut Report,
    distilled: &Distilled,
    orig_cfg: &Cfg,
    orig_live: &Liveness,
    orig_reach: &ReachingDefs,
    dist_reach: &ReachingDefs,
    spans: &DistSpans,
) {
    let dist_prog = distilled.program();
    for &b in distilled.boundaries() {
        let Some(db) = distilled.to_dist(b) else {
            continue; // boundary-unmapped already reports this
        };
        for r in orig_live.live_in(b).iter() {
            // Covered if any distilled definition of r reaches the
            // boundary's distilled address.
            if dist_reach.before(db).is_some_and(|f| f.has_instr_def(r)) {
                continue;
            }
            // Uncovered only if the original program *does* define r on a
            // path to the boundary from within a retained block whose
            // distilled image dropped every write to r: a lost write, not
            // an elided cold path (cold paths re-seed from exact
            // checkpoints at recovery).
            let lost = orig_reach.defs_before(b, r).find(|&p| {
                let Some(bid) = orig_cfg.block_containing(p) else {
                    return false;
                };
                let block_start = orig_cfg.blocks()[bid].start;
                let Some(span) = spans.of(block_start) else {
                    return false; // block elided entirely
                };
                !span
                    .pcs()
                    .any(|dpc| dist_prog.fetch(dpc).and_then(|i| i.def_reg()) == Some(r))
            });
            if let Some(p) = lost {
                report.push(Diagnostic::new(
                    LintId::LiveinsUncovered,
                    PcSpan::point(b),
                    AddrSpace::Original,
                    format!(
                        "task live-in {r} at boundary {b:#x} is uncovered: the defining \
                         write at {p:#x} was dropped from the distilled image and no \
                         other definition reaches the boundary"
                    ),
                ));
            }
        }
    }
}

/// `assert-unjustified` (warning): the distilled image removed a
/// conditional branch whose training bias does not clear the configured
/// threshold — every under-biased assertion is a standing squash tax.
fn check_assert_unjustified(
    report: &mut Report,
    program: &Program,
    distilled: &Distilled,
    profile: &Profile,
    config: &LintConfig,
    orig_cfg: &Cfg,
    spans: &DistSpans,
) {
    for block in orig_cfg.blocks() {
        let branch_pc = block.end - mssp_isa::INSTR_BYTES;
        let Some(instr) = program.fetch(branch_pc) else {
            continue;
        };
        if !instr.is_branch() {
            continue;
        }
        let Some(span) = spans.of(block.start) else {
            continue; // whole block elided: nothing asserted, nothing kept
        };
        let still_conditional = span.pcs().any(|dpc| {
            distilled
                .program()
                .fetch(dpc)
                .is_some_and(|i| i.is_branch())
        });
        if still_conditional {
            continue;
        }
        // The branch was asserted away. Justified only by a strong bias.
        match profile.branch(branch_pc).and_then(|c| c.bias()) {
            Some(bias) if bias >= config.assert_bias => {}
            Some(bias) => report.push(Diagnostic::new(
                LintId::AssertUnjustified,
                PcSpan::point(branch_pc),
                AddrSpace::Original,
                format!(
                    "branch at {branch_pc:#x} is asserted in the distilled program but \
                     its training bias {bias:.4} is below the threshold {:.4}",
                    config.assert_bias
                ),
            )),
            None => report.push(Diagnostic::new(
                LintId::AssertUnjustified,
                PcSpan::point(branch_pc),
                AddrSpace::Original,
                format!(
                    "branch at {branch_pc:#x} is asserted in the distilled program but \
                     was never executed in training"
                ),
            )),
        }
    }
}

/// `cfg-fallthrough-off-end` (error): the last instruction of the
/// distilled text can fall through past the end of the segment, where the
/// master faults on fetch.
fn check_fallthrough_off_end(report: &mut Report, dist_prog: &Program) {
    let last_pc = dist_prog.text_end() - mssp_isa::INSTR_BYTES;
    let Some(last) = dist_prog.fetch(last_pc) else {
        return;
    };
    // `halt`, unconditional jumps and indirect jumps cannot fall through;
    // anything else (plain ALU/memory ops, conditional branches) can.
    if !(last.is_halt() || last.is_jump() || last.is_indirect_jump()) {
        report.push(Diagnostic::new(
            LintId::CfgFallthroughOffEnd,
            PcSpan::point(last_pc),
            AddrSpace::Distilled,
            format!(
                "distilled control can fall through off the end of the text segment \
                 after {last_pc:#x} ({})",
                last.mnemonic()
            ),
        ));
    }
}

/// `unreachable-after-assert` (warning): distilled code unreachable from
/// every master entry point — the program entry, the task boundaries the
/// master restarts at, blocks hot in training (recovery re-seeds the
/// master into hot code even when assertion made it statically
/// unreachable), and every materialized constant that translates to a
/// distilled address (rewritten call/return targets). Such code is image
/// bloat that assertion was supposed to remove.
fn check_unreachable_after_assert(
    report: &mut Report,
    distilled: &Distilled,
    profile: &Profile,
    dist_cfg: &Cfg,
    dist_consts: &ConstProp,
) {
    let dist_prog = distilled.program();
    let mut roots: Vec<usize> = vec![dist_cfg.entry()];
    for &b in distilled.boundaries() {
        if let Some(db) = distilled.to_dist(b) {
            roots.extend(dist_cfg.block_at(db));
        }
    }
    for (o, d) in distilled.iter_pc_map() {
        if profile.exec_count(o) > 0 {
            roots.extend(dist_cfg.block_at(d));
        }
    }
    for c in dist_consts.materialized(dist_prog) {
        if let Some(d) = distilled.to_dist(c) {
            roots.extend(dist_cfg.block_at(d));
        }
    }

    let mut reached = vec![false; dist_cfg.blocks().len()];
    let mut stack = roots;
    while let Some(bid) = stack.pop() {
        if std::mem::replace(&mut reached[bid], true) {
            continue;
        }
        stack.extend(dist_cfg.successors(bid));
    }

    // Merge contiguous unreachable blocks into one span per region.
    let mut region: Option<PcSpan> = None;
    let mut regions = Vec::new();
    for (bid, block) in dist_cfg.blocks().iter().enumerate() {
        if reached[bid] {
            if let Some(s) = region.take() {
                regions.push(s);
            }
        } else {
            let span = PcSpan::new(block.start, block.end);
            region = Some(match region {
                Some(s) if s.end == span.start => s.merge(span),
                Some(s) => {
                    regions.push(s);
                    span
                }
                None => span,
            });
        }
    }
    regions.extend(region);
    for span in regions {
        report.push(Diagnostic::new(
            LintId::UnreachableAfterAssert,
            span,
            AddrSpace::Distilled,
            format!(
                "distilled code {span} is unreachable from the entry, every task \
                 boundary and every materialized indirect target"
            ),
        ));
    }
}

/// `boundary-in-cold-code` (warning): a task boundary the training run
/// never crossed adds no parallelism and suggests a stale or mismatched
/// profile. Skipped entirely when no training data exists.
fn check_boundary_in_cold_code(report: &mut Report, distilled: &Distilled, profile: &Profile) {
    if profile.dynamic_instructions() == 0 {
        return;
    }
    for &b in distilled.boundaries() {
        if profile.exec_count(b) == 0 {
            report.push(Diagnostic::new(
                LintId::BoundaryInColdCode,
                PcSpan::point(b),
                AddrSpace::Original,
                format!(
                    "task boundary {b:#x} was never crossed in training: it adds no \
                     parallelism and may mis-slice tasks"
                ),
            ));
        }
    }
}

/// `dead-store-in-distilled` (warning): a distilled register write whose
/// value no later distilled instruction, `halt` state, indirect transfer
/// or task boundary can observe — wasted master work the dead-code pass
/// should have removed.
fn check_dead_store_in_distilled(
    report: &mut Report,
    distilled: &Distilled,
    orig_live: &Liveness,
    dist_live: &Liveness,
) {
    // Registers live-in at *any* boundary are prediction outputs the
    // master must keep computing even where plain distilled liveness calls
    // them dead; exempt them globally.
    let boundary_floor: RegSet = distilled
        .boundaries()
        .iter()
        .fold(RegSet::empty(), |acc, &b| acc.union(orig_live.live_in(b)));

    let dist_prog = distilled.program();
    for (pc, instr) in dist_prog.iter_pcs() {
        let Some(rd) = instr.def_reg() else { continue };
        if boundary_floor.contains(rd) {
            continue;
        }
        if !dist_live.live_out(pc).contains(rd) {
            report.push(Diagnostic::new(
                LintId::DeadStoreInDistilled,
                PcSpan::point(pc),
                AddrSpace::Distilled,
                format!("write to {rd} at {pc:#x} is dead in the distilled program"),
            ));
        }
    }
}

/// `degenerate-boundary-set` (warning): boundary selection fell back to
/// the entry PC alone (or nothing), so every "task" is the whole program —
/// MSSP silently degrades to sequential operation.
fn check_degenerate_boundary_set(
    report: &mut Report,
    program: &Program,
    distilled: &Distilled,
    profile: &Profile,
) {
    let boundaries = distilled.boundaries();
    let entry_only = boundaries.len() == 1 && boundaries.contains(&program.entry());
    let entry_recurs = profile.exec_count(program.entry()) >= 2;
    if boundaries.is_empty() || (entry_only && !entry_recurs) {
        report.push(Diagnostic::new(
            LintId::DegenerateBoundarySet,
            PcSpan::point(program.entry()),
            AddrSpace::Original,
            "boundary set degenerated to the entry PC alone: no site recurs, so MSSP \
             will operate sequentially"
                .to_string(),
        ));
    }
}

/// `slice-unsound` (error): every spawn guard attached to a boundary must
/// be the short, straight-line program that ends in the guarded branch,
/// with a probe window of 1 to [`MAX_GUARD_WINDOW`] crossings and at most
/// `NUM_REGS` inputs, reading only spawn-available values — its
/// declared inputs, its own earlier results, the zero register and
/// memory. A guard violating this hands the master a value that does not
/// exist at spawn time, turning the guard machinery into a deterministic
/// squash (or spurious-veto) generator, or asks for more probes than the
/// master runs.
fn check_slice_unsound(report: &mut Report, distilled: &Distilled) {
    for (&boundary, slices) in distilled.slices() {
        for slice in slices {
            if let Some(why) = slice_violation(slice) {
                report.push(Diagnostic::new(
                    LintId::SliceUnsound,
                    PcSpan::point(slice.home_pc),
                    AddrSpace::Original,
                    format!("spawn guard for boundary {boundary:#x} {why}"),
                ));
            }
        }
    }
}

/// The structural obligation for one guard; `None` when it holds.
fn slice_violation(slice: &Slice) -> Option<String> {
    let p = &slice.program;
    let count = p.len();
    if count == 0 {
        return Some("is empty".to_string());
    }
    if count > MAX_SLICE_LEN {
        return Some(format!(
            "has {count} instructions, over the {MAX_SLICE_LEN}-instruction limit"
        ));
    }
    if !(1..=MAX_GUARD_WINDOW).contains(&slice.window) {
        return Some(format!(
            "probes a window of {} crossings, outside 1..={MAX_GUARD_WINDOW}",
            slice.window
        ));
    }
    if slice.inputs.len() > NUM_REGS {
        return Some(format!(
            "declares {} inputs, more than the {NUM_REGS} registers",
            slice.inputs.len()
        ));
    }
    let mut avail: std::collections::BTreeSet<Reg> = slice.inputs.iter().map(|&(r, _)| r).collect();
    for (i, (pc, instr)) in p.iter_pcs().enumerate() {
        // Guards may load: the evaluator answers loads from the master's
        // spawn-time memory view, which is itself spawn-available. Stores
        // and control stay forbidden, `halt` included.
        if i + 1 == count {
            if !instr.is_branch() {
                return Some("ends in something other than a conditional branch".to_string());
            }
        } else if !(instr.is_alu() || instr.is_load()) {
            return Some(format!(
                "contains a non-ALU, non-load instruction at slice pc {pc:#x}"
            ));
        }
        for r in instr.use_regs().into_iter().flatten() {
            if !r.is_zero() && !avail.contains(&r) {
                return Some(format!(
                    "reads {r} at slice pc {pc:#x}, which is neither a declared \
                     input nor an earlier slice result (not spawn-available)"
                ));
            }
        }
        if let Some(d) = instr.def_reg() {
            avail.insert(d);
        }
    }
    None
}

/// The set of registers live at a boundary according to the original
/// program — exported for tests and tooling that want to inspect the
/// obligation `liveins-uncovered` enforces.
#[must_use]
pub fn boundary_live_ins(program: &Program, boundary: u64) -> RegSet {
    let cfg = Cfg::build(program);
    let live = Liveness::compute(program, &cfg);
    live.live_in(boundary)
}

/// Convenience predicate used by the adversarial suite: whether `report`
/// contains a finding of `lint` whose span starts at `pc`.
#[must_use]
pub fn fires_at(report: &Report, lint: LintId, pc: u64) -> bool {
    report
        .of(lint)
        .any(|d| d.span.contains(pc) || d.span.start == pc)
}
