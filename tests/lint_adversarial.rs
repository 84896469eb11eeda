//! Adversarial tests for `mssp lint`: each check must fire — and only
//! that check must fire — on a `Distilled` deliberately corrupted to
//! violate exactly one structural obligation.
//!
//! `Distilled::from_parts` performs no validation, which is precisely what
//! lets these tests hand the linter outputs no real distiller would
//! produce. Where possible the corruption is built *from* a real
//! distillation (so the scenario stays representative); where the
//! distiller cannot be coaxed into the broken shape, the parts are
//! assembled by hand.

use std::collections::{BTreeMap, BTreeSet};

use mssp::isa::ImmOp;
use mssp::lint::fires_at;
use mssp::prelude::*;

const INSTR_BYTES: u64 = 4;

/// Runs the linter with the default configuration.
fn run_lint(program: &Program, d: &Distilled, profile: &Profile) -> Report {
    lint(program, d, profile, &LintConfig::default())
}

/// Asserts every finding in `report` belongs to `only`, and that there is
/// at least one.
fn assert_fires_only(report: &Report, only: LintId) {
    assert!(
        !report.is_empty(),
        "expected at least one {only} finding, report is empty"
    );
    for d in report.iter() {
        assert_eq!(d.lint, only, "unexpected extra finding: {d}");
    }
}

/// Rebuilds `p` with the instruction at `at` swapped for `instr`, keeping
/// every other property of the binary identical.
fn with_instr_replaced(p: &Program, at: u64, instr: Instr) -> Program {
    let text: Vec<Instr> = p
        .iter_pcs()
        .map(|(pc, i)| if pc == at { instr } else { i })
        .collect();
    Program::new(
        text,
        p.text_base(),
        p.data().to_vec(),
        p.data_base(),
        p.entry(),
        BTreeMap::new(),
    )
}

// ---------------------------------------------------------------------
// boundary-unmapped (error)
// ---------------------------------------------------------------------

#[test]
fn boundary_unmapped_fires_on_boundary_without_dist_pc() {
    let p = assemble("main: addi a0, zero, 1\n halt").unwrap();
    let entry = p.entry();
    let ghost = entry + INSTR_BYTES; // deliberately absent from the map
    let d = Distilled::from_parts(
        p.clone(),
        BTreeSet::from([entry, ghost]),
        BTreeMap::from([(entry, entry)]),
    );
    let report = run_lint(&p, &d, &Profile::empty());

    assert_fires_only(&report, LintId::BoundaryUnmapped);
    assert!(fires_at(&report, LintId::BoundaryUnmapped, ghost));
    assert!(!fires_at(&report, LintId::BoundaryUnmapped, entry));
    assert!(report.has_errors());
    let finding = report.iter().next().unwrap();
    assert_eq!(finding.severity, Severity::Error);
    assert_eq!(finding.span, PcSpan::point(ghost));
}

#[test]
fn unsound_error_renders_the_findings() {
    let e = mssp::distill::DistillError::Unsound(vec![
        "error[boundary-unmapped] ...".into(),
        "error[liveins-uncovered] ...".into(),
    ]);
    let text = e.to_string();
    assert!(text.contains("unsound"), "{text}");
    assert!(text.contains("2 findings"), "{text}");
    assert!(text.contains("boundary-unmapped"), "{text}");
}

// ---------------------------------------------------------------------
// liveins-uncovered (error)
// ---------------------------------------------------------------------

#[test]
fn liveins_uncovered_fires_when_a_defining_write_is_lost() {
    let p = assemble(
        "main: addi s0, zero, 5
               addi s2, zero, 7
         loop: add  s1, s1, s2
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    // An honest identity distillation...
    let d = distill(&p, &profile, &DistillConfig::at_level(DistillLevel::None)).unwrap();
    let loop_pc = p.entry() + 2 * INSTR_BYTES;

    // ...then corrupt it: drop the only write to s2 (a task live-in at
    // `loop`) from the distilled image while keeping the block retained.
    let lost_dist_pc = d.to_dist(p.entry()).unwrap() + INSTR_BYTES;
    let corrupted = with_instr_replaced(
        d.program(),
        lost_dist_pc,
        Instr::AluImm(ImmOp::Addi, Reg::ZERO, Reg::ZERO, 0),
    );
    let d = Distilled::from_parts(
        corrupted,
        BTreeSet::from([loop_pc]),
        d.iter_pc_map().collect(),
    );

    // Sanity: s2 really is a live-in obligation at the boundary.
    assert!(mssp::lint::boundary_live_ins(&p, loop_pc).contains(Reg::S2));

    let report = run_lint(&p, &d, &profile);
    assert_fires_only(&report, LintId::LiveinsUncovered);
    assert!(fires_at(&report, LintId::LiveinsUncovered, loop_pc));
    assert!(report.has_errors());
    let finding = report.iter().next().unwrap();
    assert!(finding.message.contains("s2"), "{finding}");
}

#[test]
fn liveins_covered_identity_distillation_is_clean() {
    // The same program, uncorrupted: every live-in stays covered.
    let p = assemble(
        "main: addi s0, zero, 5
               addi s2, zero, 7
         loop: add  s1, s1, s2
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    let d = distill(&p, &profile, &DistillConfig::at_level(DistillLevel::None)).unwrap();
    let report = run_lint(&p, &d, &profile);
    assert!(
        !report.of(LintId::LiveinsUncovered).any(|_| true),
        "{}",
        report.render_text()
    );
}

// ---------------------------------------------------------------------
// assert-unjustified (warning)
// ---------------------------------------------------------------------

#[test]
fn assert_unjustified_fires_on_weakly_biased_assertion() {
    // The inner branch is taken 3 times out of 4 (bias 0.75); the loop
    // back-edge is taken 3999/4000 (bias 0.99975, above the default
    // threshold). Distilling under a *weaker* policy than the linter's
    // default asserts both; only the weak one must be reported.
    let p = assemble(
        "main: addi s0, zero, 4000
         loop: andi t0, s0, 3
               bnez t0, skip
               addi s1, s1, 1
         skip: addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let weak_branch = p.entry() + 2 * INSTR_BYTES;
    let strong_branch = p.entry() + 5 * INSTR_BYTES;
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    let config = DistillConfig {
        assert_bias: 0.7,
        ..DistillConfig::default()
    };
    let d = distill(&p, &profile, &config).unwrap();
    assert!(d.stats().asserted_branches >= 2, "both branches asserted");

    let report = run_lint(&p, &d, &profile);
    assert_fires_only(&report, LintId::AssertUnjustified);
    assert!(fires_at(&report, LintId::AssertUnjustified, weak_branch));
    assert!(!fires_at(&report, LintId::AssertUnjustified, strong_branch));
    assert!(!report.has_errors(), "assert-unjustified is a warning");
}

// ---------------------------------------------------------------------
// cfg-fallthrough-off-end (error)
// ---------------------------------------------------------------------

#[test]
fn fallthrough_off_end_fires_when_text_ends_in_a_plain_op() {
    let p = Program::from_instrs(vec![
        Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 1),
        Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::ZERO, 2),
        Instr::AluImm(ImmOp::Addi, Reg::A2, Reg::ZERO, 3), // no halt: runs off the end
    ]);
    let tb = p.text_base();
    let d = Distilled::from_parts(
        p.clone(),
        BTreeSet::from([tb, tb + INSTR_BYTES]),
        BTreeMap::from([(tb, tb), (tb + INSTR_BYTES, tb + INSTR_BYTES)]),
    );
    let report = run_lint(&p, &d, &Profile::empty());

    assert_fires_only(&report, LintId::CfgFallthroughOffEnd);
    assert!(fires_at(
        &report,
        LintId::CfgFallthroughOffEnd,
        tb + 2 * INSTR_BYTES
    ));
    assert!(report.has_errors());
    let finding = report.iter().next().unwrap();
    assert_eq!(finding.space, mssp::lint::AddrSpace::Distilled);
    assert!(finding.message.contains("addi"), "{finding}");
}

/// `Program::from_instrs` accepts a direct jump out of its text, which no
/// CFG can be built over: `lint` reports it, in the program it found it
/// in, instead of panicking.
#[test]
fn a_direct_jump_out_of_the_text_is_an_error_not_a_panic() {
    let p = assemble("main: addi a0, zero, 1\n halt").unwrap();
    let wild = Program::from_instrs(vec![Instr::Jal(Reg::ZERO, 64), Instr::Halt]);
    let tb = wild.text_base();
    let d = Distilled::from_parts(wild.clone(), BTreeSet::new(), BTreeMap::from([(tb, tb)]));
    let report = run_lint(&p, &d, &Profile::empty());
    assert_fires_only(&report, LintId::CfgFallthroughOffEnd);
    let finding = report.iter().next().unwrap();
    assert_eq!(finding.space, mssp::lint::AddrSpace::Distilled);
    assert!(fires_at(&report, LintId::CfgFallthroughOffEnd, tb));

    // The original program is checked too.
    let honest = Distilled::from_parts(p.clone(), BTreeSet::new(), BTreeMap::from([(tb, tb)]));
    let report = run_lint(&wild, &honest, &Profile::empty());
    assert!(report.has_errors());
    let spaces: Vec<_> = report.iter().map(|d| d.space).collect();
    assert_eq!(spaces, [mssp::lint::AddrSpace::Original]);
}

// ---------------------------------------------------------------------
// unreachable-after-assert (warning)
// ---------------------------------------------------------------------

#[test]
fn unreachable_after_assert_fires_on_orphan_distilled_block() {
    let p = assemble(
        "main:   addi a0, zero, 1
                 halt
         orphan: addi a1, a1, 2
                 j orphan",
    )
    .unwrap();
    let entry = p.entry();
    let orphan = entry + 2 * INSTR_BYTES;
    let d = Distilled::from_parts(
        p.clone(),
        BTreeSet::from([entry, entry + INSTR_BYTES]),
        BTreeMap::from([
            (entry, entry),
            (entry + INSTR_BYTES, entry + INSTR_BYTES),
            (orphan, orphan),
        ]),
    );
    let report = run_lint(&p, &d, &Profile::empty());

    assert_fires_only(&report, LintId::UnreachableAfterAssert);
    assert!(fires_at(&report, LintId::UnreachableAfterAssert, orphan));
    assert!(!report.has_errors());
    let finding = report.iter().next().unwrap();
    assert_eq!(finding.space, mssp::lint::AddrSpace::Distilled);
    // The whole orphan region (both instructions) is one merged span.
    assert_eq!(finding.span, PcSpan::new(orphan, orphan + 2 * INSTR_BYTES));
}

// ---------------------------------------------------------------------
// boundary-in-cold-code (warning)
// ---------------------------------------------------------------------

#[test]
fn boundary_in_cold_code_fires_on_never_executed_boundary() {
    // `cold` is statically reachable (the not-taken arm of an always-taken
    // branch) so the distiller retains and maps it, but the training run
    // never crosses it.
    let p = assemble(
        "main: addi s0, zero, 50
         loop: addi s1, s1, 1
               addi s0, s0, -1
               bnez s0, loop
               bnez s1, done
         cold: addi s2, s2, 1
         done: halt",
    )
    .unwrap();
    let loop_pc = p.entry() + INSTR_BYTES;
    let cold_pc = p.entry() + 5 * INSTR_BYTES;
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    assert_eq!(profile.exec_count(cold_pc), 0, "cold code must stay cold");

    let honest = distill(&p, &profile, &DistillConfig::at_level(DistillLevel::None)).unwrap();
    assert!(honest.to_dist(cold_pc).is_some(), "cold block is retained");
    let d = Distilled::from_parts(
        honest.program().clone(),
        BTreeSet::from([loop_pc, cold_pc]),
        honest.iter_pc_map().collect(),
    );

    let report = run_lint(&p, &d, &profile);
    assert_fires_only(&report, LintId::BoundaryInColdCode);
    assert!(fires_at(&report, LintId::BoundaryInColdCode, cold_pc));
    assert!(!fires_at(&report, LintId::BoundaryInColdCode, loop_pc));
    assert!(!report.has_errors());
}

// ---------------------------------------------------------------------
// dead-store-in-distilled (warning)
// ---------------------------------------------------------------------

#[test]
fn dead_store_fires_on_write_overwritten_before_use() {
    let p = assemble(
        "main: addi t0, zero, 9
               j body
         body: addi t0, zero, 1
               add  s1, s1, t0
               halt",
    )
    .unwrap();
    let dead_pc = p.entry();
    let body_pc = p.entry() + 2 * INSTR_BYTES;
    let d = Distilled::from_parts(
        p.clone(),
        BTreeSet::from([body_pc]),
        BTreeMap::from([(p.entry(), p.entry()), (body_pc, body_pc)]),
    );

    // t0 is *not* live-in at the boundary (the body re-defines it first),
    // so the boundary floor does not excuse the dead write.
    assert!(!mssp::lint::boundary_live_ins(&p, body_pc).contains(Reg::T0));

    let report = run_lint(&p, &d, &Profile::empty());
    assert_fires_only(&report, LintId::DeadStoreInDistilled);
    assert!(fires_at(&report, LintId::DeadStoreInDistilled, dead_pc));
    assert!(!fires_at(&report, LintId::DeadStoreInDistilled, body_pc));
    assert!(!report.has_errors());
    let finding = report.iter().next().unwrap();
    assert!(finding.message.contains("t0"), "{finding}");
}

// ---------------------------------------------------------------------
// degenerate-boundary-set (warning)
// ---------------------------------------------------------------------

#[test]
fn degenerate_boundary_set_fires_on_entry_only_fallback() {
    // A straight-line program has no recurring site, so boundary selection
    // falls back to the entry PC alone — end-to-end through the real
    // distiller, no hand corruption needed.
    let p = assemble("main: addi a0, zero, 1\n halt").unwrap();
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    assert_eq!(*d.boundaries(), BTreeSet::from([p.entry()]));

    let report = run_lint(&p, &d, &profile);
    assert_fires_only(&report, LintId::DegenerateBoundarySet);
    assert!(fires_at(&report, LintId::DegenerateBoundarySet, p.entry()));
    assert!(!report.has_errors());
}

#[test]
fn recurring_entry_is_not_degenerate() {
    // The entry itself recurs (the program loops back to it), so an
    // entry-only boundary set is a legitimate selection, not a fallback.
    let p = assemble(
        "main: addi s1, s1, 3
               addi s0, s0, 1
               slti t0, s0, 40
               bnez t0, main
               halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    let d = distill(&p, &profile, &DistillConfig::at_level(DistillLevel::None)).unwrap();
    assert_eq!(*d.boundaries(), BTreeSet::from([p.entry()]));
    let report = run_lint(&p, &d, &profile);
    assert!(
        !report.of(LintId::DegenerateBoundarySet).any(|_| true),
        "{}",
        report.render_text()
    );
}

// ---------------------------------------------------------------------
// slice-unsound (error)
// ---------------------------------------------------------------------

#[test]
fn slice_unsound_fires_on_undeclared_input() {
    // Start from a distillation that lints clean, then plant a live-in
    // slice whose body reads a register it never declared as an input —
    // a value that simply does not exist at spawn time.
    let p = assemble(
        "main: addi s0, zero, 64
         loop: addi s1, s1, 3
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    let clean = run_lint(&p, &d, &profile);
    assert!(
        clean.is_empty(),
        "fixture must lint clean before corruption:\n{}",
        clean.render_text()
    );

    let boundary = *d.boundaries().iter().next().unwrap();
    let home = p.symbol("loop").unwrap();
    let slice = mssp::distill::Slice {
        kind: mssp::distill::SliceKind::LiveIn { target: Reg::S1 },
        program: assemble("main: add s1, t1, zero\n halt").unwrap(),
        inputs: Vec::new(), // t1 deliberately undeclared
        window: 4,
        home_pc: home,
    };
    let d = d.with_slices(BTreeMap::from([(boundary, vec![slice])]));

    let report = run_lint(&p, &d, &profile);
    assert_fires_only(&report, LintId::SliceUnsound);
    assert!(fires_at(&report, LintId::SliceUnsound, home));
    assert!(report.has_errors());
    let finding = report.of(LintId::SliceUnsound).next().unwrap();
    assert!(
        finding.message.contains("not spawn-available"),
        "message should name the obligation: {}",
        finding.message
    );
}

#[test]
fn slice_unsound_fires_on_guard_with_store_or_bad_terminator() {
    let p = assemble(
        "main: addi s0, zero, 64
         loop: addi s1, s1, 3
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    let boundary = *d.boundaries().iter().next().unwrap();
    let home = p.symbol("loop").unwrap();

    // Guards may read memory (the evaluator answers loads from the
    // master's spawn-time view) but must never write it.
    let storing_guard = mssp::distill::Slice {
        kind: mssp::distill::SliceKind::SpawnGuard {
            asserted_taken: true,
        },
        program: assemble(
            "main: sd   s0, -8(sp)
                   bnez s0, main",
        )
        .unwrap(),
        inputs: vec![(Reg::S0, -1), (Reg::SP, 0)],
        window: 4,
        home_pc: home,
    };
    // A guard whose final instruction is not the guarded branch cannot
    // veto anything.
    let branchless_guard = mssp::distill::Slice {
        kind: mssp::distill::SliceKind::SpawnGuard {
            asserted_taken: false,
        },
        program: assemble("main: addi s0, s0, -1\n halt").unwrap(),
        inputs: vec![(Reg::S0, -1)],
        window: 4,
        home_pc: home,
    };
    let d = d.with_slices(BTreeMap::from([(
        boundary,
        vec![storing_guard, branchless_guard],
    )]));

    let report = run_lint(&p, &d, &profile);
    assert_fires_only(&report, LintId::SliceUnsound);
    assert_eq!(report.of(LintId::SliceUnsound).count(), 2);
    assert!(report.has_errors());
}
