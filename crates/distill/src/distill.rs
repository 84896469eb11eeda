//! The program distiller.
//!
//! Produces the *distilled program* the master executes: a speculatively
//! optimized, approximate copy of the original binary. The passes mirror
//! the paper's binary re-optimizer:
//!
//! 1. **Branch asserting** — branches whose training-run bias meets the
//!    configured threshold are replaced by an unconditional transfer in the
//!    dominant direction. (If the assertion is ever wrong at run time, the
//!    master's predictions go stale and verification squashes — approximation
//!    can cost performance, never correctness.)
//! 2. **Cold-code elision** — blocks unreachable in the asserted CFG are
//!    dropped from the distilled image.
//! 3. **Original-image preservation** — calls are rewritten to link the
//!    *original* program's return address (`li ra, <orig ret>` + plain
//!    jump), so the master's register/memory image — and therefore every
//!    live-in it predicts — stays in original-program terms even though the
//!    master's PC walks distilled-space addresses. Indirect jumps
//!    consequently produce original-space targets, which the master's
//!    executor translates back through [`Distilled::to_dist`].
//! 4. **The optimizing pass pipeline** (`passes.rs`, toggled per pass via
//!    [`crate::PassConfig`], run to a fixpoint on the relocatable IR):
//!    * **Constant propagation & folding** — ALU results constant on every
//!      asserted path become single-instruction `li`s; branches the facts
//!      decide collapse into jumps or fall-throughs, and blocks thereby
//!      unreachable (and training-cold) are pruned.
//!    * **Copy propagation** — register uses that provably mirror another
//!      register are rewritten to the source, exposing moves to DCE.
//!    * **Dead-code elimination** — instructions whose results are dead in
//!      the asserted code are removed (with the task-boundary live-in
//!      floor, so slave live-in prediction keeps working).
//!    * **Profile-guided jump threading** — blocks are relaid along the
//!      training run's dominant traces, branches point at their colder
//!      side, and jumps to the physically-next block are elided, so the
//!      master falls through its hot path.
//!
//! This list is the authoritative pass inventory; DESIGN.md carries each
//! pass's soundness argument.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mssp_analysis::{Cfg, ConstProp, Dominators, Liveness, Profile, Terminator};
use mssp_isa::{asm::li_sequence, Instr, Program, Reg, INSTR_BYTES};

use crate::boundary::{select_boundaries, BoundarySet, Segmentation};
use crate::ir::{layout, DBlock, Exit};
use crate::passes::{run_pipeline, PassDelta, PipelineOutcome};
use crate::slice::{compute_slices, Slice};
use crate::{DistillConfig, DistillLevel};

/// Base address of the distilled text segment; distillation fails with
/// [`DistillError::DoesNotFit`] if the text would overlap the data.
const DIST_TEXT_BASE: u64 = 0x0008_0000;

/// Distillation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistillError {
    /// A relocated branch displacement overflowed 16 bits; the block's
    /// original start address is reported.
    BranchOutOfRange(u64),
    /// The distilled text would overlap the data segment.
    DoesNotFit,
    /// Validation found error-severity soundness violations in the
    /// distilled output; each entry is one rendered diagnostic. Produced
    /// by `mssp-lint`'s `distill_validated`, never by plain [`distill`].
    Unsound(Vec<String>),
}

impl fmt::Display for DistillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistillError::BranchOutOfRange(pc) => {
                write!(f, "relocated branch in block {pc:#x} out of range")
            }
            DistillError::DoesNotFit => {
                write!(f, "distilled text overlaps the data segment")
            }
            DistillError::Unsound(findings) => {
                write!(
                    f,
                    "distilled output is unsound ({} finding{}): {}",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    findings.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for DistillError {}

/// Static statistics of one distillation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistillStats {
    /// Static instructions in the original text.
    pub original_static: usize,
    /// Static instructions in the distilled text.
    pub distilled_static: usize,
    /// Conditional branches asserted away.
    pub asserted_branches: usize,
    /// Basic blocks elided as cold/unreachable.
    pub removed_blocks: usize,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: usize,
    /// Write-only stores elided from the master's program.
    pub stores_elided: usize,
    /// Calls rewritten to preserve original return addresses.
    pub calls_rewritten: usize,
    /// ALU results rematerialized as immediate loads by constant folding.
    pub const_folded: usize,
    /// Conditional branches collapsed by constant facts.
    pub branches_folded: usize,
    /// Register uses rewritten to their copy source.
    pub copies_propagated: usize,
    /// Control transfers redirected or elided by jump threading.
    pub jumps_threaded: usize,
    /// Pipeline iterations actually run before the fixpoint (or budget).
    pub pipeline_iterations: usize,
    /// Spawn guards emitted from squash feedback in the profile.
    pub slices_emitted: usize,
}

/// A distilled program plus the metadata the MSSP engine needs to drive it.
#[derive(Debug, Clone)]
pub struct Distilled {
    program: Program,
    segmentation: Segmentation,
    orig_to_dist: BTreeMap<u64, u64>,
    boundary_dist: BTreeMap<u64, u64>,
    /// `boundary_dist` over the distilled text, one entry per instruction:
    /// what the master asks after every instruction it executes.
    boundary_table: Vec<Option<u64>>,
    stats: DistillStats,
    pass_trace: Vec<PassDelta>,
    slices: BTreeMap<u64, Vec<Slice>>,
}

/// The dense form of `boundary_dist` over `program`'s instructions.
/// Images outside the text (a hand-built map may put one anywhere) stay
/// in the map alone.
fn boundary_table(program: &Program, boundary_dist: &BTreeMap<u64, u64>) -> Vec<Option<u64>> {
    let mut table = vec![None; program.len()];
    for (&dist_pc, &boundary) in boundary_dist {
        if let Some(index) = program.index_of_pc(dist_pc) {
            table[index] = Some(boundary);
        }
    }
    table
}

impl Distilled {
    /// Assembles a `Distilled` from hand-built parts: a master program,
    /// the task-boundary set (original-space PCs) and the original ↔
    /// distilled PC correspondence.
    ///
    /// This is the "bring your own distiller" escape hatch. MSSP's
    /// correctness does not depend on the master program being related to
    /// the original in any way — the formal model treats the master as a
    /// black box — so this constructor performs no semantic validation.
    /// The correctness test-suite uses it to drive the engine with
    /// adversarial masters.
    #[must_use]
    pub fn from_parts(
        program: Program,
        boundaries: BTreeSet<u64>,
        orig_to_dist: BTreeMap<u64, u64>,
    ) -> Distilled {
        let boundary_dist: BTreeMap<u64, u64> = boundaries
            .iter()
            .filter_map(|&b| orig_to_dist.get(&b).map(|&d| (d, b)))
            .collect();
        let stats = DistillStats {
            original_static: 0,
            distilled_static: program.len(),
            ..DistillStats::default()
        };
        Distilled {
            boundary_table: boundary_table(&program, &boundary_dist),
            program,
            segmentation: Segmentation::new(BoundarySet::new(boundaries), 1),
            orig_to_dist,
            boundary_dist,
            stats,
            pass_trace: Vec::new(),
            slices: BTreeMap::new(),
        }
    }

    /// Returns this `Distilled` with an explicit crossings-per-task count
    /// (see [`Distilled::crossings_per_task`]).
    #[must_use]
    pub fn with_crossings_per_task(mut self, n: u64) -> Distilled {
        let boundaries = std::mem::take(&mut self.segmentation.boundaries);
        self.segmentation = Segmentation::new(boundaries, n);
        self
    }

    /// Returns this `Distilled` with an explicit spawn-guard map
    /// (boundary original PC → guards). The "bring your own distiller"
    /// counterpart of the slice pass; the lint-adversarial tests use it
    /// to plant deliberately unsound guards. Nothing here bounds a
    /// guard: the master caps what it probes, and `slice-unsound`
    /// reports what breaks the contract.
    #[must_use]
    pub fn with_slices(mut self, slices: BTreeMap<u64, Vec<Slice>>) -> Distilled {
        self.stats.slices_emitted = slices.values().map(Vec::len).sum();
        self.slices = slices;
        self
    }

    /// Spawn guards attached to the boundary at `orig_pc`
    /// (empty for boundaries without squash feedback).
    #[must_use]
    pub fn slices_at(&self, orig_pc: u64) -> &[Slice] {
        self.slices.get(&orig_pc).map_or(&[], Vec::as_slice)
    }

    /// The full boundary → slices map (the linter's audit surface).
    #[must_use]
    pub fn slices(&self) -> &BTreeMap<u64, Vec<Slice>> {
        &self.slices
    }

    /// How many boundary crossings make one task. Boundary *sites* are
    /// chosen for path coverage (every phase needs one), which can make
    /// individual crossings only a few instructions apart; grouping `n`
    /// consecutive crossings into one task restores the target task size.
    /// The master and the slaves count crossings identically along the
    /// same path, so the grouping never causes disagreement beyond what a
    /// wrong prediction would cause anyway. Never 0.
    #[must_use]
    #[inline]
    pub fn crossings_per_task(&self) -> u64 {
        self.segmentation.crossings_per_task
    }

    /// The task segmentation: the boundary set and the crossing grouping,
    /// which slaves, the verify unit and recovery end tasks by, and a
    /// hot-swapped master must keep.
    #[must_use]
    pub fn segmentation(&self) -> &Segmentation {
        &self.segmentation
    }

    /// The distilled binary (placed at `DIST_TEXT_BASE`).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Task-boundary PCs, in *original* program space. Slaves end tasks on
    /// reaching any of these; the verify unit checks end-PC/start-PC
    /// agreement against them.
    #[must_use]
    pub fn boundaries(&self) -> &BTreeSet<u64> {
        &self.segmentation.boundaries.pcs
    }

    /// Translates an original block-start address to its distilled
    /// address, if that block was retained. Used to restart the master at
    /// a recovery point and to translate indirect-jump targets.
    #[must_use]
    pub fn to_dist(&self, orig_pc: u64) -> Option<u64> {
        self.orig_to_dist.get(&orig_pc).copied()
    }

    /// If `dist_pc` is the distilled address of a task boundary, the
    /// boundary's original PC — the master's spawn trigger. Always
    /// inlined: the master asks it once per instruction.
    #[must_use]
    #[inline(always)]
    pub fn boundary_at_dist(&self, dist_pc: u64) -> Option<u64> {
        match self.program.index_of_pc(dist_pc) {
            Some(index) => self.boundary_table[index],
            None => self.boundary_dist.get(&dist_pc).copied(),
        }
    }

    /// Iterates over the full original → distilled block-start
    /// correspondence, in original-address order. This is the linter's
    /// window into which blocks the distiller retained.
    pub fn iter_pc_map(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.orig_to_dist.iter().map(|(&o, &d)| (o, d))
    }

    /// Distillation statistics.
    #[must_use]
    pub fn stats(&self) -> DistillStats {
        self.stats
    }

    /// The pass pipeline's static-size trace, one entry per pass run in
    /// pipeline order (empty for [`Distilled::from_parts`] and when every
    /// pass is disabled). Drives `mssp distill --stats`.
    #[must_use]
    pub fn pass_trace(&self) -> &[PassDelta] {
        &self.pass_trace
    }
}

/// Distills `program` using `profile` as training data.
///
/// # Errors
///
/// Returns [`DistillError`] if relocation overflows a branch offset or the
/// distilled image cannot be placed (both indicate a program far larger
/// than this ISA's 16-bit displacement reach).
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::Profile;
/// use mssp_distill::{distill, DistillConfig};
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
/// assert!(!d.boundaries().is_empty());
/// ```
pub fn distill(
    program: &Program,
    profile: &Profile,
    config: &DistillConfig,
) -> Result<Distilled, DistillError> {
    distill_pinned(program, profile, config, None)
}

/// Re-distills `program` against a fresher `profile` while *pinning*
/// `segmentation`, the task-boundary set and crossings-per-task grouping
/// of an earlier distillation.
///
/// This is the online adaptive loop's re-entry point. Boundaries define
/// the task segmentation that the engine's slaves, verify unit and
/// recovery path all agree on; keeping them (and the crossing grouping)
/// fixed means a hot-swapped distilled program changes only the *master's
/// fast path* — branch assertions, cold-code elision and the optimizing
/// pass pipeline re-run against current behaviour — while the slave
/// protocol is untouched. Pinned boundary blocks are force-retained so
/// every boundary keeps a distilled-PC mapping even if the new profile
/// calls it cold.
///
/// The pinned boundaries must be block starts of `program` (true of any
/// boundary set produced by [`distill`] on the same program).
///
/// # Errors
///
/// Same failure modes as [`distill`].
pub fn redistill(
    program: &Program,
    profile: &Profile,
    config: &DistillConfig,
    segmentation: &Segmentation,
) -> Result<Distilled, DistillError> {
    distill_pinned(program, profile, config, Some(segmentation))
}

fn distill_pinned(
    program: &Program,
    profile: &Profile,
    config: &DistillConfig,
    pin: Option<&Segmentation>,
) -> Result<Distilled, DistillError> {
    let cfg = Cfg::build(program);
    let dom = Dominators::compute(&cfg);

    // --- Pass 1: decide branch assertions (block id → asserted
    // direction, `true` for taken). ---
    let mut asserts: BTreeMap<usize, bool> = BTreeMap::new();
    if let Some(threshold) = config.effective_assert_bias() {
        for (bid, block) in cfg.blocks().iter().enumerate() {
            let Terminator::Branch { .. } = block.terminator else {
                continue;
            };
            let Some(counts) = profile.branch(block.end - INSTR_BYTES) else {
                continue; // never executed in training: leave intact
            };
            if counts.bias().is_some_and(|bias| bias >= threshold) {
                asserts.insert(bid, counts.mostly_taken());
            }
        }
    }

    // --- Pass 2: reachability over the asserted CFG. ---
    // Successors honour assertions; calls additionally reach their return
    // site (the master returns there via the translated indirect jump).
    let is_call = |bid: usize| -> bool {
        let last_pc = cfg.blocks()[bid].end - INSTR_BYTES;
        match program.fetch(last_pc) {
            Some(Instr::Jal(rd, _)) | Some(Instr::Jalr(rd, _, _)) => !rd.is_zero(),
            _ => false,
        }
    };
    let succs = |bid: usize| -> Vec<usize> {
        let block = &cfg.blocks()[bid];
        let mut out = match (block.terminator, asserts.get(&bid)) {
            (Terminator::Branch { taken, .. }, Some(true)) => vec![taken],
            (Terminator::Branch { fallthrough, .. }, Some(false)) => vec![fallthrough],
            _ => cfg.successors(bid),
        };
        if is_call(bid) {
            if let Some(ret) = cfg.block_at(block.end) {
                out.push(ret);
            }
        }
        out
    };
    // Roots: the entry plus every block executed in training. Asserting a
    // loop's back edge makes the code after the loop *statically*
    // unreachable in the asserted CFG, but that code is hot — the master
    // gets re-seeded into it at the next recovery point — so anything the
    // profile saw must stay in the distilled image. Only blocks that never
    // executed and are reachable solely through asserted-away directions
    // (error handlers, guard-repair paths) are elided.
    let mut retained = vec![false; cfg.blocks().len()];
    let mut stack: Vec<usize> = vec![cfg.entry()];
    stack.extend(
        cfg.blocks()
            .iter()
            .enumerate()
            .filter(|(_, b)| profile.exec_count(b.start) > 0)
            .map(|(bid, _)| bid),
    );
    // Pinned boundaries (re-distillation) must keep their distilled-PC
    // mapping even when the fresher profile no longer reaches them, so
    // their blocks join the retention roots.
    if let Some(pin) = pin {
        stack.extend(
            cfg.blocks()
                .iter()
                .enumerate()
                .filter(|(_, b)| pin.boundaries.contains(b.start))
                .map(|(bid, _)| bid),
        );
    }
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut retained[b], true) {
            continue;
        }
        stack.extend(succs(b));
    }
    let removed_blocks = retained.iter().filter(|r| !**r).count();

    // --- Pass 3: boundaries (restricted to retained blocks), or the
    // pinned set verbatim when re-distilling. ---
    let boundaries: BTreeSet<u64> = match pin {
        Some(pin) => pin.boundaries.pcs.clone(),
        None => {
            let retained_starts: BTreeSet<u64> = cfg
                .blocks()
                .iter()
                .enumerate()
                .filter(|(bid, _)| retained[*bid])
                .map(|(_, b)| b.start)
                .collect();
            select_boundaries(program, &cfg, &dom, profile, config.target_task_size)
                .intersection(&retained_starts)
                .copied()
                .collect()
        }
    };

    // --- Pass 4: build the relocatable IR. ---
    let mut blocks: Vec<DBlock> = Vec::new();
    let mut asserted_branches = 0;
    let mut calls_rewritten = 0;
    let mut stores_elided = 0;
    let elide_stores = config.level == DistillLevel::Aggressive;
    for (bid, block) in cfg.blocks().iter().enumerate() {
        if !retained[bid] {
            continue;
        }
        let mut body = Vec::new();
        let mut exit = Exit::Fall;
        for pc in block.pcs() {
            // why: the CFG's blocks cover the program's text and no more.
            let instr = program.fetch(pc).expect("pc in text");
            // A call links the *original* return address, then transfers.
            if let Instr::Jal(rd, _) | Instr::Jalr(rd, ..) = instr {
                if !rd.is_zero() {
                    calls_rewritten += 1;
                    body.extend(li_sequence(rd, (pc + INSTR_BYTES) as i64));
                }
            }
            // A block ends at its first control instruction, so `exit` is
            // set at most once, by the block's last instruction.
            match instr {
                Instr::Jal(..) => {
                    // why: a `jal` always has a pc-relative target.
                    let target = instr.static_target(pc).expect("jal target");
                    exit = Exit::Jump(block_start_of(&cfg, target));
                }
                Instr::Jalr(_, base, off) => exit = Exit::Stop(Instr::Jalr(Reg::ZERO, base, off)),
                Instr::Halt => exit = Exit::Stop(instr),
                _ if instr.is_branch() => {
                    // why: a conditional branch always has a target.
                    let target = instr.static_target(pc).expect("branch target");
                    let taken = block_start_of(&cfg, target);
                    exit = match asserts.get(&bid) {
                        Some(true) => Exit::Jump(taken),
                        // Dropped: execution falls through.
                        Some(false) => Exit::Fall,
                        None => Exit::Branch {
                            instr,
                            taken,
                            other: None,
                        },
                    };
                    asserted_branches += usize::from(asserts.contains_key(&bid));
                }
                _ if instr.is_store() && elide_stores && profile.store_is_write_only(pc) => {
                    stores_elided += 1;
                }
                _ => body.push(instr),
            }
        }
        blocks.push(DBlock {
            orig_start: block.start,
            body,
            exit,
        });
    }

    // --- Pass 5: the optimizing pass pipeline (skipped for the identity
    // level, which promises a verbatim relocated image). At every task
    // boundary the master must still be able to predict any register the
    // *original* program may read before writing (those are exactly the
    // register live-ins of tasks starting there), so original liveness at
    // boundary PCs is injected as a DCE floor; the same boundary set — plus
    // the original program's materialized constants, which over-approximate
    // indirect-jump landing sites — seeds pessimistic dataflow facts in the
    // folding passes (the master can enter there with arbitrary state).
    let pipeline = if config.level == DistillLevel::None || !config.passes.any_enabled() {
        PipelineOutcome::default()
    } else {
        let orig_live = Liveness::compute(program, &cfg);
        let boundary_live: crate::ir::BoundaryLive = boundaries
            .iter()
            .map(|&b| (b, orig_live.live_in(b)))
            .collect();
        let mut reseed: BTreeSet<u64> = boundaries.clone();
        if config.passes.const_fold {
            reseed.extend(ConstProp::compute(program, &cfg).materialized(program));
        }
        let hot_roots: BTreeSet<u64> = cfg
            .blocks()
            .iter()
            .filter(|b| profile.exec_count(b.start) > 0)
            .map(|b| b.start)
            .collect();
        let entry_start = cfg.blocks()[cfg.entry()].start;
        let block_ends: BTreeMap<u64, u64> =
            cfg.blocks().iter().map(|b| (b.start, b.end)).collect();
        run_pipeline(
            &mut blocks,
            &config.passes,
            profile,
            &boundary_live,
            entry_start,
            &reseed,
            &hot_roots,
            &block_ends,
        )
    };

    // --- Pass 6: layout and emission. ---
    let (text, orig_to_dist) = layout(&blocks, DIST_TEXT_BASE)
        .map_err(|e| DistillError::BranchOutOfRange(e.orig_block))?;
    let text_end = DIST_TEXT_BASE + text.len() as u64 * INSTR_BYTES;
    if DIST_TEXT_BASE < program.data_base() && text_end > program.data_base() {
        return Err(DistillError::DoesNotFit);
    }
    let entry_block = cfg.blocks()[cfg.entry()].start;
    let dist_entry = orig_to_dist[&entry_block];
    let distilled_program = Program::new(
        text,
        DIST_TEXT_BASE,
        Vec::new(),
        program.data_base(),
        dist_entry,
        BTreeMap::new(),
    );
    distilled_program
        .validate()
        // why: `layout` aims every branch and jump at a block it placed,
        // and failed above on an offset out of range.
        .expect("layout produced in-range targets");

    let boundary_dist: BTreeMap<u64, u64> = boundaries
        .iter()
        .filter_map(|&b| orig_to_dist.get(&b).map(|&d| (d, b)))
        .collect();

    // --- Pass 7: spawn guards (squash-feedback-gated). ---
    let crossings_per_task = match pin {
        Some(pin) => pin.crossings_per_task,
        None => crossings_per_task_of(profile, &boundaries, config),
    };
    let segmentation = Segmentation::new(BoundarySet::new(boundaries), crossings_per_task);
    let slices = compute_slices(
        program,
        &cfg,
        profile,
        &asserts,
        &segmentation.boundaries.pcs,
        segmentation.crossings_per_task,
    );

    let counters = pipeline.counters;
    let stats = DistillStats {
        original_static: program.len(),
        distilled_static: distilled_program.len(),
        asserted_branches,
        removed_blocks: removed_blocks + counters.pruned_blocks,
        dce_removed: counters.dce_removed,
        stores_elided,
        calls_rewritten,
        const_folded: counters.const_folded,
        branches_folded: counters.branches_folded,
        copies_propagated: counters.copies_propagated,
        jumps_threaded: counters.jumps_threaded,
        pipeline_iterations: counters.iterations,
        slices_emitted: slices.values().map(Vec::len).sum(),
    };

    Ok(Distilled {
        boundary_table: boundary_table(&distilled_program, &boundary_dist),
        program: distilled_program,
        segmentation,
        orig_to_dist,
        boundary_dist,
        stats,
        pass_trace: pipeline.trace,
        slices,
    })
}

/// Groups crossings so the *average* task hits the configured size.
fn crossings_per_task_of(
    profile: &Profile,
    boundaries: &BTreeSet<u64>,
    config: &DistillConfig,
) -> u64 {
    let total_crossings: u64 = boundaries.iter().map(|&b| profile.exec_count(b)).sum();
    // No crossing makes the gap infinite (or NaN) and the grouping 0:
    // `Segmentation::new` lifts that, as every grouping, to at least 1.
    let gap = profile.dynamic_instructions() as f64 / total_crossings as f64;
    ((config.target_task_size as f64 / gap).round() as u64).min(4096)
}

fn block_start_of(cfg: &Cfg, pc: u64) -> u64 {
    // why: the CFG starts a block at every static control target.
    let bid = cfg.block_at(pc).expect("control targets are block leaders");
    cfg.blocks()[bid].start
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;
    use mssp_machine::{Fault, MachineState, SeqMachine};

    const LOOPY: &str = "
        main:   addi s0, zero, 400
        loop:   andi t0, s0, 7
                bnez t0, common      ; taken 7/8 of the time
        rare:   addi s1, s1, 100     ; cold-ish path
                j next
        common: addi s1, s1, 1
        next:   addi s0, s0, -1
                bnez s0, loop
                halt";

    fn distilled(src: &str, level: DistillLevel) -> (Program, Distilled) {
        let p = assemble(src).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let cfg = DistillConfig::at_level(level);
        let d = distill(&p, &prof, &cfg).unwrap();
        (p, d)
    }

    /// Why a functional run of a distilled program failed.
    #[derive(Debug, PartialEq)]
    enum RunError {
        /// The distilled program faulted.
        Fault(Fault),
        /// An indirect jump produced an original-space target that has no
        /// distilled translation.
        Untranslatable(u64),
        /// The step budget ran out before `halt`.
        DidNotHalt,
    }

    /// Runs the distilled program sequentially to `halt`, translating
    /// each indirect jump's original-space target into distilled space as
    /// the master does, and returns the final state. Distilled programs
    /// routinely spin forever when an asserted exit branch was distilled
    /// away, so running out of `max_steps` is an error, not a hang.
    fn run_to_halt(d: &Distilled, max_steps: u64) -> Result<MachineState, RunError> {
        let mut m = SeqMachine::boot(&d.program);
        for _ in 0..max_steps {
            let info = m.step().map_err(RunError::Fault)?;
            if info.halted {
                return Ok(m.into_state());
            }
            if info.instr.is_indirect_jump() {
                let dist = d
                    .to_dist(info.next_pc)
                    .ok_or(RunError::Untranslatable(info.next_pc))?;
                let mut s = m.into_state();
                s.set_pc(dist);
                m = SeqMachine::resume(&d.program, s);
            }
        }
        Err(RunError::DidNotHalt)
    }

    /// Runs the distilled program sequentially (with indirect-target
    /// translation as the master would perform it) and returns the final
    /// register `r`.
    fn run_distilled(d: &Distilled, r: Reg) -> u64 {
        run_to_halt(d, 1_000_000)
            .expect("distilled fixture halts")
            .reg(r)
    }

    #[test]
    fn run_to_halt_reports_non_termination_as_typed_error() {
        // An always-spinning master is perfectly legal MSSP input; a
        // functional run of it must end in a typed error, not a panic.
        let spin = assemble("main: j main").unwrap();
        let d = Distilled::from_parts(spin, BTreeSet::new(), BTreeMap::new());
        assert_eq!(run_to_halt(&d, 100), Err(RunError::DidNotHalt));
    }

    #[test]
    fn run_to_halt_reports_untranslatable_indirect_targets() {
        // `jalr` produces an original-space target (see module docs); if
        // the distiller retained no image for it, the master is lost.
        let p = assemble("main: li a0, 0x5000\n jalr ra, 0(a0)\n halt").unwrap();
        let d = Distilled::from_parts(p, BTreeSet::new(), BTreeMap::new());
        assert_eq!(run_to_halt(&d, 100), Err(RunError::Untranslatable(0x5000)));
    }

    #[test]
    fn run_to_halt_propagates_faults_as_typed_error() {
        // A direct jump clear out of the text segment faults at fetch.
        let p = Program::from_instrs(vec![Instr::Jal(Reg::RA, 0x400)]);
        match run_to_halt(&d_from(p), 100) {
            Err(RunError::Fault(_)) => {}
            other => panic!("expected fault, got {other:?}"),
        }
    }

    fn d_from(p: Program) -> Distilled {
        Distilled::from_parts(p, BTreeSet::new(), BTreeMap::new())
    }

    #[test]
    fn identity_level_preserves_semantics_exactly() {
        let (p, d) = distilled(LOOPY, DistillLevel::None);
        let mut orig = SeqMachine::boot(&p);
        orig.run(u64::MAX).unwrap();
        let got = run_distilled(&d, Reg::S1);
        assert_eq!(got, orig.state().reg(Reg::S1));
        assert_eq!(d.stats().asserted_branches, 0);
        assert_eq!(d.stats().dce_removed, 0);
    }

    #[test]
    fn conservative_never_asserts_partially_biased_branches() {
        let (_, d) = distilled(LOOPY, DistillLevel::Conservative);
        // Both branches are taken sometimes and not others: nothing to
        // assert, nothing unreachable.
        assert_eq!(d.stats().asserted_branches, 0);
        assert_eq!(d.stats().removed_blocks, 0);
    }

    #[test]
    fn aggressive_asserts_and_shrinks() {
        let p = assemble(
            "main:   addi s0, zero, 1000
             loop:   addi s1, s1, 1
                     beqz s1, never       ; never taken (s1 counts up from 1)
                     addi s0, s0, -1
                     bnez s0, loop
                     halt
             never:  addi s1, zero, -1
                     j loop",
        )
        .unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(
            &p,
            &prof,
            &DistillConfig::at_level(DistillLevel::Aggressive),
        )
        .unwrap();
        assert!(d.stats().asserted_branches >= 1);
        assert!(d.stats().removed_blocks >= 1);
        assert!(d.stats().distilled_static < d.stats().original_static);
        // With the branch asserted, s1 is no longer consumed anywhere in
        // the distilled program and its updates are legitimately removed —
        // the loop counter s0, which controls retained branches, survives.
        let s0 = run_distilled(&d, Reg::S0);
        assert_eq!(s0, 0);
    }

    #[test]
    fn calls_link_original_return_addresses() {
        let src = "
            main:  addi s0, zero, 5
            loop:  call bump
                   addi s0, s0, -1
                   bnez s0, loop
                   halt
            bump:  addi s1, s1, 2
                   ret";
        let (p, d) = distilled(src, DistillLevel::None);
        assert!(d.stats().calls_rewritten >= 1);
        // Execute distilled code; `ret` targets must be original-space
        // block starts that translate back into distilled space.
        let got = run_distilled(&d, Reg::S1);
        let mut orig = SeqMachine::boot(&p);
        orig.run(u64::MAX).unwrap();
        assert_eq!(got, orig.state().reg(Reg::S1));
        assert_eq!(got, 10);
    }

    #[test]
    fn boundaries_map_into_distilled_space() {
        let (_, d) = distilled(LOOPY, DistillLevel::Aggressive);
        for &b in d.boundaries() {
            let dist = d.to_dist(b).expect("boundary retained");
            assert_eq!(d.boundary_at_dist(dist), Some(b));
        }
    }

    #[test]
    fn dce_removes_computation_feeding_asserted_branches() {
        // t0 exists only to steer a fully-biased branch; after asserting,
        // the andi producing it is dead.
        let p = assemble(
            "main:   addi s0, zero, 64
             loop:   andi t0, s0, 1023   ; always nonzero for s0 in 1..=64
                     beqz t0, cold
                     addi s1, s1, 1
             back:   addi s0, s0, -1
                     bnez s0, loop
                     halt
             cold:   addi s1, s1, 50
                     j back",
        )
        .unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(
            &p,
            &prof,
            &DistillConfig::at_level(DistillLevel::Aggressive),
        )
        .unwrap();
        assert!(d.stats().asserted_branches >= 1);
        assert!(d.stats().dce_removed >= 1, "stats: {:?}", d.stats());
    }

    #[test]
    fn redistill_pins_boundaries_and_crossings() {
        let p = assemble(LOOPY).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let cfg = DistillConfig::at_level(DistillLevel::Aggressive);
        let first = distill(&p, &prof, &cfg).unwrap();
        // Re-distill against a much shorter (phase-truncated) profile:
        // the boundary set and crossing grouping must survive verbatim,
        // and every pinned boundary must stay mapped.
        let short = Profile::collect(&p, 40).unwrap();
        let second = redistill(&p, &short, &cfg, first.segmentation()).unwrap();
        assert_eq!(second.boundaries(), first.boundaries());
        assert_eq!(second.crossings_per_task(), first.crossings_per_task());
        for &b in second.boundaries() {
            let dist = second.to_dist(b).expect("pinned boundary retained");
            assert_eq!(second.boundary_at_dist(dist), Some(b));
        }
    }

    #[test]
    fn redistill_with_empty_profile_keeps_boundaries_mapped() {
        // The decayed-to-nothing extreme: no block is profile-hot, so
        // retention rests entirely on the entry walk + pinned roots.
        let p = assemble(LOOPY).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let cfg = DistillConfig::at_level(DistillLevel::Aggressive);
        let first = distill(&p, &prof, &cfg).unwrap();
        let second = redistill(&p, &Profile::empty(), &cfg, first.segmentation()).unwrap();
        assert_eq!(second.boundaries(), first.boundaries());
        for &b in second.boundaries() {
            assert!(second.to_dist(b).is_some());
        }
        // An empty profile asserts nothing, so the image is conservative.
        assert_eq!(second.stats().asserted_branches, 0);
    }

    /// Every way of making a `Distilled` groups at least one crossing
    /// into a task, so nothing that reads the segmentation clamps it.
    #[test]
    fn every_constructor_groups_at_least_one_crossing() {
        let cfg = DistillConfig::default();
        let halt = assemble("main: halt").unwrap();
        let halt_profile = Profile::collect(&halt, u64::MAX).unwrap();
        let p = assemble(LOOPY).unwrap();
        // No training run: the grouping reaches no boundary crossing.
        let unprofiled = distill(&p, &Profile::empty(), &cfg).unwrap();
        assert_eq!(unprofiled.crossings_per_task(), 1);
        // A pin built around the constructor, grouping nothing.
        let zero = Segmentation {
            boundaries: unprofiled.segmentation().boundaries.clone(),
            crossings_per_task: 0,
        };
        let bare = || Distilled::from_parts(halt.clone(), BTreeSet::new(), BTreeMap::new());
        let made = [
            distill(&halt, &halt_profile, &cfg).unwrap(),
            unprofiled.clone(),
            bare(),
            bare().with_crossings_per_task(0),
            redistill(&p, &Profile::empty(), &cfg, unprofiled.segmentation()).unwrap(),
            redistill(&p, &Profile::empty(), &cfg, &zero).unwrap(),
        ];
        for (i, d) in made.iter().enumerate() {
            assert!(d.crossings_per_task() >= 1, "constructor {i}");
            assert_eq!(&d.segmentation().boundaries().pcs, d.boundaries());
        }
        assert_eq!(made[5].segmentation().boundaries(), &zero.boundaries);
    }

    #[test]
    fn distilled_dynamic_length_is_shorter() {
        let (p, d) = distilled(LOOPY, DistillLevel::Aggressive);
        let mut orig = SeqMachine::boot(&p);
        orig.run(u64::MAX).unwrap();
        let mut dist = SeqMachine::boot(d.program());
        dist.run(u64::MAX).unwrap();
        // LOOPY has no calls, so the distilled program runs standalone.
        assert!(dist.instructions() <= orig.instructions());
    }
}
