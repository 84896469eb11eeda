//! Pre-computation slices (the Prophet-style squash-rate attack).
//!
//! When a previous MSSP run reports *where* speculation failed — the
//! architected PCs of wrong-path squashes and the registers behind
//! live-in mismatches, threaded back into the [`Profile`] as slice
//! feedback — this pass extracts, per task boundary, short straight-line
//! programs the run-time can execute against the master's checkpoint
//! view:
//!
//! * **Spawn guards** re-evaluate an asserted branch condition over the
//!   upcoming task window. The distilled program replaced the branch with
//!   its dominant direction; the guard recomputes the *real* condition
//!   from spawn-available values and, when the rare direction is due
//!   inside the window, tells the master to veto the spawn and fall back
//!   to a sequential recovery segment instead of feeding the verify unit
//!   a doomed task.
//! * **Live-in slices** recompute a hard-to-predict live-in register from
//!   loop-invariant inputs, so the checkpoint ships the computed value
//!   instead of the master's (possibly stale) copy.
//!
//! Like distillation itself, slices are purely a performance artifact:
//! a wrong guard costs a recovery segment or a squash, never
//! correctness — every slice-sourced value still rides the normal
//! live-in verification. The `slice-unsound` lint additionally proves
//! each emitted slice reads only spawn-available values (declared
//! inputs, earlier slice results, or — in guards — loads answered from
//! the master's spawn-time memory view), keeping the contract auditable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mssp_analysis::{Cfg, Profile, Terminator};
use mssp_isa::{Instr, Program, Reg, INSTR_BYTES};

use crate::DistillConfig;

/// Instruction budget of the forward relevance walk from an asserted-away
/// branch direction toward the profile's squash-feedback PCs.
const MAX_WALK: usize = 32;

/// What a slice computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// Re-evaluates an asserted branch condition; the final instruction
    /// of the slice program is the branch itself. If any evaluation over
    /// the spawn window resolves *against* the asserted direction, the
    /// master vetoes the spawn.
    SpawnGuard {
        /// The direction the distiller asserted (and the master follows).
        asserted_taken: bool,
    },
    /// Recomputes one live-in register from spawn-available inputs; the
    /// result overrides the master's checkpoint value for that cell.
    LiveIn {
        /// The register the slice produces.
        target: Reg,
    },
}

/// A pre-computation slice attached to a task boundary.
#[derive(Debug, Clone)]
pub struct Slice {
    /// What the slice computes.
    pub kind: SliceKind,
    /// The slice body as a standalone straight-line program (entry at its
    /// text base; live-in slices end in `halt`, guards end in the guarded
    /// branch, whose encoded offset is never followed).
    pub program: Program,
    /// Input registers the slice reads, each with its estimated
    /// per-boundary-crossing stride in the original loop (`0` for
    /// loop-invariant inputs). The evaluator seeds input `r` with
    /// `view(r) + stride * j` when probing crossing `j` of the window —
    /// except inputs the slice itself redefines (induction updates,
    /// pointer-chase loads), which are fed back probe-to-probe instead
    /// and carry stride `0` here.
    pub inputs: Vec<(Reg, i64)>,
    /// Boundary crossings one spawned task covers — the range of `j` a
    /// guard must clear before the spawn is allowed.
    pub window: u64,
    /// The original-program PC the slice was extracted from (the asserted
    /// branch, or the live-in's defining instruction) — the diagnostic
    /// anchor for `slice-unsound`.
    pub home_pc: u64,
}

/// Hard ceiling on slice length, enforced by construction here and
/// re-proved by the `slice-unsound` lint on every `Distilled`.
pub const MAX_SLICE_LEN: usize = 16;

/// Is this instruction pure ALU (no memory, no control, no halt)?
fn is_pure_alu(i: &Instr) -> bool {
    !i.is_mem() && !i.is_control() && !i.is_halt() && !i.is_branch()
}

/// Bounded forward reachability walk from `start` over static control
/// flow, returning the visited PCs (at most `max` instructions).
fn forward_walk(program: &Program, start: u64, max: usize) -> BTreeSet<u64> {
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::from([start]);
    while let Some(pc) = queue.pop_front() {
        if seen.len() >= max || !seen.insert(pc) {
            continue;
        }
        let Some(instr) = program.fetch(pc) else {
            continue;
        };
        if instr.is_halt() || instr.is_indirect_jump() {
            continue;
        }
        if let Some(t) = instr.static_target(pc) {
            queue.push_back(t);
        }
        if !instr.is_jump() {
            queue.push_back(pc + INSTR_BYTES);
        }
    }
    seen
}

/// The per-crossing stride of `reg` inside `[lo, hi)`: `Some(imm)` if the
/// region's only def of `reg` is a single self-increment `addi reg, reg,
/// imm`, `Some(0)` if the region never defines it, `None` otherwise.
fn region_stride(program: &Program, reg: Reg, lo: u64, hi: u64) -> Option<i64> {
    let mut stride: Option<i64> = None;
    let mut pc = lo;
    while pc < hi {
        let Some(instr) = program.fetch(pc) else {
            break;
        };
        if instr.def_reg() == Some(reg) {
            match (instr, stride) {
                (Instr::Addi(d, s, imm), None) if d == s => stride = Some(i64::from(imm)),
                _ => return None, // multiple or non-induction defs
            }
        }
        pc += INSTR_BYTES;
    }
    Some(stride.unwrap_or(0))
}

/// Backward condition slice within one block: the pure-ALU (or load)
/// instructions, in program order, needed to recompute `branch_pc`'s
/// condition from block-entry values, plus the registers left as inputs.
/// `None` when a needed register is defined by a store/control
/// instruction or the slice would exceed the length budget.
fn condition_slice(
    program: &Program,
    block_start: u64,
    branch_pc: u64,
) -> Option<(Vec<Instr>, BTreeSet<Reg>)> {
    let branch = program.fetch(branch_pc)?;
    let mut needed: BTreeSet<Reg> = branch.use_regs().into_iter().flatten().collect();
    needed.remove(&Reg::ZERO);
    let mut picked: Vec<(u64, Instr)> = Vec::new();
    let mut pc = branch_pc;
    while pc > block_start {
        pc -= INSTR_BYTES;
        let instr = program.fetch(pc)?;
        let Some(def) = instr.def_reg() else { continue };
        if !needed.remove(&def) {
            continue;
        }
        // Loads are admitted alongside pure ALU: the evaluator answers
        // them from the master's spawn-time memory view, which makes
        // pointer-chase exit conditions guardable. Stores and control
        // stay out.
        if !(is_pure_alu(&instr) || instr.is_load()) || picked.len() + 1 >= MAX_SLICE_LEN {
            return None;
        }
        picked.push((pc, instr));
        needed.extend(instr.use_regs().into_iter().flatten());
        needed.remove(&Reg::ZERO);
    }
    picked.reverse();
    Some((picked.into_iter().map(|(_, i)| i).collect(), needed))
}

/// Runs the slice pass. Active only when the profile carries slice
/// feedback (squash observations from a previous run); without feedback
/// the result is empty and distillation output is byte-identical to a
/// feedback-free run.
pub(crate) fn compute_slices(
    program: &Program,
    cfg: &Cfg,
    profile: &Profile,
    boundaries: &BTreeSet<u64>,
    crossings_per_task: u64,
    config: &DistillConfig,
) -> BTreeMap<u64, Vec<Slice>> {
    let mut out: BTreeMap<u64, Vec<Slice>> = BTreeMap::new();
    if !profile.has_slice_feedback() || boundaries.is_empty() {
        return out;
    }
    let Some(threshold) = config.effective_assert_bias() else {
        return out;
    };
    let hard = profile.hard_live_ins();
    let wrong = profile.wrong_path_pcs();

    for block in cfg.blocks() {
        let Terminator::Branch { .. } = block.terminator else {
            continue;
        };
        let branch_pc = block.end - INSTR_BYTES;
        let Some(counts) = profile.branch(branch_pc) else {
            continue;
        };
        if counts.bias().is_none_or(|b| b < threshold) {
            continue; // not asserted: the master evaluates it for real
        }
        let asserted_taken = counts.mostly_taken();
        // The direction the distiller threw away.
        let away_pc = if asserted_taken {
            block.end // fall-through
        } else {
            let branch = program.fetch(branch_pc).expect("branch in text");
            branch.static_target(branch_pc).expect("branch target")
        };
        // Relevance: the discarded path either reaches a PC where a
        // wrong-path squash landed, or defines a hard-to-predict live-in.
        let walk = forward_walk(program, away_pc, MAX_WALK);
        let reaches_wrong = walk.iter().any(|pc| wrong.contains(pc));
        let defines_hard = walk.iter().any(|&pc| {
            program
                .fetch(pc)
                .and_then(|i| i.def_reg())
                .is_some_and(|r| hard.contains(&r))
        });
        if !reaches_wrong && !defines_hard {
            continue;
        }
        // Home boundary: the nearest boundary at or below the branch.
        let Some(&home) = boundaries.range(..=branch_pc).next_back() else {
            continue;
        };
        let next_boundary = boundaries
            .range(branch_pc + 1..)
            .next()
            .copied()
            .unwrap_or(program.text_end());
        let Some((mut instrs, inputs)) = condition_slice(program, block.start, branch_pc) else {
            continue;
        };
        // Inputs the slice itself redefines (induction updates, pointer
        // loads) are fed back probe-to-probe by the evaluator; every
        // other input needs a recognizable per-crossing stride.
        let slice_defs: BTreeSet<Reg> = instrs.iter().filter_map(Instr::def_reg).collect();
        let mut strided: Vec<(Reg, i64)> = Vec::with_capacity(inputs.len());
        let mut ok = true;
        for &reg in &inputs {
            if slice_defs.contains(&reg) {
                strided.push((reg, 0));
                continue;
            }
            match region_stride(program, reg, home, next_boundary) {
                Some(s) => strided.push((reg, s)),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // Window in *loop iterations*: a task covers `crossings_per_task`
        // crossings of the home boundary's phase; scale by how often this
        // branch runs per home-boundary crossing so loops containing
        // several boundary sites are not vetoed early, while
        // temporally-phased loops still get the full task window.
        let iters = profile.exec_count(branch_pc);
        let home_crossings = profile.exec_count(home);
        let window = if home_crossings == 0 || iters == 0 {
            crossings_per_task
        } else {
            let w = (crossings_per_task as f64 * iters as f64 / home_crossings as f64).ceil();
            (w as u64).clamp(1, 4096)
        };
        instrs.push(program.fetch(branch_pc).expect("branch in text"));
        out.entry(home).or_default().push(Slice {
            kind: SliceKind::SpawnGuard { asserted_taken },
            program: Program::from_instrs(instrs),
            inputs: strided,
            window,
            home_pc: branch_pc,
        });

        // Live-in slice: if the discarded path is the only thing keeping a
        // hard register fresh, but the *hot* region recomputes it from
        // loop-invariant inputs, ship the recomputation. Conservative by
        // design — only loop-invariant operands qualify, so the value the
        // master computes at spawn holds for the whole window.
        for &reg in hard.iter() {
            let mut defs = Vec::new();
            let mut pc = home;
            while pc < next_boundary {
                if let Some(i) = program.fetch(pc) {
                    if i.def_reg() == Some(reg) {
                        defs.push((pc, i));
                    }
                }
                pc += INSTR_BYTES;
            }
            let [(def_pc, def)] = defs[..] else { continue };
            if !is_pure_alu(&def) || def.use_regs().into_iter().flatten().any(|u| u == reg) {
                continue;
            }
            let operands: Vec<Reg> = def
                .use_regs()
                .into_iter()
                .flatten()
                .filter(|r| *r != Reg::ZERO)
                .collect();
            let invariant = operands
                .iter()
                .all(|&r| region_stride(program, r, home, next_boundary) == Some(0));
            if !invariant {
                continue;
            }
            let slices = out.entry(home).or_default();
            if slices
                .iter()
                .any(|s| matches!(s.kind, SliceKind::LiveIn { target } if target == reg))
            {
                continue;
            }
            slices.push(Slice {
                kind: SliceKind::LiveIn { target: reg },
                program: Program::from_instrs(vec![def, Instr::Halt]),
                inputs: operands.into_iter().map(|r| (r, 0)).collect(),
                window,
                home_pc: def_pc,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distill, DistillConfig};
    use mssp_analysis::Profile;
    use mssp_isa::asm::assemble;

    // 8000 iterations: the back-edge bias (7999/8000) must clear the
    // default 0.9995 assert threshold for the branch to be asserted at
    // all — guards only attach to asserted branches.
    const LOOP: &str = "
        main: addi s3, zero, 7
              addi s0, zero, 1000
              slli s0, s0, 3
        loop: add  s2, s3, zero
              add  s1, s1, s2
              addi s0, s0, -1
              bnez s0, loop
              halt";

    #[test]
    fn no_feedback_emits_no_slices() {
        let p = assemble(LOOP).unwrap();
        let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        assert_eq!(d.stats().slices_emitted, 0);
        assert!(d.slices().is_empty());
    }

    #[test]
    fn wrong_path_feedback_emits_a_fed_back_guard() {
        let p = assemble(LOOP).unwrap();
        let mut profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        // A previous run squash-sampled a wrong-path event whose
        // architected PC was the loop exit (the halt).
        let exit_pc = p.text_end() - INSTR_BYTES;
        profile.mark_wrong_path(exit_pc);
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        let guard = d
            .slices()
            .values()
            .flatten()
            .find(|s| matches!(s.kind, SliceKind::SpawnGuard { .. }))
            .expect("a spawn guard for the asserted back-edge");
        assert_eq!(
            guard.kind,
            SliceKind::SpawnGuard {
                asserted_taken: true
            }
        );
        // The slice ends in the guarded branch and redefines its own
        // input (the induction decrement), so the input is declared with
        // stride 0 and fed back probe-to-probe.
        let last = guard.program.iter_pcs().last().unwrap().1;
        assert!(last.is_branch());
        assert!(guard.inputs.contains(&(Reg::S0, 0)));
        assert!(guard.window >= 1);
        assert!(guard.program.len() <= MAX_SLICE_LEN);
    }

    #[test]
    fn hard_live_in_feedback_emits_an_invariant_recomputation() {
        let p = assemble(LOOP).unwrap();
        let mut profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let exit_pc = p.text_end() - INSTR_BYTES;
        profile.mark_wrong_path(exit_pc);
        // s2 kept mismatching at verify; the hot region recomputes it
        // from the loop-invariant s3, so a live-in slice can ship that
        // recomputation to spawn time.
        profile.mark_hard_live_in(Reg::S2);
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        let live_in = d
            .slices()
            .values()
            .flatten()
            .find(|s| matches!(s.kind, SliceKind::LiveIn { .. }))
            .expect("a live-in recomputation slice for s2");
        assert_eq!(live_in.kind, SliceKind::LiveIn { target: Reg::S2 });
        assert_eq!(live_in.inputs, vec![(Reg::S3, 0)]);
        let last = live_in.program.iter_pcs().last().unwrap().1;
        assert!(last.is_halt());
    }

    #[test]
    fn non_strided_free_input_suppresses_the_guard() {
        // The asserted back-edge tests `t3`, which is defined in an
        // *earlier* block (so the condition slice cannot absorb and feed
        // it back) by a non-self-increment (so it has no recognizable
        // per-crossing stride either). The pass must drop the guard
        // rather than emit one that would stride-seed an unreplayable
        // input.
        let p = assemble(
            "main: addi s0, zero, 1000
                   slli s0, s0, 3
             loop: add  t3, s0, s0
                   andi t2, s0, 1
                   beqz t2, skip
                   addi s1, s1, 1
             skip: addi s0, s0, -1
                   bnez t3, loop
                   halt",
        )
        .unwrap();
        let mut profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        profile.mark_wrong_path(p.text_end() - INSTR_BYTES);
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        assert!(
            d.slices()
                .values()
                .flatten()
                .all(|s| !matches!(s.kind, SliceKind::SpawnGuard { .. })),
            "the t3 guard must be dropped, got {:?}",
            d.slices()
        );
    }
}
