//! Spawn guards (the Prophet-style squash-rate attack).
//!
//! When a previous MSSP run reports *where* speculation failed — the
//! architected PCs of wrong-path squashes and the registers behind
//! live-in mismatches, threaded back into the [`Profile`] as slice
//! feedback — this pass extracts, per task boundary, short straight-line
//! programs the run-time can execute against the master's checkpoint
//! view. Each one is a **spawn guard**: it re-evaluates an asserted
//! branch condition over the upcoming task window. The distilled program
//! replaced the branch with its dominant direction; the guard recomputes
//! the *real* condition from spawn-available values and, when the rare
//! direction is due inside the window, tells the master to veto the spawn
//! and fall back to a sequential recovery segment instead of feeding the
//! verify unit a doomed task.
//!
//! Like distillation itself, guards are purely a performance artifact:
//! a wrong guard costs a recovery segment or a squash, never
//! correctness. The `slice-unsound` lint additionally proves each
//! emitted guard reads only spawn-available values (declared inputs,
//! earlier slice results, or loads answered from the master's spawn-time
//! memory view), keeping the contract auditable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mssp_analysis::{Cfg, Profile, Terminator};
use mssp_isa::{ImmOp, Instr, Program, Reg, INSTR_BYTES};

/// Instruction budget of the forward relevance walk from an asserted-away
/// branch direction toward the profile's squash-feedback PCs.
const MAX_WALK: usize = 32;

/// A spawn guard attached to a task boundary: a short program that
/// re-evaluates an asserted branch over the spawn window. If any
/// evaluation resolves *against* the asserted direction, the master
/// vetoes the spawn.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The direction the distiller asserted (and the master follows).
    pub asserted_taken: bool,
    /// The guard body as a standalone straight-line program (entry at its
    /// text base), ending in the guarded branch, whose encoded offset is
    /// never followed.
    pub program: Program,
    /// Input registers the slice reads, each with its estimated
    /// per-boundary-crossing stride in the original loop (`0` for
    /// loop-invariant inputs). The evaluator seeds input `r` with
    /// `view(r) + stride * j` when probing crossing `j` of the window —
    /// except inputs the slice itself redefines (induction updates,
    /// pointer-chase loads), which are fed back probe-to-probe instead
    /// and carry stride `0` here.
    pub inputs: Vec<(Reg, i64)>,
    /// Boundary crossings one spawned task covers — the range of `j` the
    /// guard must clear before the spawn is allowed, at most
    /// [`MAX_GUARD_WINDOW`].
    pub window: u64,
    /// The original-program PC of the asserted branch — the diagnostic
    /// anchor for `slice-unsound`.
    pub home_pc: u64,
}

/// Hard ceiling on slice length, enforced by construction here and
/// re-proved by the `slice-unsound` lint on every `Distilled`.
pub const MAX_SLICE_LEN: usize = 16;

/// Hard ceiling on a guard's probe window: the distiller clamps to it,
/// the master probes at most this many crossings each way, and the
/// `slice-unsound` lint rejects a window over it.
pub const MAX_GUARD_WINDOW: u64 = 4096;

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
                (Instr::AluImm(ImmOp::Addi, d, s, imm), None) if d == s => {
                    stride = Some(i64::from(imm))
                }
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
        if !(instr.is_alu() || instr.is_load()) || picked.len() + 1 >= MAX_SLICE_LEN {
            return None;
        }
        picked.push((pc, instr));
        needed.extend(instr.use_regs().into_iter().flatten());
        needed.remove(&Reg::ZERO);
    }
    picked.reverse();
    Some((picked.into_iter().map(|(_, i)| i).collect(), needed))
}

/// Runs the slice pass over pass 1's branch assertions (block id →
/// asserted direction, `true` for taken). Active only when the profile
/// carries slice feedback (squash observations from a previous run);
/// without feedback the result is empty and distillation output is
/// byte-identical to a feedback-free run.
pub(crate) fn compute_slices(
    program: &Program,
    cfg: &Cfg,
    profile: &Profile,
    asserts: &BTreeMap<usize, bool>,
    boundaries: &BTreeSet<u64>,
    crossings_per_task: u64,
) -> BTreeMap<u64, Vec<Slice>> {
    let mut out: BTreeMap<u64, Vec<Slice>> = BTreeMap::new();
    if !profile.has_slice_feedback() || boundaries.is_empty() {
        return out;
    }
    let hard = profile.hard_live_ins();
    let wrong = profile.wrong_path_pcs();

    for (&bid, &asserted_taken) in asserts {
        let block = &cfg.blocks()[bid];
        let Terminator::Branch { taken, fallthrough } = block.terminator else {
            continue;
        };
        let branch_pc = block.end - INSTR_BYTES;
        // The direction the distiller threw away.
        let away_pc = cfg.blocks()[if asserted_taken { fallthrough } else { taken }].start;
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
            (crossings_per_task as f64 * iters as f64 / home_crossings as f64).ceil() as u64
        };
        // why: the block ends in a `Terminator::Branch` of the text.
        instrs.push(program.fetch(branch_pc).expect("branch in text"));
        out.entry(home).or_default().push(Slice {
            asserted_taken,
            program: Program::from_instrs(instrs),
            inputs: strided,
            window: window.clamp(1, MAX_GUARD_WINDOW),
            home_pc: branch_pc,
        });
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
            .next()
            .expect("a spawn guard for the asserted back-edge");
        assert!(guard.asserted_taken);
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
    fn hard_live_in_feedback_alone_guards_the_arm_that_defines_it() {
        // No wrong-path PC: the only feedback is that s4 kept mismatching
        // at verify. The asserted-away arm of the back-edge (the loop
        // exit) defines s4, so the back-edge gets a guard.
        let p = assemble(&LOOP.replace("halt", "addi s4, s1, 0\n halt")).unwrap();
        let mut profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        profile.mark_hard_live_in(Reg::S4);
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        let guards: Vec<&Slice> = d.slices().values().flatten().collect();
        let [guard] = guards[..] else {
            panic!("one guard for the asserted back-edge, got {guards:?}");
        };
        assert!(guard.asserted_taken);
        assert_eq!(guard.home_pc, p.symbol("loop").unwrap() + 3 * INSTR_BYTES);
        let last = guard.program.iter_pcs().last().unwrap().1;
        assert!(last.is_branch());
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
            d.slices().is_empty(),
            "the t3 guard must be dropped, got {:?}",
            d.slices()
        );
    }
}
