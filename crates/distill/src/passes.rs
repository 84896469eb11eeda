//! The distiller's optimizing pass pipeline.
//!
//! Runs between IR construction and layout, transforming the relocatable
//! [`DBlock`] list to a fixpoint under a per-pass iteration budget. Every
//! pass is profile- or dataflow-guided and *approximation-tolerant*: a
//! wrong transform costs the master squashes, never correctness, because
//! slaves execute the original program (the paper's decoupling of
//! performance from correctness). The passes are nevertheless engineered
//! to be sound on the asserted CFG — gratuitous wrongness just burns
//! squash cycles.
//!
//! ## Dataflow over the IR
//!
//! [`ConstPropAnalysis`] and [`CopyPropAnalysis`] were written against the
//! original program's CFG, but the facts the pipeline needs live on the
//! *asserted* graph the IR encodes (asserted-away edges must not pollute
//! joins). A custom forward worklist solver therefore runs the same
//! lattices directly over the block list, along the edges [`successors`]
//! reads from each block's typed [`Exit`]; an exit's own instruction
//! defines nothing, so only block bodies are transferred. Pessimistic
//! boundary facts are injected wherever the master can (re)enter
//! distilled code with arbitrary architected state:
//!
//! * the distilled entry block,
//! * every task boundary (the master is re-seeded there after a squash),
//! * every block whose original address is a materialized constant of the
//!   original program (indirect jumps land there via `to_dist`
//!   translation),
//! * every block with no IR predecessor (retained as a hot root; nothing
//!   flows facts into it).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mssp_analysis::{
    eval_branch, Analysis, ConstPropAnalysis, ConstVal, CopyFacts, CopyPropAnalysis, Profile,
};
use mssp_isa::{asm::li_sequence, Instr, INSTR_BYTES};

use crate::config::PassConfig;
use crate::ir::{block_index, is_pure, successors, BoundaryLive, DBlock, Exit};

/// One pass's effect on static size, in pipeline order. The `--stats` CLI
/// output and ablation tables are rendered from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassDelta {
    /// Pass name (`const-fold`, `copy-prop`, `dce`, `jump-thread`).
    pub pass: &'static str,
    /// 1-based pipeline iteration this run belongs to.
    pub iteration: usize,
    /// Static IR instructions before the pass ran.
    pub before: usize,
    /// Static IR instructions after the pass ran.
    pub after: usize,
}

/// Aggregate pipeline counters, merged into `DistillStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PipelineCounters {
    pub const_folded: usize,
    pub branches_folded: usize,
    pub pruned_blocks: usize,
    pub copies_propagated: usize,
    pub dce_removed: usize,
    pub jumps_threaded: usize,
    pub iterations: usize,
}

/// The pipeline's result: counters plus the per-pass size trace.
#[derive(Debug, Clone, Default)]
pub(crate) struct PipelineOutcome {
    pub counters: PipelineCounters,
    pub trace: Vec<PassDelta>,
}

/// Runs the enabled passes over `blocks` to a fixpoint (bounded by
/// `config.max_iterations`).
///
/// `entry` is the distilled entry block's original address, `reseed` the
/// extra original addresses where the master can enter with arbitrary
/// state (task boundaries ∪ materialized constants), `hot_roots` the
/// original block starts that must survive unreachable-code pruning, and
/// `block_ends` each original block's end address (for locating its
/// terminator's profiled edges).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline(
    blocks: &mut Vec<DBlock>,
    config: &PassConfig,
    profile: &Profile,
    boundary_live: &BoundaryLive,
    entry: u64,
    reseed: &BTreeSet<u64>,
    hot_roots: &BTreeSet<u64>,
    block_ends: &BTreeMap<u64, u64>,
) -> PipelineOutcome {
    let mut out = PipelineOutcome::default();
    let mut entries: BTreeSet<u64> = reseed.clone();
    entries.insert(entry);
    let mut prune_roots: BTreeSet<u64> = entries.clone();
    prune_roots.extend(hot_roots.iter().copied());

    for iteration in 1..=config.max_iterations {
        let snapshot = blocks.clone();
        if config.const_fold {
            let before = static_len(blocks);
            let (folded, branches) = const_fold(blocks, &entries);
            out.counters.const_folded += folded;
            out.counters.branches_folded += branches;
            out.counters.pruned_blocks += prune_unreachable(blocks, &prune_roots);
            out.trace.push(PassDelta {
                pass: "const-fold",
                iteration,
                before,
                after: static_len(blocks),
            });
        }
        if config.copy_prop {
            let before = static_len(blocks);
            out.counters.copies_propagated += copy_prop(blocks, &entries);
            out.trace.push(PassDelta {
                pass: "copy-prop",
                iteration,
                before,
                after: static_len(blocks),
            });
        }
        if config.dce {
            let before = static_len(blocks);
            out.counters.dce_removed += crate::ir::eliminate_dead_code(blocks, boundary_live);
            out.trace.push(PassDelta {
                pass: "dce",
                iteration,
                before,
                after: static_len(blocks),
            });
        }
        if config.jump_thread {
            let before = static_len(blocks);
            out.counters.jumps_threaded += jump_thread(blocks, entry, profile, block_ends);
            out.trace.push(PassDelta {
                pass: "jump-thread",
                iteration,
                before,
                after: static_len(blocks),
            });
        }
        out.counters.iterations = iteration;
        if *blocks == snapshot {
            break;
        }
    }
    out
}

fn static_len(blocks: &[DBlock]) -> usize {
    blocks.iter().map(|b| b.body.len() + b.exit.len()).sum()
}

/// Forward worklist solve of `analysis` over the IR graph; returns each
/// block's entry fact. Blocks named in `entries` (and blocks with no
/// predecessor) are seeded with the pessimistic boundary fact — the
/// master can materialize there with arbitrary architected state.
///
/// Instructions are transferred at a synthetic pc of 0. That is safe: IR
/// construction rewrites every call, so no link-register definition
/// (whose value is pc-dependent) survives into the IR. An exit's own
/// instruction defines nothing, so only the body is transferred.
fn solve_ir<A: Analysis>(blocks: &[DBlock], analysis: &A, entries: &BTreeSet<u64>) -> Vec<A::Fact> {
    let n = blocks.len();
    let index = block_index(blocks);
    let succs: Vec<[Option<usize>; 2]> = (0..n).map(|i| successors(blocks, &index, i).0).collect();
    let mut has_pred = vec![false; n];
    for &j in succs.iter().flatten().flatten() {
        has_pred[j] = true;
    }
    let boundary = analysis.boundary();
    let mut entry_facts: Vec<A::Fact> = (0..n).map(|_| analysis.init()).collect();
    for (i, b) in blocks.iter().enumerate() {
        if !has_pred[i] || entries.contains(&b.orig_start) {
            analysis.join(&mut entry_facts[i], &boundary);
        }
    }

    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        let mut fact = entry_facts[i].clone();
        for &instr in &blocks[i].body {
            analysis.transfer(0, instr, &mut fact);
        }
        for j in succs[i].into_iter().flatten() {
            if analysis.join(&mut entry_facts[j], &fact) && !queued[j] {
                queued[j] = true;
                work.push_back(j);
            }
        }
    }
    entry_facts
}

/// Constant propagation & folding: ALU results that are constant on every
/// asserted path are rematerialized as single-instruction `li`s (severing
/// their input dependences), and conditional branches whose outcome the
/// facts decide collapse into an unconditional jump or a plain
/// fall-through. Returns `(instructions folded, branches folded)`.
fn const_fold(blocks: &mut [DBlock], entries: &BTreeSet<u64>) -> (usize, usize) {
    let analysis = ConstPropAnalysis;
    let entry_facts = solve_ir(blocks, &analysis, entries);
    let mut folded = 0;
    let mut branches = 0;
    for (block, mut fact) in blocks.iter_mut().zip(entry_facts) {
        for instr in &mut block.body {
            analysis.transfer(0, *instr, &mut fact);
            if !is_pure(*instr) {
                continue;
            }
            let rd = instr.def_reg().expect("pure implies a definition");
            if let ConstVal::Const(v) = fact.get(rd) {
                let seq = li_sequence(rd, v as i64);
                if seq.len() == 1 && seq[0] != *instr {
                    *instr = seq[0];
                    folded += 1;
                }
            }
        }
        if let Exit::Branch {
            instr,
            taken,
            other,
        } = block.exit
        {
            if let Some(is_taken) = eval_branch(instr, &fact) {
                block.exit = if is_taken {
                    Exit::Jump(taken)
                } else {
                    other.map_or(Exit::Fall, Exit::Jump)
                };
                branches += 1;
            }
        }
    }
    (folded, branches)
}

/// Removes blocks no longer reachable from any root once folded branches
/// cut their incoming edges. Roots are everywhere the master can enter
/// (entry, boundaries, indirect-landing sites) plus every training-hot
/// block — the same retention rule as cold-code elision, so the master is
/// never left without an image for code it demonstrably runs.
fn prune_unreachable(blocks: &mut Vec<DBlock>, roots: &BTreeSet<u64>) -> usize {
    let index = block_index(blocks);
    let mut reached = vec![false; blocks.len()];
    let mut stack: Vec<usize> = roots.iter().filter_map(|r| index.get(r).copied()).collect();
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut reached[i], true) {
            stack.extend(successors(blocks, &index, i).0.into_iter().flatten());
        }
    }
    let before = blocks.len();
    let mut it = reached.into_iter();
    blocks.retain(|_| it.next().unwrap());
    before - blocks.len()
}

/// Copy propagation: every register use that provably mirrors another
/// register is rewritten to the source, exposing the intervening move to
/// DCE. Returns the number of operand rewrites.
fn copy_prop(blocks: &mut [DBlock], entries: &BTreeSet<u64>) -> usize {
    let analysis = CopyPropAnalysis;
    let entry_facts = solve_ir(blocks, &analysis, entries);
    let mut rewritten = 0;
    let mut rewrite = |instr: Instr, fact: &CopyFacts| {
        instr.map_uses(|r| match fact.get(r).source() {
            Some(src) if src != r => {
                rewritten += 1;
                src
            }
            _ => r,
        })
    };
    for (block, mut fact) in blocks.iter_mut().zip(entry_facts) {
        for instr in &mut block.body {
            *instr = rewrite(*instr, &fact);
            analysis.transfer(0, *instr, &mut fact);
        }
        if let Exit::Branch { instr, .. } | Exit::Stop(instr) = &mut block.exit {
            *instr = rewrite(*instr, &fact);
        }
    }
    rewritten
}

/// Estimated dynamic cost a layout pays for its control transfers: the
/// profile-weighted number of `Jump` executions plus (layout-invariant,
/// but kept so alternatives compare on the same scale) branch executions.
/// Edge weights come from the original program's profiled edge counts,
/// located via each block's original terminator address
/// (`block_ends[start] - INSTR_BYTES`); edges the IR invented (e.g. by
/// branch folding) that never existed in the original weigh 0, which only
/// makes the model conservative about reordering around them.
fn layout_cost(blocks: &[DBlock], profile: &Profile, block_ends: &BTreeMap<u64, u64>) -> u64 {
    let weight = |b: &DBlock, to: u64| -> u64 {
        let end = block_ends
            .get(&b.orig_start)
            .copied()
            .unwrap_or(b.orig_start + INSTR_BYTES);
        profile.edge_count(end - INSTR_BYTES, to)
    };
    let mut cost = 0u64;
    for (i, b) in blocks.iter().enumerate() {
        cost += match b.exit {
            // The branch executes on both sides, the jump on the fall
            // side only.
            Exit::Branch {
                taken,
                other: Some(fall),
                ..
            } => weight(b, taken) + 2 * weight(b, fall),
            Exit::Branch {
                taken, other: None, ..
            } => weight(b, taken) + blocks.get(i + 1).map_or(0, |n| weight(b, n.orig_start)),
            Exit::Jump(t) => weight(b, t),
            Exit::Fall | Exit::Stop(_) => 0,
        };
    }
    cost
}

/// The branch `instr` negated, to `taken` and otherwise to `other`.
fn negated(instr: Instr, taken: u64, other: Option<u64>) -> Option<Exit> {
    Some(Exit::Branch {
        instr: instr.negated()?,
        taken,
        other,
    })
}

/// Profile-guided jump threading / superblock straightening.
///
/// Normalizes every implicit fall-through into an explicit jump (a
/// branch's fall side becomes its else-jump, making block order a free
/// variable), lays blocks out along greedy traces that follow each
/// block's hottest successor, then fixes every branch with an else-jump
/// against the physical order: the jump is elided when its target
/// follows, the branch is negated (and the jump elided) when *its* target
/// follows, and otherwise the branch points at the hotter side so the
/// two-transfer path is the cold one.
///
/// The candidate layout is adopted only if it strictly improves the
/// profile-weighted transfer cost ([`layout_cost`]), or matches it with
/// strictly fewer static instructions; otherwise the input layout is
/// restored. That keeps the pass monotone (so the pipeline fixpoint
/// terminates) and prevents the greedy trace from pessimizing workloads
/// whose existing layout already follows the hot paths. Returns the
/// number of control transfers removed or redirected (0 when the
/// candidate is rejected, so the pipeline's fixpoint counters stay
/// honest). Purely a layout transform — the set of executed non-control
/// instructions on any path is unchanged.
fn jump_thread(
    blocks: &mut Vec<DBlock>,
    entry: u64,
    profile: &Profile,
    block_ends: &BTreeMap<u64, u64>,
) -> usize {
    let n = blocks.len();
    if n == 0 {
        return 0;
    }
    // A final block that can fall off the end of the image pins the whole
    // layout (there is nothing to fall into); leave such programs alone.
    if matches!(
        blocks[n - 1].exit,
        Exit::Fall | Exit::Branch { other: None, .. }
    ) {
        return 0;
    }
    let input = blocks.clone();
    let hot = |start: u64| profile.exec_count(start);

    // 1. Normalize: explicit jump for every implicit fall-through.
    for i in 0..n - 1 {
        let next = blocks[i + 1].orig_start;
        match &mut blocks[i].exit {
            exit @ Exit::Fall => *exit = Exit::Jump(next),
            Exit::Branch { other, .. } if other.is_none() => *other = Some(next),
            _ => {}
        }
    }

    // 2. Point each branch at its colder successor (the else-jump then
    // names the hot side, which the trace layout follows). Step 4 re-fixes
    // orientation against the physical order, so this is purely a layout
    // heuristic.
    for block in blocks.iter_mut() {
        if let Exit::Branch {
            instr,
            taken,
            other: Some(fall),
        } = block.exit
        {
            if hot(taken) > hot(fall) {
                if let Some(exit) = negated(instr, fall, Some(taken)) {
                    block.exit = exit;
                }
            }
        }
    }

    // 3. Greedy trace layout: start at the entry and follow each block's
    // unconditional jump while the target is unplaced; when the jump side
    // is already placed (a back edge), continue through the branch side so
    // the cold continuation stays adjacent. Seed further traces from the
    // hottest unplaced block.
    let index = block_index(blocks);
    let mut placed = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut seed = index.get(&entry).copied();
    loop {
        let start = match seed.take().filter(|&i| !placed[i]) {
            Some(i) => i,
            None => {
                let Some(best) = (0..n)
                    .filter(|&i| !placed[i])
                    .max_by_key(|&i| (hot(blocks[i].orig_start), std::cmp::Reverse(i)))
                else {
                    break;
                };
                best
            }
        };
        let mut cur = start;
        loop {
            placed[cur] = true;
            order.push(cur);
            let unplaced = |t: u64| index.get(&t).copied().filter(|&j| !placed[j]);
            let next = match blocks[cur].exit {
                Exit::Jump(t) => unplaced(t),
                Exit::Branch {
                    taken,
                    other: Some(fall),
                    ..
                } => unplaced(fall).or_else(|| unplaced(taken)),
                _ => None,
            };
            match next {
                Some(j) => cur = j,
                None => break,
            }
        }
    }
    let mut reordered: Vec<DBlock> = order.into_iter().map(|i| blocks[i].clone()).collect();

    // 4. Fix control transfers against the physical order.
    let mut changed = 0;
    for i in 0..n {
        let next_start = (i + 1 < n).then(|| reordered[i + 1].orig_start);
        let exit = &mut reordered[i].exit;
        let fixed = match *exit {
            Exit::Branch {
                instr,
                taken,
                other: Some(fall),
            } => {
                if Some(fall) == next_start {
                    // Hot side physically follows: drop the jump.
                    Some(Exit::Branch {
                        instr,
                        taken,
                        other: None,
                    })
                } else if Some(taken) == next_start {
                    // Branch side follows: negate so it falls through.
                    negated(instr, fall, None)
                } else if hot(fall) > hot(taken) {
                    // Neither side adjacent: the branch-taken path costs
                    // one transfer, the jump path two — point the branch
                    // at the strictly-hotter side.
                    negated(instr, fall, Some(taken))
                } else {
                    None
                }
            }
            Exit::Jump(t) if Some(t) == next_start => Some(Exit::Fall),
            _ => None,
        };
        if let Some(new) = fixed {
            *exit = new;
            changed += 1;
        }
    }
    // Adopt only on strict lexicographic (dynamic cost, static size)
    // improvement.
    let (old_cost, new_cost) = (
        layout_cost(&input, profile, block_ends),
        layout_cost(&reordered, profile, block_ends),
    );
    let improves = new_cost < old_cost
        || (new_cost == old_cost && static_len(&reordered) < static_len(&input));
    if !improves {
        *blocks = input;
        return 0;
    }
    *blocks = reordered;
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::Reg;

    fn block(start: u64, body: Vec<Instr>, exit: Exit) -> DBlock {
        DBlock {
            orig_start: start,
            body,
            exit,
        }
    }

    fn no_entries() -> BTreeSet<u64> {
        BTreeSet::new()
    }

    fn empty_profile() -> Profile {
        Profile::collect(
            &mssp_isa::asm::assemble("main: halt").unwrap(),
            Profile::UNBOUNDED,
        )
        .unwrap()
    }

    #[test]
    fn const_fold_rematerializes_known_alu_results() {
        // a0 = 6; a1 = a0 + 1 folds to li a1, 7.
        let mut blocks = vec![block(
            0x100,
            vec![
                Instr::Addi(Reg::A0, Reg::ZERO, 6),
                Instr::Addi(Reg::A1, Reg::A0, 1),
            ],
            Exit::Stop(Instr::Halt),
        )];
        let (folded, branches) = const_fold(&mut blocks, &no_entries());
        assert_eq!((folded, branches), (1, 0));
        assert_eq!(blocks[0].body[1], Instr::Addi(Reg::A1, Reg::ZERO, 7));
    }

    #[test]
    fn const_fold_collapses_decided_branches_and_prunes() {
        // a0 = 3, `beqz a0` can never be taken: the branch folds away and
        // its target block (cold, not a root) is pruned.
        let mut blocks = vec![
            block(
                0x100,
                vec![Instr::Addi(Reg::A0, Reg::ZERO, 3)],
                Exit::Branch {
                    instr: Instr::Beq(Reg::A0, Reg::ZERO, 0),
                    taken: 0x200,
                    other: None,
                },
            ),
            block(0x108, vec![], Exit::Stop(Instr::Halt)),
            block(0x200, vec![], Exit::Stop(Instr::Halt)),
        ];
        let (_, branches) = const_fold(&mut blocks, &no_entries());
        assert_eq!(branches, 1);
        assert_eq!(blocks[0].exit, Exit::Fall);
        let roots: BTreeSet<u64> = [0x100].into_iter().collect();
        assert_eq!(prune_unreachable(&mut blocks, &roots), 1);
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|b| b.orig_start != 0x200));
    }

    #[test]
    fn const_fold_decides_a_branch_that_has_an_else_jump() {
        // Jump threading leaves `bne a0 → 0x200` with an else-jump to
        // 0x108. a0 = 3, so the branch is always taken: the block must
        // become a jump to 0x200, and pruning must keep 0x200 (the block
        // execution reaches) and drop 0x108.
        let mut blocks = vec![
            block(
                0x100,
                vec![Instr::Addi(Reg::A0, Reg::ZERO, 3)],
                Exit::Branch {
                    instr: Instr::Bne(Reg::A0, Reg::ZERO, 0),
                    taken: 0x200,
                    other: Some(0x108),
                },
            ),
            block(0x108, vec![], Exit::Stop(Instr::Halt)),
            block(0x200, vec![], Exit::Stop(Instr::Halt)),
        ];
        let (_, branches) = const_fold(&mut blocks, &no_entries());
        assert_eq!(branches, 1);
        assert_eq!(blocks[0].exit, Exit::Jump(0x200));
        let roots: BTreeSet<u64> = [0x100].into_iter().collect();
        assert_eq!(prune_unreachable(&mut blocks, &roots), 1);
        let kept: Vec<u64> = blocks.iter().map(|b| b.orig_start).collect();
        assert_eq!(kept, vec![0x100, 0x200]);
    }

    #[test]
    fn reseed_entries_suppress_folding() {
        // Same program, but 0x108 is a task boundary: facts there are
        // pessimistic, so a use of a0 downstream of the boundary must not
        // fold even though the only IR path sets a0 = 3.
        let mut blocks = vec![
            block(0x100, vec![Instr::Addi(Reg::A0, Reg::ZERO, 3)], Exit::Fall),
            block(
                0x108,
                vec![Instr::Addi(Reg::A1, Reg::A0, 1)],
                Exit::Stop(Instr::Halt),
            ),
        ];
        let entries: BTreeSet<u64> = [0x108].into_iter().collect();
        let (folded, _) = const_fold(&mut blocks, &entries);
        assert_eq!(folded, 0);
        assert_eq!(blocks[1].body[0], Instr::Addi(Reg::A1, Reg::A0, 1));
    }

    #[test]
    fn copy_prop_rewrites_uses_across_blocks() {
        // a1 := a0, then a2 = a1 + 1 in the fall-through block becomes
        // a2 = a0 + 1 (there is a unique predecessor, no reseed).
        let mut blocks = vec![
            block(
                0x100,
                vec![
                    Instr::Addi(Reg::A0, Reg::ZERO, 9),
                    Instr::Addi(Reg::A1, Reg::A0, 0),
                ],
                Exit::Fall,
            ),
            block(
                0x108,
                vec![Instr::Addi(Reg::A2, Reg::A1, 1)],
                Exit::Stop(Instr::Halt),
            ),
        ];
        assert_eq!(copy_prop(&mut blocks, &no_entries()), 1);
        assert_eq!(blocks[1].body[0], Instr::Addi(Reg::A2, Reg::A0, 1));
    }

    #[test]
    fn copy_prop_rewrites_the_exit_instruction() {
        // a1 := a0 feeds both the branch and the indirect jump.
        let mut blocks = vec![
            block(
                0x100,
                vec![Instr::Addi(Reg::A1, Reg::A0, 0)],
                Exit::Branch {
                    instr: Instr::Beq(Reg::A1, Reg::ZERO, 0),
                    taken: 0x100,
                    other: None,
                },
            ),
            block(
                0x108,
                vec![],
                Exit::Stop(Instr::Jalr(Reg::ZERO, Reg::A1, 0)),
            ),
        ];
        let entries: BTreeSet<u64> = [0x100].into_iter().collect();
        assert_eq!(copy_prop(&mut blocks, &entries), 2);
        assert_eq!(
            blocks[0].exit,
            Exit::Branch {
                instr: Instr::Beq(Reg::A0, Reg::ZERO, 0),
                taken: 0x100,
                other: None,
            }
        );
        assert_eq!(
            blocks[1].exit,
            Exit::Stop(Instr::Jalr(Reg::ZERO, Reg::A0, 0))
        );
    }

    #[test]
    fn jump_thread_straightens_jump_chains() {
        // 0x100 jumps to 0x300 which halts; 0x200 is an unreachable-ish
        // sibling kept in between. Threading moves 0x300 after 0x100 and
        // elides the jump. (An empty profile means hotness 0 everywhere;
        // trace-following still straightens unconditional chains.)
        let mut blocks = vec![
            block(0x100, vec![], Exit::Jump(0x300)),
            block(0x200, vec![], Exit::Stop(Instr::Halt)),
            block(0x300, vec![], Exit::Stop(Instr::Halt)),
        ];
        let changed = jump_thread(&mut blocks, 0x100, &empty_profile(), &BTreeMap::new());
        assert!(changed >= 1);
        assert_eq!(blocks[0].orig_start, 0x100);
        assert_eq!(blocks[1].orig_start, 0x300);
        assert_eq!(blocks[0].exit, Exit::Fall, "jump elided: {blocks:?}");
    }

    #[test]
    fn jump_thread_bails_on_open_final_block() {
        let mut blocks = vec![
            block(0x100, vec![], Exit::Jump(0x200)),
            block(0x200, vec![Instr::nop()], Exit::Fall), // falls off the end
        ];
        let before = blocks.clone();
        assert_eq!(
            jump_thread(&mut blocks, 0x100, &empty_profile(), &BTreeMap::new()),
            0
        );
        assert_eq!(blocks, before);
    }
}
