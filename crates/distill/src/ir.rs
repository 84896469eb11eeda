//! The distiller's relocatable intermediate representation.
//!
//! Between transformation and final layout, the distilled program is a list
//! of [`DBlock`]s. A block is a body of instructions that never transfer
//! control, then one typed [`Exit`] whose targets are *symbolic*
//! (original-program block-start addresses). Dead-code elimination can
//! therefore delete instructions without invalidating branch offsets, every
//! pass reads a block's edges through [`successors`], and a final layout
//! pass assigns distilled addresses and resolves offsets.

use std::collections::BTreeMap;

use mssp_analysis::{solve, Analysis, Direction, Graph, RegSet};
use mssp_isa::{Instr, Reg, INSTR_BYTES};

/// Registers that must stay predictable at given original block starts:
/// at every task boundary, slaves may read (as live-ins) any register the
/// *original* program has live there, so the master must keep computing
/// them. Maps original block-start address → required-live registers.
pub(crate) type BoundaryLive = BTreeMap<u64, RegSet>;

/// How control leaves a block. Targets name blocks by their *original*
/// start address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// Falls into the next block of the list.
    Fall,
    /// An unconditional jump.
    Jump(u64),
    /// A conditional branch to `taken` (the instruction's offset field is
    /// ignored until layout); otherwise a jump to `other`, or a
    /// fall-through when `other` is `None`.
    Branch {
        instr: Instr,
        taken: u64,
        other: Option<u64>,
    },
    /// An indirect jump (successors unknown, every register live) or
    /// `halt`. Nothing is live at a `halt`: the master's post-halt state is
    /// never consumed (architected state is produced by slaves executing
    /// the original program), so keeping values alive to the distilled
    /// program's end would only inflate the fast path. Removing a write on
    /// this basis is an approximation — if a slave does read the register
    /// on some cold path, verification squashes — which is exactly the
    /// performance-not-correctness contract of distillation.
    Stop(Instr),
}

impl Exit {
    /// The number of instructions layout emits for this exit.
    pub(crate) fn len(&self) -> usize {
        match self {
            Exit::Fall => 0,
            Exit::Branch { other: Some(_), .. } => 2,
            _ => 1,
        }
    }

    /// The exit's own instruction: a branch, an indirect jump or `halt`.
    pub(crate) fn instr(&self) -> Option<Instr> {
        match *self {
            Exit::Branch { instr, .. } | Exit::Stop(instr) => Some(instr),
            Exit::Fall | Exit::Jump(_) => None,
        }
    }
}

/// A block of the relocatable IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DBlock {
    /// Original-program address of the block's first instruction; doubles
    /// as the symbolic name control flow targets.
    pub orig_start: u64,
    /// The block's instructions up to its exit; none transfers control.
    pub body: Vec<Instr>,
    /// How control leaves the block.
    pub exit: Exit,
}

/// Maps each block's original start to its position in `blocks`.
pub(crate) fn block_index(blocks: &[DBlock]) -> BTreeMap<u64, usize> {
    blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.orig_start, i))
        .collect()
}

/// The blocks control can reach on leaving block `i` (the taken side
/// first), and whether it can also leave the IR (an indirect jump, a
/// target no block holds, or falling off the last block).
pub(crate) fn successors(
    blocks: &[DBlock],
    index: &BTreeMap<u64, usize>,
    i: usize,
) -> ([Option<usize>; 2], bool) {
    // `None` names the fall-through.
    let follow = |t: Option<u64>| match t {
        Some(t) => index.get(&t).copied(),
        None => (i + 1 < blocks.len()).then_some(i + 1),
    };
    let one = |s: Option<usize>| ([s, None], s.is_none());
    match blocks[i].exit {
        Exit::Fall => one(follow(None)),
        Exit::Jump(t) => one(follow(Some(t))),
        Exit::Branch { taken, other, .. } => {
            let succs = [follow(Some(taken)), follow(other)];
            (succs, succs.contains(&None))
        }
        Exit::Stop(instr) => ([None, None], instr.is_indirect_jump()),
    }
}

/// Whether `instr` only computes a register: DCE may remove it when that
/// register is dead, and constant folding may rematerialize it.
pub(crate) fn is_pure(instr: Instr) -> bool {
    instr.def_reg().is_some() && !instr.is_store() && !instr.is_control()
}

/// The IR as a dataflow [`Graph`]: the edges [`successors`] reads, and
/// each block's body followed by its exit's instruction.
///
/// Instructions are transferred at a synthetic pc of 0. That is safe: IR
/// construction rewrites every call, so no link-register definition (whose
/// value is pc-dependent) survives into a body, and a forward fact never
/// flows out of a `Stop`, the one exit whose instruction may define one.
pub(crate) struct Ir<'a>(pub(crate) &'a [DBlock]);

impl Graph for Ir<'_> {
    fn successors(&self) -> Vec<Vec<usize>> {
        let index = block_index(self.0);
        (0..self.0.len())
            .map(|i| {
                successors(self.0, &index, i)
                    .0
                    .into_iter()
                    .flatten()
                    .collect()
            })
            .collect()
    }

    fn body(&self, node: usize) -> impl DoubleEndedIterator<Item = (u64, Instr)> + '_ {
        let block = &self.0[node];
        block
            .body
            .iter()
            .copied()
            .chain(block.exit.instr())
            .map(|instr| (0, instr))
    }
}

/// Dead-code elimination over the IR.
///
/// Returns the number of instructions removed. Liveness is [`StronglyLive`]
/// over [`successors`]; indirect jumps keep all registers live, `halt`
/// none, and leaving the IR any other way (a target no block holds, or
/// falling off the final block) is treated as a barrier too. A boundary
/// block's floor (the original program's live set at its start) is seeded
/// at the exit of each predecessor, the only place a fact at a block's
/// start flows to.
///
/// One solve finds every dead definition: a removed definition acts as the
/// identity on every iterate below the fixpoint, so removing it changes no
/// fact.
pub(crate) fn eliminate_dead_code(blocks: &mut [DBlock], boundary_live: &BoundaryLive) -> usize {
    let index = block_index(blocks);
    let floor = |j: usize| boundary_live.get(&blocks[j].orig_start).copied();
    let exit_live = solve(&Ir(blocks), &StronglyLive, |i, _| {
        let (succs, leaves) = successors(blocks, &index, i);
        let live = if leaves {
            StronglyLive.boundary()
        } else {
            StronglyLive.init()
        };
        succs
            .into_iter()
            .flatten()
            .filter_map(floor)
            .fold(live, RegSet::union)
    });

    let mut removed = 0;
    for (block, mut live) in blocks.iter_mut().zip(exit_live) {
        if let Some(instr) = block.exit.instr() {
            StronglyLive.transfer(0, instr, &mut live);
        }
        let mut keep = vec![true; block.body.len()];
        for (j, &instr) in block.body.iter().enumerate().rev() {
            keep[j] = !(is_pure(instr) && instr.def_reg().is_some_and(|rd| !live.contains(rd)));
            StronglyLive.transfer(0, instr, &mut live);
        }
        let before = block.body.len();
        let mut keep = keep.into_iter();
        block.body.retain(|_| keep.next() == Some(true));
        removed += before - block.body.len();
    }
    removed
}

/// Strongly-live registers, backward: a *pure* definition propagates its
/// uses only when its own result is live. This kills self-sustaining dead
/// chains — `addi s8, s8, 8`-style instrumentation counters whose only
/// consumer is themselves — which classic may-liveness keeps alive
/// forever.
struct StronglyLive;

impl Analysis for StronglyLive {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init(&self) -> RegSet {
        RegSet::empty()
    }

    fn boundary(&self) -> RegSet {
        RegSet::all()
    }

    fn join(&self, into: &mut RegSet, other: &RegSet) -> bool {
        let merged = into.union(*other);
        std::mem::replace(into, merged) != merged
    }

    fn transfer(&self, _pc: u64, instr: Instr, live: &mut RegSet) {
        if let Some(rd) = instr.def_reg() {
            if is_pure(instr) && !live.contains(rd) {
                // Dead pure definition: contributes nothing.
                return;
            }
            live.remove(rd);
        }
        for r in instr.use_regs().into_iter().flatten() {
            if !r.is_zero() {
                live.insert(r);
            }
        }
    }
}

/// Final layout: assigns distilled addresses and resolves symbolic targets.
///
/// Returns the instruction list plus the `original block start → distilled
/// address` map. Fails if a resolved displacement overflows the 16-bit
/// offset field.
pub(crate) fn layout(
    blocks: &[DBlock],
    dist_base: u64,
) -> Result<(Vec<Instr>, BTreeMap<u64, u64>), LayoutError> {
    // Pass 1: addresses.
    let mut addr_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut cursor = dist_base;
    for b in blocks {
        addr_of.insert(b.orig_start, cursor);
        cursor += (b.body.len() + b.exit.len()) as u64 * INSTR_BYTES;
    }
    // Pass 2: emission.
    let mut out = Vec::new();
    for b in blocks {
        out.extend_from_slice(&b.body);
        // The offset from the next emitted instruction to block `t`.
        let offset = |out: &Vec<Instr>, t: u64| {
            let pc = dist_base + out.len() as u64 * INSTR_BYTES;
            rel_offset(pc, addr_of[&t]).ok_or(LayoutError {
                orig_block: b.orig_start,
            })
        };
        match b.exit {
            Exit::Fall => {}
            Exit::Jump(t) => out.push(Instr::Jal(Reg::ZERO, offset(&out, t)?)),
            Exit::Branch {
                instr,
                taken,
                other,
            } => {
                let off = offset(&out, taken)?;
                // why: an `Exit::Branch` holds a conditional branch, which
                // carries an offset.
                out.push(instr.with_offset(off).expect("branch carries an offset"));
                if let Some(t) = other {
                    out.push(Instr::Jal(Reg::ZERO, offset(&out, t)?));
                }
            }
            Exit::Stop(instr) => out.push(instr),
        }
    }
    Ok((out, addr_of))
}

fn rel_offset(pc: u64, target: u64) -> Option<i16> {
    let delta = target.wrapping_sub(pc.wrapping_add(INSTR_BYTES)) as i64;
    i16::try_from(delta).ok()
}

/// A branch displacement overflowed during layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayoutError {
    pub orig_block: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::{Cond, ImmOp, StoreOp};

    fn block(start: u64, body: Vec<Instr>, exit: Exit) -> DBlock {
        DBlock {
            orig_start: start,
            body,
            exit,
        }
    }

    fn branch(instr: Instr, taken: u64) -> Exit {
        Exit::Branch {
            instr,
            taken,
            other: None,
        }
    }

    #[test]
    fn dce_removes_overwritten_and_terminal_writes() {
        let mut blocks = vec![block(
            0x100,
            vec![
                Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 1), // overwritten
                Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 2), // dead at halt
            ],
            Exit::Stop(Instr::Halt),
        )];
        // Nothing is live at the distilled program's halt (the master's
        // final state is never consumed), so both writes go.
        assert_eq!(eliminate_dead_code(&mut blocks, &BTreeMap::new()), 2);
        assert!(blocks[0].body.is_empty());
    }

    #[test]
    fn dce_keeps_branch_inputs() {
        let mut blocks = vec![
            block(
                0x100,
                vec![Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 1)],
                branch(Instr::Branch(Cond::Bne, Reg::A0, Reg::ZERO, 0), 0x100),
            ),
            block(0x108, vec![], Exit::Stop(Instr::Halt)),
        ];
        assert_eq!(eliminate_dead_code(&mut blocks, &BTreeMap::new()), 0);
        assert_eq!(blocks[0].body.len(), 1);
    }

    #[test]
    fn dce_cascades_through_chains() {
        // The store keeps a1's final value live; the a0-chain feeding the
        // overwritten a1 is removed transitively.
        let mut blocks = vec![block(
            0x100,
            vec![
                Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 1), // feeds dead a1
                Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::A0, 1),   // overwritten
                Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::ZERO, 9),
                Instr::Store(StoreOp::Sd, Reg::A1, Reg::SP, 0),
            ],
            Exit::Stop(Instr::Halt),
        )];
        assert_eq!(eliminate_dead_code(&mut blocks, &BTreeMap::new()), 2);
        assert_eq!(blocks[0].body.len(), 2);

        // Across a block edge: a0 feeds only the overwritten a1 of the
        // successor, so both go in the same call.
        let mut blocks = vec![
            block(
                0x100,
                vec![Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 1)], // feeds dead a1
                Exit::Fall,
            ),
            block(
                0x104,
                vec![
                    Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::A0, 1), // overwritten
                    Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::ZERO, 9),
                    Instr::Store(StoreOp::Sd, Reg::A1, Reg::SP, 0),
                ],
                Exit::Stop(Instr::Halt),
            ),
        ];
        assert_eq!(eliminate_dead_code(&mut blocks, &BTreeMap::new()), 2);
        assert!(blocks[0].body.is_empty());
        assert_eq!(blocks[1].body.len(), 2);
    }

    #[test]
    fn dce_keeps_writes_a_boundary_floor_requires() {
        // 0x104 is a task boundary whose floor holds s2: a slave starting
        // there may read it, so the write feeding it stays, although no
        // distilled instruction reads s2. With no floor, it goes.
        let blocks = vec![
            block(
                0x100,
                vec![Instr::AluImm(ImmOp::Addi, Reg::S2, Reg::ZERO, 5)],
                Exit::Fall,
            ),
            block(0x104, vec![], Exit::Stop(Instr::Halt)),
        ];
        let floor: BoundaryLive = [(0x104, [Reg::S2].into_iter().collect())]
            .into_iter()
            .collect();
        let mut kept = blocks.clone();
        assert_eq!(eliminate_dead_code(&mut kept, &floor), 0);
        assert_eq!(kept, blocks);
        let mut cut = blocks;
        assert_eq!(eliminate_dead_code(&mut cut, &BTreeMap::new()), 1);
        assert!(cut[0].body.is_empty());
    }

    #[test]
    fn dce_kills_self_sustaining_counters() {
        // `addi a0, a0, 1` reads only itself; nothing effectful consumes
        // a0, so the whole chain is faint and must go — even across a
        // loop back edge.
        let head = 0x100;
        let mut blocks = vec![
            block(
                head,
                vec![
                    Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::A0, 1), // faint
                    Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::A1, -1),
                ],
                branch(Instr::Branch(Cond::Bne, Reg::A1, Reg::ZERO, 0), head),
            ),
            block(
                0x200,
                vec![Instr::Store(StoreOp::Sd, Reg::A1, Reg::SP, 0)],
                Exit::Stop(Instr::Halt),
            ),
        ];
        assert_eq!(eliminate_dead_code(&mut blocks, &BTreeMap::new()), 1);
        assert_eq!(blocks[0].body.len(), 1);
    }

    #[test]
    fn dce_respects_loop_liveness() {
        // a0 incremented in a loop and consumed by the loop branch.
        let loop_head = 0x200;
        let mut blocks = vec![
            block(
                loop_head,
                vec![Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::A0, -1)],
                branch(Instr::Branch(Cond::Bne, Reg::A0, Reg::ZERO, 0), loop_head),
            ),
            block(0x300, vec![], Exit::Stop(Instr::Halt)),
        ];
        assert_eq!(eliminate_dead_code(&mut blocks, &BTreeMap::new()), 0);
    }

    #[test]
    fn successors_follow_the_exit() {
        let blocks = vec![
            block(
                0x100,
                vec![],
                Exit::Branch {
                    instr: Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, 0),
                    taken: 0x300,
                    other: Some(0x200),
                },
            ),
            block(
                0x200,
                vec![],
                branch(Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, 0), 0x900),
            ),
            block(0x300, vec![], Exit::Jump(0x100)),
            block(
                0x400,
                vec![],
                Exit::Stop(Instr::Jalr(Reg::ZERO, Reg::RA, 0)),
            ),
            block(0x500, vec![], Exit::Stop(Instr::Halt)),
            block(0x600, vec![], Exit::Fall),
        ];
        let index = block_index(&blocks);
        let succ = |i| successors(&blocks, &index, i);
        assert_eq!(succ(0), ([Some(2), Some(1)], false));
        // A target no block holds leaves the IR; the other side falls.
        assert_eq!(succ(1), ([None, Some(2)], true));
        assert_eq!(succ(2), ([Some(0), None], false));
        assert_eq!(succ(3), ([None, None], true));
        assert_eq!(succ(4), ([None, None], false));
        // Falling off the final block leaves the IR.
        assert_eq!(succ(5), ([None, None], true));
    }

    #[test]
    fn layout_resolves_forward_and_backward() {
        let blocks = vec![
            block(
                0x100,
                vec![Instr::nop()],
                branch(Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, 0), 0x300),
            ),
            block(0x200, vec![], Exit::Jump(0x100)),
            block(0x300, vec![], Exit::Stop(Instr::Halt)),
        ];
        let (instrs, map) = layout(&blocks, 0x8000).unwrap();
        assert_eq!(instrs.len(), 4);
        assert_eq!(map[&0x100], 0x8000);
        assert_eq!(map[&0x200], 0x8008);
        assert_eq!(map[&0x300], 0x800C);
        // The branch at 0x8004 targets 0x800C: offset 4.
        assert_eq!(instrs[1], Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, 4));
        // The jump at 0x8008 targets 0x8000: offset -12.
        assert_eq!(instrs[2], Instr::Jal(Reg::ZERO, -12));
    }

    #[test]
    fn layout_emits_a_branch_then_its_else_jump() {
        let blocks = vec![
            block(
                0x100,
                vec![],
                Exit::Branch {
                    instr: Instr::Branch(Cond::Bne, Reg::A0, Reg::ZERO, 0),
                    taken: 0x300,
                    other: Some(0x100),
                },
            ),
            block(0x300, vec![], Exit::Stop(Instr::Halt)),
        ];
        let (instrs, _) = layout(&blocks, 0x8000).unwrap();
        // The branch at 0x8000 targets 0x8008; the jump at 0x8004, 0x8000.
        assert_eq!(
            instrs,
            vec![
                Instr::Branch(Cond::Bne, Reg::A0, Reg::ZERO, 4),
                Instr::Jal(Reg::ZERO, -8),
                Instr::Halt
            ]
        );
    }

    #[test]
    fn empty_block_maps_to_following_address() {
        let blocks = vec![
            block(0x100, vec![], Exit::Fall),
            block(0x104, vec![], Exit::Stop(Instr::Halt)),
        ];
        let (instrs, map) = layout(&blocks, 0x8000).unwrap();
        assert_eq!(instrs.len(), 1);
        assert_eq!(map[&0x100], 0x8000);
        assert_eq!(map[&0x104], 0x8000);
    }
}
