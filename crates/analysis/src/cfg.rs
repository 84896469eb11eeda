//! Control-flow graph recovery from a program's text segment.
//!
//! The distiller operates on whole-program CFGs recovered directly from the
//! binary, exactly as the paper's binary re-optimizer did. Basic-block
//! leaders are: the program entry, every static branch/jump target, and
//! every instruction following a control transfer. Indirect jumps (`jalr`)
//! have statically unknown successors; their blocks are flagged so client
//! analyses treat them as barriers.

use std::collections::{BTreeMap, BTreeSet};

use mssp_isa::{Instr, Program, INSTR_BYTES};

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Falls through to the next block (no control instruction).
    FallThrough,
    /// Conditional branch: `taken` target and fall-through.
    Branch {
        /// Block targeted when the branch is taken.
        taken: BlockId,
        /// Block reached when it is not.
        fallthrough: BlockId,
    },
    /// Unconditional direct jump (`jal`).
    Jump {
        /// The jump target block.
        target: BlockId,
    },
    /// Indirect jump (`jalr`): successors statically unknown.
    Indirect,
    /// `halt`.
    Halt,
}

/// A basic block: a maximal straight-line instruction sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u64,
    /// Address one past the last instruction.
    pub end: u64,
    /// How the block ends.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Iterates over the instruction addresses of this block.
    pub fn pcs(&self) -> impl DoubleEndedIterator<Item = u64> {
        let start = self.start;
        (0..(self.end - start) / INSTR_BYTES).map(move |i| start + i * INSTR_BYTES)
    }
}

/// A whole-program control-flow graph.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::Cfg;
///
/// let p = assemble(
///     "main: addi a0, zero, 4
///      loop: addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let cfg = Cfg::build(&p);
/// assert_eq!(cfg.blocks().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// start address -> block id.
    by_start: BTreeMap<u64, BlockId>,
    preds: Vec<Vec<BlockId>>,
    entry: BlockId,
}

impl Cfg {
    /// Recovers the CFG of `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty, its entry is out of range, or a
    /// direct branch or jump targets a PC outside its text, which
    /// [`Program::validate`] rejects (guaranteed not to happen for
    /// [`Program`]s built by the assembler or the distiller, which
    /// validate).
    #[must_use]
    pub fn build(program: &Program) -> Cfg {
        assert!(
            !program.is_empty(),
            "cannot build a CFG of an empty program"
        );

        // 1. Find leaders.
        let mut leaders: BTreeSet<u64> = BTreeSet::new();
        leaders.insert(program.entry());
        leaders.insert(program.text_base());
        for (pc, instr) in program.iter_pcs() {
            if let Some(target) = instr.static_target(pc) {
                leaders.insert(target);
            }
            if instr.is_control() {
                let next = pc + INSTR_BYTES;
                if program.contains_pc(next) {
                    leaders.insert(next);
                }
            }
        }

        // 2. Slice into blocks.
        let leader_list: Vec<u64> = leaders.iter().copied().collect();
        let mut blocks = Vec::new();
        let mut by_start = BTreeMap::new();
        for (i, &start) in leader_list.iter().enumerate() {
            let end_limit = leader_list
                .get(i + 1)
                .copied()
                .unwrap_or_else(|| program.text_end());
            // The block ends at the first control instruction or the next
            // leader, whichever comes first.
            let mut end = start;
            while end < end_limit {
                // why: every leader of a valid program lies in its text (the
                // `# Panics` contract), and `end` stays below the next
                // leader or the end of the text.
                let instr = program.fetch(end).expect("leader within text");
                end += INSTR_BYTES;
                if instr.is_control() {
                    break;
                }
            }
            by_start.insert(start, blocks.len());
            blocks.push(BasicBlock {
                start,
                end,
                terminator: Terminator::Halt, // patched below
            });
        }

        // 3. Resolve terminators.
        let ids: Vec<(u64, Instr)> = blocks
            .iter()
            .map(|b| {
                let last_pc = b.end - INSTR_BYTES;
                // why: a block holds at least its leader, an instruction
                // of the text, and `last_pc` is its last one.
                (last_pc, program.fetch(last_pc).expect("block instr"))
            })
            .collect();
        let lookup = |pc: u64| -> Option<BlockId> { by_start.get(&pc).copied() };
        for (bid, (last_pc, last)) in ids.into_iter().enumerate() {
            let next_pc = blocks[bid].end;
            let term = if last.is_branch() {
                let taken = last
                    .static_target(last_pc)
                    .and_then(lookup)
                    // why: a valid program's direct targets lie in its text
                    // (the `# Panics` contract), and each one is a leader.
                    .expect("validated branch target");
                match lookup(next_pc) {
                    Some(fallthrough) => Terminator::Branch { taken, fallthrough },
                    // Branch as the last instruction of the program: treat
                    // fall-through off the end as Halt-like via Indirect.
                    None => Terminator::Indirect,
                }
            } else if last.is_jump() {
                let target = last
                    .static_target(last_pc)
                    .and_then(lookup)
                    // why: as for a branch's target.
                    .expect("validated jump target");
                Terminator::Jump { target }
            } else if last.is_indirect_jump() {
                Terminator::Indirect
            } else if last.is_halt() {
                Terminator::Halt
            } else {
                match lookup(next_pc) {
                    Some(_) => Terminator::FallThrough,
                    None => Terminator::Halt, // runs off the end; SEQ would fault
                }
            };
            blocks[bid].terminator = term;
        }

        // 4. Predecessors.
        let mut preds = vec![Vec::new(); blocks.len()];
        for (bid, block) in blocks.iter().enumerate() {
            for succ in successors_of(block, &by_start) {
                preds[succ].push(bid);
            }
        }

        let entry = by_start[&program.entry()];
        Cfg {
            blocks,
            by_start,
            preds,
            entry,
        }
    }

    /// All basic blocks, ordered by start address.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The block starting at `pc`, if any.
    #[must_use]
    pub fn block_at(&self, pc: u64) -> Option<BlockId> {
        self.by_start.get(&pc).copied()
    }

    /// The block *containing* `pc`, if any.
    #[must_use]
    pub fn block_containing(&self, pc: u64) -> Option<BlockId> {
        let (_, &bid) = self.by_start.range(..=pc).next_back()?;
        if pc < self.blocks[bid].end {
            Some(bid)
        } else {
            None
        }
    }

    /// Successor block ids of `bid` (empty for `Halt` and `Indirect`).
    #[must_use]
    pub fn successors(&self, bid: BlockId) -> Vec<BlockId> {
        successors_of(&self.blocks[bid], &self.by_start)
    }

    /// Predecessor block ids of `bid` (indirect-jump edges are not
    /// represented).
    #[must_use]
    pub(crate) fn predecessors(&self, bid: BlockId) -> &[BlockId] {
        &self.preds[bid]
    }

    /// Every block that is the target of a `jal` with a live link register
    /// — a call — plus the entry block: the function-entry heuristic used
    /// when selecting task boundaries.
    #[must_use]
    pub fn call_targets(&self, program: &Program) -> BTreeSet<BlockId> {
        let mut out = BTreeSet::new();
        out.insert(self.entry);
        for (pc, instr) in program.iter_pcs() {
            if let Instr::Jal(rd, _) = instr {
                if !rd.is_zero() {
                    if let Some(bid) = instr.static_target(pc).and_then(|t| self.block_at(t)) {
                        out.insert(bid);
                    }
                }
            }
        }
        out
    }
}

fn successors_of(block: &BasicBlock, by_start: &BTreeMap<u64, BlockId>) -> Vec<BlockId> {
    match block.terminator {
        Terminator::FallThrough => by_start
            .get(&block.end)
            .map(|&b| vec![b])
            .unwrap_or_default(),
        Terminator::Branch { taken, fallthrough } => {
            if taken == fallthrough {
                vec![taken]
            } else {
                vec![taken, fallthrough]
            }
        }
        Terminator::Jump { target } => vec![target],
        Terminator::Indirect | Terminator::Halt => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;

    fn cfg_of(src: &str) -> (mssp_isa::Program, Cfg) {
        let p = assemble(src).unwrap();
        let c = Cfg::build(&p);
        (p, c)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, c) = cfg_of("main: addi a0, zero, 1\n addi a1, zero, 2\n halt");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0].terminator, Terminator::Halt);
        assert_eq!(c.blocks()[0].pcs().count(), 3);
    }

    #[test]
    fn loop_recovers_three_blocks() {
        let (p, c) = cfg_of(
            "main: addi a0, zero, 4
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        assert_eq!(c.blocks().len(), 3);
        let loop_bid = c.block_at(p.symbol("loop").unwrap()).unwrap();
        match c.blocks()[loop_bid].terminator {
            Terminator::Branch { taken, fallthrough } => {
                assert_eq!(taken, loop_bid);
                assert_ne!(fallthrough, loop_bid);
            }
            other => panic!("expected branch, got {other:?}"),
        }
        // The loop block has two predecessors: entry and itself.
        assert_eq!(c.predecessors(loop_bid).len(), 2);
    }

    #[test]
    fn diamond_has_four_blocks() {
        let (_, c) = cfg_of(
            "main: beqz a0, else
                   addi a1, zero, 1
                   j join
             else: addi a1, zero, 2
             join: halt",
        );
        assert_eq!(c.blocks().len(), 4);
        let entry_succs = c.successors(c.entry());
        assert_eq!(entry_succs.len(), 2);
    }

    #[test]
    fn indirect_jump_has_no_successors() {
        let (_, c) = cfg_of("main: jalr ra, 0(a0)\n halt");
        assert_eq!(c.blocks()[c.entry()].terminator, Terminator::Indirect);
        assert!(c.successors(c.entry()).is_empty());
    }

    #[test]
    fn call_targets_found() {
        let (p, c) = cfg_of(
            "main: call f
                   halt
             f:    ret",
        );
        let f = c.block_at(p.symbol("f").unwrap()).unwrap();
        let targets = c.call_targets(&p);
        assert!(targets.contains(&f));
        assert!(targets.contains(&c.entry()));
    }

    #[test]
    fn block_containing_finds_interior_pcs() {
        let (p, c) = cfg_of("main: addi a0, zero, 1\n addi a1, zero, 2\n halt");
        let mid = p.entry() + 4;
        assert_eq!(c.block_containing(mid), Some(c.entry()));
        assert_eq!(c.block_containing(p.text_end()), None);
    }

    #[test]
    fn blocks_partition_the_text() {
        let (p, c) = cfg_of(
            "main: beqz a0, x
                   addi a1, zero, 1
             x:    addi a2, zero, 2
                   bnez a2, main
                   halt",
        );
        let total: usize = c.blocks().iter().map(|b| b.pcs().count()).sum();
        assert_eq!(total, p.len());
        // Blocks are disjoint and ordered.
        for w in c.blocks().windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }
}
