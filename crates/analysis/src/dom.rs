//! Dominators and natural-loop detection.
//!
//! The distiller's task-boundary selection favours loop headers, and its
//! cold-code elision must know loop membership to avoid asserting away a
//! loop's own back edge. Both build on a classic iterative dominator
//! analysis over the recovered CFG.

use std::collections::BTreeSet;

use crate::{BlockId, Cfg};

/// Dominator sets for every block of a CFG.
///
/// Blocks unreachable from the entry dominate nothing and report an empty
/// dominator set.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::{natural_loops, Cfg, Dominators};
///
/// let p = assemble(
///     "main: addi a0, zero, 4
///      loop: addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let cfg = Cfg::build(&p);
/// let dom = Dominators::compute(&cfg);
/// // The loop's back edge targets a block that dominates its source.
/// assert_eq!(natural_loops(&cfg, &dom).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `doms[b]` = set of blocks dominating `b` (including `b` itself);
    /// empty iff `b` is unreachable.
    doms: Vec<BTreeSet<BlockId>>,
}

impl Dominators {
    /// Computes dominators with the standard iterative dataflow algorithm.
    #[must_use]
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.blocks().len();
        let entry = cfg.entry();
        let all: BTreeSet<BlockId> = (0..n).collect();
        let mut doms: Vec<BTreeSet<BlockId>> = vec![all; n];
        doms[entry] = BTreeSet::from([entry]);

        // Reachability first, so unreachable blocks end with empty sets.
        let mut reachable = vec![false; n];
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b], true) {
                continue;
            }
            stack.extend(cfg.successors(b));
        }

        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if b == entry || !reachable[b] {
                    continue;
                }
                let mut new: Option<BTreeSet<BlockId>> = None;
                for &p in cfg.predecessors(b) {
                    if !reachable[p] {
                        continue;
                    }
                    new = Some(match new {
                        None => doms[p].clone(),
                        Some(acc) => acc.intersection(&doms[p]).copied().collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                new.insert(b);
                if new != doms[b] {
                    doms[b] = new;
                    changed = true;
                }
            }
        }
        for b in 0..n {
            if !reachable[b] {
                doms[b].clear();
            }
        }
        Dominators { doms }
    }

    /// Whether `a` dominates `b`.
    #[must_use]
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.doms[b].contains(&a)
    }
}

/// A natural loop: a back edge `tail → header` plus the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the body).
    pub header: BlockId,
    /// The source of the back edge.
    pub back_edge_tail: BlockId,
    /// All blocks in the loop, including the header.
    pub body: BTreeSet<BlockId>,
}

/// Finds all natural loops of a CFG (one per back edge).
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::{natural_loops, Cfg, Dominators};
///
/// let p = assemble(
///     "main: addi a0, zero, 4
///      loop: addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let cfg = Cfg::build(&p);
/// let loops = natural_loops(&cfg, &Dominators::compute(&cfg));
/// assert_eq!(loops.len(), 1);
/// ```
#[must_use]
pub fn natural_loops(cfg: &Cfg, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops = Vec::new();
    for tail in 0..cfg.blocks().len() {
        for header in cfg.successors(tail) {
            if dom.dominates(header, tail) {
                // Collect the body by walking predecessors from the tail.
                let mut body = BTreeSet::from([header, tail]);
                let mut stack = vec![tail];
                while let Some(b) = stack.pop() {
                    if b == header {
                        continue;
                    }
                    for &p in cfg.predecessors(b) {
                        if body.insert(p) {
                            stack.push(p);
                        }
                    }
                }
                loops.push(NaturalLoop {
                    header,
                    back_edge_tail: tail,
                    body,
                });
            }
        }
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;

    fn build(src: &str) -> (mssp_isa::Program, Cfg, Dominators) {
        let p = assemble(src).unwrap();
        let c = Cfg::build(&p);
        let d = Dominators::compute(&c);
        (p, c, d)
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let (_, c, d) = build(
            "main: beqz a0, x
                   addi a1, zero, 1
             x:    halt",
        );
        for b in 0..c.blocks().len() {
            assert!(d.dominates(c.entry(), b));
        }
    }

    #[test]
    fn diamond_join_not_dominated_by_arms() {
        let (p, c, d) = build(
            "main: beqz a0, else
             then: addi a1, zero, 1
                   j join
             else: addi a1, zero, 2
             join: halt",
        );
        let then_b = c.block_at(p.symbol("then").unwrap()).unwrap();
        let else_b = c.block_at(p.symbol("else").unwrap()).unwrap();
        let join_b = c.block_at(p.symbol("join").unwrap()).unwrap();
        assert!(!d.dominates(then_b, join_b));
        assert!(!d.dominates(else_b, join_b));
        assert!(d.dominates(c.entry(), join_b));
    }

    #[test]
    fn simple_loop_detected_with_correct_body() {
        let (p, c, d) = build(
            "main: addi a0, zero, 4
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        let loops = natural_loops(&c, &d);
        assert_eq!(loops.len(), 1);
        let header = c.block_at(p.symbol("loop").unwrap()).unwrap();
        assert_eq!(loops[0].header, header);
        assert_eq!(loops[0].body, BTreeSet::from([header]));
    }

    #[test]
    fn nested_loops_detected() {
        let (p, c, d) = build(
            "main:  addi a0, zero, 3
             outer: addi a1, zero, 3
             inner: addi a1, a1, -1
                    bnez a1, inner
                    addi a0, a0, -1
                    bnez a0, outer
                    halt",
        );
        let loops = natural_loops(&c, &d);
        assert_eq!(loops.len(), 2);
        let outer_h = c.block_at(p.symbol("outer").unwrap()).unwrap();
        let inner_h = c.block_at(p.symbol("inner").unwrap()).unwrap();
        let outer = loops.iter().find(|l| l.header == outer_h).unwrap();
        let inner = loops.iter().find(|l| l.header == inner_h).unwrap();
        // The inner loop body is contained in the outer loop body.
        assert!(inner.body.is_subset(&outer.body));
    }

    #[test]
    fn multiple_back_edges_share_one_header() {
        let (p, c, d) = build(
            "main: addi a0, zero, 8
             head: addi a0, a0, -1
                   andi t0, a0, 1
                   beqz t0, even
                   bnez a0, head
                   halt
             even: bnez a0, head
                   halt",
        );
        let loops = natural_loops(&c, &d);
        // Two back edges, one header.
        assert_eq!(loops.len(), 2);
        let head = c.block_at(p.symbol("head").unwrap()).unwrap();
        assert!(loops.iter().all(|l| l.header == head));
    }

    #[test]
    fn unreachable_block_has_empty_dominators() {
        let (p, c, d) = build(
            "main: j end
             dead: addi a0, zero, 1
             end:  halt",
        );
        let dead = c.block_at(p.symbol("dead").unwrap()).unwrap();
        assert!(d.doms[dead].is_empty());
    }
}
