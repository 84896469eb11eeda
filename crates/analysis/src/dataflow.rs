//! One worklist dataflow solver, over any [`Graph`].
//!
//! Every static analysis in this workspace — liveness, reaching
//! definitions and constant propagation for the static soundness linter,
//! and the distiller's constant propagation, copy propagation and
//! dead-code elimination over its relocatable IR — is an instance of the
//! same scheme: facts from a join-semilattice and a transfer function per
//! instruction ([`Analysis`]), iterated to a fixpoint by one FIFO worklist
//! ([`solve`]) over a [`Graph`] of nodes with successor edges and a
//! straight-line body each. A program's [`Cfg`] is one such graph; the
//! per-instruction facts of [`Liveness`](crate::Liveness),
//! [`ReachingDefs`] and [`ConstProp`] are swept from its solution.
//!
//! On a [`Cfg`], indirect control flow is approximated conservatively and
//! uniformly:
//!
//! * **Backward** analyses receive the [`Analysis::boundary`] fact at
//!   `Halt` and `Indirect` block exits (successors unknown or the program's
//!   whole final state observable).
//! * **Forward** analyses receive the boundary fact at the entry block and
//!   at every block with no static predecessors — the stand-ins for
//!   indirect-jump targets, whose in-edges the CFG cannot represent.
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_analysis::{Cfg, ConstProp, ReachingDefs};
//! use mssp_isa::Reg;
//!
//! let p = assemble(
//!     "main: addi a0, zero, 7
//!            addi a1, a0, 1
//!            halt",
//! ).unwrap();
//! let cfg = Cfg::build(&p);
//! let consts = ConstProp::compute(&p, &cfg);
//! assert!(consts.materialized(&p).contains(&8));
//!
//! let defs = ReachingDefs::compute(&p, &cfg);
//! let sites: Vec<u64> = defs.defs_before(p.entry() + 4, Reg::A0).collect();
//! assert_eq!(sites, vec![p.entry()]);
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mssp_isa::{lui_value, AluOp, ImmOp, Instr, Program, Reg, INSTR_BYTES, NUM_REGS};

use crate::live::RegSet;
use crate::Cfg;

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry toward exits (e.g. reaching definitions).
    Forward,
    /// Facts flow from exits toward the entry (e.g. liveness).
    Backward,
}

/// One dataflow analysis: a join-semilattice of facts plus a transfer
/// function.
pub trait Analysis {
    /// The lattice element propagated through the graph.
    type Fact: Clone;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The optimistic starting fact — the identity of [`Analysis::join`].
    fn init(&self) -> Self::Fact;

    /// The pessimistic fact, seeded where the solver's client cannot see
    /// everything that flows in (see the module docs for a [`Cfg`]).
    fn boundary(&self) -> Self::Fact;

    /// Joins `other` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Transfers `fact` across the instruction at `pc`, in the analysis
    /// direction (for backward analyses, `fact` is the post-instruction
    /// fact on entry and the pre-instruction fact on return).
    fn transfer(&self, pc: u64, instr: Instr, fact: &mut Self::Fact);
}

/// A graph [`solve`] runs over: nodes, each with successor edges and a
/// straight-line body.
pub trait Graph {
    /// Each node's successors; the nodes are `0..len`.
    fn successors(&self) -> Vec<Vec<usize>>;

    /// The instructions of `node` with their addresses, in execution order.
    fn body(&self, node: usize) -> impl DoubleEndedIterator<Item = (u64, Instr)> + '_;
}

/// Solves `analysis` over `graph` to a fixpoint and returns the fact at
/// each node's analysis-order start: its entry going forward, the end of
/// its body going backward.
///
/// `seed(node, sourceless)` gives that fact's starting value, where
/// `sourceless` says no edge flows into the point (the node has no
/// predecessor going forward, no successor going backward). The worklist
/// is FIFO and push-style: a node's output is joined into each of its
/// analysis-order destinations, and a destination whose fact changed is
/// queued. Every node starts queued, in analysis order (`0..n` forward,
/// `n-1..0` backward). A monotone transfer reaches the same least
/// fixpoint in any order; copy propagation's is not monotone, and the
/// distiller's folds depend on this order.
pub fn solve<G: Graph, A: Analysis>(
    graph: &G,
    analysis: &A,
    mut seed: impl FnMut(usize, bool) -> A::Fact,
) -> Vec<A::Fact> {
    let succs = graph.successors();
    let n = succs.len();
    let mut preds = vec![Vec::new(); n];
    for (i, s) in succs.iter().enumerate() {
        for &j in s {
            preds[j].push(i);
        }
    }
    let direction = analysis.direction();
    let (sources, dests) = match direction {
        Direction::Forward => (&preds, &succs),
        Direction::Backward => (&succs, &preds),
    };
    let mut facts: Vec<A::Fact> = (0..n).map(|i| seed(i, sources[i].is_empty())).collect();
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = match direction {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        let mut out = facts[i].clone();
        for (pc, instr) in in_order(graph.body(i), direction) {
            analysis.transfer(pc, instr, &mut out);
        }
        for &j in &dests[i] {
            if analysis.join(&mut facts[j], &out) && !queued[j] {
                queued[j] = true;
                work.push_back(j);
            }
        }
    }
    facts
}

/// `body` in analysis order.
fn in_order<I: DoubleEndedIterator>(
    body: I,
    direction: Direction,
) -> impl Iterator<Item = I::Item> {
    let (forward, backward) = match direction {
        Direction::Forward => (Some(body), None),
        Direction::Backward => (None, Some(body.rev())),
    };
    forward
        .into_iter()
        .flatten()
        .chain(backward.into_iter().flatten())
}

/// A program's CFG as a [`Graph`]: its blocks, their static edges and the
/// program's instructions.
impl Graph for (&Program, &Cfg) {
    fn successors(&self) -> Vec<Vec<usize>> {
        (0..self.1.blocks().len())
            .map(|b| self.1.successors(b))
            .collect()
    }

    fn body(&self, node: usize) -> impl DoubleEndedIterator<Item = (u64, Instr)> + '_ {
        let program = self.0;
        self.1.blocks()[node].pcs().map(move |pc| {
            // why: `cfg` is `program`'s (the callers' `# Panics`
            // contract), so its blocks lie in the text.
            (pc, program.fetch(pc).expect("pc within text"))
        })
    }
}

/// The solved facts of one analysis over one CFG.
///
/// Facts are indexed in *execution* order regardless of the analysis
/// direction: [`DataflowResults::before`] is the program point immediately
/// preceding an instruction, [`DataflowResults::after`] the one following
/// it.
#[derive(Debug, Clone)]
pub(crate) struct DataflowResults<F> {
    before: BTreeMap<u64, F>,
    after: BTreeMap<u64, F>,
}

impl<F: Clone> DataflowResults<F> {
    /// Runs `analysis` over `cfg`, the CFG of `program`, to a fixpoint and
    /// records per-instruction facts. The boundary fact seeds every block
    /// nothing flows into, and the entry block going forward.
    pub(crate) fn compute<A: Analysis<Fact = F>>(
        program: &Program,
        cfg: &Cfg,
        analysis: &A,
    ) -> DataflowResults<F> {
        let graph = (program, cfg);
        let direction = analysis.direction();
        let starts = solve(&graph, analysis, |b, sourceless| {
            if sourceless || (direction == Direction::Forward && b == cfg.entry()) {
                analysis.boundary()
            } else {
                analysis.init()
            }
        });
        let mut results = DataflowResults {
            before: BTreeMap::new(),
            after: BTreeMap::new(),
        };
        for (b, mut fact) in starts.into_iter().enumerate() {
            for (pc, instr) in in_order(graph.body(b), direction) {
                let pre = fact.clone();
                analysis.transfer(pc, instr, &mut fact);
                let (before, after) = match direction {
                    Direction::Forward => (pre, fact.clone()),
                    Direction::Backward => (fact.clone(), pre),
                };
                results.before.insert(pc, before);
                results.after.insert(pc, after);
            }
        }
        results
    }

    /// The fact holding just before the instruction at `pc` executes.
    #[must_use]
    pub(crate) fn before(&self, pc: u64) -> Option<&F> {
        self.before.get(&pc)
    }

    /// The fact holding just after the instruction at `pc` executes.
    #[must_use]
    pub(crate) fn after(&self, pc: u64) -> Option<&F> {
        self.after.get(&pc)
    }
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

/// Per-register reaching-definition sites at one program point.
///
/// A register's value may come from any of the instruction addresses in
/// `DefSites::defs_of`, and/or from outside the analyzed code — the boot
/// state, or writes preceding an indirect-jump entry the CFG cannot see.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DefSites {
    defs: BTreeMap<Reg, BTreeSet<u64>>,
    external: RegSet,
}

impl DefSites {
    /// The instruction addresses whose definition of `r` may reach this
    /// point.
    pub(crate) fn defs_of(&self, r: Reg) -> impl Iterator<Item = u64> + '_ {
        self.defs.get(&r).into_iter().flatten().copied()
    }

    /// Whether any *instruction* definition of `r` reaches this point.
    #[must_use]
    pub fn has_instr_def(&self, r: Reg) -> bool {
        self.defs.get(&r).is_some_and(|s| !s.is_empty())
    }
}

struct ReachingDefsAnalysis;

impl Analysis for ReachingDefsAnalysis {
    type Fact = DefSites;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self) -> DefSites {
        DefSites::default()
    }

    fn boundary(&self) -> DefSites {
        DefSites {
            defs: BTreeMap::new(),
            external: RegSet::all(),
        }
    }

    fn join(&self, into: &mut DefSites, other: &DefSites) -> bool {
        let mut changed = false;
        for (&r, sites) in &other.defs {
            let entry = into.defs.entry(r).or_default();
            for &s in sites {
                changed |= entry.insert(s);
            }
        }
        let merged = into.external.union(other.external);
        if merged != into.external {
            into.external = merged;
            changed = true;
        }
        changed
    }

    fn transfer(&self, pc: u64, instr: Instr, fact: &mut DefSites) {
        if let Some(rd) = instr.def_reg() {
            fact.defs.insert(rd, BTreeSet::from([pc]));
            fact.external.remove(rd);
        }
    }
}

/// Forward reaching-definitions over a program's CFG.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_isa::Reg;
/// use mssp_analysis::{Cfg, ReachingDefs};
///
/// let p = assemble(
///     "main: addi a0, zero, 1
///      loop: addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let defs = ReachingDefs::compute(&p, &Cfg::build(&p));
/// // Both the init and the loop-body definition reach the branch.
/// let loop_pc = p.symbol("loop").unwrap();
/// let sites: Vec<u64> = defs.defs_before(loop_pc, Reg::A0).collect();
/// assert_eq!(sites, vec![p.entry(), loop_pc]);
/// ```
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    results: DataflowResults<DefSites>,
}

impl ReachingDefs {
    /// Computes reaching definitions for `program`, whose CFG is `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not `program`'s CFG.
    #[must_use]
    pub fn compute(program: &Program, cfg: &Cfg) -> ReachingDefs {
        ReachingDefs {
            results: DataflowResults::compute(program, cfg, &ReachingDefsAnalysis),
        }
    }

    /// The definition sites reaching the point just before `pc`.
    #[must_use]
    pub fn before(&self, pc: u64) -> Option<&DefSites> {
        self.results.before(pc)
    }

    /// The instruction addresses whose definition of `r` may reach the
    /// point just before `pc` (empty for unanalyzed addresses).
    pub fn defs_before(&self, pc: u64, r: Reg) -> impl Iterator<Item = u64> + '_ {
        self.results
            .before(pc)
            .into_iter()
            .flat_map(move |f| f.defs_of(r))
    }
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

/// The constant-propagation lattice for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstVal {
    /// No path has assigned the register yet (optimistic top).
    Unknown,
    /// Every path reaching this point assigns the same value.
    Const(u64),
    /// Paths disagree, or the value is data-dependent (loads, boundary).
    Varying,
}

impl ConstVal {
    fn join(self, other: ConstVal) -> ConstVal {
        match (self, other) {
            (ConstVal::Unknown, x) | (x, ConstVal::Unknown) => x,
            (ConstVal::Const(a), ConstVal::Const(b)) if a == b => self,
            _ => ConstVal::Varying,
        }
    }

    /// The constant value, if known.
    #[must_use]
    pub(crate) fn as_const(self) -> Option<u64> {
        match self {
            ConstVal::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// Per-register constness at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstFacts {
    vals: [ConstVal; NUM_REGS],
}

impl ConstFacts {
    /// The lattice value of `r` (the zero register is always `Const(0)`).
    #[must_use]
    pub fn get(&self, r: Reg) -> ConstVal {
        if r.is_zero() {
            ConstVal::Const(0)
        } else {
            self.vals[r.index()]
        }
    }

    fn set(&mut self, r: Reg, v: ConstVal) {
        if !r.is_zero() {
            self.vals[r.index()] = v;
        }
    }
}

/// The constant-propagation [`Analysis`] instance.
///
/// Exported (alongside [`CopyPropAnalysis`]) so clients with graphs of
/// their own — the distiller's relocatable IR in particular — can run the
/// same lattice and transfer functions through [`solve`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstPropAnalysis;

impl Analysis for ConstPropAnalysis {
    type Fact = ConstFacts;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self) -> ConstFacts {
        ConstFacts {
            vals: [ConstVal::Unknown; NUM_REGS],
        }
    }

    fn boundary(&self) -> ConstFacts {
        ConstFacts {
            vals: [ConstVal::Varying; NUM_REGS],
        }
    }

    fn join(&self, into: &mut ConstFacts, other: &ConstFacts) -> bool {
        let mut changed = false;
        for i in 0..NUM_REGS {
            let j = into.vals[i].join(other.vals[i]);
            if j != into.vals[i] {
                into.vals[i] = j;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&self, pc: u64, instr: Instr, fact: &mut ConstFacts) {
        let Some(rd) = instr.def_reg() else { return };
        fact.set(rd, eval(pc, instr, fact));
    }
}

/// The value `instr` (known to define a register) writes, given the facts
/// before it.
fn eval(pc: u64, instr: Instr, facts: &ConstFacts) -> ConstVal {
    match instr {
        Instr::Alu(op, _, a, b) => match (facts.get(a), facts.get(b)) {
            (ConstVal::Const(x), ConstVal::Const(y)) => ConstVal::Const(op.eval(x, y)),
            (ConstVal::Varying, _) | (_, ConstVal::Varying) => ConstVal::Varying,
            _ => ConstVal::Unknown,
        },
        Instr::AluImm(op, _, a, imm) => match facts.get(a) {
            ConstVal::Const(x) => ConstVal::Const(op.eval(x, imm)),
            other => other,
        },
        Instr::Lui(_, imm) => ConstVal::Const(lui_value(imm)),
        // Link registers hold the (statically known) return address.
        Instr::Jal(..) | Instr::Jalr(..) => ConstVal::Const(pc.wrapping_add(INSTR_BYTES)),
        // Loads are data-dependent.
        _ => ConstVal::Varying,
    }
}

/// Evaluates a conditional branch's outcome under the given constant
/// facts: `Some(taken)` when both operands are known, `None` when either
/// operand varies (or the instruction is not a branch).
///
/// The distiller's constant-folding pass uses this to collapse branches
/// whose direction is decided on the asserted CFG.
///
/// # Examples
///
/// ```
/// use mssp_isa::{Cond, ImmOp, Instr, Reg};
/// use mssp_analysis::{eval_branch, Analysis, ConstPropAnalysis};
///
/// let mut facts = ConstPropAnalysis.boundary();
/// ConstPropAnalysis.transfer(0, Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::ZERO, 3), &mut facts);
/// // a0 == 3, so `beqz a0` is decidedly not taken.
/// assert_eq!(eval_branch(Instr::Branch(Cond::Beq, Reg::A0, Reg::ZERO, -8), &facts), Some(false));
/// ```
#[must_use]
pub fn eval_branch(instr: Instr, facts: &ConstFacts) -> Option<bool> {
    let Instr::Branch(cond, a, b, _) = instr else {
        return None;
    };
    Some(cond.holds(facts.get(a).as_const()?, facts.get(b).as_const()?))
}

/// Forward constant propagation over a program's CFG.
///
/// Used by the linter to resolve materialized code addresses (`li`
/// sequences, link values) when approximating indirect control flow.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_analysis::{Cfg, ConstProp};
///
/// let p = assemble(
///     "main: lui a0, 2
///            ori a0, a0, 0x34
///            halt",
/// ).unwrap();
/// let c = ConstProp::compute(&p, &Cfg::build(&p));
/// assert!(c.materialized(&p).contains(&0x20034));
/// ```
#[derive(Debug, Clone)]
pub struct ConstProp {
    results: DataflowResults<ConstFacts>,
}

impl ConstProp {
    /// Computes constant propagation for `program`, whose CFG is `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not `program`'s CFG.
    #[must_use]
    pub fn compute(program: &Program, cfg: &Cfg) -> ConstProp {
        ConstProp {
            results: DataflowResults::compute(program, cfg, &ConstPropAnalysis),
        }
    }

    /// The lattice value of `r` just after `pc` executes.
    #[must_use]
    fn value_after(&self, pc: u64, r: Reg) -> ConstVal {
        self.results
            .after(pc)
            .map_or(ConstVal::Varying, |f| f.get(r))
    }

    /// Every constant a register provably holds after some instruction —
    /// the *materialized* constants of the program. The linter uses these
    /// to over-approximate indirect-jump targets: any materialized value
    /// that decodes as a code address may be jumped to.
    #[must_use]
    pub fn materialized(&self, program: &Program) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        for (pc, instr) in program.iter_pcs() {
            if let Some(rd) = instr.def_reg() {
                if let ConstVal::Const(v) = self.value_after(pc, rd) {
                    out.insert(v);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Copy propagation
// ---------------------------------------------------------------------------

/// The copy-propagation lattice for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyVal {
    /// No path has assigned the register yet (optimistic top).
    Unknown,
    /// On every path, the register currently holds the same value as the
    /// named register (whose own definition is still live).
    Of(Reg),
    /// Paths disagree, the value is original, or the copy source was
    /// overwritten.
    Fresh,
}

impl CopyVal {
    fn join(self, other: CopyVal) -> CopyVal {
        match (self, other) {
            (CopyVal::Unknown, x) | (x, CopyVal::Unknown) => x,
            (CopyVal::Of(a), CopyVal::Of(b)) if a == b => self,
            _ => CopyVal::Fresh,
        }
    }

    /// The copy source, if this register is a live copy.
    #[must_use]
    pub fn source(self) -> Option<Reg> {
        match self {
            CopyVal::Of(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-register copy relations at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyFacts {
    vals: [CopyVal; NUM_REGS],
}

impl CopyFacts {
    /// The lattice value of `r` (the zero register is never a copy).
    #[must_use]
    pub fn get(&self, r: Reg) -> CopyVal {
        if r.is_zero() {
            CopyVal::Fresh
        } else {
            self.vals[r.index()]
        }
    }

    fn set(&mut self, r: Reg, v: CopyVal) {
        if !r.is_zero() {
            self.vals[r.index()] = v;
        }
    }

    /// Invalidates every copy whose source is `killed`, then records the
    /// new binding for `killed` itself.
    fn kill_and_bind(&mut self, killed: Reg, binding: CopyVal) {
        for v in &mut self.vals {
            if *v == CopyVal::Of(killed) {
                *v = CopyVal::Fresh;
            }
        }
        self.set(killed, binding);
    }
}

/// If `instr` is a register-to-register move, the `(dest, source)` pair.
///
/// Recognized forms: `addi rd, rs, 0`, and `add`/`or`/`xor` of `rs` with
/// the zero register (both operand orders). `ori`/`xori` with immediate 0
/// also qualify because logical immediates zero-extend.
#[must_use]
pub(crate) fn as_reg_copy(instr: Instr) -> Option<(Reg, Reg)> {
    let (rd, rs) = match instr {
        Instr::AluImm(ImmOp::Addi | ImmOp::Ori | ImmOp::Xori, rd, rs, 0) => (rd, rs),
        Instr::Alu(AluOp::Add | AluOp::Or | AluOp::Xor, rd, a, b) => {
            if b.is_zero() {
                (rd, a)
            } else if a.is_zero() {
                (rd, b)
            } else {
                return None;
            }
        }
        _ => return None,
    };
    if rd.is_zero() || rd == rs {
        None
    } else {
        Some((rd, rs))
    }
}

/// The copy-propagation [`Analysis`] instance (see [`ConstPropAnalysis`]
/// for why the instance itself is public).
#[derive(Debug, Clone, Copy, Default)]
pub struct CopyPropAnalysis;

impl Analysis for CopyPropAnalysis {
    type Fact = CopyFacts;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self) -> CopyFacts {
        CopyFacts {
            vals: [CopyVal::Unknown; NUM_REGS],
        }
    }

    fn boundary(&self) -> CopyFacts {
        CopyFacts {
            vals: [CopyVal::Fresh; NUM_REGS],
        }
    }

    fn join(&self, into: &mut CopyFacts, other: &CopyFacts) -> bool {
        let mut changed = false;
        for i in 0..NUM_REGS {
            let j = into.vals[i].join(other.vals[i]);
            if j != into.vals[i] {
                into.vals[i] = j;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&self, _pc: u64, instr: Instr, fact: &mut CopyFacts) {
        let Some(rd) = instr.def_reg() else { return };
        let binding = match as_reg_copy(instr) {
            // Chase one level so chains of copies resolve to the oldest
            // still-live source (`rs` holding a copy of `t` means they are
            // equal right now, so `rd` copies `t` too).
            Some((_, rs)) => match fact.get(rs) {
                CopyVal::Of(t) => CopyVal::Of(t),
                _ if rs.is_zero() => CopyVal::Of(Reg::ZERO),
                _ => CopyVal::Of(rs),
            },
            None => CopyVal::Fresh,
        };
        // `rd = rs` where `rs` already copies `rd` re-materializes rd's own
        // value; a self-referential `Of(rd)` fact would be meaningless.
        let binding = match binding {
            CopyVal::Of(t) if t == rd => CopyVal::Fresh,
            b => b,
        };
        fact.kill_and_bind(rd, binding);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;
    use mssp_isa::Cond;

    fn setup(src: &str) -> (Program, Cfg) {
        let p = assemble(src).unwrap();
        let c = Cfg::build(&p);
        (p, c)
    }

    /// The constant lattice value of `r` just before `pc` executes.
    fn const_before(c: &ConstProp, pc: u64, r: Reg) -> ConstVal {
        c.results.before(pc).unwrap().get(r)
    }

    /// The copy lattice value of `r` just before `pc` executes.
    fn copy_before(c: &DataflowResults<CopyFacts>, pc: u64, r: Reg) -> CopyVal {
        c.before(pc).unwrap().get(r)
    }

    #[test]
    fn reaching_defs_straight_line_kills() {
        let (p, cfg) = setup(
            "main: addi a0, zero, 1
                   addi a0, zero, 2
                   addi a1, a0, 0
                   halt",
        );
        let defs = ReachingDefs::compute(&p, &cfg);
        let at_use: Vec<u64> = defs.defs_before(p.entry() + 8, Reg::A0).collect();
        assert_eq!(at_use, vec![p.entry() + 4], "first def must be killed");
        assert!(!defs
            .before(p.entry() + 8)
            .unwrap()
            .external
            .contains(Reg::A0));
    }

    #[test]
    fn reaching_defs_merge_at_join_points() {
        let (p, cfg) = setup(
            "main: beqz a0, else
                   addi a1, zero, 1
                   j join
             else: addi a1, zero, 2
             join: halt",
        );
        let defs = ReachingDefs::compute(&p, &cfg);
        let join = p.symbol("join").unwrap();
        let sites: BTreeSet<u64> = defs.defs_before(join, Reg::A1).collect();
        assert_eq!(sites.len(), 2, "both arms reach the join");
    }

    #[test]
    fn reaching_defs_external_at_entry() {
        let (p, cfg) = setup("main: addi a1, a0, 0\n halt");
        let defs = ReachingDefs::compute(&p, &cfg);
        let f = defs.before(p.entry()).unwrap();
        assert!(f.external.contains(Reg::A0));
        assert!(!f.has_instr_def(Reg::A0));
    }

    #[test]
    fn const_prop_evaluates_li_sequences() {
        // `li` with a wide constant expands to lui + ori chunks.
        let (p, cfg) = setup("main: li a0, 0x12345\n halt");
        let c = ConstProp::compute(&p, &cfg);
        assert!(c.materialized(&p).contains(&0x12345));
    }

    #[test]
    fn const_prop_varying_at_loop_carried_values() {
        let (p, cfg) = setup(
            "main: addi a0, zero, 5
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        );
        let c = ConstProp::compute(&p, &cfg);
        let loop_pc = p.symbol("loop").unwrap();
        // a0 differs between the entry edge (5) and the back edge.
        assert_eq!(const_before(&c, loop_pc, Reg::A0), ConstVal::Varying);
    }

    #[test]
    fn const_prop_link_registers_are_constant() {
        let (p, cfg) = setup(
            "main: call f
                   halt
             f:    ret",
        );
        let c = ConstProp::compute(&p, &cfg);
        // The call materializes its return address in `ra`.
        assert!(c.materialized(&p).contains(&(p.entry() + 4)));
    }

    #[test]
    fn const_prop_agrees_at_consistent_joins() {
        let (p, cfg) = setup(
            "main: beqz a0, else
                   addi a1, zero, 7
                   j join
             else: addi a1, zero, 7
             join: addi a2, a1, 1
                   halt",
        );
        let c = ConstProp::compute(&p, &cfg);
        let join = p.symbol("join").unwrap();
        assert_eq!(const_before(&c, join, Reg::A1), ConstVal::Const(7));
        assert_eq!(c.value_after(join, Reg::A2), ConstVal::Const(8));
    }

    #[test]
    fn copy_prop_kills_on_source_redefinition() {
        let (p, cfg) = setup(
            "main: addi a1, a0, 0
                   addi a0, zero, 9
                   addi a2, a1, 1
                   halt",
        );
        let c = DataflowResults::compute(&p, &cfg, &CopyPropAnalysis);
        // Before the a0 redefinition, a1 copies a0...
        assert_eq!(
            copy_before(&c, p.entry() + 4, Reg::A1),
            CopyVal::Of(Reg::A0)
        );
        // ...after it, the copy relation is dead.
        assert_eq!(copy_before(&c, p.entry() + 8, Reg::A1), CopyVal::Fresh);
    }

    #[test]
    fn copy_prop_chains_resolve_to_oldest_live_source() {
        let (p, cfg) = setup(
            "main: addi a1, a0, 0
                   addi a2, a1, 0
                   halt",
        );
        let c = DataflowResults::compute(&p, &cfg, &CopyPropAnalysis);
        assert_eq!(
            copy_before(&c, p.entry() + 8, Reg::A2),
            CopyVal::Of(Reg::A0)
        );
    }

    #[test]
    fn copy_prop_joins_disagreeing_paths_to_fresh() {
        let (p, cfg) = setup(
            "main: beqz a0, else
                   addi a1, a2, 0
                   j join
             else: addi a1, a3, 0
             join: halt",
        );
        let c = DataflowResults::compute(&p, &cfg, &CopyPropAnalysis);
        let join = p.symbol("join").unwrap();
        assert_eq!(copy_before(&c, join, Reg::A1), CopyVal::Fresh);
    }

    #[test]
    fn copy_prop_recognizes_zero_moves() {
        assert_eq!(
            as_reg_copy(Instr::Alu(AluOp::Add, Reg::A1, Reg::A0, Reg::ZERO)),
            Some((Reg::A1, Reg::A0))
        );
        assert_eq!(
            as_reg_copy(Instr::Alu(AluOp::Or, Reg::A1, Reg::ZERO, Reg::A0)),
            Some((Reg::A1, Reg::A0))
        );
        assert_eq!(
            as_reg_copy(Instr::AluImm(ImmOp::Addi, Reg::A1, Reg::A0, 1)),
            None
        );
        assert_eq!(
            as_reg_copy(Instr::AluImm(ImmOp::Addi, Reg::A0, Reg::A0, 0)),
            None
        );
        // Copy *of* the zero register is a recognized li-0.
        let (p, cfg) = setup("main: addi a0, zero, 0\n addi a1, a0, 1\n halt");
        let c = DataflowResults::compute(&p, &cfg, &CopyPropAnalysis);
        assert_eq!(
            copy_before(&c, p.entry() + 4, Reg::A0),
            CopyVal::Of(Reg::ZERO)
        );
    }

    #[test]
    fn eval_branch_decides_constant_conditions() {
        let (p, cfg) = setup("main: addi a0, zero, 3\n addi a1, zero, 5\n halt");
        let c = ConstProp::compute(&p, &cfg);
        let facts = c.results.after(p.entry() + 4).unwrap();
        assert_eq!(
            eval_branch(Instr::Branch(Cond::Blt, Reg::A0, Reg::A1, 0), facts),
            Some(true)
        );
        assert_eq!(
            eval_branch(Instr::Branch(Cond::Beq, Reg::A0, Reg::A1, 0), facts),
            Some(false)
        );
        assert_eq!(
            eval_branch(Instr::Branch(Cond::Bgeu, Reg::A1, Reg::A0, 0), facts),
            Some(true)
        );
        // Unknown operand: undecidable.
        assert_eq!(
            eval_branch(Instr::Branch(Cond::Beq, Reg::T3, Reg::A1, 0), facts),
            None
        );
        assert_eq!(eval_branch(Instr::Halt, facts), None);
    }

    #[test]
    fn zero_register_is_always_zero() {
        let (p, cfg) = setup("main: addi a0, zero, 3\n halt");
        let c = ConstProp::compute(&p, &cfg);
        assert_eq!(const_before(&c, p.entry(), Reg::ZERO), ConstVal::Const(0));
        assert_eq!(c.value_after(p.entry(), Reg::A0), ConstVal::Const(3));
    }
}
