//! A generic worklist dataflow framework over [`Cfg`]s.
//!
//! Every static analysis in this workspace — liveness for dead-code
//! elimination, reaching definitions and constant propagation for the
//! static soundness linter — is an instance of the same scheme: facts from
//! a join-semilattice, a transfer function per instruction, and a worklist
//! solver that iterates block-level facts to a fixpoint before recording
//! per-instruction results. [`Analysis`] captures the lattice (via
//! [`Analysis::join`]) and the transfer; a worklist solver runs it in
//! either direction.
//!
//! Indirect control flow is approximated conservatively and uniformly:
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

use mssp_isa::{Instr, Program, Reg, NUM_REGS};

use crate::live::RegSet;
use crate::{BlockId, Cfg, Terminator};

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry toward exits (e.g. reaching definitions).
    Forward,
    /// Facts flow from exits toward the entry (e.g. liveness).
    Backward,
}

/// One dataflow analysis: a join-semilattice of facts plus a transfer
/// function. See the module docs for the solver's treatment of indirect
/// control flow.
pub trait Analysis {
    /// The lattice element propagated through the CFG.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The optimistic starting fact — the identity of [`Analysis::join`].
    fn init(&self) -> Self::Fact;

    /// The fact at the analysis boundary: program entry (forward) or
    /// `Halt`/`Indirect` exits (backward), plus pred-less blocks for
    /// forward analyses (conservative indirect-target stand-ins).
    fn boundary(&self) -> Self::Fact;

    /// Joins `other` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Transfers `fact` across the instruction at `pc`, in the analysis
    /// direction (for backward analyses, `fact` is the post-instruction
    /// fact on entry and the pre-instruction fact on return).
    fn transfer(&self, pc: u64, instr: Instr, fact: &mut Self::Fact);
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

impl<F> DataflowResults<F> {
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

/// Runs `analysis` over `cfg` to a fixpoint and records per-instruction
/// facts.
pub(crate) fn solve<A: Analysis>(
    program: &Program,
    cfg: &Cfg,
    analysis: &A,
) -> DataflowResults<A::Fact> {
    let n = cfg.blocks().len();
    let direction = analysis.direction();

    // `input[b]` is the fact at the block's analysis-order start: block
    // entry for forward analyses, block exit for backward ones.
    let mut input: Vec<A::Fact> = Vec::with_capacity(n);
    for bid in 0..n {
        let mut fact = analysis.init();
        if at_boundary(cfg, bid, direction) {
            analysis.join(&mut fact, &analysis.boundary());
        }
        input.push(fact);
    }
    let mut output: Vec<A::Fact> = (0..n)
        .map(|bid| transfer_block(program, cfg, bid, direction, analysis, &input[bid]))
        .collect();

    // Worklist over blocks: seed in analysis order, then chase changes.
    let mut queue: VecDeque<BlockId> = match direction {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    let mut queued = vec![true; n];
    while let Some(bid) = queue.pop_front() {
        queued[bid] = false;
        // Re-join this block's input from its analysis-order sources, then
        // re-transfer; a changed output re-enqueues the destinations.
        for src in flow_sources(cfg, bid, direction) {
            analysis.join(&mut input[bid], &output[src]);
        }
        let out = transfer_block(program, cfg, bid, direction, analysis, &input[bid]);
        if out != output[bid] {
            output[bid] = out;
            for dst in flow_dests(cfg, bid, direction) {
                if !queued[dst] {
                    queued[dst] = true;
                    queue.push_back(dst);
                }
            }
        }
    }

    // Final sweep: per-instruction facts.
    let mut before = BTreeMap::new();
    let mut after = BTreeMap::new();
    for (bid, block) in cfg.blocks().iter().enumerate() {
        let mut fact = input[bid].clone();
        match direction {
            Direction::Forward => {
                for pc in block.pcs() {
                    before.insert(pc, fact.clone());
                    let instr = program.fetch(pc).expect("pc within text");
                    analysis.transfer(pc, instr, &mut fact);
                    after.insert(pc, fact.clone());
                }
            }
            Direction::Backward => {
                for pc in block.pcs().collect::<Vec<_>>().into_iter().rev() {
                    after.insert(pc, fact.clone());
                    let instr = program.fetch(pc).expect("pc within text");
                    analysis.transfer(pc, instr, &mut fact);
                    before.insert(pc, fact.clone());
                }
            }
        }
    }

    DataflowResults { before, after }
}

/// Whether the boundary fact applies at block `bid`'s analysis-order start.
fn at_boundary(cfg: &Cfg, bid: BlockId, direction: Direction) -> bool {
    match direction {
        Direction::Forward => bid == cfg.entry() || cfg.predecessors(bid).is_empty(),
        Direction::Backward => matches!(
            cfg.blocks()[bid].terminator,
            Terminator::Halt | Terminator::Indirect
        ),
    }
}

fn flow_sources(cfg: &Cfg, bid: BlockId, direction: Direction) -> Vec<BlockId> {
    match direction {
        Direction::Forward => cfg.predecessors(bid).to_vec(),
        Direction::Backward => cfg.successors(bid),
    }
}

fn flow_dests(cfg: &Cfg, bid: BlockId, direction: Direction) -> Vec<BlockId> {
    match direction {
        Direction::Forward => cfg.successors(bid),
        Direction::Backward => cfg.predecessors(bid).to_vec(),
    }
}

fn transfer_block<A: Analysis>(
    program: &Program,
    cfg: &Cfg,
    bid: BlockId,
    direction: Direction,
    analysis: &A,
    input: &A::Fact,
) -> A::Fact {
    let block = &cfg.blocks()[bid];
    let mut fact = input.clone();
    match direction {
        Direction::Forward => {
            for pc in block.pcs() {
                let instr = program.fetch(pc).expect("pc within text");
                analysis.transfer(pc, instr, &mut fact);
            }
        }
        Direction::Backward => {
            for pc in block.pcs().collect::<Vec<_>>().into_iter().rev() {
                let instr = program.fetch(pc).expect("pc within text");
                analysis.transfer(pc, instr, &mut fact);
            }
        }
    }
    fact
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
    /// Computes reaching definitions for `program`.
    #[must_use]
    pub fn compute(program: &Program, cfg: &Cfg) -> ReachingDefs {
        ReachingDefs {
            results: solve(program, cfg, &ReachingDefsAnalysis),
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
/// Exported (alongside [`CopyPropAnalysis`]) so clients with their own
/// CFG-like structures — the distiller's relocatable IR in particular —
/// can drive the same lattice and transfer functions through a custom
/// solver.
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

/// Evaluates the value `instr` (known to define a register) writes, given
/// the facts before it. Mirrors the interpreter's ALU semantics exactly —
/// including zero-extension of logical immediates and the RISC-V division
/// conventions.
fn eval(pc: u64, instr: Instr, facts: &ConstFacts) -> ConstVal {
    use Instr::*;

    let bin = |a: Reg, b: Reg, f: fn(u64, u64) -> u64| -> ConstVal {
        match (facts.get(a), facts.get(b)) {
            (ConstVal::Const(x), ConstVal::Const(y)) => ConstVal::Const(f(x, y)),
            (ConstVal::Varying, _) | (_, ConstVal::Varying) => ConstVal::Varying,
            _ => ConstVal::Unknown,
        }
    };
    let un = |a: Reg, f: &dyn Fn(u64) -> u64| -> ConstVal {
        match facts.get(a) {
            ConstVal::Const(x) => ConstVal::Const(f(x)),
            other => other,
        }
    };

    match instr {
        Add(_, a, b) => bin(a, b, |x, y| x.wrapping_add(y)),
        Sub(_, a, b) => bin(a, b, |x, y| x.wrapping_sub(y)),
        And(_, a, b) => bin(a, b, |x, y| x & y),
        Or(_, a, b) => bin(a, b, |x, y| x | y),
        Xor(_, a, b) => bin(a, b, |x, y| x ^ y),
        Sll(_, a, b) => bin(a, b, |x, y| x.wrapping_shl((y & 63) as u32)),
        Srl(_, a, b) => bin(a, b, |x, y| x.wrapping_shr((y & 63) as u32)),
        Sra(_, a, b) => bin(a, b, |x, y| {
            ((x as i64).wrapping_shr((y & 63) as u32)) as u64
        }),
        Slt(_, a, b) => bin(a, b, |x, y| ((x as i64) < (y as i64)) as u64),
        Sltu(_, a, b) => bin(a, b, |x, y| (x < y) as u64),
        Mul(_, a, b) => bin(a, b, |x, y| x.wrapping_mul(y)),
        Div(_, a, b) => bin(a, b, |x, y| {
            let (x, y) = (x as i64, y as i64);
            if y == 0 {
                -1i64 as u64
            } else if x == i64::MIN && y == -1 {
                x as u64
            } else {
                x.wrapping_div(y) as u64
            }
        }),
        Divu(_, a, b) => bin(a, b, |x, y| x.checked_div(y).unwrap_or(u64::MAX)),
        Rem(_, a, b) => bin(a, b, |x, y| {
            let (x, y) = (x as i64, y as i64);
            if y == 0 {
                x as u64
            } else if x == i64::MIN && y == -1 {
                0
            } else {
                x.wrapping_rem(y) as u64
            }
        }),
        Remu(_, a, b) => bin(a, b, |x, y| if y == 0 { x } else { x % y }),
        Addi(_, a, i) => un(a, &move |x| x.wrapping_add(i as i64 as u64)),
        Andi(_, a, i) => un(a, &move |x| x & (i as u16 as u64)),
        Ori(_, a, i) => un(a, &move |x| x | (i as u16 as u64)),
        Xori(_, a, i) => un(a, &move |x| x ^ (i as u16 as u64)),
        Slti(_, a, i) => un(a, &move |x| ((x as i64) < i as i64) as u64),
        Sltiu(_, a, i) => un(a, &move |x| (x < (i as i64 as u64)) as u64),
        Slli(_, a, s) => un(a, &move |x| x.wrapping_shl(s as u32)),
        Srli(_, a, s) => un(a, &move |x| x.wrapping_shr(s as u32)),
        Srai(_, a, s) => un(a, &move |x| ((x as i64).wrapping_shr(s as u32)) as u64),
        Lui(_, i) => ConstVal::Const(((i as i64) << 16) as u64),
        // Link registers hold the (statically known) return address.
        Jal(..) | Jalr(..) => ConstVal::Const(pc.wrapping_add(mssp_isa::INSTR_BYTES)),
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
/// use mssp_isa::{Instr, Reg};
/// use mssp_analysis::{eval_branch, Analysis, ConstPropAnalysis};
///
/// let mut facts = ConstPropAnalysis.boundary();
/// ConstPropAnalysis.transfer(0, Instr::Addi(Reg::A0, Reg::ZERO, 3), &mut facts);
/// // a0 == 3, so `beqz a0` is decidedly not taken.
/// assert_eq!(eval_branch(Instr::Beq(Reg::A0, Reg::ZERO, -8), &facts), Some(false));
/// ```
#[must_use]
pub fn eval_branch(instr: Instr, facts: &ConstFacts) -> Option<bool> {
    use Instr::*;
    let (a, b) = match instr {
        Beq(a, b, _)
        | Bne(a, b, _)
        | Blt(a, b, _)
        | Bge(a, b, _)
        | Bltu(a, b, _)
        | Bgeu(a, b, _) => (a, b),
        _ => return None,
    };
    let (x, y) = (facts.get(a).as_const()?, facts.get(b).as_const()?);
    Some(match instr {
        Beq(..) => x == y,
        Bne(..) => x != y,
        Blt(..) => (x as i64) < (y as i64),
        Bge(..) => (x as i64) >= (y as i64),
        Bltu(..) => x < y,
        Bgeu(..) => x >= y,
        _ => unreachable!("matched above"),
    })
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
    /// Computes constant propagation for `program`.
    #[must_use]
    pub fn compute(program: &Program, cfg: &Cfg) -> ConstProp {
        ConstProp {
            results: solve(program, cfg, &ConstPropAnalysis),
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
    use Instr::*;
    let (rd, rs) = match instr {
        Addi(rd, rs, 0) | Ori(rd, rs, 0) | Xori(rd, rs, 0) => (rd, rs),
        Add(rd, a, b) | Or(rd, a, b) | Xor(rd, a, b) => {
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
        let c = solve(&p, &cfg, &CopyPropAnalysis);
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
        let c = solve(&p, &cfg, &CopyPropAnalysis);
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
        let c = solve(&p, &cfg, &CopyPropAnalysis);
        let join = p.symbol("join").unwrap();
        assert_eq!(copy_before(&c, join, Reg::A1), CopyVal::Fresh);
    }

    #[test]
    fn copy_prop_recognizes_zero_moves() {
        assert_eq!(
            as_reg_copy(Instr::Add(Reg::A1, Reg::A0, Reg::ZERO)),
            Some((Reg::A1, Reg::A0))
        );
        assert_eq!(
            as_reg_copy(Instr::Or(Reg::A1, Reg::ZERO, Reg::A0)),
            Some((Reg::A1, Reg::A0))
        );
        assert_eq!(as_reg_copy(Instr::Addi(Reg::A1, Reg::A0, 1)), None);
        assert_eq!(as_reg_copy(Instr::Addi(Reg::A0, Reg::A0, 0)), None);
        // Copy *of* the zero register is a recognized li-0.
        let (p, cfg) = setup("main: addi a0, zero, 0\n addi a1, a0, 1\n halt");
        let c = solve(&p, &cfg, &CopyPropAnalysis);
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
            eval_branch(Instr::Blt(Reg::A0, Reg::A1, 0), facts),
            Some(true)
        );
        assert_eq!(
            eval_branch(Instr::Beq(Reg::A0, Reg::A1, 0), facts),
            Some(false)
        );
        assert_eq!(
            eval_branch(Instr::Bgeu(Reg::A1, Reg::A0, 0), facts),
            Some(true)
        );
        // Unknown operand: undecidable.
        assert_eq!(eval_branch(Instr::Beq(Reg::T3, Reg::A1, 0), facts), None);
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
