//! # mssp-analysis
//!
//! Static and dynamic program analyses over MSSP ISA binaries — the
//! substrate of the program distiller:
//!
//! * [`Cfg`] — control-flow graph recovery from a binary.
//! * [`Dominators`] / [`natural_loops`] — dominance and loop structure.
//! * [`Analysis`] / [`Graph`] / [`solve`] — one forward/backward worklist
//!   dataflow solver, over [`Cfg`]s and any other graph of straight-line
//!   blocks (the distiller's IR runs its constant propagation, copy
//!   propagation and dead-code elimination on it).
//! * [`Liveness`] — backward register liveness (for dead-code elimination),
//!   an instance of the framework.
//! * [`ReachingDefs`] / [`ConstProp`] / [`CopyPropAnalysis`] — forward
//!   reaching-definitions, constant propagation and copy propagation (the
//!   static soundness linter and the distiller's optimizing pass pipeline
//!   are built on these).
//! * [`Profile`] — instruction, edge and branch counts and memory
//!   footprints from a training run (the distiller is profile-guided, as
//!   in the paper).
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_analysis::{natural_loops, Cfg, Dominators, Profile};
//!
//! let program = assemble(
//!     "main: addi a0, zero, 100
//!      loop: addi a0, a0, -1
//!            bnez a0, loop
//!            halt",
//! ).unwrap();
//!
//! let cfg = Cfg::build(&program);
//! let dom = Dominators::compute(&cfg);
//! assert_eq!(natural_loops(&cfg, &dom).len(), 1);
//!
//! let profile = Profile::collect(&program, Profile::UNBOUNDED).unwrap();
//! assert!(profile.weighted_branch_bias().unwrap() > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cfg;
mod dataflow;
mod dom;
mod live;
mod profile;

pub use cfg::{BasicBlock, BlockId, Cfg, Terminator};
pub use dataflow::{
    eval_branch, solve, Analysis, ConstFacts, ConstProp, ConstPropAnalysis, ConstVal, CopyFacts,
    CopyPropAnalysis, CopyVal, Direction, Graph, ReachingDefs,
};
pub use dom::{natural_loops, Dominators, NaturalLoop};
pub use live::{Liveness, RegSet};
pub use profile::{BranchCounts, Profile};
