//! # mssp-distill
//!
//! The MSSP program distiller: produces the approximate, speculatively
//! optimized *distilled program* that the master processor executes, plus
//! the task-boundary set and the PC correspondence map between original
//! and distilled space.
//!
//! Distillation is profile-guided and **purely a performance artifact** —
//! nothing the distiller emits can affect correctness, because slave tasks
//! execute the original program and are verified against architected
//! state. The distiller may therefore be arbitrarily wrong; it should just
//! be *usually right* (the paper's decoupling of performance from
//! correctness).
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_analysis::Profile;
//! use mssp_distill::{distill, DistillConfig, DistillLevel};
//!
//! let program = assemble(
//!     "main:  addi s0, zero, 2000
//!      loop:  addi s1, s1, 1
//!             beqz s1, cold        ; never taken in training
//!             addi s0, s0, -1
//!             bnez s0, loop
//!             halt
//!      cold:  addi s1, zero, 0
//!             j loop",
//! ).unwrap();
//!
//! let profile = Profile::collect(&program, Profile::UNBOUNDED).unwrap();
//! let d = distill(&program, &profile, &DistillConfig::at_level(DistillLevel::Aggressive)).unwrap();
//! assert!(d.stats().distilled_static < d.stats().original_static);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod boundary;
mod config;
mod distill;
mod ir;
mod passes;
mod slice;

pub use config::{DistillConfig, DistillLevel, PassConfig};
pub use distill::{distill, redistill, DistillError, DistillStats, Distilled};
pub use passes::PassDelta;
pub use slice::{Slice, MAX_GUARD_WINDOW, MAX_SLICE_LEN};
