//! # mssp-core
//!
//! The MSSP engine — the paper's primary contribution as an executable
//! library. It couples an untrusted, arbitrarily-wrong **master** (running
//! a distilled program) to verified **slave** tasks and an in-order
//! **verify/commit** unit, such that the committed architected state is
//! always exactly what the sequential machine would produce.
//!
//! * [`verify_and_commit`] + the private `protocol` module — the protocol
//!   core: what a spawn, commit, squash, recovery and hot-swap mean, once.
//! * [`Engine`] / [`run_threaded`] — its two drivers: discrete virtual time
//!   under a [`CostModel`], and real OS threads over lock-free rings.
//! * [`Task`] / [`TaskStorage`] — speculative tasks with live-in recording
//!   and live-out buffering.
//! * [`Master`] — the fast path: distilled-program execution, checkpoint
//!   segments, PC translation.
//! * [`UnitCost`] — the functional cost model (timing-free runs).
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_analysis::Profile;
//! use mssp_distill::{distill, DistillConfig};
//! use mssp_core::{Engine, EngineConfig, UnitCost};
//!
//! let program = assemble(
//!     "main: addi s0, zero, 100
//!      loop: add  s1, s1, s0
//!            addi s0, s0, -1
//!            bnez s0, loop
//!            halt",
//! ).unwrap();
//! let profile = Profile::collect(&program, Profile::UNBOUNDED).unwrap();
//! let distilled = distill(&program, &profile, &DistillConfig::default()).unwrap();
//!
//! let run = Engine::new(&program, &distilled, EngineConfig::default(), UnitCost)
//!     .run()
//!     .unwrap();
//! assert_eq!(run.state.reg(mssp_isa::Reg::S1), 5050);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adaptive;
mod cost;
mod engine;
mod master;
#[cfg(feature = "model-check")]
pub mod mutation;
mod predictor;
mod protocol;
mod refinement;
pub mod ring;
mod sync;
mod task;
mod threaded;

pub use adaptive::{AdaptiveConfig, AdaptiveController, AdaptiveReport, Recompiler, SwapMarker};
pub use cost::{CoreRole, CostModel, UnitCost};
pub use engine::{Engine, EngineConfig, EngineError, Event, MsspRun, Observer, SquashSample};
pub use master::{Master, MasterStall};
pub use predictor::{Predictor, PredictorReport};
pub use protocol::{verify_and_commit, EngineStats, SquashReason, VerifyOutcome};
pub use refinement::{check_refinement, RefinementError};
pub use task::{
    BoundarySet, RecoveryStorage, SegmentRules, Task, TaskEnd, TaskId, TaskStatus, TaskStorage,
};
pub use threaded::{run_threaded, run_threaded_adaptive, ThreadedError, ThreadedRun};
