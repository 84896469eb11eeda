//! # mssp
//!
//! A from-scratch Rust reproduction of **Master/Slave Speculative
//! Parallelization** (Zilles & Sohi, MICRO 2002): an execution paradigm
//! that runs a sequential program across a chip multiprocessor by letting
//! a fast, *unverified* master core execute an approximate "distilled"
//! program whose state predictions seed speculative tasks on slave cores,
//! with a verify/commit unit that makes the whole machine exactly
//! equivalent to sequential execution.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`isa`] — the 64-bit RISC ISA, assembler and disassembler.
//! * [`machine`] — machine state, partial states (deltas) and the
//!   sequential reference semantics.
//! * [`analysis`] — CFGs, dominators, liveness, dynamic profiles.
//! * [`distill`] — the profile-guided program distiller.
//! * [`lint`] — the static soundness checker for distilled output.
//! * [`core`] — the MSSP engine (tasks, master, verify/commit).
//! * [`sim`] — caches, branch predictors, core latency pipelines.
//! * [`timing`] — the CMP timing model and the baseline uniprocessor.
//! * [`workloads`] — eleven SPECint2000-analog benchmarks.
//! * [`stats`] — statistics and report rendering for the harness.
//!
//! ## Quick start
//!
//! ```
//! use mssp::prelude::*;
//!
//! let w = Workload::by_name("gap_like").unwrap();
//! let program = w.program(2_000);
//! let profile = Profile::collect(&program, u64::MAX).unwrap();
//! let distilled = distill(&program, &profile, &DistillConfig::default()).unwrap();
//!
//! let cfg = TimingConfig::default();
//! let baseline = run_baseline(&program, &cfg, u64::MAX).unwrap();
//! let mssp = run_mssp(&program, &distilled, &cfg).unwrap();
//!
//! // Same architected result, fewer cycles.
//! assert_eq!(
//!     baseline.state.reg(CHECKSUM_REG),
//!     mssp.run.state.reg(CHECKSUM_REG),
//! );
//! ```

#![warn(missing_docs)]

pub use mssp_analysis as analysis;
pub use mssp_core as core;
pub use mssp_distill as distill;
pub use mssp_isa as isa;
pub use mssp_lint as lint;
pub use mssp_machine as machine;
pub use mssp_sim as sim;
pub use mssp_stats as stats;
pub use mssp_timing as timing;
pub use mssp_workloads as workloads;

/// Convenient glob-import surface covering the common workflow:
/// assemble/load → profile → distill → run (functional or timed).
pub mod prelude {
    pub use mssp_analysis::{Cfg, Profile};
    pub use mssp_core::{
        check_refinement, run_threaded, run_threaded_adaptive, AdaptiveConfig, AdaptiveController,
        AdaptiveReport, Engine, EngineConfig, EngineStats, MsspRun, Recompiler, SwapMarker,
        UnitCost,
    };
    pub use mssp_distill::{
        distill, redistill, DistillConfig, DistillLevel, Distilled, PassConfig, PassDelta,
    };
    pub use mssp_isa::{asm::assemble, Instr, PcSpan, Program, Reg};
    pub use mssp_lint::{
        distill_validated, lint, validated_recompiler, LintConfig, LintId, Report, Severity,
    };
    pub use mssp_machine::{Cell, Delta, MachineState, SeqMachine};
    pub use mssp_timing::{run_baseline, run_mssp, speedup, TimingConfig};
    pub use mssp_workloads::{workloads, Workload, CHECKSUM_REG};
}
