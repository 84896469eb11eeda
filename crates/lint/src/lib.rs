//! # mssp-lint
//!
//! A static soundness checker for distilled programs and task boundaries.
//!
//! The MSSP distiller's output is "purely a performance artifact" — it can
//! be arbitrarily wrong without breaking correctness, because slaves run
//! the original program under verification. But the distillation still has
//! *structural* obligations: every task boundary needs a distilled-PC
//! correspondence, task live-ins must stay computable by the master, and
//! the asserted CFG must be well-formed. A distillation pass that breaks
//! one of these surfaces at run time as squash storms, lost masters or a
//! silent collapse to sequential operation. This crate checks the
//! obligations statically, on top of the dataflow framework in
//! `mssp-analysis` (liveness, reaching definitions, constant propagation).
//!
//! ## The checks
//!
//! | lint | severity | obligation |
//! |------|----------|------------|
//! | `boundary-unmapped` | error | every boundary has a distilled PC |
//! | `liveins-uncovered` | error | master can compute all task live-ins |
//! | `cfg-fallthrough-off-end` | error | control cannot leave the text: no fall-through off the distilled end, no direct jump out |
//! | `assert-unjustified` | warning | asserted branches clear the bias threshold |
//! | `unreachable-after-assert` | warning | no unreachable distilled code |
//! | `boundary-in-cold-code` | warning | boundaries recur in training |
//! | `dead-store-in-distilled` | warning | no dead register writes survive |
//! | `degenerate-boundary-set` | warning | boundary selection found a recurring site |
//! | `slice-unsound` | error | spawn guards end in their branch, read only spawn-available values, and keep to the master's window and input caps |
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_analysis::Profile;
//! use mssp_distill::{DistillConfig, DistillLevel};
//! use mssp_lint::{distill_validated, LintConfig};
//!
//! let program = assemble(
//!     "main: addi a0, zero, 800
//!      loop: addi a1, a1, 7
//!            addi a0, a0, -1
//!            bnez a0, loop
//!            halt",
//! ).unwrap();
//! let profile = Profile::collect(&program, Profile::UNBOUNDED).unwrap();
//! let d = distill_validated(
//!     &program,
//!     &profile,
//!     &DistillConfig::at_level(DistillLevel::Aggressive),
//!     &LintConfig::default(),
//! ).unwrap();
//! assert!(!d.boundaries().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod diag;
mod lints;

pub use diag::{escape_json, AddrSpace, Diagnostic, LintId, Report, Severity};
pub use lints::{boundary_live_ins, fires_at, lint, LintConfig};

use mssp_analysis::Profile;
use mssp_distill::{distill, redistill, DistillConfig, DistillError, Distilled};
use mssp_isa::Program;

/// Distills `program` and validates the output, rejecting distillations
/// with error-severity findings.
///
/// This is [`distill`] with a soundness gate: the linter runs over the
/// fresh output and any error-severity finding turns into
/// [`DistillError::Unsound`] carrying the rendered diagnostics.
/// Warning-severity findings are tolerated (they indicate performance
/// hazards, not structural breakage).
///
/// # Errors
///
/// Everything [`distill`] returns, plus [`DistillError::Unsound`] when
/// validation fails.
pub fn distill_validated(
    program: &Program,
    profile: &Profile,
    config: &DistillConfig,
    lint_config: &LintConfig,
) -> Result<Distilled, DistillError> {
    let distilled = distill(program, profile, config)?;
    gate(program, distilled, profile, lint_config)
}

/// Builds the online adaptive loop's recompiler for a run of `program`
/// that starts from `distilled`: each call re-distills `program` from the
/// live profile it is given, with the default configuration and
/// `distilled`'s boundary set and crossing grouping pinned, behind the
/// same soundness gate as [`distill_validated`].
///
/// Every candidate distilled program must clear the full lint battery
/// (including `slice-unsound`) before it is eligible for hot-swap, so a
/// divergent live profile can cost performance but can never install a
/// structurally broken master. A refusal comes back rendered as a
/// string, which the controller counts as a failed recompile.
pub fn validated_recompiler(
    program: &Program,
    distilled: &Distilled,
) -> impl FnMut(&Profile) -> Result<Distilled, String> + Send + 'static {
    let program = program.clone();
    let boundaries = distilled.boundaries().clone();
    let crossings = distilled.crossings_per_task().max(1);
    move |profile| {
        redistill(
            &program,
            profile,
            &DistillConfig::default(),
            &boundaries,
            crossings,
        )
        .and_then(|d| gate(&program, d, profile, &LintConfig::default()))
        .map_err(|e| e.to_string())
    }
}

fn gate(
    program: &Program,
    distilled: Distilled,
    profile: &Profile,
    lint_config: &LintConfig,
) -> Result<Distilled, DistillError> {
    let report = lint(program, &distilled, profile, lint_config);
    if report.has_errors() {
        return Err(DistillError::Unsound(
            report
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(ToString::to_string)
                .collect(),
        ));
    }
    Ok(distilled)
}
