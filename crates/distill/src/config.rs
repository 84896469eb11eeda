//! Distillation configuration.

/// How aggressively the distiller approximates the original program.
///
/// More aggressive distillation yields a shorter (faster) distilled program
/// but mispredicts live-ins more often — the central performance/accuracy
/// tradeoff the ablation experiment (F8) sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistillLevel {
    /// No approximation: the distilled program is a relocated copy of the
    /// original (calls still rewritten to preserve the original's
    /// register/memory image). The master's predictions are always right;
    /// any residual slowdown/speedup isolates the paradigm's overheads.
    None,
    /// Remove only what the training run proves unused: blocks unreachable
    /// once never-taken branch directions are asserted away, plus writes
    /// that are dead in the resulting code.
    Conservative,
    /// Additionally assert branches whose training bias meets
    /// [`DistillConfig::assert_bias`], accepting occasional mispredictions
    /// in exchange for a much shorter fast path.
    Aggressive,
}

impl DistillLevel {
    /// All levels, in increasing aggressiveness (handy for sweeps).
    #[must_use]
    pub fn all() -> [DistillLevel; 3] {
        [
            DistillLevel::None,
            DistillLevel::Conservative,
            DistillLevel::Aggressive,
        ]
    }
}

impl std::fmt::Display for DistillLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DistillLevel::None => "none",
            DistillLevel::Conservative => "conservative",
            DistillLevel::Aggressive => "aggressive",
        };
        f.write_str(s)
    }
}

/// Per-pass toggles and the fixpoint budget of the distiller's optimizing
/// pass pipeline (see `mssp_distill::passes`).
///
/// The pipeline runs after branch asserting / cold-code elision and before
/// layout, at every level except [`DistillLevel::None`]. Each toggle
/// enables one pass; [`PassConfig::dce_only`] reproduces the pre-pipeline
/// distiller (liveness DCE alone).
///
/// # Examples
///
/// ```
/// use mssp_distill::{DistillConfig, PassConfig};
///
/// let cfg = DistillConfig {
///     passes: PassConfig {
///         jump_thread: false,
///         ..PassConfig::all()
///     },
///     ..DistillConfig::default()
/// };
/// assert!(cfg.passes.const_fold && !cfg.passes.jump_thread);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Constant propagation & folding on the asserted CFG: ALU results
    /// with known operands become `li`s, decided conditional branches
    /// collapse into jumps or fall-throughs, and code left unreachable by
    /// the collapsed branches is pruned.
    pub const_fold: bool,
    /// Copy propagation: uses of a register that provably mirrors another
    /// are rewritten to the source, exposing the move to DCE.
    pub copy_prop: bool,
    /// Liveness dead-code elimination (with the task-boundary live-in
    /// floor).
    pub dce: bool,
    /// Profile-guided jump threading / superblock straightening: hot
    /// paths are relaid so the master falls through its dominant trace.
    pub jump_thread: bool,
    /// Maximum pipeline iterations; within one iteration each enabled
    /// pass runs once, and the pipeline stops early at a fixpoint.
    pub max_iterations: usize,
}

impl PassConfig {
    /// Every pass enabled — the default pipeline.
    #[must_use]
    pub fn all() -> PassConfig {
        PassConfig {
            const_fold: true,
            copy_prop: true,
            dce: true,
            jump_thread: true,
            max_iterations: 4,
        }
    }

    /// No optimizing passes at all (the raw asserted image).
    #[must_use]
    pub(crate) fn none() -> PassConfig {
        PassConfig {
            const_fold: false,
            copy_prop: false,
            dce: false,
            jump_thread: false,
            max_iterations: 0,
        }
    }

    /// Liveness DCE alone — the distiller's behaviour before the pass
    /// pipeline existed; the benchmark baseline pipeline improvements are
    /// measured against.
    #[must_use]
    pub fn dce_only() -> PassConfig {
        PassConfig {
            dce: true,
            max_iterations: 1,
            ..PassConfig::none()
        }
    }

    /// Whether any pass is enabled (with a non-zero budget).
    #[must_use]
    pub(crate) fn any_enabled(&self) -> bool {
        self.max_iterations > 0
            && (self.const_fold || self.copy_prop || self.dce || self.jump_thread)
    }
}

impl Default for PassConfig {
    fn default() -> PassConfig {
        PassConfig::all()
    }
}

/// Full distiller configuration.
///
/// # Examples
///
/// ```
/// use mssp_distill::{DistillConfig, DistillLevel};
///
/// let cfg = DistillConfig {
///     target_task_size: 512,
///     ..DistillConfig::default()
/// };
/// assert_eq!(cfg.level, DistillLevel::Aggressive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillConfig {
    /// Approximation level.
    pub level: DistillLevel,
    /// Minimum training-run bias at which an `Aggressive` distiller
    /// asserts a branch to its dominant direction (`0.5 < assert_bias <=
    /// 1.0`). `Conservative` uses `1.0` regardless.
    pub assert_bias: f64,
    /// Desired average dynamic task length, in original-program
    /// instructions. Boundary selection aims for this.
    pub target_task_size: u64,
    /// The optimizing pass pipeline (ignored at [`DistillLevel::None`],
    /// which emits a verbatim relocated image).
    pub passes: PassConfig,
}

impl Default for DistillConfig {
    fn default() -> DistillConfig {
        DistillConfig {
            level: DistillLevel::Aggressive,
            assert_bias: 0.9995,
            target_task_size: 256,
            passes: PassConfig::all(),
        }
    }
}

impl DistillConfig {
    /// A configuration at the given level with default knobs.
    #[must_use]
    pub fn at_level(level: DistillLevel) -> DistillConfig {
        DistillConfig {
            level,
            ..DistillConfig::default()
        }
    }

    /// The effective assert threshold for this configuration: branches at
    /// or above this bias get asserted.
    ///
    /// Returns `None` when the level never asserts ([`DistillLevel::None`]).
    #[must_use]
    pub(crate) fn effective_assert_bias(&self) -> Option<f64> {
        match self.level {
            DistillLevel::None => None,
            DistillLevel::Conservative => Some(1.0),
            DistillLevel::Aggressive => Some(self.assert_bias),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bias_by_level() {
        assert_eq!(
            DistillConfig::at_level(DistillLevel::None).effective_assert_bias(),
            None
        );
        assert_eq!(
            DistillConfig::at_level(DistillLevel::Conservative).effective_assert_bias(),
            Some(1.0)
        );
        let agg = DistillConfig::at_level(DistillLevel::Aggressive);
        assert!(agg.effective_assert_bias().unwrap() < 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(DistillLevel::Aggressive.to_string(), "aggressive");
        assert_eq!(DistillLevel::all().len(), 3);
    }
}
