//! # mssp-workloads
//!
//! SPECint2000-analog synthetic workloads for the MSSP reproduction.
//!
//! The MICRO 2002 paper evaluated MSSP on the twelve SPECint2000 C/C++
//! benchmarks; those binaries and inputs are not redistributable, so each
//! workload here is a self-contained assembly kernel that mimics the
//! *character* that determines its MSSP behaviour — branch bias,
//! distillability (never-taken guards, dead instrumentation), memory
//! behaviour (pointer chasing vs. streaming), and control regularity:
//!
//! | name           | analog   | character                                   |
//! |----------------|----------|---------------------------------------------|
//! | `gzip_like`    | gzip     | run-length coding, short inner runs          |
//! | `vpr_like`     | vpr      | annealing swaps, rare assertable re-anneal   |
//! | `gcc_like`     | gcc      | linked-list passes, irregular 50/25/25 forks |
//! | `mcf_like`     | mcf      | serial pointer chasing, cache-hostile        |
//! | `crafty_like`  | crafty   | bitboards + popcount micro-loop              |
//! | `parser_like`  | parser   | byte tokenizing, per-word hashing            |
//! | `eon_like`     | eon      | fixed-point ray tracing, hit/miss shading    |
//! | `perlbmk_like` | perlbmk  | bytecode interpreter, unbiased dispatch      |
//! | `gap_like`     | gap      | dense polynomial blocks, best distillation   |
//! | `vortex_like`  | vortex   | hash-table probing, biased collisions        |
//! | `bzip2_like`   | bzip2    | histogram + prefix sums                      |
//! | `twolf_like`   | twolf    | grid swaps, rare assertable rebalance        |
//!
//! Every program is deterministic (inputs generated by an in-program
//! LCG), halts, and leaves a checksum in register `s1`.
//!
//! ## Quick start
//!
//! ```
//! use mssp_workloads::{workloads, Workload};
//! use mssp_machine::SeqMachine;
//!
//! let w = Workload::by_name("gap_like").unwrap();
//! let program = w.program(1_000);
//! let mut m = SeqMachine::boot(&program);
//! m.run(u64::MAX).unwrap();
//! assert!(m.state().reg(mssp_isa::Reg::S1) != 0);
//! assert_eq!(workloads().len(), 12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

use mssp_isa::{asm::assemble, Program, Reg};

/// A workload failed to assemble.
///
/// Bundled sources are covered by tests and should never hit this, but
/// the typed path ([`Workload::try_program_with_seed`]) lets embedding
/// code (CLIs, services) surface the failure instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// Which workload failed.
    pub name: &'static str,
    /// The assembler's error messages.
    pub errors: Vec<String>,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload `{}` failed to assemble: {}",
            self.name,
            self.errors.join("; ")
        )
    }
}

impl std::error::Error for WorkloadError {}

/// One synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Short name, e.g. `"gzip_like"`.
    pub name: &'static str,
    /// The SPECint2000 program this one is an analog of.
    pub analog: &'static str,
    /// One-line character description.
    pub description: &'static str,
    /// The assembly source (parameterized by the `SCALE` and `SEED`
    /// constants).
    source: &'static str,
    /// Default value of `SCALE` (sized for sub-second functional runs).
    pub default_scale: u64,
}

/// Default LCG seed baked into every workload's reference input.
pub const DEFAULT_SEED: u64 = 0x5EED_0001;

/// A conventional alternative seed for *training* inputs, so distillation
/// can be profile-guided on one input and evaluated on another — the
/// paper's train/ref separation.
pub const TRAIN_SEED: u64 = 0x7261_494E;

/// Register that carries each workload's checksum at halt.
pub const CHECKSUM_REG: Reg = Reg::S1;

macro_rules! workload {
    ($name:literal, $analog:literal, $desc:literal, $file:literal, $scale:literal) => {
        Workload {
            name: $name,
            analog: $analog,
            description: $desc,
            source: include_str!(concat!("../asm/", $file)),
            default_scale: $scale,
        }
    };
}

const WORKLOADS: &[Workload] = &[
    workload!(
        "gzip_like",
        "164.gzip",
        "run-length compression over a 16-symbol stream",
        "gzip_like.s",
        16_384
    ),
    workload!(
        "vpr_like",
        "175.vpr",
        "annealing placement swaps with a rare re-anneal event",
        "vpr_like.s",
        12_000
    ),
    workload!(
        "gcc_like",
        "176.gcc",
        "linked-list IR passes with irregular transform forks",
        "gcc_like.s",
        6_000
    ),
    workload!(
        "mcf_like",
        "181.mcf",
        "pointer chasing over a shuffled permutation",
        "mcf_like.s",
        4_096
    ),
    workload!(
        "crafty_like",
        "186.crafty",
        "bitboard attack spreading plus popcount micro-loops",
        "crafty_like.s",
        6_000
    ),
    workload!(
        "parser_like",
        "197.parser",
        "text tokenizing with per-word hashing",
        "parser_like.s",
        24_000
    ),
    workload!(
        "eon_like",
        "252.eon",
        "fixed-point ray/sphere intersection with hit/miss shading",
        "eon_like.s",
        14_000
    ),
    workload!(
        "perlbmk_like",
        "253.perlbmk",
        "bytecode interpreter with an unbiased dispatch tree",
        "perlbmk_like.s",
        16_000
    ),
    workload!(
        "gap_like",
        "254.gap",
        "dense polynomial evaluation with removable guards",
        "gap_like.s",
        8_000
    ),
    workload!(
        "vortex_like",
        "255.vortex",
        "hash-table object store with linear probing",
        "vortex_like.s",
        12_000
    ),
    workload!(
        "bzip2_like",
        "256.bzip2",
        "histogram and prefix-sum bucket phases",
        "bzip2_like.s",
        20_000
    ),
    workload!(
        "twolf_like",
        "300.twolf",
        "grid cell swaps with a rare rebalance event",
        "twolf_like.s",
        12_000
    ),
];

/// All workloads, in SPECint numbering order.
#[must_use]
pub fn workloads() -> &'static [Workload] {
    WORKLOADS
}

/// Phase-shifting variants for the adaptive re-distillation benchmark.
///
/// Each runs `SCALE` "phase A" iterations whose behaviour matches an
/// offline profile, then `BLEN` "phase B" iterations that diverge from
/// it (see [`Workload::phase_program`]). They are deliberately *not* in
/// [`workloads`]: the standard bundle feeds profile-matched speedup and
/// squash-rate gates, while these exist to make a frozen offline
/// distillation mispredict.
const PHASE_WORKLOADS: &[Workload] = &[
    workload!(
        "phase_flip",
        "synthetic",
        "biased mode guard that flips on at the mid-run phase shift",
        "phase_flip.s",
        6_000
    ),
    workload!(
        "phase_creep",
        "synthetic",
        "drift path whose fire rate ramps from never to always in phase B",
        "phase_creep.s",
        6_000
    ),
];

/// The phase-shifting workload bundle.
#[must_use]
pub fn phase_workloads() -> &'static [Workload] {
    PHASE_WORKLOADS
}

impl Workload {
    /// Finds a workload by name.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssp_workloads::Workload;
    /// assert!(Workload::by_name("mcf_like").is_some());
    /// assert!(Workload::by_name("spice").is_none());
    /// ```
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Assembles the workload at the given scale (iteration/element
    /// count) with the reference input ([`DEFAULT_SEED`]).
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to assemble — a build-time
    /// invariant covered by tests.
    #[must_use]
    pub fn program(&self, scale: u64) -> Program {
        self.program_with_seed(scale, DEFAULT_SEED)
    }

    /// Assembles the workload with an explicit input seed, producing a
    /// different (but same-charactered) input data set — used to profile
    /// on a training input and evaluate on a reference input.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to assemble — a build-time
    /// invariant covered by tests. Fallible callers should use
    /// [`Workload::try_program_with_seed`].
    #[must_use]
    pub fn program_with_seed(&self, scale: u64, seed: u64) -> Program {
        self.try_program_with_seed(scale, seed)
            // why: the `# Panics` contract above.
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible form of [`Workload::program_with_seed`]: assembly
    /// failures surface as a typed [`WorkloadError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if the parameterized source fails to
    /// assemble.
    pub fn try_program_with_seed(&self, scale: u64, seed: u64) -> Result<Program, WorkloadError> {
        let src = format!(".equ SCALE, {scale}\n.equ SEED, {seed}\n{}", self.source);
        assemble(&src).map_err(|errs| WorkloadError {
            name: self.name,
            errors: errs.iter().map(ToString::to_string).collect(),
        })
    }

    /// Assembles at the default scale.
    #[must_use]
    pub fn default_program(&self) -> Program {
        self.program(self.default_scale)
    }

    /// Assembles a phase-shifting variant (one of [`phase_workloads`])
    /// with `phase_b` extra post-shift iterations. `phase_b = 0`
    /// reproduces the training input: phase B never runs, so a profile
    /// collected on it is blind to the shifted behaviour — the adaptive
    /// benchmark's train/ref split.
    ///
    /// # Panics
    ///
    /// Panics if the source fails to assemble (e.g. called on a standard
    /// workload, whose source does not take a `BLEN` parameter).
    #[must_use]
    pub fn phase_program(&self, scale: u64, phase_b: u64) -> Program {
        self.try_phase_program(scale, phase_b, DEFAULT_SEED)
            // why: the `# Panics` contract above.
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible, seed-explicit form of [`Workload::phase_program`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if the parameterized source fails to
    /// assemble.
    pub fn try_phase_program(
        &self,
        scale: u64,
        phase_b: u64,
        seed: u64,
    ) -> Result<Program, WorkloadError> {
        let src = format!(
            ".equ SCALE, {scale}
.equ SEED, {seed}
.equ BLEN, {phase_b}
{}",
            self.source
        );
        assemble(&src).map_err(|errs| WorkloadError {
            name: self.name,
            errors: errs.iter().map(ToString::to_string).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_machine::SeqMachine;

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(workloads().len(), 12);
        let mut names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn every_workload_assembles_and_validates() {
        for w in workloads() {
            let p = w.program(64);
            assert!(p.validate().is_ok(), "{} invalid", w.name);
            assert!(p.len() > 10, "{} suspiciously small", w.name);
        }
    }

    #[test]
    fn every_workload_halts_with_nonzero_checksum() {
        for w in workloads() {
            let p = w.program(256);
            let mut m = SeqMachine::boot(&p);
            m.run_to_halt(50_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_ne!(m.state().reg(CHECKSUM_REG), 0, "{} zero checksum", w.name);
        }
    }

    #[test]
    fn bundled_sources_assemble_via_typed_path() {
        for w in workloads() {
            assert!(
                w.try_program_with_seed(64, DEFAULT_SEED).is_ok(),
                "{} failed the typed assembly path",
                w.name
            );
        }
    }

    #[test]
    fn phase_workloads_shift_behaviour_after_the_training_prefix() {
        for w in phase_workloads() {
            // The training input (phase_b = 0) and the reference input
            // (phase_b = scale) share a text layout, halt, and produce
            // different checksums — the phase shift is observable.
            let run = |phase_b| {
                let p = w.phase_program(512, phase_b);
                assert!(p.validate().is_ok(), "{} invalid", w.name);
                let mut m = SeqMachine::boot(&p);
                m.run_to_halt(50_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                (p.len(), m.state().reg(CHECKSUM_REG), m.instructions())
            };
            let (train_len, train_sum, train_instrs) = run(0);
            let (ref_len, ref_sum, ref_instrs) = run(512);
            assert_eq!(train_len, ref_len, "{}: text layouts diverged", w.name);
            assert_ne!(train_sum, ref_sum, "{}: phase B changed nothing", w.name);
            assert!(ref_instrs > train_instrs, "{}: phase B ran nothing", w.name);
            assert_ne!(ref_sum, 0, "{} zero checksum", w.name);
        }
    }

    #[test]
    fn phase_registry_is_separate_from_the_standard_bundle() {
        for w in phase_workloads() {
            assert!(
                Workload::by_name(w.name).is_none(),
                "{} leaked into the standard bundle",
                w.name
            );
        }
    }

    #[test]
    fn broken_source_surfaces_as_workload_error() {
        let broken = Workload {
            name: "broken",
            analog: "none",
            description: "deliberately invalid source",
            source: "main: notaninstruction a0, a1\n halt",
            default_scale: 1,
        };
        let err = broken
            .try_program_with_seed(1, DEFAULT_SEED)
            .expect_err("invalid source must not assemble");
        assert_eq!(err.name, "broken");
        assert!(!err.errors.is_empty());
        // The Display form carries the assembler's diagnostics.
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn checksums_are_deterministic() {
        for w in workloads() {
            let run = |scale| {
                let p = w.program(scale);
                let mut m = SeqMachine::boot(&p);
                m.run(50_000_000).unwrap();
                m.state().reg(CHECKSUM_REG)
            };
            assert_eq!(run(300), run(300), "{} nondeterministic", w.name);
        }
    }

    #[test]
    fn scale_changes_dynamic_length() {
        for w in workloads() {
            let count = |scale| {
                let p = w.program(scale);
                let mut m = SeqMachine::boot(&p);
                m.run(50_000_000).unwrap();
                m.instructions()
            };
            let small = count(128);
            let large = count(512);
            assert!(
                large > small,
                "{}: {large} not > {small} at 4x scale",
                w.name
            );
        }
    }

    #[test]
    fn default_scales_run_within_budget() {
        for w in workloads() {
            let p = w.default_program();
            let mut m = SeqMachine::boot(&p);
            let summary = m.run(100_000_000).unwrap();
            assert_eq!(summary.stop, mssp_machine::StopReason::Halted, "{}", w.name);
            assert!(
                summary.instructions > 50_000,
                "{} too short: {}",
                w.name,
                summary.instructions
            );
        }
    }
}
