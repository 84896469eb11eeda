//! The four inputs and their set-up: assemble, profile, distill, lint,
//! plus the one sequential reference run every other run is checked
//! against.

use std::time::Instant;

use mssp::analysis::Profile;
use mssp::distill::{distill, DistillConfig, DistillStats, Distilled};
use mssp::isa::Program;
use mssp::lint::{lint, LintConfig};
use mssp::machine::{MachineState, SeqMachine};
use mssp::workloads::{phase_workloads, Workload, WorkloadError, TRAIN_SEED};

/// Instruction budget of the reference run. A scale at which the program
/// does not halt (`vortex_like` beyond 4x its default) is then a set-up
/// error, not a hang.
const HALT_CAP: u64 = 16_000_000;

/// `--smoke` divides every scale by this.
const SMOKE_DIVISOR: u64 = 16;

/// The in-program LCG seed for `--seed`: a 31-bit mix of it with bits 0
/// and 16 set, so that `li s7, SEED` assembles to the same `lui` + `addi`
/// pair as under `TRAIN_SEED` and the evaluated and training programs
/// keep one text layout (the distiller maps PCs between them).
fn lcg_seed(seed: u64) -> u64 {
    // splitmix64 finalizer: neighbouring seeds give unrelated inputs.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) & 0x7FFE_FFFE) | 0x0001_0001
}

/// Where an input's program comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// A bundled workload, trained on the same scale under `TRAIN_SEED`.
    Bundled(&'static str),
    /// `phase_flip`, trained with no phase B and run with a phase B about
    /// as long as phase A, so the frozen distillation meets code it never
    /// saw. The seed also picks phase B's exact length (up to 3 % over
    /// phase A's): the program's control flow does not depend on its data,
    /// so this is the only way another seed gives another run.
    PhaseFlip,
}

/// One benchmark input. Scales are sized so that one measuring cycle
/// (seq, threaded x2, engine, timed) takes roughly 0.6 s on the 2-core
/// reference host, i.e. about 21 cycles in a 15 s run.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    /// Name, as declared in [`crate::spec::WORKLOADS`].
    pub name: &'static str,
    source: Source,
    scale: u64,
    /// `DistillConfig::target_task_size`, when not the default.
    target_task_size: Option<u64>,
}

/// The inputs, in the order of [`crate::spec::WORKLOADS`].
pub const INPUTS: &[Input] = &[
    Input {
        name: "gap_dense",
        source: Source::Bundled("gap_like"),
        scale: 12_000,
        target_task_size: None,
    },
    Input {
        name: "gap_small_tasks",
        source: Source::Bundled("gap_like"),
        scale: 3_000,
        target_task_size: Some(32),
    },
    Input {
        name: "mcf_chase",
        source: Source::Bundled("mcf_like"),
        scale: 6_144,
        target_task_size: None,
    },
    Input {
        name: "phase_flip_frozen",
        source: Source::PhaseFlip,
        scale: 36_000,
        target_task_size: None,
    },
];

impl Input {
    /// Finds an input by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static Input> {
        INPUTS.iter().find(|i| i.name == name)
    }

    fn programs(&self, seed: u64, smoke: bool) -> Result<(Program, Program), WorkloadError> {
        let seed = lcg_seed(seed);
        let scale = if smoke {
            (self.scale / SMOKE_DIVISOR).max(1)
        } else {
            self.scale
        };
        match self.source {
            Source::Bundled(name) => {
                let w = Workload::by_name(name).expect("bundled workload exists");
                Ok((
                    w.try_program_with_seed(scale, seed)?,
                    w.try_program_with_seed(scale, TRAIN_SEED)?,
                ))
            }
            Source::PhaseFlip => {
                let w = phase_workloads()
                    .iter()
                    .find(|w| w.name == "phase_flip")
                    .expect("phase_flip is bundled");
                let phase_b = scale + seed % (scale / 32).max(1);
                Ok((
                    w.try_phase_program(scale, phase_b, seed)?,
                    w.try_phase_program(scale, 0, TRAIN_SEED)?,
                ))
            }
        }
    }

    fn distill_config(&self) -> DistillConfig {
        match self.target_task_size {
            Some(target_task_size) => DistillConfig {
                target_task_size,
                ..DistillConfig::default()
            },
            None => DistillConfig::default(),
        }
    }
}

/// An input ready to be measured.
#[derive(Debug)]
pub struct Prepared {
    input: Input,
    seed: u64,
    smoke: bool,
    /// The evaluated program (generated from `--seed`).
    pub program: Program,
    /// Its distillation, guided by the training-input profile.
    pub distilled: Distilled,
    /// `SeqMachine`'s final state: what every run must reproduce.
    pub seq_state: MachineState,
    /// `SeqMachine`'s instruction count.
    pub seq_instructions: u64,
}

struct SetupOnce {
    program: Program,
    distilled: Distilled,
    stage_s: [f64; 4],
}

fn setup_once(input: &Input, seed: u64, smoke: bool) -> Result<SetupOnce, String> {
    let t0 = Instant::now();
    let (program, train) = input.programs(seed, smoke).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    if train.len() != program.len() {
        return Err(format!("{}: train/ref text layouts diverged", input.name));
    }
    let profile = Profile::collect(&train, HALT_CAP).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let distilled =
        distill(&program, &profile, &input.distill_config()).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let report = lint(&program, &distilled, &profile, &LintConfig::default());
    let t4 = Instant::now();
    if report.has_errors() {
        let findings: Vec<String> = report.iter().map(ToString::to_string).collect();
        return Err(format!(
            "{}: lint errors: {}",
            input.name,
            findings.join("; ")
        ));
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(SetupOnce {
        program,
        distilled,
        stage_s: [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)],
    })
}

/// What must not differ between two distillations of the same input.
fn fingerprint(d: &Distilled) -> (DistillStats, usize, u64, usize) {
    (
        d.stats(),
        d.boundaries().len(),
        d.crossings_per_task(),
        d.program().len(),
    )
}

/// Runs the sequential reference and sets `input` up once.
///
/// # Errors
///
/// Returns a message if the input does not assemble, distill, lint
/// cleanly or halt within the reference budget.
pub fn prepare(input: &Input, seed: u64, smoke: bool) -> Result<Prepared, String> {
    // The reference run comes first, so that an input that cannot be
    // measured is refused before any time is spent setting it up.
    let (seq_state, seq_instructions) = {
        let (program, _) = input.programs(seed, smoke).map_err(|e| e.to_string())?;
        let mut seq = SeqMachine::boot(&program);
        let summary = seq
            .run_to_halt(HALT_CAP)
            .map_err(|e| format!("{}: reference run: {e}", input.name))?;
        (seq.into_state(), summary.instructions)
    };
    let SetupOnce {
        program, distilled, ..
    } = setup_once(input, seed, smoke)?;
    Ok(Prepared {
        input: *input,
        seed,
        smoke,
        seq_instructions,
        seq_state,
        program,
        distilled,
    })
}

impl Prepared {
    /// Sets the input up again, as every measuring cycle does, and returns
    /// the seconds of the four stages: assembling both programs,
    /// `Profile::collect` on the training program, `distill`, `lint`.
    ///
    /// # Errors
    ///
    /// As [`prepare`], and if the distillation differs from the first.
    pub fn set_up_again(&self) -> Result<[f64; 4], String> {
        let again = setup_once(&self.input, self.seed, self.smoke)?;
        if fingerprint(&again.distilled) != fingerprint(&self.distilled) {
            return Err(format!(
                "{}: distillation is not deterministic",
                self.input.name
            ));
        }
        Ok(again.stage_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn inputs_are_the_declared_workloads() {
        let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let built: Vec<&str> = INPUTS.iter().map(|i| i.name).collect();
        assert_eq!(declared, built);
        assert!(Input::by_name("vortex_like").is_none());
    }

    #[test]
    fn lcg_seeds_assemble_like_the_training_seed() {
        for seed in [0, 1, 2, u64::MAX, mssp::workloads::DEFAULT_SEED] {
            let s = lcg_seed(seed);
            assert!(s > 0xFFFF && s <= 0x7FFF_FFFF && s & 0xFFFF != 0, "{s:#x}");
        }
        assert_ne!(lcg_seed(1), lcg_seed(2));
    }

    #[test]
    fn same_seed_gives_the_same_input_and_another_seed_another() {
        let input = Input::by_name("mcf_chase").unwrap();
        let a = prepare(input, 1, true).unwrap();
        let b = prepare(input, 1, true).unwrap();
        let c = prepare(input, 2, true).unwrap();
        assert_eq!(a.seq_state, b.seq_state);
        assert_eq!(a.seq_instructions, b.seq_instructions);
        assert_ne!(a.seq_state, c.seq_state);
    }

    #[test]
    fn a_program_that_does_not_halt_is_a_setup_error() {
        // vortex_like's 16 384-slot table fills at 4x its default scale
        // and the probe loop never ends: the case `HALT_CAP` exists for.
        let endless = Input {
            name: "vortex_overfull",
            source: Source::Bundled("vortex_like"),
            scale: 64_000,
            target_task_size: None,
        };
        let err = prepare(&endless, 1, false).unwrap_err();
        assert!(!err.is_empty());
    }
}
