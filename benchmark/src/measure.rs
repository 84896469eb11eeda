//! The timed cycles: the wall-clock end-to-end metrics, measured with
//! tracing off.
//!
//! One cycle measures every wall-clock metric once, back to back (set-up,
//! seq, threaded w1, threaded w2, engine, timed), so a slow phase of a
//! shared host hits all of them alike; see `stats::good_decile` for what
//! is reported of the cycles' samples.
//! Closed loop, one run at a time; the only threads are the ones
//! `run_threaded` spawns itself.

use std::time::Instant;

use mssp::core::{run_threaded, Engine, EngineConfig, EngineStats, UnitCost};
use mssp::machine::{MachineState, SeqMachine};
use mssp::timing::{run_baseline, run_mssp, TimingConfig};

use crate::host::{peak_rss_mb, process_cpu_seconds, reset_peak_rss};
use crate::input::Prepared;

/// Cycles run before timing starts, to fill caches and the allocator.
pub const WARMUP_CYCLES: usize = 2;

/// Fewest timed cycles a full run reports on, however short `--seconds`.
pub const MIN_CYCLES: usize = 15;

/// `--smoke` runs exactly this many timed cycles.
pub const SMOKE_CYCLES: usize = 3;

/// Back-to-back `SeqMachine` runs fill at least this long per sample;
/// one run of these inputs is only a few milliseconds.
const SEQ_SAMPLE_SECONDS: f64 = 0.1;

/// Worker counts of the two threaded metrics (`nproc` is 2).
const WORKER_COUNTS: [usize; 2] = [1, 2];

/// Outputs checked against `SeqMachine`, and how many were wrong.
#[derive(Debug, Default)]
pub struct Checks {
    /// Runs whose output was checked.
    pub attempted: u64,
    /// Runs that returned an error, a wrong final state, a wrong
    /// instruction count or a changed exact statistic.
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one checked run; `problem` is `None` when it was right.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }

    /// Checks one MSSP run's result: full final-state equality (not only
    /// the checksum register) and the committed instruction count.
    pub fn record_run<E: std::fmt::Display>(
        &mut self,
        what: &str,
        prepared: &Prepared,
        result: Result<(&MachineState, u64), E>,
    ) {
        self.record(match result {
            Err(e) => Some(format!("{what}: {e}")),
            Ok((state, _)) if *state != prepared.seq_state => {
                Some(format!("{what}: final state differs from SeqMachine's"))
            }
            Ok((_, committed)) if committed != prepared.seq_instructions => Some(format!(
                "{what}: committed {committed} instructions, SeqMachine retired {}",
                prepared.seq_instructions
            )),
            Ok(_) => None,
        });
    }
}

/// Statistics of the simulated machine. A change that only makes the
/// simulator faster must leave every one of them bit-identical, and they
/// must not differ between two cycles of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    /// `EngineStats` of the functional (`UnitCost`) run.
    pub engine: EngineStats,
    /// Simulated cycles of the `CmpCost` run.
    pub mssp_cycles: u64,
    /// `EngineStats` of the `CmpCost` run.
    pub timed: EngineStats,
}

/// Everything the timed cycles collect.
#[derive(Debug, Default)]
pub struct Cycles {
    /// Seconds of each cycle's set-up: assemble, profile, distill, lint.
    pub setup_stage_s: [Vec<f64>; 4],
    /// Their sum per cycle.
    pub setup_s: Vec<f64>,
    /// `SeqMachine` throughput per cycle, Minstr/s.
    pub seq: Vec<f64>,
    /// `run_threaded` throughput per cycle and worker count, Minstr/s.
    pub threaded: [Vec<f64>; 2],
    /// `Engine` under `UnitCost`, Minstr/s.
    pub engine: Vec<f64>,
    /// `run_mssp` under `CmpCost`, Minstr/s.
    pub timed: Vec<f64>,
    /// Host seconds of each timed-model run over its cycle's engine run.
    pub cost_model_share: Vec<f64>,
    /// Wall seconds summed over all threaded runs, per worker count.
    pub threaded_wall_s: [f64; 2],
    /// Process CPU seconds summed over the same runs.
    pub threaded_cpu_s: [f64; 2],
    /// `ThreadedRun::stats` of every threaded run, per worker count.
    pub threaded_stats: [Vec<EngineStats>; 2],
    /// Simulated cycles of the one-core baseline.
    pub baseline_cycles: u64,
    /// `VmHWM` in MB at the end of each cycle, the mark having been reset
    /// at its start: one cycle's peak, which the threaded runs set.
    pub peak_rss_mb: Vec<f64>,
    /// The exact statistics, from the first cycle.
    pub exact: Option<Exact>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn one_cycle(prepared: &Prepared, out: &mut Cycles, checks: &mut Checks) {
    let instrs = prepared.seq_instructions as f64;
    let minstr_per_s = |seconds: f64| instrs / seconds / 1e6;
    reset_peak_rss();

    match prepared.set_up_again() {
        Ok(stage_s) => {
            for (samples, s) in out.setup_stage_s.iter_mut().zip(stage_s) {
                samples.push(s);
            }
            out.setup_s.push(stage_s.iter().sum());
            checks.record(None);
        }
        Err(message) => checks.record(Some(message)),
    }

    let (mut seq_seconds, mut seq_runs) = (0.0, 0.0);
    while seq_seconds < SEQ_SAMPLE_SECONDS {
        let (machine, seconds) = timed(|| {
            let mut machine = SeqMachine::boot(&prepared.program);
            let result = machine.run(u64::MAX);
            (machine, result)
        });
        seq_seconds += seconds;
        seq_runs += 1.0;
        let (machine, result) = machine;
        checks.record_run(
            "seq",
            prepared,
            result.map(|s| (machine.state(), s.instructions)),
        );
    }
    out.seq.push(minstr_per_s(seq_seconds / seq_runs));

    for (i, num_slaves) in WORKER_COUNTS.into_iter().enumerate() {
        let config = EngineConfig {
            num_slaves,
            ..EngineConfig::default()
        };
        let cpu_before = process_cpu_seconds();
        let (result, seconds) =
            timed(|| run_threaded(&prepared.program, &prepared.distilled, config));
        if let (Some(before), Some(after)) = (cpu_before, process_cpu_seconds()) {
            out.threaded_cpu_s[i] += after - before;
        }
        out.threaded_wall_s[i] += seconds;
        out.threaded[i].push(minstr_per_s(seconds));
        if let Ok(run) = &result {
            out.threaded_stats[i].push(run.stats);
        }
        checks.record_run(
            &format!("threaded w{num_slaves}"),
            prepared,
            result
                .as_ref()
                .map(|r| (&r.state, r.stats.committed_instructions)),
        );
    }

    let (engine, engine_seconds) = timed(|| {
        Engine::new(
            &prepared.program,
            &prepared.distilled,
            EngineConfig::default(),
            UnitCost,
        )
        .run()
    });
    out.engine.push(minstr_per_s(engine_seconds));
    checks.record_run(
        "engine",
        prepared,
        engine
            .as_ref()
            .map(|r| (&r.state, r.stats.committed_instructions)),
    );

    let (model, model_seconds) = timed(|| {
        run_mssp(
            &prepared.program,
            &prepared.distilled,
            &TimingConfig::default(),
        )
    });
    out.timed.push(minstr_per_s(model_seconds));
    out.cost_model_share.push(model_seconds / engine_seconds);
    checks.record_run(
        "timed",
        prepared,
        model
            .as_ref()
            .map(|r| (&r.run.state, r.run.stats.committed_instructions)),
    );

    if let (Ok(engine), Ok(model)) = (engine, model) {
        let exact = Exact {
            engine: engine.stats,
            mssp_cycles: model.run.cycles,
            timed: model.run.stats,
        };
        match out.exact {
            None => out.exact = Some(exact),
            Some(first) => checks.record(
                (first != exact).then(|| "exact statistics changed between cycles".to_string()),
            ),
        }
    }
    out.peak_rss_mb.extend(peak_rss_mb());
}

/// Runs the warm-up and the timed cycles: at least `min_cycles`, and on
/// until `seconds` have been measured.
pub fn run_cycles(
    prepared: &Prepared,
    warmup: usize,
    min_cycles: usize,
    seconds: f64,
    checks: &mut Checks,
) -> Cycles {
    let mut scratch = Cycles::default();
    for _ in 0..warmup {
        one_cycle(prepared, &mut scratch, checks);
    }
    let mut out = Cycles {
        // The warm-up cycles are held to the same exact statistics.
        exact: scratch.exact,
        ..Cycles::default()
    };
    let baseline = run_baseline(&prepared.program, &TimingConfig::default(), u64::MAX);
    checks.record_run(
        "baseline",
        prepared,
        baseline.as_ref().map(|b| (&b.state, b.instructions)),
    );
    out.baseline_cycles = baseline.map_or(0, |b| b.cycles);

    let start = Instant::now();
    while out.seq.len() < min_cycles || start.elapsed().as_secs_f64() < seconds {
        one_cycle(prepared, &mut out, checks);
    }
    out
}
