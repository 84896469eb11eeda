//! One run of one workload: set-up, timed cycles, and with `--trace 1`
//! the per-layer ledger; and how its outcome is printed and written.

use std::path::{Path, PathBuf};

use mssp::core::{run_threaded, EngineConfig, EngineStats};

use crate::alloc::counted;
use crate::host;
use crate::input::{prepare, Input, Prepared};
use crate::json::{obj, Json};
use crate::measure::{run_cycles, Checks, Cycles, Exact, MIN_CYCLES, SMOKE_CYCLES, WARMUP_CYCLES};
use crate::ring;
use crate::spec::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{good_decile, median, summarize, Summary};
use crate::trace::{chrome_trace, coverage, drive, layer_totals, Recorder};

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The input.
    pub input: &'static Input,
    /// Seed of the evaluated input.
    pub seed: u64,
    /// Seconds of timed cycles.
    pub seconds: f64,
    /// Whether to add the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Scales / 16 and three cycles: a quick check that everything runs.
    pub smoke: bool,
    /// Where the Chrome trace goes.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Its declaration.
    pub metric: &'static Metric,
    /// The reported value: of per-cycle samples, their good decile.
    pub value: f64,
    /// Quartiles, tail and sample count, for metrics timed per cycle.
    pub summary: Option<Summary>,
    /// The per-cycle samples behind them, in the order measured.
    pub samples: Vec<f64>,
}

/// Collects the metrics of one declared list and holds them to it.
struct Ledger {
    declared: &'static [Metric],
    rows: Vec<Measured>,
}

impl Ledger {
    fn new(declared: &'static [Metric]) -> Ledger {
        Ledger {
            declared,
            rows: Vec::with_capacity(declared.len()),
        }
    }

    fn declaration(&self, name: &str) -> &'static Metric {
        self.declared
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in spec.rs"))
    }

    fn put(&mut self, name: &str, value: f64) {
        let metric = self.declaration(name);
        self.rows.push(Measured {
            metric,
            value,
            summary: None,
            samples: Vec::new(),
        });
    }

    fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let metric = self.declaration(name);
        let summary = summarize(samples, metric.better == Better::Higher);
        self.rows.push(Measured {
            metric,
            value: summary.good_decile,
            summary: Some(summary),
            samples: samples.to_vec(),
        });
    }

    /// The rows in declared order; every declared metric exactly once.
    fn finish(self) -> Vec<Measured> {
        self.declared
            .iter()
            .map(|m| {
                let mut found = self.rows.iter().filter(|r| r.metric.name == m.name);
                let row = found
                    .next()
                    .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
                assert!(found.next().is_none(), "metric `{}` measured twice", m.name);
                row.clone()
            })
            .collect()
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Output checks.
    pub checks: Checks,
    /// Every end-to-end metric, measured with tracing off.
    pub end_to_end: Vec<Measured>,
    /// Every per-layer metric; empty without `--trace 1`.
    pub per_layer: Vec<Measured>,
    /// Host record.
    pub host: Json,
    /// Timed cycles measured.
    pub cycles: usize,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_1k(events: u64, tasks: u64) -> f64 {
    1000.0 * ratio(events, tasks)
}

fn median_of(stats: &[EngineStats], f: impl Fn(&EngineStats) -> f64) -> f64 {
    if stats.is_empty() {
        0.0
    } else {
        median(&stats.iter().map(f).collect::<Vec<f64>>())
    }
}

fn end_to_end(cycles: &Cycles, exact: &Exact) -> Vec<Measured> {
    let mut l = Ledger::new(END_TO_END);
    l.put_samples("setup_s", &cycles.setup_s);
    l.put_samples("seq_minstr_per_s", &cycles.seq);
    l.put_samples("engine_minstr_per_s", &cycles.engine);
    l.put_samples("timed_minstr_per_s", &cycles.timed);
    l.put(
        "modeled_speedup",
        ratio(cycles.baseline_cycles, exact.mssp_cycles),
    );
    l.put_samples("peak_rss_mb", &cycles.peak_rss_mb);
    l.finish()
}

/// The traced pass and the probes; see the README's interaction table
/// for what each figure is expected to move.
fn per_layer(
    options: &Options,
    prepared: &Prepared,
    cycles: &Cycles,
    exact: &Exact,
    checks: &mut Checks,
) -> Result<Vec<Measured>, String> {
    let mut l = Ledger::new(PER_LAYER);
    let instrs = prepared.seq_instructions as f64;
    let engine = &exact.engine;

    for (name, samples) in [
        "isa.assemble_s",
        "analysis.profile_s",
        "distill.distill_s",
        "lint.lint_s",
    ]
    .into_iter()
    .zip(&cycles.setup_stage_s)
    {
        l.put_samples(name, samples);
    }

    let dstats = prepared.distilled.stats();
    l.put(
        "distill.dyn_ratio",
        ratio(engine.master_instructions, engine.committed_instructions),
    );
    l.put(
        "distill.static_ratio",
        ratio(
            dstats.distilled_static as u64,
            dstats.original_static as u64,
        ),
    );
    l.put(
        "distill.instr_per_task",
        ratio(
            engine.committed_instructions - engine.recovery_instructions,
            engine.committed_tasks,
        ),
    );
    l.put(
        "distill.boundaries",
        prepared.distilled.boundaries().len() as f64,
    );

    let seq = good_decile(&cycles.seq, true);
    l.put("machine.seq_ns_per_instr", 1e3 / seq);

    // The hand-driven loop: once to warm up, once with spans off, once
    // with spans on. All three must reproduce SeqMachine's state.
    let mut drive_checked = |spans_on: bool| -> Result<(f64, Recorder), String> {
        let mut recorder = Recorder::new(spans_on);
        let driven = drive(prepared, &mut recorder);
        checks.record_run(
            "hand-driven loop",
            prepared,
            driven
                .as_ref()
                .map(|d| (&d.state, d.committed_instructions)),
        );
        Ok((driven?.seconds, recorder))
    };
    drive_checked(false)?;
    let (untraced_seconds, _) = drive_checked(false)?;
    let (traced_seconds, recorder) = drive_checked(true)?;
    let spans = recorder.spans();
    std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| {
            std::fs::write(
                options
                    .out_dir
                    .join(format!("trace-{}.json", options.input.name)),
                chrome_trace(spans),
            )
        })
        .map_err(|e| format!("writing the trace under {:?}: {e}", options.out_dir))?;
    let totals = layer_totals(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();

    l.put(
        "machine.delta.verify_ns_per_cell",
        total("machine.delta.verify").ns_per_work(),
    );
    l.put(
        "machine.delta.apply_ns_per_cell",
        total("machine.delta.apply").ns_per_work(),
    );
    l.put(
        "machine.delta.superimpose_ns_per_cell",
        total("machine.delta.superimpose").ns_per_work(),
    );
    l.put(
        "core.master.step_ns_per_instr",
        total("core.master.step").ns_per_work(),
    );
    l.put(
        "core.master.take_spawn_ns_per_task",
        total("core.master.take_spawn").ns_per_call(),
    );
    l.put(
        "core.master.restart_ns",
        total("core.master.restart").ns_per_call(),
    );
    l.put(
        "core.task.step_ns_per_instr",
        total("core.task.run_segment").ns_per_work(),
    );
    l.put(
        "core.task.live_in_cells_per_task",
        ratio(engine.live_in_cells, engine.committed_tasks),
    );
    l.put(
        "core.task.live_out_cells_per_task",
        ratio(engine.live_out_cells, engine.committed_tasks),
    );
    l.put(
        "core.task.mem_live_in_share",
        ratio(engine.live_in_mem_cells, engine.live_in_cells),
    );
    l.put(
        "core.verify.ns_per_task",
        total("core.verify").ns_per_call(),
    );
    l.put(
        "core.recovery.step_ns_per_instr",
        total("core.recovery.step").ns_per_work(),
    );
    l.put("core.recovery.fraction", engine.recovery_fraction());

    let (items, round_trips) = if options.smoke {
        (1 << 14, 200)
    } else {
        (1 << 20, 2_000)
    };
    l.put("core.ring.spsc_ns_per_item", ring::spsc_ns_per_item(items));
    l.put("core.ring.mpsc_ns_per_item", ring::mpsc_ns_per_item(items));
    l.put("core.ring.handoff_us", ring::handoff_us(round_trips));

    let engine_rate = good_decile(&cycles.engine, true);
    l.put("core.engine.ns_per_instr", 1e3 / engine_rate);
    l.put(
        "core.engine.us_per_task",
        instrs / engine_rate / engine.committed_tasks.max(1) as f64,
    );
    l.put(
        "core.engine.squash_per_1k_tasks",
        per_1k(engine.squash_events(), engine.spawned_tasks),
    );
    l.put("core.engine.waste_fraction", engine.waste_fraction());
    l.put(
        "core.engine.predictor_accuracy",
        engine.predictor_accuracy(),
    );
    l.put("core.engine.spawn_vetoes", engine.spawn_vetoes as f64);

    l.put_samples("core.threaded.minstr_per_s_w1", &cycles.threaded[0]);
    l.put_samples("core.threaded.minstr_per_s_w2", &cycles.threaded[1]);
    let rate = [
        good_decile(&cycles.threaded[0], true),
        good_decile(&cycles.threaded[1], true),
    ];
    for (i, name) in [
        "core.threaded.us_per_task_w1",
        "core.threaded.us_per_task_w2",
    ]
    .into_iter()
    .enumerate()
    {
        let tasks = median_of(&cycles.threaded_stats[i], |s| s.committed_tasks as f64);
        l.put(name, instrs / rate[i] / tasks.max(1.0));
    }
    l.put("core.threaded.overhead_factor_w1", seq / rate[0]);
    l.put("core.threaded.scaling_w2", rate[1] / rate[0]);
    for (i, name) in [
        "core.threaded.cpu_per_wall_w1",
        "core.threaded.cpu_per_wall_w2",
    ]
    .into_iter()
    .enumerate()
    {
        l.put(name, cycles.threaded_cpu_s[i] / cycles.threaded_wall_s[i]);
    }
    let w1 = &cycles.threaded_stats[0];
    l.put(
        "core.threaded.recheck_ratio",
        median_of(w1, EngineStats::recheck_ratio),
    );
    l.put(
        "core.threaded.pre_verified_fraction",
        median_of(w1, |s| ratio(s.pre_verified_tasks, s.committed_tasks)),
    );
    l.put(
        "core.threaded.snapshots_per_1k_tasks",
        median_of(w1, |s| per_1k(s.snapshots_materialized, s.committed_tasks)),
    );
    l.put(
        "core.threaded.deltas_per_1k_tasks",
        median_of(w1, |s| per_1k(s.deltas_published, s.committed_tasks)),
    );
    l.put(
        "core.threaded.squash_per_1k_tasks",
        median_of(w1, |s| per_1k(s.squash_events(), s.spawned_tasks)),
    );

    l.put("timing.baseline_cycles", cycles.baseline_cycles as f64);
    l.put("timing.mssp_cycles", exact.mssp_cycles as f64);
    l.put("timing.cost_model_share", median(&cycles.cost_model_share));

    let config = EngineConfig {
        num_slaves: 1,
        ..EngineConfig::default()
    };
    let (run, allocs) = counted(|| run_threaded(&prepared.program, &prepared.distilled, config));
    checks.record_run(
        "threaded w1 (allocations counted)",
        prepared,
        run.as_ref()
            .map(|r| (&r.state, r.stats.committed_instructions)),
    );
    l.put(
        "alloc.per_committed_task",
        ratio(
            allocs.allocations,
            run.map_or(0, |r| r.stats.committed_tasks),
        ),
    );
    l.put("alloc.peak_bytes", allocs.peak_bytes as f64);

    l.put("trace.overhead_ratio", traced_seconds / untraced_seconds);
    l.put("trace.coverage", coverage(spans));
    Ok(l.finish())
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the input cannot be set up or when no cycle
/// produced a result to report; wrong outputs are counted in the
/// outcome's [`Checks`] instead.
pub fn run_workload(options: &Options) -> Result<Outcome, String> {
    let load_start = host::loadavg();
    host::warn_if_loaded(load_start);
    let prepared = prepare(options.input, options.seed, options.smoke)?;

    let mut checks = Checks::default();
    let cycles = if options.smoke {
        run_cycles(&prepared, 1, SMOKE_CYCLES, 0.0, &mut checks)
    } else {
        run_cycles(
            &prepared,
            WARMUP_CYCLES,
            MIN_CYCLES,
            options.seconds,
            &mut checks,
        )
    };
    if cycles.peak_rss_mb.is_empty() {
        return Err("no VmHWM in /proc/self/status".to_string());
    }
    let exact = cycles
        .exact
        .filter(|_| !cycles.setup_s.is_empty())
        .ok_or_else(|| {
            format!(
                "{}: no cycle completed: {}",
                options.input.name,
                checks.messages.join("; ")
            )
        })?;

    let end_to_end = end_to_end(&cycles, &exact);
    let per_layer = if options.trace {
        per_layer(options, &prepared, &cycles, &exact, &mut checks)?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        workload: options.input.name,
        host: host::record(load_start, options.seed),
        cycles: cycles.seq.len(),
        checks,
        end_to_end,
        per_layer,
    })
}

impl Outcome {
    /// The metrics the contract asks for: per-layer when traced, else
    /// end-to-end.
    #[must_use]
    pub fn reported(&self) -> &[Measured] {
        if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        }
    }

    /// Share of checked runs that were wrong.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        ratio(self.checks.failed, self.checks.attempted)
    }

    /// The one-line result the driver reads from the end of stdout.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self.reported().iter().map(|m| {
            (
                m.metric.name,
                obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.metric.unit)),
                ]),
            )
        });
        obj([
            ("correct", Json::from(self.checks.failed == 0)),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            ("metrics", obj(metrics)),
        ])
        .render()
    }

    /// The full record: host, checks, and every metric measured with its
    /// quartiles, tail and sample count.
    #[must_use]
    pub fn record(&self) -> Json {
        let rows = |rows: &[Measured]| {
            obj(rows.iter().map(|m| {
                let mut members = vec![
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.metric.unit)),
                ];
                if let Some(s) = m.summary {
                    members.push(("median", Json::from(s.median)));
                    members.push(("p25", Json::from(s.p25)));
                    members.push(("p75", Json::from(s.p75)));
                    if let Some((percentile, value)) = s.tail {
                        members.push(("tail_percentile", Json::from(u64::from(percentile))));
                        members.push(("tail", Json::from(value)));
                    }
                    members.push(("n", Json::from(s.n as u64)));
                    members.push((
                        "samples",
                        Json::Arr(m.samples.iter().map(|&v| Json::from(v)).collect()),
                    ));
                }
                (m.metric.name, obj(members))
            }))
        };
        obj([
            ("workload", Json::from(self.workload)),
            ("host", self.host.clone()),
            ("cycles", Json::from(self.cycles as u64)),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            ("error_rate", Json::from(self.error_rate())),
            (
                "failures",
                Json::Arr(
                    self.checks
                        .messages
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
            ("end_to_end", rows(&self.end_to_end)),
            ("per_layer", rows(&self.per_layer)),
        ])
    }

    /// Every metric by name with its unit, for people.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!("== {} ==\n", self.workload);
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            out.push_str(&format!(
                "{:<40} {:>16.6} {:<9}",
                m.metric.name, m.value, m.metric.unit
            ));
            if let Some(s) = m.summary {
                out.push_str(&format!(
                    " median {:.4} p25 {:.4} p75 {:.4}",
                    s.median, s.p25, s.p75
                ));
                if let Some((percentile, value)) = s.tail {
                    out.push_str(&format!(" p{percentile} {value:.4}"));
                }
                out.push_str(&format!(" n {}", s.n));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:<40} {:>16.6} {:<9} ({} of {} checked runs wrong)\n",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.checks.failed,
            self.checks.attempted
        ));
        for message in &self.checks.messages {
            out.push_str(&format!("  FAILED {message}\n"));
        }
        out
    }
}

/// Writes `json` to `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O error with the path.
pub fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
