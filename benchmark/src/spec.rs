//! What the benchmark declares: its workloads and every metric's name,
//! unit, direction and bound.
//!
//! This table is the single source; `BENCHMARK.json` at the repository
//! root is [`benchmark_json`] rendered (`--print-benchmark-json`), and a
//! test fails when the two drift apart.

use crate::json::{obj, Json};

/// Seconds one run measures (`--seconds` default and `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique over both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the machine sees. Throughputs
/// count original-program (`SeqMachine`) instructions per host second.
///
/// The threaded executor's throughput is *not* here but per-layer
/// (`core.threaded.minstr_per_s_w1`, `_w2`): on the shared two-thread
/// reference host it moves by 30 % to 5x between phases of the host that
/// leave every single-threaded metric alone, so it cannot hold any bound
/// the contract allows. See the README.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("seq_minstr_per_s", "Minstr/s", Higher, 0.2),
    e2e("engine_minstr_per_s", "Minstr/s", Higher, 0.2),
    e2e("timed_minstr_per_s", "Minstr/s", Higher, 0.2),
    e2e("modeled_speedup", "ratio", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Per-layer metrics, layer = module name.
pub const PER_LAYER: &[Metric] = &[
    layer("isa.assemble_s", "s", Lower),
    layer("analysis.profile_s", "s", Lower),
    layer("distill.distill_s", "s", Lower),
    layer("lint.lint_s", "s", Lower),
    layer("distill.dyn_ratio", "ratio", Lower),
    layer("distill.static_ratio", "ratio", Lower),
    layer("distill.instr_per_task", "count", Higher),
    layer("distill.boundaries", "count", Higher),
    layer("machine.seq_ns_per_instr", "ns", Lower),
    layer("machine.delta.verify_ns_per_cell", "ns", Lower),
    layer("machine.delta.apply_ns_per_cell", "ns", Lower),
    layer("machine.delta.superimpose_ns_per_cell", "ns", Lower),
    layer("core.master.step_ns_per_instr", "ns", Lower),
    layer("core.master.take_spawn_ns_per_task", "ns", Lower),
    layer("core.master.restart_ns", "ns", Lower),
    layer("core.task.step_ns_per_instr", "ns", Lower),
    layer("core.task.live_in_cells_per_task", "count", Lower),
    layer("core.task.live_out_cells_per_task", "count", Lower),
    layer("core.task.mem_live_in_share", "ratio", Lower),
    layer("core.verify.ns_per_task", "ns", Lower),
    layer("core.recovery.step_ns_per_instr", "ns", Lower),
    layer("core.recovery.fraction", "ratio", Lower),
    layer("core.ring.spsc_ns_per_item", "ns", Lower),
    layer("core.ring.mpsc_ns_per_item", "ns", Lower),
    layer("core.ring.handoff_us", "us", Lower),
    layer("core.engine.ns_per_instr", "ns", Lower),
    layer("core.engine.us_per_task", "us", Lower),
    layer("core.engine.squash_per_1k_tasks", "count", Lower),
    layer("core.engine.waste_fraction", "ratio", Lower),
    layer("core.engine.predictor_accuracy", "ratio", Higher),
    layer("core.engine.spawn_vetoes", "count", Lower),
    layer("core.threaded.minstr_per_s_w1", "Minstr/s", Higher),
    layer("core.threaded.minstr_per_s_w2", "Minstr/s", Higher),
    layer("core.threaded.us_per_task_w1", "us", Lower),
    layer("core.threaded.us_per_task_w2", "us", Lower),
    layer("core.threaded.overhead_factor_w1", "ratio", Lower),
    layer("core.threaded.scaling_w2", "ratio", Higher),
    layer("core.threaded.cpu_per_wall_w1", "ratio", Lower),
    layer("core.threaded.cpu_per_wall_w2", "ratio", Lower),
    layer("core.threaded.recheck_ratio", "ratio", Lower),
    layer("core.threaded.pre_verified_fraction", "ratio", Higher),
    layer("core.threaded.snapshots_per_1k_tasks", "count", Lower),
    layer("core.threaded.deltas_per_1k_tasks", "count", Higher),
    layer("core.threaded.squash_per_1k_tasks", "count", Lower),
    layer("timing.baseline_cycles", "cycles", Lower),
    layer("timing.mssp_cycles", "cycles", Lower),
    layer("timing.cost_model_share", "ratio", Lower),
    layer("alloc.per_committed_task", "count", Lower),
    layer("alloc.peak_bytes", "bytes", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
];

/// One declared workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDecl {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on why it is in the benchmark.
    pub why: &'static str,
}

/// The four workloads, see `README.md` for the long form.
pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "gap_dense",
        why: "ALU-dense ~250-instruction tasks, best distillation: storage stepping does the work, per-task protocol the least it ever does",
    },
    WorkloadDecl {
        name: "gap_small_tasks",
        why: "same program cut into ~28-instruction tasks: spawn, ring hand-off, verify, commit and snapshot publishing dominate the threaded run",
    },
    WorkloadDecl {
        name: "mcf_chase",
        why: "serial pointer chasing: memory cells fill live-ins, nothing distills, the master is the critical path",
    },
    WorkloadDecl {
        name: "phase_flip_frozen",
        why: "frozen profile meets a phase shift: hundreds of squashes per 1k tasks, a third of instructions in recovery",
    },
];

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| {
        let mut members = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            members.push(("bound", Json::from(bound)));
        }
        obj(members)
    };
    obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(is_name(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `bash benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
        let doc = parse(&on_disk).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
