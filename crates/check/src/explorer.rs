//! The exploration driver: runs a harness closure under every schedule the
//! bounds allow (iterative-deepening DFS over recorded decisions).
//!
//! DFS works by *prefix replay*: each execution replays a prefix of
//! decisions, then extends with defaults (option 0 everywhere: run the
//! current thread, read the newest store). Afterwards the explorer scans
//! the recorded decision list right-to-left for the last decision with an
//! untried, in-bounds alternative, and restarts with that flipped prefix.
//! Option 0 being the "free" choice makes the bound accounting local: a
//! schedule's preemption/stale-read cost is just the number of non-zero
//! choices of each kind.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::exec::{run_model_thread, ExecShared};
use crate::trace::{Decision, DecisionKind, Failure, FailureKind, Trace};

/// Exploration bounds and knobs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Max preemptive context switches per schedule (CHESS-style small
    /// bound; most concurrency bugs need ≤ 2).
    pub preemption_bound: usize,
    /// Max stale atomic loads per schedule (each relaxed load observing an
    /// outdated store costs one).
    pub stale_read_bound: usize,
    /// Stores kept per atomic location for stale loads to observe.
    pub store_history: usize,
    /// Per-execution step budget; executions that exceed it are counted as
    /// pruned and the report is marked incomplete.
    pub max_steps: usize,
    /// Total schedule budget (overridable via `MSSP_CHECK_MAX_SCHEDULES`).
    pub max_schedules: u64,
    /// Where `check` writes failing traces (`MSSP_CHECK_TRACE_DIR`), for CI
    /// artifact upload.
    pub trace_dir: Option<std::path::PathBuf>,
}

impl Default for Config {
    fn default() -> Config {
        let max_schedules = std::env::var("MSSP_CHECK_MAX_SCHEDULES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000);
        let trace_dir = std::env::var_os("MSSP_CHECK_TRACE_DIR").map(Into::into);
        Config {
            preemption_bound: 2,
            stale_read_bound: 2,
            store_history: 3,
            max_steps: 5_000,
            max_schedules,
            trace_dir,
        }
    }
}

/// What an exploration did and found.
#[derive(Debug)]
pub struct Report {
    /// Executions run.
    pub schedules: u64,
    /// True when the bounded space was fully explored (no budget stop, no
    /// pruned executions).
    pub complete: bool,
    /// Executions abandoned for exceeding `max_steps`.
    pub pruned: u64,
    /// The first counterexample found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panic (with the replayable trace) if a counterexample was found;
    /// otherwise print the exploration stats. Harnesses end with this.
    pub fn assert_pass(&self, name: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "mssp-check: {name}: counterexample after {} schedule(s):\n{f}",
                self.schedules
            );
        }
        println!(
            "mssp-check: {name}: explored {} schedule(s) (complete: {}, pruned: {})",
            self.schedules, self.complete, self.pruned
        );
    }

    /// Unwrap the counterexample a mutation test expects the checker to
    /// find; panics (loudly) if the buggy code passed.
    pub fn expect_failure(self, name: &str) -> Failure {
        match self.failure {
            Some(f) => {
                println!(
                    "mssp-check: {name}: found expected counterexample after {} schedule(s): {}",
                    self.schedules, f.kind
                );
                f
            }
            None => panic!(
                "mssp-check: {name}: expected a counterexample but {} schedule(s) all passed \
                 (complete: {}, pruned: {})",
                self.schedules, self.complete, self.pruned
            ),
        }
    }
}

struct ExecOutcome {
    decisions: Vec<Decision>,
    outcome: Option<Failure>,
    pruned: bool,
}

/// Run one execution with the given decision prefix.
fn run_one(cfg: &Config, prefix: Vec<Decision>, f: Arc<dyn Fn() + Send + Sync>) -> ExecOutcome {
    let shared = ExecShared::new(cfg, prefix);
    let shared2 = Arc::clone(&shared);
    let slot: Arc<Mutex<Option<std::thread::Result<()>>>> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let main = std::thread::Builder::new()
        .name("mssp-check-main".to_string())
        .spawn(move || {
            run_model_thread(
                shared2,
                0,
                std::panic::AssertUnwindSafe(move || f()),
                &slot2,
            )
        })
        .expect("failed to spawn model main thread");

    // Watchdog loop: model threads hand the baton among themselves; the
    // driver only waits for the execution to end, flagging a stall if no
    // operation lands for ~10s (a harness looping outside shim ops).
    let mut g = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
    let mut last_steps = usize::MAX;
    let mut stalled_ticks = 0u32;
    while !(g.done || g.aborting) {
        let (ng, _timeout) = shared
            .cv
            .wait_timeout(g, Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner);
        g = ng;
        if g.done || g.aborting {
            break;
        }
        if g.steps == last_steps {
            stalled_ticks += 1;
            if stalled_ticks > 100 {
                g.fail(
                    FailureKind::Stalled,
                    "no model thread reached a schedule point for 10s (harness loops \
                     outside shim operations?)"
                        .to_string(),
                );
                break;
            }
        } else {
            last_steps = g.steps;
            stalled_ticks = 0;
        }
    }
    if g.done && g.outcome.is_none() {
        g.check_leaks();
    }
    let stalled = matches!(
        g.outcome.as_ref().map(|f| f.kind),
        Some(FailureKind::Stalled)
    );
    let handles = std::mem::take(&mut g.os_handles);
    drop(g);
    if stalled {
        // A stalled model thread may never exit; detach instead of hanging
        // the test suite. (The spinning thread leaks — acceptable for what
        // is already a harness bug.)
        drop(handles);
        drop(main);
    } else {
        for h in handles {
            let _ = h.join();
        }
        let _ = main.join();
    }
    let g = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
    ExecOutcome {
        decisions: g.decisions.clone(),
        outcome: g.outcome.clone(),
        pruned: g.pruned,
    }
}

/// Cost of the non-zero choices of `kind` in `decisions[..i]`.
fn cost_before(decisions: &[Decision], i: usize, preemptive: bool) -> usize {
    decisions[..i]
        .iter()
        .filter(|d| {
            d.chosen > 0
                && if preemptive {
                    matches!(
                        d.kind,
                        DecisionKind::Schedule {
                            current_runnable: true
                        }
                    )
                } else {
                    d.kind == DecisionKind::Value
                }
        })
        .count()
}

/// Find the next DFS prefix: the rightmost decision with an untried
/// alternative that stays within the bounds.
fn next_prefix(decisions: &[Decision], cfg: &Config) -> Option<Vec<Decision>> {
    for i in (0..decisions.len()).rev() {
        let d = decisions[i];
        let next = d.chosen + 1;
        if next >= d.options {
            continue;
        }
        let feasible = match d.kind {
            DecisionKind::Schedule {
                current_runnable: true,
            } => cost_before(decisions, i, true) < cfg.preemption_bound,
            DecisionKind::Schedule {
                current_runnable: false,
            } => true,
            DecisionKind::Value => cost_before(decisions, i, false) < cfg.stale_read_bound,
        };
        if !feasible {
            continue;
        }
        let mut prefix = decisions[..i].to_vec();
        prefix.push(Decision {
            chosen: next,
            options: d.options,
            kind: d.kind,
        });
        return Some(prefix);
    }
    None
}

/// Explore `f` under `cfg`, returning what was searched and the first
/// counterexample found (with its replayable trace). On failure, writes the
/// trace to `cfg.trace_dir/{name}.trace` when a trace dir is configured.
pub fn check(name: &str, cfg: &Config, f: impl Fn() + Send + Sync + 'static) -> Report {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut schedules = 0u64;
    let mut pruned = 0u64;
    let mut complete = true;
    let mut failure = None;

    let mut prefix = Vec::new();
    loop {
        let out = run_one(cfg, prefix.clone(), Arc::clone(&f));
        schedules += 1;
        if out.pruned {
            pruned += 1;
            complete = false;
        }
        if out.outcome.is_some() {
            complete = false;
            failure = out.outcome;
            break;
        }
        match next_prefix(&out.decisions, cfg) {
            Some(p) => prefix = p,
            None => break,
        }
        if schedules >= cfg.max_schedules {
            complete = false;
            break;
        }
    }

    if let (Some(fail), Some(dir)) = (&failure, &cfg.trace_dir) {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.trace"));
        let body = format!("{fail}");
        if std::fs::write(&path, body).is_ok() {
            eprintln!(
                "mssp-check: {name}: wrote failing trace to {}",
                path.display()
            );
        }
    }

    Report {
        schedules,
        complete,
        pruned,
        failure,
    }
}

/// Re-run `f` under one exact recorded schedule (e.g. a trace parsed from
/// a CI artifact) and return what it produces.
pub fn replay(
    cfg: &Config,
    trace: &Trace,
    f: impl Fn() + Send + Sync + 'static,
) -> Option<Failure> {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    run_one(cfg, trace.decisions.clone(), f).outcome
}
