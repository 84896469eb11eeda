//! Spans recorded from outside the program, and the hand-driven serial
//! MSSP loop they are recorded around.
//!
//! The repository has no tracing inside it yet, so the per-layer times
//! come from a loop written here from public functions only: every call
//! into a layer (`Master::step`, `Task::run_segment`, `verify_and_commit`,
//! ...) is wrapped in a span, and a layer's cost is its spans' *self
//! time* over the work they did. Spans stay in memory until the loop
//! ends.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use mssp::core::{
    verify_and_commit, BoundarySet, EngineConfig, Master, MasterStall, RecoveryStorage,
    SegmentRules, Task, TaskId, VerifyOutcome,
};
use mssp::machine::{step, Delta, MachineState};

use crate::input::Prepared;
use crate::json::{obj, Json};

/// Tasks spawned ahead of the one that runs, so that overlay chains are
/// as deep as in a real run with a few slaves.
const WINDOW: usize = 4;

/// Commits folded into one delta before it is dropped, as the threaded
/// executor's snapshot threshold does.
const FOLD_COMMITS: u32 = 32;

/// Spans written to the Chrome trace file; all of them are kept in
/// memory for the self-time figures, the file is capped to stay small.
const TRACE_FILE_SPANS: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `core.task.run_segment`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// The task the call served, shared by all spans of that task.
    pub task: Option<u64>,
    /// Work done inside: instructions, cells or calls, per span name.
    pub work: u64,
}

/// Records spans, or nothing at all when switched off.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder; with `enabled` false every call is a no-op, which is
    /// how the tracing overhead is measured.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str, task: Option<u64>) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            task,
            work: 0,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span, crediting it with `work`.
    pub fn close(&mut self, work: u64) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("a span is open");
        let end_ns = self.now_ns();
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Closes the innermost open span with `work` and opens `name` beside
    /// it on the same clock reading: calls that follow each other directly
    /// leave no gap between their spans and cost one reading, not two.
    pub fn switch(&mut self, work: u64, name: &'static str, task: Option<u64>) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let index = self.open.pop().expect("a span is open");
        let ended = &mut self.spans[index as usize];
        ended.end_ns = now;
        ended.work = work;
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            task,
            work: 0,
        });
    }

    /// Runs `f` inside a span; `f` returns its value and the work done.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        task: Option<u64>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        self.open(name, task);
        let (value, work) = f();
        self.close(work);
        value
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time: duration minus the part child spans cover.
    pub self_ns: u64,
    /// Summed work.
    pub work: u64,
    /// Number of spans.
    pub calls: u64,
}

impl LayerTotal {
    /// Self nanoseconds per unit of work, 0 when no work was done.
    #[must_use]
    pub fn ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }

    /// Self nanoseconds per call, 0 when there was none.
    #[must_use]
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Self time and work per span name.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let total = totals.entry(span.name).or_default();
        total.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
        total.work += span.work;
        total.calls += 1;
    }
    totals
}

/// Share of the root span's duration that spans below it account for.
#[must_use]
pub fn coverage(spans: &[Span]) -> f64 {
    let Some(root) = spans.first() else {
        return 0.0;
    };
    let wall = (root.end_ns - root.start_ns) as f64;
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if wall == 0.0 {
        0.0
    } else {
        covered as f64 / wall
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the first
/// [`TRACE_FILE_SPANS`] spans.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .take(TRACE_FILE_SPANS)
        .map(|s| {
            let mut args = vec![("work", Json::from(s.work))];
            if let Some(task) = s.task {
                args.push(("task", Json::from(task)));
            }
            if let Some(parent) = s.parent {
                args.push(("parent", Json::from(u64::from(parent))));
            }
            obj([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                ("args", obj(args)),
            ])
        })
        .collect();
    obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
    .render()
}

/// What the hand-driven loop produced.
#[derive(Debug)]
pub struct Driven {
    /// Final architected state.
    pub state: MachineState,
    /// Instructions committed by tasks and recovery segments.
    pub committed_instructions: u64,
    /// Wall seconds of the loop.
    pub seconds: f64,
}

/// State of the loop that recovery and the main path both touch.
struct Machine<'a> {
    prepared: &'a Prepared,
    rules: SegmentRules<'a>,
    arch: MachineState,
    /// Follows `arch` commit by commit; the `machine.delta.*` probes run
    /// the verify and apply work on it a second time, in spans of their
    /// own, because the calls inside `verify_and_commit` cannot be
    /// wrapped from outside.
    shadow: MachineState,
    master: Master,
    last_spawned: Option<u64>,
    since_spawn: u64,
    committed: u64,
}

impl Machine<'_> {
    /// Runs one non-speculative segment from the architected PC, commits
    /// it and restarts the master there. Returns whether it halted.
    fn recover(&mut self, rec: &mut Recorder) -> Result<bool, String> {
        let program = &self.prepared.program;
        rec.open("core.recovery", None);
        let mut writes = Delta::new();
        let mut pc = self.arch.pc();
        let (mut executed, mut crossings, mut halted) = (0u64, 0u64, false);
        rec.open("core.recovery.step", None);
        loop {
            let mut storage = RecoveryStorage {
                writes: &mut writes,
                arch: &self.arch,
            };
            let info = step(&mut storage, program, pc).map_err(|e| format!("recovery: {e}"))?;
            if info.halted {
                halted = true;
                break;
            }
            executed += 1;
            pc = info.next_pc;
            if self.rules.boundaries.contains(pc) {
                crossings += 1;
                if crossings >= self.rules.crossings_per_task {
                    break;
                }
            }
            if executed > self.prepared.seq_instructions {
                return Err("recovery ran past the sequential instruction count".to_string());
            }
        }
        rec.close(executed);
        rec.span("machine.apply", None, || {
            self.arch.apply(&writes);
            self.arch.set_pc(pc);
            ((), writes.len() as u64)
        });
        rec.span("machine.delta.apply", None, || {
            self.shadow.apply(&writes);
            self.shadow.set_pc(pc);
            ((), writes.len() as u64)
        });
        self.committed += executed;
        if !halted {
            self.master = rec.span("core.master.restart", None, || {
                let base = self.arch.clone();
                (
                    Master::restart_at(&self.prepared.distilled, pc, true, base),
                    1,
                )
            });
            self.last_spawned = None;
            self.since_spawn = 0;
        }
        rec.close(1);
        Ok(halted)
    }
}

/// Drives the MSSP protocol serially, on this thread, recording a span
/// around every call into a layer.
///
/// # Errors
///
/// Returns a message if the original program faults in recovery; a wrong
/// final state is for the caller to detect.
pub fn drive(prepared: &Prepared, rec: &mut Recorder) -> Result<Driven, String> {
    let distilled = &prepared.distilled;
    let program = &prepared.program;
    let config = EngineConfig::default();
    let boundaries = BoundarySet::new(distilled.boundaries().clone());
    let started = Instant::now();
    rec.open("loop", None);

    let arch = MachineState::boot(program);
    let master = rec.span("core.master.restart", None, || {
        (
            Master::restart_at(distilled, arch.pc(), true, arch.clone()),
            1,
        )
    });
    let mut m = Machine {
        prepared,
        rules: SegmentRules {
            boundaries: &boundaries,
            crossings_per_task: distilled.crossings_per_task().max(1),
            max_instrs: config.max_task_instrs,
        },
        shadow: arch.clone(),
        arch,
        master,
        last_spawned: None,
        since_spawn: 0,
        committed: 0,
    };
    let mut window: VecDeque<Task> = VecDeque::with_capacity(WINDOW);
    let mut next_id = 0u64;
    let mut folded = Delta::new();
    let mut folded_commits = 0u32;

    loop {
        while window.len() < WINDOW && m.master.status() == MasterStall::Active {
            if m.master.pending_spawn().is_some() {
                rec.open("core.master.take_spawn", Some(next_id));
                let (start_pc, overlay) = m.master.take_spawn(m.last_spawned);
                rec.switch(1, "core.task.new", Some(next_id));
                window.push_back(Task::new(TaskId(next_id), start_pc, 0, overlay));
                rec.close(1);
                m.last_spawned = Some(next_id);
                m.since_spawn = 0;
                next_id += 1;
            } else if m.since_spawn > config.master_runahead {
                m.master.mark_lost();
            } else {
                let steps = rec.span("core.master.step", Some(next_id), || {
                    let mut steps = 0u64;
                    while m.since_spawn + steps <= config.master_runahead
                        && m.master.pending_spawn().is_none()
                        && m.master.step(distilled).is_some()
                    {
                        steps += 1;
                    }
                    (steps, steps)
                });
                m.since_spawn += steps;
            }
        }

        let Some(mut task) = window.pop_front() else {
            // Master lost or halted with nothing in flight.
            if m.recover(rec)? {
                break;
            }
            continue;
        };
        let id = Some(task.id.0);
        // One chain of spans per task, each starting where the last ended.
        let outcome = if task.start_pc == m.arch.pc() {
            rec.open("core.task.run_segment", id);
            let end = task.run_segment(program, &m.arch, &m.rules, || false);
            rec.switch(task.executed, "machine.delta.verify", id);
            black_box(task.live_ins.first_mismatch_against(&m.shadow));
            rec.switch(task.live_ins.len() as u64, "core.verify", id);
            Some(verify_and_commit(&mut m.arch, &task, end))
        } else {
            None
        };
        if let Some(VerifyOutcome::Commit { end_pc, halted }) = outcome {
            let cells = task.writes.len() as u64;
            rec.switch(1, "machine.delta.apply", id);
            m.shadow.apply(&task.writes);
            m.shadow.set_pc(end_pc);
            rec.switch(cells, "machine.delta.superimpose", id);
            folded.superimpose_in_place(&task.writes);
            folded_commits += 1;
            if folded_commits == FOLD_COMMITS {
                folded.clear();
                folded_commits = 0;
            }
            rec.switch(cells, "core.master.on_commit", id);
            m.master.on_commit(task.id.0);
            rec.close(1);
            m.committed += task.executed;
            if halted {
                break;
            }
        } else {
            // Wrong path or failed verification: everything younger goes,
            // and the segment is redone non-speculatively.
            if outcome.is_some() {
                rec.close(1);
            }
            window.clear();
            m.master.mark_lost();
            if m.recover(rec)? {
                break;
            }
        }
    }
    black_box(&folded);
    rec.close(1);
    if m.shadow != m.arch {
        return Err("the probes' shadow state left the architected state".to_string());
    }
    Ok(Driven {
        state: m.arch,
        committed_instructions: m.committed,
        seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{prepare, INPUTS};
    use crate::json::parse;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, work: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            task: None,
            work,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("loop", 0, 1000, None, 1),
            span("a", 100, 500, Some(0), 10),
            span("b", 200, 300, Some(1), 4),
            span("b", 350, 450, Some(1), 6),
            span("a", 600, 900, Some(0), 20),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(
            totals["loop"],
            LayerTotal {
                self_ns: 300,
                work: 1,
                calls: 1
            }
        );
        assert_eq!(
            totals["a"],
            LayerTotal {
                self_ns: 200 + 300,
                work: 30,
                calls: 2
            }
        );
        assert_eq!(totals["b"].self_ns, 200);
        assert_eq!(totals["b"].ns_per_work(), 20.0);
        assert_eq!(totals["b"].ns_per_call(), 100.0);
        assert_eq!(coverage(&spans), 0.7);
        assert_eq!(LayerTotal::default().ns_per_work(), 0.0);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.open("outer", None);
        let v = rec.span("inner", Some(3), || (7, 42));
        rec.close(1);
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].parent, spans[1].task, spans[1].work),
            (Some(0), Some(3), 42)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut chain = Recorder::new(true);
        chain.open("outer", None);
        chain.open("first", None);
        chain.switch(5, "second", Some(9));
        chain.close(6);
        chain.close(1);
        let spans = chain.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
        assert_eq!((spans[1].work, spans[2].work), (5, 6));
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[2].task, Some(9));

        let mut off = Recorder::new(false);
        off.open("outer", None);
        off.switch(1, "other", None);
        assert_eq!(off.span("inner", None, || (1, 1)), 1);
        off.close(1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = [
            span("loop", 0, 2500, None, 1),
            span("a\"b", 10, 20, Some(0), 2),
        ];
        let doc = parse(&chrome_trace(&spans)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn driven_loop_reproduces_seq_machine_on_every_input() {
        for input in INPUTS {
            let prepared = prepare(input, 3, true).unwrap();
            let mut rec = Recorder::new(true);
            let driven = drive(&prepared, &mut rec).unwrap();
            assert_eq!(driven.state, prepared.seq_state, "{}", input.name);
            assert_eq!(
                driven.committed_instructions, prepared.seq_instructions,
                "{}",
                input.name
            );
            let totals = layer_totals(rec.spans());
            let executed = totals["core.task.run_segment"].work
                + totals.get("core.recovery.step").map_or(0, |t| t.work);
            assert!(executed >= prepared.seq_instructions, "{}", input.name);
        }
    }
}
