//! The `mssp` command-line tool: assemble, inspect, profile, distill and
//! execute programs for the MSSP ISA from the shell.
//!
//! ```text
//! mssp workloads                         list bundled benchmarks
//! mssp asm <file.s>                      assemble + disassemble a source file
//! mssp run <file.s|workload> [scale] [--stats] [--no-predictor] [--adaptive]
//!                                        sequential execution
//!                                        (--stats: also run the threaded
//!                                        executor and report its task
//!                                        counts, how many full snapshots
//!                                        and incremental deltas it
//!                                        published to workers, the
//!                                        per-cause squash histogram and
//!                                        the live-in predictor counters;
//!                                        --no-predictor: disable live-in
//!                                        value prediction in that run;
//!                                        --adaptive: arm the online
//!                                        re-distillation controller in the
//!                                        threaded run and report its
//!                                        recompile/hot-swap counters)
//! mssp profile <file.s|workload>         dynamic profile summary
//! mssp distill <file.s|workload> [--stats] [--tier fast|full]
//!                                        show distillation at all levels
//!                                        (--stats: per-pass pipeline deltas;
//!                                        --tier: run the named recompilation
//!                                        tier's pass pipeline instead —
//!                                        `fast` is liveness DCE only, `full`
//!                                        the complete optimizing pipeline)
//! mssp lint <file.s|workload|all> [--json]
//!                                        statically check distilled output
//! mssp exec <file.s|workload> [slaves]   full MSSP timing run vs baseline
//! ```
//!
//! `lint` exits non-zero if any error-severity finding is reported;
//! `lint all` checks every bundled workload. An argument a subcommand
//! does not take, a number that does not parse and a flag without its
//! value are errors, reported before anything runs.

use std::process::ExitCode;

use mssp::lint::escape_json;
use mssp::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("workloads") => {
            parse_options(&args[1..], None, &[], &[]).and_then(|_| cmd_workloads())
        }
        Some("asm") => with_arg(&args, |t, rest| {
            parse_options(rest, None, &[], &[])?;
            cmd_asm(t)
        }),
        Some("run") => with_arg(&args, |t, rest| {
            let switches = ["--stats", "--no-predictor", "--adaptive"];
            let o = parse_options(rest, Some("scale"), &switches, &[])?;
            cmd_run(
                t,
                o.number,
                o.has("--stats"),
                o.has("--no-predictor"),
                o.has("--adaptive"),
            )
        }),
        Some("profile") => with_arg(&args, |t, rest| {
            parse_options(rest, None, &[], &[])?;
            cmd_profile(t)
        }),
        Some("distill") => with_arg(&args, |t, rest| {
            let o = parse_options(rest, None, &["--stats"], &["--tier"])?;
            cmd_distill(t, o.has("--stats"), o.value("--tier"))
        }),
        Some("lint") => with_arg(&args, |t, rest| {
            let o = parse_options(rest, None, &["--json"], &[])?;
            cmd_lint(t, o.has("--json"))
        }),
        Some("exec") => with_arg(&args, |t, rest| {
            let o = parse_options(rest, Some("slave count"), &[], &[])?;
            cmd_exec(t, o.number)
        }),
        _ => {
            eprintln!(
                "usage: mssp <workloads|asm|run|profile|distill|lint|exec> [target] [n] [--json|--stats|--no-predictor|--adaptive|--tier fast|full]\n\
                 target: an .s file or a bundled workload name (`lint` also accepts `all`)"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Calls `f` with the target argument and the arguments after it.
fn with_arg(
    args: &[String],
    f: impl FnOnce(&str, &[String]) -> Result<(), String>,
) -> Result<(), String> {
    match args.get(1) {
        Some(target) => f(target, &args[2..]),
        None => Err("missing target argument".into()),
    }
}

/// The arguments after a subcommand's target.
struct Options<'a> {
    /// The number right after the target, for a subcommand that takes one.
    number: Option<u64>,
    switches: Vec<&'a str>,
    /// `--flag VALUE` pairs.
    values: Vec<(&'a str, &'a str)>,
}

impl Options<'_> {
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }
}

/// Parses `args` against what a subcommand accepts: a number called
/// `number` (if it takes one) first, then any of `switches` and of the
/// `valued` flags, each followed by its value. Anything else is an error.
fn parse_options<'a>(
    args: &'a [String],
    number: Option<&str>,
    switches: &[&str],
    valued: &[&str],
) -> Result<Options<'a>, String> {
    let mut rest = args.iter().map(String::as_str).peekable();
    let mut options = Options {
        number: None,
        switches: Vec::new(),
        values: Vec::new(),
    };
    if let Some(name) = number {
        if let Some(arg) = rest.next_if(|a| !a.starts_with("--")) {
            let n = arg
                .parse()
                .map_err(|_| format!("{name} `{arg}` is not a whole number"))?;
            options.number = Some(n);
        }
    }
    while let Some(arg) = rest.next() {
        if switches.contains(&arg) {
            options.switches.push(arg);
        } else if valued.contains(&arg) {
            let value = rest
                .next()
                .ok_or_else(|| format!("`{arg}` needs a value"))?;
            options.values.push((arg, value));
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok(options)
}

/// Loads a program from an assembly file or a bundled workload name.
fn load(target: &str, scale: Option<u64>) -> Result<Program, String> {
    if let Some(w) = Workload::by_name(target) {
        return Ok(w.program(scale.unwrap_or(w.default_scale)));
    }
    let src = std::fs::read_to_string(target)
        .map_err(|e| format!("cannot read `{target}`: {e} (and no workload has that name)"))?;
    assemble(&src).map_err(|errs| {
        errs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    })
}

fn cmd_workloads() -> Result<(), String> {
    println!(
        "{:<14} {:<12} {:>10}  description",
        "name", "analog", "scale"
    );
    for w in workloads() {
        println!(
            "{:<14} {:<12} {:>10}  {}",
            w.name, w.analog, w.default_scale, w.description
        );
    }
    Ok(())
}

fn cmd_asm(target: &str) -> Result<(), String> {
    let p = load(target, None)?;
    println!(
        "; {} instructions, entry {:#x}, data {} bytes at {:#x}",
        p.len(),
        p.entry(),
        p.data().len(),
        p.data_base()
    );
    print!("{}", p.disassemble());
    Ok(())
}

fn cmd_run(
    target: &str,
    scale: Option<u64>,
    stats: bool,
    no_predictor: bool,
    adaptive: bool,
) -> Result<(), String> {
    let p = load(target, scale)?;
    let mut m = SeqMachine::boot(&p);
    let summary = m.run(u64::MAX).map_err(|e| e.to_string())?;
    println!("instructions: {}", summary.instructions);
    println!("checksum(s1): {:#x}", m.state().reg(Reg::S1));
    println!("final pc:     {:#x}", m.state().pc());
    if stats || adaptive {
        // Re-run under the threaded executor and report its verify/commit
        // counters, including how architected snapshots were published
        // to workers.
        let prof = Profile::collect(&p, u64::MAX).map_err(|e| e.to_string())?;
        let d = distill(&p, &prof, &DistillConfig::default()).map_err(|e| e.to_string())?;
        let engine_config = EngineConfig {
            enable_predictor: !no_predictor,
            ..EngineConfig::default()
        };
        let run = if adaptive {
            // Arm the online controller: divergence from the training
            // profile triggers a lint-gated re-distillation and an epoch
            // hot-swap at the next task boundary.
            let ctl = AdaptiveController::new(AdaptiveConfig::default(), &d, &prof);
            let program = p.clone();
            let dcfg = DistillConfig::default();
            let lcfg = LintConfig::default();
            let boundaries = d.boundaries().clone();
            let crossings = d.crossings_per_task().max(1);
            let rec: Recompiler = Box::new(move |profile, tier| {
                redistill_validated(
                    &program,
                    profile,
                    &dcfg,
                    tier,
                    &boundaries,
                    crossings,
                    &lcfg,
                )
                .map_err(|e| e.to_string())
            });
            run_threaded_adaptive(&p, &d, engine_config, ctl, rec).map_err(|e| e.to_string())?
        } else {
            run_threaded(&p, &d, engine_config).map_err(|e| e.to_string())?
        };
        if &run.state != m.state() {
            return Err("threaded state mismatch — correctness bug".into());
        }
        let s = &run.stats;
        println!("threaded verify/commit ({:?} wall-clock):", run.elapsed);
        println!(
            "  tasks: {} spawned, {} committed",
            s.spawned_tasks, s.committed_tasks
        );
        println!(
            "  snapshots: {} materialized, {} incremental deltas published",
            s.snapshots_materialized, s.deltas_published
        );
        println!(
            "  squashes: {} wrong-path, {} live-in ({} predicted / {} stale), \
             {} overrun, {} fault",
            s.squashes_wrong_path,
            s.squashes_live_in,
            s.squashes_live_in_predicted,
            s.squashes_live_in_stale,
            s.squashes_overrun,
            s.squashes_fault
        );
        println!(
            "  predictor: {} overrides, {} hits, {} misses (accuracy {:.3}); \
             {} spawn vetoes",
            s.predictor_overrides,
            s.predictor_hits,
            s.predictor_misses,
            s.predictor_accuracy(),
            s.spawn_vetoes
        );
        if let Some(report) = &run.adaptive {
            println!(
                "  adaptive: {} fast / {} full recompiles, {} hot-swaps \
                 ({} tasks abandoned), {} failures, {} rejected",
                s.recompilations_fast,
                s.recompilations_full,
                s.swaps_installed,
                s.swap_abandoned_tasks,
                report.recompile_failures,
                report.candidates_rejected
            );
            println!(
                "  adaptive: {} windows observed, {} divergent",
                report.windows, report.divergent_windows
            );
            for marker in &report.swaps {
                println!(
                    "    swap {:?} at task {} ({} us recompile+validate)",
                    marker.tier, marker.at_committed_tasks, marker.latency_micros
                );
            }
        }
    }
    Ok(())
}

fn cmd_profile(target: &str) -> Result<(), String> {
    let p = load(target, None)?;
    let prof = Profile::collect(&p, u64::MAX).map_err(|e| e.to_string())?;
    let n = prof.dynamic_instructions();
    println!("dynamic instructions: {n}");
    println!(
        "loads/stores/branches: {} / {} / {}",
        prof.loads(),
        prof.stores(),
        prof.dynamic_branches()
    );
    println!(
        "weighted branch bias: {:.4}",
        prof.weighted_branch_bias().unwrap_or(0.0)
    );
    let mut branches: Vec<_> = prof.iter_branches().collect();
    branches.sort_by_key(|(_, c)| std::cmp::Reverse(c.total()));
    println!("hottest branches:");
    for (pc, c) in branches.iter().take(10) {
        println!(
            "  {:#08x}: {:>9} execs, bias {:.4} ({})",
            pc,
            c.total(),
            c.bias().unwrap_or(0.0),
            if c.mostly_taken() {
                "taken"
            } else {
                "not taken"
            }
        );
    }
    Ok(())
}

fn cmd_distill(target: &str, stats: bool, tier: Option<&str>) -> Result<(), String> {
    let p = load(target, None)?;
    let prof = Profile::collect(&p, u64::MAX).map_err(|e| e.to_string())?;
    if let Some(name) = tier {
        // Show the named recompilation tier — the pass budget the online
        // adaptive controller uses for hot-swap candidates.
        let tier: Tier = name.parse()?;
        let d = distill(&p, &prof, &tier.apply(&DistillConfig::default()))
            .map_err(|e| e.to_string())?;
        let s = d.stats();
        println!(
            "tier {tier:<8} static {:>4} -> {:>4} | asserted {:>2} | blocks -{:>2} | dce {:>3} | stores -{:>2} | boundaries {} x{}",
            s.original_static,
            s.distilled_static,
            s.asserted_branches,
            s.removed_blocks,
            s.dce_removed,
            s.stores_elided,
            d.boundaries().len(),
            d.crossings_per_task(),
        );
        return Ok(());
    }
    for level in DistillLevel::all() {
        let d = distill(&p, &prof, &DistillConfig::at_level(level)).map_err(|e| e.to_string())?;
        let s = d.stats();
        println!(
            "{level:<13} static {:>4} -> {:>4} | asserted {:>2} | blocks -{:>2} | dce {:>3} | stores -{:>2} | boundaries {} x{}",
            s.original_static,
            s.distilled_static,
            s.asserted_branches,
            s.removed_blocks,
            s.dce_removed,
            s.stores_elided,
            d.boundaries().len(),
            d.crossings_per_task(),
        );
        if stats && level == DistillLevel::Aggressive {
            println!("pass pipeline ({level}):");
            for delta in d.pass_trace() {
                let net = delta.after as i64 - delta.before as i64;
                println!(
                    "  iter {}  {:<11} {:>4} -> {:>4}  ({net:+})",
                    delta.iteration, delta.pass, delta.before, delta.after,
                );
            }
            println!(
                "  folded {} (+{} branches), copies {}, threaded {}, iterations {}",
                s.const_folded,
                s.branches_folded,
                s.copies_propagated,
                s.jumps_threaded,
                s.pipeline_iterations,
            );
        }
    }
    Ok(())
}

/// Statically checks the distillation of one target (or, for `all`, of
/// every bundled workload) and reports findings. Error-severity findings
/// fail the command.
fn cmd_lint(target: &str, json: bool) -> Result<(), String> {
    let targets: Vec<String> = if target == "all" {
        workloads().iter().map(|w| w.name.to_string()).collect()
    } else {
        vec![target.to_string()]
    };
    let mut total_errors = 0;
    for t in &targets {
        let p = load(t, None)?;
        let prof = Profile::collect(&p, Profile::UNBOUNDED).map_err(|e| e.to_string())?;
        let d = distill(&p, &prof, &DistillConfig::default()).map_err(|e| e.to_string())?;
        let report = lint(&p, &d, &prof, &LintConfig::default());
        if json {
            println!(
                "{{\"target\":\"{}\",\"report\":{}}}",
                escape_json(t),
                report.render_json()
            );
        } else {
            println!("== {t} ==");
            print!("{}", report.render_text());
        }
        total_errors += report.errors();
    }
    if total_errors > 0 {
        return Err(format!(
            "{total_errors} error-severity finding(s) across {} target(s)",
            targets.len()
        ));
    }
    Ok(())
}

fn cmd_exec(target: &str, slaves: Option<u64>) -> Result<(), String> {
    let p = load(target, None)?;
    let prof = Profile::collect(&p, u64::MAX).map_err(|e| e.to_string())?;
    let d = distill(&p, &prof, &DistillConfig::default()).map_err(|e| e.to_string())?;
    let mut cfg = TimingConfig::default();
    if let Some(s) = slaves {
        cfg.engine.num_slaves = s.max(1) as usize;
    }
    let base = run_baseline(&p, &cfg, u64::MAX).map_err(|e| e.to_string())?;
    let mssp = run_mssp(&p, &d, &cfg).map_err(|e| e.to_string())?;
    if base.state.reg(Reg::S1) != mssp.run.state.reg(Reg::S1) {
        return Err("checksum mismatch — correctness bug".into());
    }
    let s = &mssp.run.stats;
    println!(
        "baseline: {:>12} cycles (CPI {:.2})",
        base.cycles,
        base.cpi()
    );
    println!(
        "mssp:     {:>12} cycles with {} slaves  -> speedup {:.3}",
        mssp.run.cycles,
        cfg.engine.num_slaves,
        speedup(base.cycles, mssp.run.cycles)
    );
    println!(
        "tasks: {} spawned, {} committed, {} squash events, {:.1}% recovery",
        s.spawned_tasks,
        s.committed_tasks,
        s.squash_events(),
        100.0 * s.recovery_fraction()
    );
    Ok(())
}
