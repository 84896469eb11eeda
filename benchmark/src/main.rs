//! Command line of the benchmark; see `README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use mssp::workloads::DEFAULT_SEED;
use mssp_benchmark::host;
use mssp_benchmark::input::{Input, INPUTS};
use mssp_benchmark::json::{obj, parse, Json};
use mssp_benchmark::run::{run_workload, write_json, Options};
use mssp_benchmark::spec::{benchmark_json, END_TO_END, RUN_SECONDS};

const USAGE: &str = "\
usage: mssp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--smoke] [--aa | --sets N] [--out PATH] [--out-dir DIR]
       mssp-benchmark --print-benchmark-json

With --workload, measures that workload in this process and prints, as the
last line of stdout, one JSON object: the end-to-end metrics (--trace 0, the
default) or the per-layer metrics (--trace 1). Without it, runs every
workload in a child process each, traced, and writes all results to --out;
--aa does so twice (--sets N: N times) and holds the sets' values to the
bounds of BENCHMARK.json.";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Input>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    sets: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        sets: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Input::by_name(name).ok_or_else(|| {
                    let names: Vec<&str> = INPUTS.iter().map(|i| i.name).collect();
                    format!("unknown workload `{name}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 600")?;
            }
            "--trace" => {
                args.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.sets = 2,
            "--sets" => {
                args.sets = value()?
                    .parse()
                    .ok()
                    .filter(|n| (1..=16).contains(n))
                    .ok_or("--sets takes a count from 1 to 16")?;
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload, in this process.
fn run_one(args: &Args, input: &'static Input) -> Result<ExitCode, String> {
    let outcome = run_workload(&Options {
        input,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    })?;
    if let Some(path) = &args.out {
        write_json(path, &outcome.record())?;
    }
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    Ok(if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `input` in a child process, so that its peak memory and heap
/// state are its own, and returns the record the child wrote.
fn run_child(args: &Args, input: &Input, set: usize) -> Result<Json, String> {
    let record_path = args.out_dir.join(format!("set{set}-{}.json", input.name));
    // A record left by an earlier run must not stand in for this one's.
    let _ = std::fs::remove_file(&record_path);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", input.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args([
            "--trace",
            if args.trace.unwrap_or(true) { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&record_path)
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.smoke {
        child.arg("--smoke");
    }
    // `status` waits for the child; its tables go straight to our stdout.
    let status = child.status().map_err(|e| format!("spawning child: {e}"))?;
    let text = std::fs::read_to_string(&record_path)
        .map_err(|e| format!("{} ({status}): {e}", record_path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", record_path.display()))
}

fn value_of(record: &Json, metric: &str) -> Option<f64> {
    record
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints, per workload and end-to-end metric, every set's value and
/// their relative range against the bound. Returns whether all held.
fn compare_sets(sets: &[Vec<Json>]) -> bool {
    let mut all_hold = true;
    println!("== same-code sets: relative range of the reported values against the bound ==");
    for (w, input) in INPUTS.iter().enumerate() {
        for metric in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| value_of(&set[w], metric.name))
                .collect();
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(0.0, f64::max);
            let range = (hi - lo) / lo;
            let holds = values.len() == sets.len() && range <= bound;
            all_hold &= holds;
            let shown: Vec<String> = values.iter().map(|m| format!("{m:.4}")).collect();
            println!(
                "{:<18} {:<26} {:<40} range {:>6.2}% bound {:>5.1}% {}",
                input.name,
                metric.name,
                shown.join(" "),
                100.0 * range,
                100.0 * bound,
                if holds { "pass" } else { "FAIL" }
            );
        }
    }
    all_hold
}

/// Every workload, each in a child, `args.sets` times over.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let load_start = host::loadavg();
    let mut sets = Vec::new();
    for set in 0..args.sets {
        let records = INPUTS
            .iter()
            .map(|input| run_child(args, input, set))
            .collect::<Result<Vec<Json>, String>>()?;
        sets.push(records);
    }
    let failed: f64 = sets
        .iter()
        .flatten()
        .filter_map(|r| r.get("failed").and_then(Json::as_f64))
        .sum();
    let sets_agree = args.sets < 2 || compare_sets(&sets);

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("results.json"));
    let document = obj([
        ("host", host::record(load_start, args.seed)),
        ("run_seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("sets", Json::Arr(sets.into_iter().map(Json::Arr).collect())),
    ]);
    write_json(&out, &document)?;
    println!("results written to {}", out.display());
    if failed > 0.0 {
        println!("FAILED: {failed} checked runs were wrong");
    }
    Ok(if failed == 0.0 && sets_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let result = match args.workload {
        Some(input) => run_one(&args, input),
        None => run_all(&args),
    };
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}
