//! What the benchmark reads about the machine it runs on.

use std::process::Command;

use crate::json::{obj, Json};

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS, so that the next
/// [`peak_rss_mb`] is the peak since now. Where `/proc/self/clear_refs`
/// cannot be written nothing happens, and `VmHWM` stays the peak since
/// the process began.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system, all threads) this process has used.
/// `/proc/self/stat` counts in clock ticks, 100 per second on Linux, so
/// callers accumulate over many runs before dividing.
#[must_use]
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, `utime` and `stime` being fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// The three load averages of `/proc/loadavg`.
#[must_use]
pub fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// Hardware threads the scheduler offers this process.
#[must_use]
pub fn available_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn online_cpus() -> Option<u64> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    Some(
        cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count() as u64,
    )
}

fn loadavg_json(load: Option<[f64; 3]>) -> Json {
    load.map_or(Json::Null, |l| {
        Json::Arr(l.iter().map(|&v| Json::from(v)).collect())
    })
}

/// The host part of every output record. `load_start` is the load
/// average read before measuring; the one at the end is read here.
#[must_use]
pub fn record(load_start: Option<[f64; 3]>, seed: u64) -> Json {
    obj([
        ("nproc", online_cpus().map_or(Json::Null, Json::from)),
        ("available_parallelism", Json::from(available_parallelism())),
        ("loadavg_start", loadavg_json(load_start)),
        ("loadavg_end", loadavg_json(loadavg())),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Json::Null, Json::from),
        ),
        (
            // Absent in the driver's checkout, which is not a git repository.
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).map_or(Json::Null, Json::from),
        ),
        ("seed", Json::from(seed)),
    ])
}

/// Warns on stderr when the one-minute load average exceeds half the
/// hardware threads: the wall-clock metrics are then not to be trusted.
pub fn warn_if_loaded(load: Option<[f64; 3]>) {
    let threads = available_parallelism() as f64;
    if let Some([one, ..]) = load {
        if one > threads / 2.0 {
            eprintln!(
                "warning: load average {one:.2} exceeds half of {threads} hardware threads; \
                 wall-clock metrics will be noisy"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_plausible_values() {
        // Linux-only sources; elsewhere they are absent, not wrong.
        if let Some(rss) = peak_rss_mb() {
            assert!(rss > 0.1 && rss < 1e6, "{rss}");
        }
        if let Some(cpu) = process_cpu_seconds() {
            assert!((0.0..1e7).contains(&cpu), "{cpu}");
        }
        if let Some(load) = loadavg() {
            assert!(load.iter().all(|l| *l >= 0.0));
        }
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn record_holds_every_host_field() {
        let rec = record(loadavg(), 7);
        for key in [
            "nproc",
            "available_parallelism",
            "loadavg_start",
            "loadavg_end",
            "rustc",
            "git_commit",
            "seed",
        ] {
            assert!(rec.get(key).is_some(), "missing {key}");
        }
        assert_eq!(rec.get("seed").and_then(Json::as_f64), Some(7.0));
    }
}
