//! The repo benchmark. `BENCHMARK.json` at the repo root is the
//! contract; README.md explains the workloads and metrics.
//!
//! ```text
//! dtbl-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result
//! dtbl-benchmark run    [--seed N] [--seconds S]   every workload, spans off
//! dtbl-benchmark layers [--seed N] [--seconds S]   every workload, spans on
//! dtbl-benchmark --check-repeat [--seed N] [--seconds S]
//!     `run` twice; fails when a metric moves by more than its bound
//! dtbl-benchmark manifest                          prints BENCHMARK.json
//! ```

mod adapter;
mod measure;
mod spans;
mod suite;

use adapter::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use suite::{Args, END_TO_END, PER_LAYER, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

/// Where span files and micro-kernel scratch files go, relative to the
/// directory the benchmark is run from (the repo root).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Runs one untraced pass of `workload` in a child with `SMX_JOBS=2`
/// (the variable is read once per process) and returns its seconds.
pub fn shard_child_pass_s(workload: &str) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--child-pass", workload])
        .env("SMX_JOBS", "2")
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == metric)
        .map_or("", |(_, u)| u)
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One workload in this process: metrics by name to stdout, then the
/// result object on the last line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let outcome = match suite::run(workload, args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = out_dir().join(format!("spans-{workload}.jsonl"));
        match spans::flush(&path) {
            Ok(n) => eprintln!("{workload}: {n} spans in {}", path.display()),
            Err(e) => eprintln!("{workload}: writing {}: {e}", path.display()),
        }
    }
    // Every declared metric of the requested kind, in declaration order.
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let mut fields = Vec::new();
    for name in names {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        println!("{workload} {name} {} {}", number(value), unit_of(name));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            number(value),
            unit_of(name)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// The result of one workload run in a child process.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs `workload` in a process of its own, so `peak_rss_mb` is that
/// workload's alone, and echoes its by-name metric lines.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("exit {}", out.status));
    }
    let json = Json::parse(last)?;
    let metrics = match json.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result without metrics".into()),
    };
    Ok(ChildResult {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

/// Every workload once. Returns the results, or the workloads that
/// failed or were incorrect.
fn run_suite(
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(&'static str, ChildResult)>, String> {
    let mut results = Vec::new();
    let mut bad = Vec::new();
    for &(workload, _) in WORKLOADS {
        let t = std::time::Instant::now();
        match run_child(workload, seed, seconds, trace) {
            Ok(r) => {
                if !r.correct {
                    bad.push(format!("{workload}: incorrect outputs"));
                }
                results.push((workload, r));
            }
            Err(e) => bad.push(format!("{workload}: {e}")),
        }
        eprintln!("{workload}: {:.1} s", t.elapsed().as_secs_f64());
    }
    if bad.is_empty() {
        Ok(results)
    } else {
        Err(bad.join("; "))
    }
}

/// `run` twice: both values, the gap and the bound per metric × workload.
fn check_repeat(seed: u64, seconds: f64) -> ExitCode {
    let (first, second) = match (
        run_suite(seed, seconds, false),
        run_suite(seed, seconds, false),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("check-repeat: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let mut over = 0;
    println!("workload metric first second gap bound");
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for &(name, _, better, bound) in END_TO_END {
            let get = |r: &ChildResult| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                continue;
            };
            // How much worse the second set reads, as a share of the first.
            let gap = if better == "higher" {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let flag = if gap.abs() > bound { " OVER" } else { "" };
            over += usize::from(gap.abs() > bound);
            println!("{workload} {name} {x} {y} {gap:+.4} {bound}{flag}");
        }
    }
    if over == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("check-repeat: {over} metric(s) moved by more than their bound");
        ExitCode::FAILURE
    }
}

fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, better, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, better)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dtbl-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         dtbl-benchmark run|layers|--check-repeat [--seed N] [--seconds S]\n       \
         dtbl-benchmark manifest\nworkloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

/// Keeps glibc malloc to one arena. With the default, which arena a
/// daemon thread's simulator lands in depends on thread timing, and
/// `peak_rss_mb` of `serve_mix` reads 21 or 29 MiB from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt(M_ARENA_MAX, n)` is glibc's documented tuning
    // call; it takes two integers by value and touches no memory of
    // ours. It runs first thing in `main`, before any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let parsed = (
        value("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>),
        value("--seconds").map_or(Ok(DEFAULT_SECONDS), str::parse::<f64>),
    );
    let (Ok(seed), Ok(seconds)) = parsed else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }

    if let Some(workload) = value("--child-pass") {
        return match suite::child_pass_s(workload) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(workload) = value("--workload") {
        let trace = match value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return usage(),
        };
        let args = Args {
            seed,
            seconds,
            trace,
        };
        return run_one(workload, &args);
    }
    match argv.first().map(String::as_str) {
        Some("run") | Some("layers") => match run_suite(seed, seconds, argv[0] == "layers") {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        Some("--check-repeat") => check_repeat(seed, seconds),
        Some("manifest") => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
