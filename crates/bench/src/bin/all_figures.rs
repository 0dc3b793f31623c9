//! Renders the paper's evaluation from one sweep: every entry of
//! [`bench::FIGURES`] — Tables 2 and 3, the §4.3 overheads, Figures 6–12
//! and the three ablations — each followed by its claim table (`held` or
//! `NOT HELD` per comparison with the paper). `all_figures fig09 table3`
//! renders only those, running just the cells the selection reads;
//! `ablation` selects all three ablations. A claim that does not hold is
//! printed, not fatal: the Test-scale sweep in `tests/cross_crate.rs`
//! is the gate.
//!
//! Flags (`--flag N` or `--flag=N`):
//!
//! - `--test-scale` runs the fast Test inputs instead of Eval scale.
//! - `--jobs N` sets the worker count (default: available parallelism);
//!   `--retries N` re-runs a crashed cell up to N times (default 0).
//! - `--csv` also writes each table to `out/figures/<figure>_<series>.csv`;
//!   a file that cannot be written is reported, the remaining figures
//!   still render, and the exit status is 1.
//! - `--deadline-ms N` gives every cell N ms of wall clock; a cell past it
//!   stops with `SimError::DeadlineExceeded` and is reported as failed.
//! - `--trace PATH` records every cell and writes the traces to PATH when
//!   the sweep finishes: line-delimited JSON for a `.jsonl` extension,
//!   Chrome `trace_event` JSON (openable in <https://ui.perfetto.dev>)
//!   otherwise. `--trace-filter CATS` picks the categories
//!   (`launch,agt,warp,...`, `all` or `default`, which leaves the
//!   per-issue warp/cache/DRAM categories off), and `--metrics-interval N`
//!   samples the metrics time series every N cycles (default 1000, `0`
//!   off). Without `--trace` both are inert and tracing is fully off.

use bench::{print_claims, run_figures, Figure, SweepRunner, FIGURES};
use gpu_sim::GpuConfig;
use gpu_trace::Category;
use std::path::PathBuf;
use workloads::Scale;

fn main() {
    let (figures, scale, csv, runner, trace, cfg) = parse_args();
    let mut m = run_figures(&runner, &figures, scale, cfg);
    // Each figure renders only the rows whose cells all completed; failed
    // runs are reported at the end so one diverging benchmark never costs
    // the whole sweep.
    let mut csv_failed = false;
    for f in &figures {
        let rows = f.rows(&m);
        if let Err(e) = f.render(&m, &rows, csv) {
            eprintln!("failed to write CSV {e}");
            csv_failed = true;
        }
        print_claims(f.name, &(f.summary)(&m, &rows));
    }
    if csv && !csv_failed {
        eprintln!("CSV series written under out/figures/");
    }
    if let Some(path) = trace {
        write_trace(&path, &mut m);
    }
    m.report_failures();
    if csv_failed {
        std::process::exit(1);
    }
}

/// The parsed command line: the selected figures (all when none is
/// named), the scale, `--csv`, the runner, the trace file and the base
/// config every figure's configs derive from.
type Args = (
    Vec<&'static Figure>,
    Scale,
    bool,
    SweepRunner,
    Option<PathBuf>,
    GpuConfig,
);

/// Parses the command line; exits with a usage error on an unknown flag or
/// figure name, or a malformed value.
fn parse_args() -> Args {
    let (mut names, mut scale, mut csv) = (Vec::new(), Scale::Eval, false);
    let (mut jobs, mut retries) = (gpu_sim::sweep::default_jobs(), 0);
    let (mut trace, mut filter, mut interval) = (None, None, 1000);
    let mut cfg = GpuConfig::k20c();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = || {
            let missing = || usage(format!("{flag} expects a value"));
            inline
                .clone()
                .or_else(|| args.next())
                .unwrap_or_else(missing)
        };
        match flag.as_str() {
            "--test-scale" => scale = Scale::Test,
            "--csv" => csv = true,
            "--jobs" => jobs = int(&flag, value()),
            "--retries" => retries = int(&flag, value()),
            "--deadline-ms" => cfg.budget.deadline_ms = Some(int(&flag, value())),
            "--trace" => trace = Some(PathBuf::from(value())),
            "--trace-filter" => filter = Some(value()),
            "--metrics-interval" => interval = int(&flag, value()),
            f if f.starts_with("--") => usage(format!("unknown flag {f}")),
            _ => names.push(arg),
        }
    }
    if jobs == 0 {
        usage("--jobs expects a positive integer, got \"0\"".to_string());
    }
    if trace.is_some() {
        cfg.trace.mask = match filter {
            Some(spec) => Category::parse_mask(&spec)
                .unwrap_or_else(|e| usage(format!("--trace-filter: {e}"))),
            None => Category::default_mask(),
        };
        cfg.trace.metrics_interval = interval;
    }
    if let Some(bad) = names
        .iter()
        .find(|n| FIGURES.iter().all(|f| !f.selected_by(n)))
    {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        usage(format!(
            "unknown figure {bad:?}; one of: {} ablation",
            known.join(" ")
        ));
    }
    let picked = |f: &&Figure| names.is_empty() || names.iter().any(|n| f.selected_by(n));
    let figures = FIGURES.iter().filter(picked).collect();
    let runner = SweepRunner::new(jobs).with_retries(retries);
    (figures, scale, csv, runner, trace, cfg)
}

/// Parses `flag`'s non-negative integer value.
fn int<T: std::str::FromStr>(flag: &str, v: String) -> T {
    let bad = || usage(format!("{flag} expects a non-negative integer, got {v:?}"));
    v.parse().unwrap_or_else(|_| bad())
}

/// Exits with a usage error.
fn usage(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Takes the traces out of the finished matrix (run order) and writes
/// them to `path`; exits non-zero when the file cannot be written.
fn write_trace(path: &PathBuf, m: &mut bench::Matrix) {
    let cells = m.take_traces();
    let dropped: u64 = cells.iter().map(|(_, d)| d.dropped).sum();
    let text = if path.extension().is_some_and(|e| e == "jsonl") {
        gpu_trace::export::jsonl(&cells)
    } else {
        gpu_trace::export::chrome_trace(&cells)
    };
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write trace {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "trace: wrote {} cell(s) to {} ({} event(s) dropped past the retention limit)",
        cells.len(),
        path.display(),
        dropped,
    );
}
