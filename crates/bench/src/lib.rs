//! Experiment harness for the DTBL reproduction.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section (see the per-experiment index in
//! `DESIGN.md`); this library holds the shared sweep runner, the
//! definitions of Figures 6–11 and the plain-text "figure" renderer they
//! use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gpu_sim::sweep::CellOutcome;
use gpu_sim::{BatchServer, GpuConfig, RunBudget, SimError, Stats};
use gpu_trace::{Category, TraceConfig, TraceData};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Benchmark, CellSetup, RunReport, Scale, Variant};

/// One sweep cell: a variant of a benchmark's shared, immutable setup.
pub type Cell = (Arc<CellSetup>, Variant);

/// Runs sweep cells on a warm-pool [`BatchServer`] it owns: `jobs` pooled
/// simulators behind a bounded pool of worker threads (`gpu_sim::sweep`
/// underneath — std scoped threads, no external dependencies) and a
/// content-addressed result cache.
///
/// Every cell binds its own simulator state and seeds its own
/// deterministic `sim-rand` streams, so per-run results are bit-identical
/// to a serial loop no matter how many workers run them; only the wall
/// clock and the interleaving of progress lines change. A cell whose
/// [`gpu_sim::CellKey`] (config content hash, benchmark, scale, variant)
/// this runner has already run is served from the cache without
/// simulating, so a second sweep on the same runner only pays for its new
/// cells. All sweep-bearing binaries (`all_figures`, `ablation`,
/// `fig12_agt_sensitivity`) construct one with
/// [`SweepRunner::from_args`], so `--jobs N` works everywhere.
#[derive(Debug)]
pub struct SweepRunner {
    server: BatchServer<RunReport>,
}

impl SweepRunner {
    /// A runner with a fixed worker count (clamped to at least 1) and no
    /// crash retries.
    pub fn new(jobs: usize) -> Self {
        SweepRunner {
            server: BatchServer::new(jobs.max(1), 0),
        }
    }

    /// A runner configured from the command line: `--jobs N` (or
    /// `--jobs=N`) pins the worker count; without the flag it uses the
    /// machine's available parallelism. `--retries N` sets the crash-retry
    /// count (see [`SweepRunner::with_retries`]; default 0).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let retries = flag_value(&args, "--retries")
            .map(|n| {
                n.parse().unwrap_or_else(|_| {
                    eprintln!("--retries expects a non-negative integer, got {n:?}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(0);
        SweepRunner::new(jobs_from_args()).with_retries(retries)
    }

    /// Sets how often a panicking cell is re-run. Every cell is
    /// panic-isolated whatever this count is: a crash never takes the
    /// sweep down, its siblings finish, and it surfaces as a
    /// [`SimError::CellCrashed`] in [`Matrix::failures`]. `retries` only
    /// adds up to that many quarantined re-runs (serial, in input order,
    /// after the parallel pass) before the cell is declared crashed.
    pub fn with_retries(self, retries: u32) -> Self {
        SweepRunner {
            server: BatchServer::new(self.jobs(), retries),
        }
    }

    /// The worker count this runner fans out to.
    pub fn jobs(&self) -> usize {
        self.server.jobs()
    }

    /// The server behind this runner, for its counters (cache hits and
    /// misses, warm binds, cold builds, metrics snapshot).
    pub fn server(&self) -> &BatchServer<RunReport> {
        &self.server
    }

    /// Runs `cells` on the warm pool and returns `(cell, result)` pairs in
    /// input order. A cell that fails — output diverging from the host
    /// reference, a hang, an exhausted hardware structure, a crash — comes
    /// back as its typed error and the sweep continues, so one broken
    /// cell never costs the rest of an Eval-scale run. Per-run completion
    /// lines stream to stderr as workers finish; cached cells print none.
    pub fn run_cells(&self, cells: Vec<Cell>) -> Vec<(Cell, Result<RunReport, SimError>)> {
        let t0 = Instant::now();
        let total = cells.len();
        let finished = AtomicUsize::new(0);
        let outcomes = self.server.run_batch(
            cells,
            |(s, v)| Some(s.cell_key(*v)),
            |(s, v), slot| {
                let t = Instant::now();
                let r = s.run_warm(*v, slot);
                let k = finished.fetch_add(1, Ordering::Relaxed) + 1;
                match &r {
                    Ok(rep) => eprintln!(
                        "  [{k:>3}/{total}] {:14} {:7} {} cycles, {} launches, {:.1?}",
                        s.benchmark().name(),
                        v.label(),
                        rep.stats.cycles,
                        rep.stats.dyn_launches(),
                        t.elapsed(),
                    ),
                    Err(e) => eprintln!(
                        "  [{k:>3}/{total}] {:14} {:7} ** FAILED: {e}",
                        s.benchmark().name(),
                        v.label()
                    ),
                }
                r
            },
        );
        eprintln!(
            "  sweep: {total} run(s) on {} worker(s) in {:.1?}",
            self.jobs(),
            t0.elapsed()
        );
        outcomes
            .into_iter()
            .map(|((s, v), outcome)| {
                let r = match outcome {
                    CellOutcome::Ok(rep) => Ok(rep),
                    CellOutcome::Err(e) => Err(e),
                    CellOutcome::Crashed(rep) => {
                        eprintln!("  {:14} {:7} ** {rep}", s.benchmark().name(), v.label());
                        Err(SimError::CellCrashed {
                            attempts: rep.attempts,
                            payload: rep.payload,
                        })
                    }
                };
                ((s, v), r)
            })
            .collect()
    }

    /// Runs `benchmarks × variants` at `scale` with `cfg` applied to every
    /// cell (`all_figures` passes [`TraceOpts::gpu_config`]). Each
    /// benchmark's setup (data build + kernel decode) is built once over
    /// the worker pool and shared by its variant cells; a benchmark whose
    /// setup fails records a failure for each of its cells. Everything
    /// else goes through [`run_cells`](SweepRunner::run_cells).
    pub fn run_matrix(
        &self,
        benchmarks: &[Benchmark],
        variants: &[Variant],
        scale: Scale,
        cfg: GpuConfig,
    ) -> Matrix {
        let built = gpu_sim::sweep::run_cells(benchmarks.to_vec(), self.jobs(), |&b| {
            CellSetup::new(b, scale, cfg.clone())
        });
        let mut setups: Vec<Arc<CellSetup>> = Vec::new();
        let mut unbuilt = Vec::new();
        for (b, r) in built {
            match r {
                Ok(setup) => setups.push(Arc::new(setup)),
                Err(e) => unbuilt.extend(variants.iter().map(|&v| ((b, v), Err(e.clone())))),
            }
        }
        let runs = self
            .run_cells(matrix_cells(&setups, variants))
            .into_iter()
            .map(|((s, v), r)| ((s.benchmark(), v), r));
        unbuilt.into_iter().chain(runs).collect()
    }
}

/// Expands per-benchmark setups into a cell list: every variant cell of
/// one benchmark holds an `Arc` clone of the *same* [`CellSetup`], so the
/// workload data and decoded kernels are built once per benchmark, not
/// once per cell.
fn matrix_cells(setups: &[Arc<CellSetup>], variants: &[Variant]) -> Vec<Cell> {
    setups
        .iter()
        .flat_map(|s| variants.iter().map(move |&v| (Arc::clone(s), v)))
        .collect()
}

/// Parses `--jobs N` / `--jobs=N` from the command line; defaults to the
/// machine's available parallelism when absent.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let Some(v) = flag_value(&args, "--jobs") else {
        return gpu_sim::sweep::default_jobs();
    };
    v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
        eprintln!("--jobs expects a positive integer, got {v:?}");
        std::process::exit(2);
    })
}

/// Results of running benchmarks × variants.
#[derive(Debug, Default)]
pub struct Matrix {
    reports: HashMap<(Benchmark, Variant), RunReport>,
    failures: Vec<(Benchmark, Variant, SimError)>,
}

/// Folds `((benchmark, variant), result)` pairs into reports and failures.
impl FromIterator<((Benchmark, Variant), Result<RunReport, SimError>)> for Matrix {
    fn from_iter<I>(runs: I) -> Self
    where
        I: IntoIterator<Item = ((Benchmark, Variant), Result<RunReport, SimError>)>,
    {
        let mut m = Matrix::default();
        for ((b, v), r) in runs {
            match r {
                Ok(rep) => {
                    m.reports.insert((b, v), rep);
                }
                Err(e) => m.failures.push((b, v, e)),
            }
        }
        m
    }
}

impl Matrix {
    /// A single run's report.
    ///
    /// # Panics
    ///
    /// Panics if the combination was not part of the matrix.
    pub fn get(&self, b: Benchmark, v: Variant) -> &RunReport {
        self.reports
            .get(&(b, v))
            .unwrap_or_else(|| panic!("no report for {b} [{v}]"))
    }

    /// Whether a combination was run successfully.
    pub fn contains(&self, b: Benchmark, v: Variant) -> bool {
        self.reports.contains_key(&(b, v))
    }

    /// Every run that failed, with its typed error.
    pub fn failures(&self) -> &[(Benchmark, Variant, SimError)] {
        &self.failures
    }

    /// The subset of `benchmarks` for which every variant in `variants`
    /// completed — the rows a figure can safely render.
    pub fn ok_benchmarks(&self, benchmarks: &[Benchmark], variants: &[Variant]) -> Vec<Benchmark> {
        benchmarks
            .iter()
            .copied()
            .filter(|&b| variants.iter().all(|&v| self.contains(b, v)))
            .collect()
    }

    /// Detaches the recorded event traces of `benchmarks × variants`, in
    /// input order (the order the sweep was handed its cells, independent
    /// of worker interleaving), labelling each cell
    /// `<benchmark>/<variant>`. Failed and untraced cells are skipped.
    pub fn take_traces(
        &mut self,
        benchmarks: &[Benchmark],
        variants: &[Variant],
    ) -> Vec<(String, TraceData)> {
        let mut out = Vec::new();
        for &b in benchmarks {
            for &v in variants {
                if let Some(t) = self.reports.get_mut(&(b, v)).and_then(|r| r.trace.take()) {
                    out.push((format!("{}/{}", b.name(), v.label()), t));
                }
            }
        }
        out
    }

    /// Prints a summary of failed runs to stderr (no-op when everything
    /// passed).
    pub fn report_failures(&self) {
        if self.failures.is_empty() {
            return;
        }
        eprintln!("\n{} run(s) FAILED and were excluded:", self.failures.len());
        for (b, v, e) in &self.failures {
            eprintln!("  {} [{}]: {e}", b.name(), v.label());
        }
    }
}

/// Renders one paper-style figure as a table: one row per benchmark, one
/// column per series, plus an average row (arithmetic mean, as the paper
/// reports for its figures).
pub fn print_figure(
    title: &str,
    benchmarks: &[Benchmark],
    series: &[&str],
    mut value: impl FnMut(Benchmark, &str) -> f64,
    unit_fmt: impl Fn(f64) -> String,
) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len().min(100)));
    print!("{:<16}", "benchmark");
    for s in series {
        print!("{s:>12}");
    }
    println!();
    let mut sums = vec![0.0f64; series.len()];
    for &b in benchmarks {
        print!("{:<16}", b.name());
        for (k, s) in series.iter().enumerate() {
            let v = value(b, s);
            sums[k] += v;
            print!("{:>12}", unit_fmt(v));
        }
        println!();
    }
    if benchmarks.is_empty() {
        // No rows (every run of the figure failed): an average would be
        // 0/0 = NaN, so say so instead of printing a poisoned number.
        println!("{:<16}(no successful runs)", "average");
        return;
    }
    print!("{:<16}", "average");
    for (k, _) in series.iter().enumerate() {
        print!("{:>12}", unit_fmt(sums[k] / benchmarks.len() as f64));
    }
    println!();
}

/// Geometric mean (used for the headline speedup numbers).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// One of the paper's per-benchmark figures: the cells it needs and how
/// to read each table entry out of the finished [`Matrix`].
pub struct Figure {
    /// Selector on the `all_figures` command line (`fig06` … `fig11`).
    pub name: &'static str,
    /// With `--csv` the figure is written to `out/figures/<name>_<csv>.csv`.
    pub csv: &'static str,
    /// Table heading.
    pub title: &'static str,
    /// The variants whose runs the figure reads.
    pub variants: &'static [Variant],
    /// Table columns.
    pub series: &'static [&'static str],
    /// CSV columns (the table's measured columns, without derived ones).
    pub csv_series: &'static [&'static str],
    /// The entry for one benchmark and one column of either list.
    pub value: fn(&Matrix, Benchmark, &str) -> f64,
    /// Number format of a table entry.
    pub fmt: fn(f64) -> String,
    /// Prints the figure's summary against the paper's reported numbers,
    /// over the benchmarks whose rows were rendered.
    pub summary: fn(&Matrix, &[Benchmark]),
}

const FLAT_CDP_DTBL: &[Variant] = &[Variant::Flat, Variant::Cdp, Variant::Dtbl];
const LAUNCHING: &[Variant] = &[
    Variant::CdpIdeal,
    Variant::DtblIdeal,
    Variant::Cdp,
    Variant::Dtbl,
];
const THREE: &[&str] = &["Flat", "CDP", "DTBL"];
const FOUR: &[&str] = &["CDPI", "DTBLI", "CDP", "DTBL"];

/// The variant a variant-labelled column reads.
fn variant_of(series: &str) -> Variant {
    Variant::from_label(series).expect("series is a variant label")
}

fn stats_of<'m>(m: &'m Matrix, b: Benchmark, series: &str) -> &'m Stats {
    &m.get(b, variant_of(series)).stats
}

/// Arithmetic mean; 0 for no values.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len().max(1);
    values.sum::<f64>() / n as f64
}

fn speedup(m: &Matrix, b: Benchmark, v: Variant) -> f64 {
    m.get(b, Variant::Flat).stats.cycles as f64 / m.get(b, v).stats.cycles.max(1) as f64
}

/// Peak pending-launch footprint of CDP and DTBL, in bytes.
fn footprints(m: &Matrix, b: Benchmark) -> (f64, f64) {
    (
        m.get(b, Variant::Cdp).stats.peak_pending_bytes as f64,
        m.get(b, Variant::Dtbl).stats.peak_pending_bytes as f64,
    )
}

/// Figures 6–11, each defined once: `all_figures` runs the union of the
/// selected figures' variants in one sweep and renders every table, CSV
/// file and summary from this table.
pub static FIGURES: [Figure; 6] = [
    Figure {
        name: "fig06",
        csv: "warp_activity",
        title: "Figure 6: Warp Activity Percentage",
        variants: FLAT_CDP_DTBL,
        series: THREE,
        csv_series: THREE,
        value: |m, b, s| stats_of(m, b, s).warp_activity_pct(),
        fmt: |v| format!("{v:.1}%"),
        summary: |m, bs| {
            let delta = mean(bs.iter().map(|&b| {
                m.get(b, Variant::Dtbl).stats.warp_activity_pct()
                    - m.get(b, Variant::Flat).stats.warp_activity_pct()
            }));
            println!(
                "\nAverage DTBL warp-activity gain over Flat: {delta:+.1} points (paper: +10.7)"
            );
        },
    },
    Figure {
        name: "fig07",
        csv: "dram_efficiency",
        title: "Figure 7: DRAM Efficiency",
        variants: FLAT_CDP_DTBL,
        series: THREE,
        csv_series: THREE,
        value: |m, b, s| stats_of(m, b, s).dram_efficiency(),
        fmt: |v| format!("{v:.3}"),
        summary: |m, bs| {
            let rel = geomean(bs.iter().map(|&b| {
                let flat = m.get(b, Variant::Flat).stats.dram_efficiency().max(1e-9);
                m.get(b, Variant::Dtbl).stats.dram_efficiency() / flat
            }));
            println!("\nDTBL / Flat DRAM-efficiency ratio (geomean): {rel:.2}x (paper: 1.27x)");
        },
    },
    Figure {
        name: "fig08",
        csv: "occupancy",
        title: "Figure 8: SMX Occupancy",
        variants: LAUNCHING,
        series: FOUR,
        csv_series: FOUR,
        value: |m, b, s| stats_of(m, b, s).smx_occupancy_pct(),
        fmt: |v| format!("{v:.1}%"),
        summary: |m, bs| {
            let avg = |v: Variant| mean(bs.iter().map(|&b| m.get(b, v).stats.smx_occupancy_pct()));
            println!(
                "\nDTBLI - CDPI occupancy: {:+.1} points (paper: +17.9); DTBL - CDP: {:+.1} points",
                avg(Variant::DtblIdeal) - avg(Variant::CdpIdeal),
                avg(Variant::Dtbl) - avg(Variant::Cdp),
            );
        },
    },
    Figure {
        name: "fig09",
        csv: "waiting_kcycles",
        title: "Figure 9: Average Waiting Time (kcycles)",
        variants: LAUNCHING,
        series: FOUR,
        csv_series: FOUR,
        // `None` (no started dynamic launch) renders as 0.0, same as the
        // paper's empty bars for launch-free benchmarks.
        value: |m, b, s| stats_of(m, b, s).avg_waiting_time_opt().unwrap_or(0.0) / 1000.0,
        fmt: |v| format!("{v:.1}"),
        summary: |m, bs| {
            // Relative reductions over launch-bearing benchmarks only; a
            // variant pair where either side recorded no waiting time
            // drops out of the geomean instead of polluting it with a
            // fake zero.
            let red = |from: Variant, to: Variant| {
                let ratios = bs
                    .iter()
                    .filter(|&&b| m.get(b, Variant::Dtbl).stats.dyn_launches() > 0)
                    .filter_map(|&b| {
                        let num = m.get(b, to).stats.avg_waiting_time_opt()?;
                        let den = m.get(b, from).stats.avg_waiting_time_opt()?;
                        Some(num.max(1.0) / den.max(1.0))
                    });
                100.0 * (1.0 - geomean(ratios))
            };
            println!(
                "\nWaiting-time reduction DTBLI vs CDPI: {:.1}% (paper: 18.8%); DTBL vs CDP: {:.1}% (paper: 24.1%)",
                red(Variant::CdpIdeal, Variant::DtblIdeal),
                red(Variant::Cdp, Variant::Dtbl),
            );
        },
    },
    Figure {
        name: "fig10",
        csv: "footprint_kb",
        title: "Figure 10: Peak Pending-Launch Footprint (KB) + DTBL Reduction",
        variants: &[Variant::Cdp, Variant::Dtbl],
        series: &["CDP(KB)", "DTBL(KB)", "red(%)"],
        csv_series: &["CDP", "DTBL"],
        value: |m, b, s| {
            let (cdp, dtbl) = footprints(m, b);
            match s {
                "CDP(KB)" | "CDP" => cdp / 1024.0,
                "DTBL(KB)" | "DTBL" => dtbl / 1024.0,
                _ if cdp == 0.0 => 0.0,
                _ => 100.0 * (1.0 - dtbl / cdp),
            }
        },
        fmt: |v| format!("{v:.1}"),
        summary: |m, bs| {
            let reductions: Vec<f64> = bs
                .iter()
                .map(|&b| footprints(m, b))
                .filter(|&(cdp, _)| cdp > 0.0)
                .map(|(cdp, dtbl)| 100.0 * (1.0 - dtbl / cdp))
                .collect();
            println!(
                "\nAverage footprint reduction (launch-bearing benchmarks): {:.1}% (paper: 25.6%)",
                mean(reductions.iter().copied())
            );
        },
    },
    Figure {
        name: "fig11",
        csv: "speedup",
        title: "Figure 11: Speedup over Flat Implementation",
        variants: &Variant::MAIN,
        series: FOUR,
        csv_series: FOUR,
        value: |m, b, s| speedup(m, b, variant_of(s)),
        fmt: |v| format!("{v:.2}x"),
        summary: headline,
    },
];

/// The evaluation's headline numbers: Figure 11's geomeans and the DTBL
/// diagnostics the paper quotes in the text.
fn headline(m: &Matrix, bs: &[Benchmark]) {
    println!("\nHeadline numbers (geomean over all benchmarks; paper averages in parentheses):");
    for (v, paper) in [
        (Variant::CdpIdeal, "1.43x"),
        (Variant::DtblIdeal, "1.63x"),
        (Variant::Cdp, "0.86x"),
        (Variant::Dtbl, "1.21x"),
    ] {
        let g = geomean(bs.iter().map(|&b| speedup(m, b, v)));
        println!("  {:6} speedup over Flat: {g:.2}x  ({paper})", v.label());
    }
    let rel = geomean(
        bs.iter()
            .map(|&b| speedup(m, b, Variant::Dtbl) / speedup(m, b, Variant::Cdp)),
    );
    println!("  DTBL over CDP: {rel:.2}x  (1.40x)");

    let launching: Vec<&Stats> = bs
        .iter()
        .map(|&b| &m.get(b, Variant::Dtbl).stats)
        .filter(|s| s.dyn_launches() > 0)
        .collect();
    if launching.is_empty() {
        return;
    }
    println!(
        "  eligible-kernel match rate: {:.1}% (paper: ~98%)",
        100.0 * mean(launching.iter().map(|s| s.match_rate()))
    );
    println!(
        "  avg threads per dynamic launch: {:.0} (paper: ~40, pre ~1528)",
        mean(launching.iter().map(|s| s.avg_dyn_launch_threads()))
    );
}

/// Flags of the sweep binaries that consume the next argument as their
/// value when written without `=`.
const VALUE_FLAGS: [&str; 6] = [
    "--jobs",
    "--retries",
    "--trace",
    "--trace-filter",
    "--metrics-interval",
    "--deadline-ms",
];

/// The figures named on the command line (`all_figures fig09 fig11`), in
/// [`FIGURES`] order; all six when none is named. Exits with a usage
/// error on a positional argument that names no figure.
pub fn figures_from_args() -> Vec<&'static Figure> {
    let mut named: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            args.next();
        } else if !a.starts_with("--") {
            named.push(a);
        }
    }
    if let Some(bad) = named
        .iter()
        .find(|n| FIGURES.iter().all(|f| f.name != n.as_str()))
    {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("unknown figure {bad:?}; one of: {}", known.join(" "));
        std::process::exit(2);
    }
    FIGURES
        .iter()
        .filter(|f| named.is_empty() || named.iter().any(|n| n == f.name))
        .collect()
}

/// Looks up `--flag VALUE` / `--flag=VALUE` in `args`; exits with a usage
/// error when the flag is present without a value.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if a == flag {
            match args.get(i + 1) {
                Some(v) => return Some(v.clone()),
                None => {
                    eprintln!("{flag} expects a value");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Parses `--deadline-ms N` into a per-run [`RunBudget`]: every cell of
/// the sweep gets `N` milliseconds of wall clock before it stops with
/// `SimError::DeadlineExceeded` carrying partial stats (the run is
/// recorded as a failure; its siblings continue). Without the flag the
/// budget is inert.
pub fn budget_from_args() -> RunBudget {
    let args: Vec<String> = std::env::args().collect();
    let mut budget = RunBudget::none();
    if let Some(ms) = flag_value(&args, "--deadline-ms") {
        budget.deadline_ms = Some(ms.parse().unwrap_or_else(|_| {
            eprintln!("--deadline-ms expects a non-negative integer, got {ms:?}");
            std::process::exit(2);
        }));
    }
    budget
}

/// Tracing options of `all_figures`, parsed from the command line:
///
/// - `--trace PATH` enables event tracing for every run of the sweep and
///   writes the collected traces to PATH when the sweep finishes. A
///   `.jsonl` extension selects line-delimited JSON for scripting;
///   anything else gets Chrome `trace_event` JSON, openable in
///   <https://ui.perfetto.dev>.
/// - `--trace-filter CATS` sets the category filter: comma-separated
///   category names (`launch,agt,warp,...`), `all`, or `default`. The
///   default keeps the launch path and scheduling structures and leaves
///   the high-volume per-issue warp/cache/DRAM categories off.
/// - `--metrics-interval N` samples the metrics time series (warp
///   activity, occupancy, AGT fill, DRAM efficiency) every N cycles;
///   default 1000, `0` disables sampling.
///
/// Without `--trace` the options are inert: the sweep runs with tracing
/// fully disabled and [`TraceOpts::write`] is a no-op. The struct also
/// carries the run budget from `--deadline-ms` ([`budget_from_args`]), so
/// [`TraceOpts::gpu_config`] is the one place a figure sweep's
/// configuration comes from.
#[derive(Clone, Debug, Default)]
pub struct TraceOpts {
    out: Option<PathBuf>,
    cfg: TraceConfig,
    budget: RunBudget,
}

impl TraceOpts {
    /// Parses the tracing flags from the command line.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let budget = budget_from_args();
        let out = flag_value(&args, "--trace").map(PathBuf::from);
        let mut cfg = TraceConfig::off();
        if out.is_none() {
            return TraceOpts { out, cfg, budget };
        }
        cfg.mask = Category::default_mask();
        cfg.metrics_interval = 1000;
        if let Some(spec) = flag_value(&args, "--trace-filter") {
            cfg.mask = Category::parse_mask(&spec).unwrap_or_else(|e| {
                eprintln!("--trace-filter: {e}");
                std::process::exit(2);
            });
        }
        if let Some(n) = flag_value(&args, "--metrics-interval") {
            cfg.metrics_interval = n.parse().unwrap_or_else(|_| {
                eprintln!("--metrics-interval expects a non-negative integer, got {n:?}");
                std::process::exit(2);
            });
        }
        TraceOpts { out, cfg, budget }
    }

    /// True when `--trace` was passed.
    pub fn enabled(&self) -> bool {
        self.out.is_some()
    }

    /// The trace configuration these options selected (fully off without
    /// `--trace`).
    pub fn trace_config(&self) -> TraceConfig {
        self.cfg
    }

    /// The GPU configuration for the sweep: the stock K20c model with
    /// this run's trace settings applied.
    pub fn gpu_config(&self) -> GpuConfig {
        GpuConfig {
            trace: self.cfg,
            budget: self.budget.clone(),
            ..GpuConfig::k20c()
        }
    }

    /// Takes the traces of `benchmarks × variants` out of the finished
    /// matrix (input order) and writes the trace file named by `--trace`.
    /// No-op when tracing was not requested; exits non-zero when the file
    /// cannot be written.
    pub fn write(&self, m: &mut Matrix, benchmarks: &[Benchmark], variants: &[Variant]) {
        let Some(path) = &self.out else { return };
        let cells = m.take_traces(benchmarks, variants);
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
}

/// Parses the common CLI convention of the sweep binaries: `--test-scale`
/// switches to the fast Test inputs (useful for smoke runs).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Eval
    }
}

/// True when `--csv` was passed (`all_figures` then also writes each
/// rendered figure to `out/figures/` for plotting).
pub fn csv_from_args() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// The scratch directory for generated experiment outputs (figure text,
/// CSV series, traces): `out/` at the working directory, created on
/// demand and gitignored — regenerated artifacts never land in the repo
/// root.
pub fn out_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes one figure as `out/figures/<name>.csv` (benchmark rows,
/// series columns).
pub fn write_csv(
    name: &str,
    benchmarks: &[Benchmark],
    series: &[&str],
    mut value: impl FnMut(Benchmark, &str) -> f64,
) -> std::io::Result<std::path::PathBuf> {
    let dir = out_dir()?.join("figures");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::from("benchmark");
    for s in series {
        out.push(',');
        out.push_str(s);
    }
    out.push('\n');
    for &b in benchmarks {
        out.push_str(b.name());
        for s in series {
            out.push_str(&format!(",{}", value(b, s)));
        }
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn write_csv_roundtrip() {
        let p = write_csv(
            "unit_test_fig",
            &[Benchmark::Amr, Benchmark::Bht],
            &["A", "B"],
            |b, s| {
                if b == Benchmark::Amr && s == "A" {
                    1.5
                } else {
                    2.0
                }
            },
        )
        .expect("csv written");
        let body = std::fs::read_to_string(p).expect("readable");
        assert!(body.starts_with("benchmark,A,B\n"));
        assert!(body.contains("amr,1.5,2"));
    }

    #[test]
    fn variant_cells_share_one_setup_per_benchmark() {
        let setups = vec![
            Arc::new(
                CellSetup::new(Benchmark::BfsUsaRoad, Scale::Test, GpuConfig::test_small())
                    .expect("setup builds"),
            ),
            Arc::new(
                CellSetup::new(Benchmark::JoinUniform, Scale::Test, GpuConfig::test_small())
                    .expect("setup builds"),
            ),
        ];
        let variants = [Variant::Flat, Variant::Cdp, Variant::Dtbl];
        let cells = matrix_cells(&setups, &variants);
        assert_eq!(cells.len(), 6);
        // The Flat/CDP/DTBL cells of one benchmark are the same setup —
        // one workload build, one decode — not three reconstructions.
        for w in cells.chunks(3) {
            assert!(Arc::ptr_eq(&w[0].0, &w[1].0));
            assert!(Arc::ptr_eq(&w[1].0, &w[2].0));
            assert!(w[0].0.data().ptr_eq(w[2].0.data()));
        }
        // And across benchmarks they are not.
        assert!(!Arc::ptr_eq(&cells[0].0, &cells[3].0));
    }

    #[test]
    fn server_matrix_caches_repeats_bit_identically() {
        let runner = SweepRunner::new(2).with_retries(1);
        let variants = [Variant::Flat, Variant::Dtbl];
        let run = || {
            runner.run_matrix(
                &[Benchmark::BfsUsaRoad],
                &variants,
                Scale::Test,
                GpuConfig::test_small(),
            )
        };
        let m1 = run();
        assert!(m1.failures().is_empty());
        assert_eq!(runner.server().cache_misses(), 2);
        assert_eq!(runner.server().cache_hits(), 0);

        let m2 = run();
        assert!(m2.failures().is_empty());
        assert_eq!(
            runner.server().cache_misses(),
            2,
            "repeat batch never simulates"
        );
        assert_eq!(runner.server().cache_hits(), 2);
        for v in variants {
            assert_eq!(
                m1.get(Benchmark::BfsUsaRoad, v).stats,
                m2.get(Benchmark::BfsUsaRoad, v).stats,
                "cached result is bit-identical"
            );
        }
    }

    #[test]
    fn matrix_runs_and_validates() {
        let variants = [Variant::Flat, Variant::Dtbl];
        let m = SweepRunner::new(1).run_matrix(
            &[Benchmark::BfsUsaRoad],
            &variants,
            Scale::Test,
            GpuConfig::k20c(),
        );
        assert!(m.contains(Benchmark::BfsUsaRoad, Variant::Flat));
        assert!(m.failures().is_empty());
        assert!(!m.contains(Benchmark::BfsUsaRoad, Variant::Cdp));
        assert_eq!(
            m.ok_benchmarks(&[Benchmark::BfsUsaRoad], &variants),
            vec![Benchmark::BfsUsaRoad]
        );
        assert!(m
            .ok_benchmarks(&[Benchmark::BfsUsaRoad], &[Variant::Cdp])
            .is_empty());
    }

    /// A figure's columns must be readable from exactly the runs it asks
    /// for: every variant-labelled column names one of its variants.
    #[test]
    fn figure_columns_read_only_the_figures_own_variants() {
        for f in &FIGURES {
            for s in f.series.iter().chain(f.csv_series) {
                if let Some(v) = Variant::from_label(s) {
                    assert!(f.variants.contains(&v), "{}: column {s}", f.name);
                }
            }
        }
    }
}
