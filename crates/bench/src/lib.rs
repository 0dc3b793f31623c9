//! Experiment harness for the DTBL reproduction.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section (see the per-experiment index in
//! `DESIGN.md`); this library holds the shared matrix runner and the
//! plain-text "figure" renderer they use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gpu_sim::sweep::CellOutcome;
use gpu_sim::{BatchServer, GpuConfig, RunBudget, SimError};
use gpu_trace::{Category, TraceConfig, TraceData};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Benchmark, CellSetup, RunReport, Scale, Variant};

/// Fans independent simulation runs out over a bounded pool of worker
/// threads (`gpu_sim::sweep` underneath — std scoped threads, no external
/// dependencies).
///
/// Every cell builds its own GPU and seeds its own deterministic
/// `sim-rand` streams, so per-run results are bit-identical to a serial
/// loop no matter how many workers run them; only the wall clock and the
/// interleaving of progress lines change. All sweep-bearing binaries
/// (`all_figures`, `ablation`, `fig06`–`fig12`) construct one with
/// [`SweepRunner::from_args`], so `--jobs N` works everywhere.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    jobs: usize,
    retries: u32,
}

impl SweepRunner {
    /// A runner with a fixed worker count (clamped to at least 1) and no
    /// crash quarantine.
    pub fn new(jobs: usize) -> Self {
        SweepRunner {
            jobs: jobs.max(1),
            retries: 0,
        }
    }

    /// A runner configured from the command line: `--jobs N` (or
    /// `--jobs=N`) pins the worker count; without the flag it uses the
    /// machine's available parallelism. `--retries N` opts the sweep into
    /// supervised execution (see [`SweepRunner::with_retries`]).
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

    /// Opts the sweep into supervised execution: a panicking cell is
    /// isolated (`gpu_sim::sweep::run_cells_supervised`), retried up to
    /// `retries` times in quarantine, and — if it keeps crashing —
    /// recorded as a [`SimError::CellCrashed`] failure instead of taking
    /// the whole sweep down. With `retries == 0` (the default) the sweep
    /// runs unsupervised and a panic propagates after the siblings
    /// finish.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The worker count this runner fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `benchmarks × variants` at `scale` over the worker pool. A
    /// run that fails — output diverging from the host reference, a hang,
    /// an exhausted hardware structure — is recorded in
    /// [`failures`](Matrix::failures) and the sweep continues, so one
    /// broken benchmark never costs the rest of an Eval-scale run.
    /// Per-run completion lines stream to stderr as workers finish.
    pub fn run_matrix(
        &self,
        benchmarks: &[Benchmark],
        variants: &[Variant],
        scale: Scale,
    ) -> Matrix {
        self.run_matrix_with(benchmarks, variants, scale, GpuConfig::k20c())
    }

    /// [`run_matrix`](SweepRunner::run_matrix) with an explicit GPU
    /// configuration applied to every cell — how the figure binaries
    /// enable tracing ([`TraceOpts::gpu_config`]) for a whole sweep.
    ///
    /// Runs on a private warm-pool [`BatchServer`] sized to this runner:
    /// the benchmark's setup (data build + kernel decode) is paid once and
    /// shared by its variant cells, and after the first `jobs` cells every
    /// run binds a pooled simulator via reset + bind instead of a cold
    /// construction. Per-run results stay bit-identical to the cold path
    /// (pinned by the `engine_equivalence` differential tests).
    pub fn run_matrix_with(
        &self,
        benchmarks: &[Benchmark],
        variants: &[Variant],
        scale: Scale,
        cfg: GpuConfig,
    ) -> Matrix {
        self.run_matrix_on(&self.server(), benchmarks, variants, scale, cfg)
    }

    /// A warm-pool batch server sized to this runner (`jobs` pooled
    /// simulators, this runner's crash-retry policy). Reuse one server
    /// across several [`run_matrix_on`](SweepRunner::run_matrix_on) calls
    /// to keep its pool warm and serve repeated cells from the result
    /// cache.
    pub fn server(&self) -> BatchServer<RunReport> {
        BatchServer::new(self.jobs, self.retries)
    }

    /// [`run_matrix_with`](SweepRunner::run_matrix_with) on a shared
    /// `server`. Cells whose [`gpu_sim::CellKey`] (config content hash,
    /// benchmark, scale, variant) is already cached are served without
    /// simulating; everything else runs on the server's warm pool.
    pub fn run_matrix_on(
        &self,
        server: &BatchServer<RunReport>,
        benchmarks: &[Benchmark],
        variants: &[Variant],
        scale: Scale,
        cfg: GpuConfig,
    ) -> Matrix {
        let t0 = Instant::now();
        let mut m = Matrix::default();

        // Phase 1: one immutable CellSetup per benchmark (workload data +
        // every variant's program), built over the worker pool. A
        // benchmark whose setup fails records a failure for each of its
        // cells and drops out of the run phase.
        let built = gpu_sim::sweep::run_cells(benchmarks.to_vec(), self.jobs, |&b| {
            CellSetup::new(b, scale, cfg.clone())
        });
        let mut setups: Vec<Arc<CellSetup>> = Vec::new();
        for (b, r) in built {
            match r {
                Ok(setup) => setups.push(Arc::new(setup)),
                Err(e) => {
                    for &v in variants {
                        m.failures.push((b, v, e.clone()));
                    }
                }
            }
        }

        // Phase 2: drain benchmark × variant through the server.
        let cells = matrix_cells(&setups, variants);
        let total = cells.len();
        let finished = AtomicUsize::new(0);
        let outcomes = server.run_batch(
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
        for ((s, v), outcome) in outcomes {
            let b = s.benchmark();
            match outcome {
                CellOutcome::Ok(rep) => {
                    m.reports.insert((b, v), rep);
                }
                CellOutcome::Err(e) => m.failures.push((b, v, e)),
                CellOutcome::Crashed(rep) => {
                    eprintln!("  {:14} {:7} ** {rep}", b.name(), v.label());
                    m.failures.push((
                        b,
                        v,
                        SimError::CellCrashed {
                            attempts: rep.attempts,
                            payload: rep.payload,
                        },
                    ));
                }
            }
        }
        self.report_wall_clock(total, t0);
        m
    }

    /// The cold sweep: every cell builds its workload data, decodes its
    /// program, and constructs a fresh simulator — the
    /// construction-per-run reference `engine_equivalence.rs` holds the
    /// warm pool and the result cache to.
    pub fn run_matrix_cold(
        &self,
        benchmarks: &[Benchmark],
        variants: &[Variant],
        scale: Scale,
        cfg: GpuConfig,
    ) -> Matrix {
        let cells: Vec<(Benchmark, Variant)> = benchmarks
            .iter()
            .flat_map(|&b| variants.iter().map(move |&v| (b, v)))
            .collect();
        let total = cells.len();
        let finished = AtomicUsize::new(0);
        let t0 = Instant::now();
        let run = |&(b, v): &(Benchmark, Variant)| -> Result<RunReport, SimError> {
            let t = Instant::now();
            let r = b.run_with(v, scale, cfg.clone());
            let k = finished.fetch_add(1, Ordering::Relaxed) + 1;
            match &r {
                Ok(rep) => eprintln!(
                    "  [{k:>3}/{total}] {:14} {:7} {} cycles, {} launches, {:.1?}",
                    b.name(),
                    v.label(),
                    rep.stats.cycles,
                    rep.stats.dyn_launches(),
                    t.elapsed(),
                ),
                Err(e) => eprintln!(
                    "  [{k:>3}/{total}] {:14} {:7} ** FAILED: {e}",
                    b.name(),
                    v.label()
                ),
            }
            r
        };
        let results: Vec<((Benchmark, Variant), Result<RunReport, SimError>)> = if self.retries == 0
        {
            gpu_sim::sweep::run_cells(cells, self.jobs, run)
        } else {
            gpu_sim::sweep::run_cells_supervised(cells, self.jobs, self.retries, run)
                .into_iter()
                .map(|((b, v), outcome)| {
                    let r = match outcome {
                        CellOutcome::Ok(rep) => Ok(rep),
                        CellOutcome::Err(e) => Err(e),
                        CellOutcome::Crashed(rep) => {
                            eprintln!("  {:14} {:7} ** {rep}", b.name(), v.label());
                            Err(SimError::CellCrashed {
                                attempts: rep.attempts,
                                payload: rep.payload,
                            })
                        }
                    };
                    ((b, v), r)
                })
                .collect()
        };
        self.report_wall_clock(total, t0);
        let mut m = Matrix::default();
        for ((b, v), r) in results {
            match r {
                Ok(rep) => {
                    m.reports.insert((b, v), rep);
                }
                Err(e) => m.failures.push((b, v, e)),
            }
        }
        m
    }

    /// Runs an arbitrary list of cells over the worker pool, returning
    /// `(cell, result)` pairs in input order. `label` names a cell in the
    /// streamed progress lines. Used by the binaries whose sweeps are not
    /// a plain benchmark × variant matrix (custom configs, AGT sizes).
    pub fn run_cells<C, T>(
        &self,
        cells: Vec<C>,
        run: impl Fn(&C) -> Result<T, SimError> + Sync,
        label: impl Fn(&C) -> String + Sync,
    ) -> Vec<(C, Result<T, SimError>)>
    where
        C: Send + Sync,
        T: Send,
    {
        let total = cells.len();
        let finished = AtomicUsize::new(0);
        let t0 = Instant::now();
        let results = gpu_sim::sweep::run_cells(cells, self.jobs, |cell| {
            let t = Instant::now();
            let r = run(cell);
            let k = finished.fetch_add(1, Ordering::Relaxed) + 1;
            match &r {
                Ok(_) => eprintln!(
                    "  [{k:>3}/{total}] {} done in {:.1?}",
                    label(cell),
                    t.elapsed()
                ),
                Err(e) => eprintln!("  [{k:>3}/{total}] {} ** FAILED: {e}", label(cell)),
            }
            r
        });
        self.report_wall_clock(total, t0);
        results
    }

    fn report_wall_clock(&self, total: usize, t0: Instant) {
        eprintln!(
            "  sweep: {total} run(s) on {} worker(s) in {:.1?}",
            self.jobs,
            t0.elapsed()
        );
    }
}

/// Expands per-benchmark setups into the server's cell list: every
/// variant cell of one benchmark holds an `Arc` clone of the *same*
/// [`CellSetup`], so the workload data and decoded kernels are built once
/// per benchmark, not once per cell.
fn matrix_cells(setups: &[Arc<CellSetup>], variants: &[Variant]) -> Vec<(Arc<CellSetup>, Variant)> {
    setups
        .iter()
        .flat_map(|s| variants.iter().map(move |&v| (Arc::clone(s), v)))
        .collect()
}

/// Parses `--jobs N` / `--jobs=N` from the command line; defaults to the
/// machine's available parallelism when absent.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let parse = |v: &str| -> usize {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                eprintln!("--jobs expects a positive integer, got {v:?}");
                std::process::exit(2);
            })
    };
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--jobs=") {
            return parse(v);
        }
        if a == "--jobs" {
            if let Some(v) = args.get(i + 1) {
                return parse(v);
            }
            eprintln!("--jobs expects a value");
            std::process::exit(2);
        }
    }
    gpu_sim::sweep::default_jobs()
}

/// Results of running benchmarks × variants.
#[derive(Debug, Default)]
pub struct Matrix {
    reports: HashMap<(Benchmark, Variant), RunReport>,
    failures: Vec<(Benchmark, Variant, SimError)>,
}

impl Matrix {
    /// Runs `benchmarks × variants` at `scale` serially on the calling
    /// thread. Equivalent to `SweepRunner::new(1).run_matrix(...)`; the
    /// figure binaries use [`SweepRunner::from_args`] instead so `--jobs`
    /// applies.
    pub fn run(benchmarks: &[Benchmark], variants: &[Variant], scale: Scale) -> Self {
        SweepRunner::new(1).run_matrix(benchmarks, variants, scale)
    }

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

/// Tracing options shared by the figure binaries, parsed from the command
/// line:
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
/// [`TraceOpts::gpu_config`] gives every figure binary the wall-clock
/// knob for free.
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

/// Parses the common CLI convention of the figure binaries: `--test-scale`
/// switches to the fast Test inputs (useful for smoke runs).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Eval
    }
}

/// True when `--csv` was passed (figure binaries then also write
/// `out/figures/<name>.csv` for plotting).
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
        let server = runner.server();
        let variants = [Variant::Flat, Variant::Dtbl];
        let m1 = runner.run_matrix_on(
            &server,
            &[Benchmark::BfsUsaRoad],
            &variants,
            Scale::Test,
            GpuConfig::test_small(),
        );
        assert!(m1.failures().is_empty());
        assert_eq!(server.cache_misses(), 2);
        assert_eq!(server.cache_hits(), 0);

        let m2 = runner.run_matrix_on(
            &server,
            &[Benchmark::BfsUsaRoad],
            &variants,
            Scale::Test,
            GpuConfig::test_small(),
        );
        assert!(m2.failures().is_empty());
        assert_eq!(server.cache_misses(), 2, "repeat batch never simulates");
        assert_eq!(server.cache_hits(), 2);
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
        let m = Matrix::run(&[Benchmark::BfsUsaRoad], &variants, Scale::Test);
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
}
