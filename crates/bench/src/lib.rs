//! Experiment harness for the DTBL reproduction.
//!
//! [`FIGURES`] defines every table, figure and ablation of the paper's
//! evaluation once (see the per-experiment index in `DESIGN.md`): the
//! cells it reads, how it prints, and the [`Claim`]s it makes against the
//! paper. [`run_figures`] runs the cells of any selection in one sweep;
//! `all_figures [name]…` is the one paper binary that renders them, and
//! the root `tests/cross_crate.rs` runs the same sweep at Test scale and
//! asserts every claim. `trace_inspect` reads the traces a sweep writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dtbl_core::overhead::{launch_timing, sram_cost, OverheadParams};
use gpu_sim::sweep::CellOutcome;
use gpu_sim::{BatchServer, GpuConfig, LatencyTable, SimError, Stats, WarpSchedPolicy};
use gpu_trace::TraceData;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Benchmark, CellSetup, RunReport, Scale, Variant};
use Sense::{Above, Below, Near, Ordered};
use Variant::{Cdp, CdpIdeal, Dtbl, DtblIdeal, DtblNoCoalesce, Flat};

/// One sweep cell: a variant of a benchmark's shared, immutable setup.
type Cell = (Arc<CellSetup>, Variant);

/// A named machine configuration: how the sweep's base config (which
/// carries its trace and budget settings) becomes the config a figure's
/// cells run under, at a scale.
pub type Config = (&'static str, fn(GpuConfig, Scale) -> GpuConfig);

/// The base config unchanged: the stock K20c model of Figures 6–11.
pub const STOCK: Config = ("k20c", |cfg, _| cfg);

/// One cell of a [`Matrix`]: a benchmark under a named config and variant.
pub type Key = (Benchmark, &'static str, Variant);

/// A cell before its setup exists.
type Spec = (Benchmark, Config, Variant);

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
/// cells.
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

    /// Runs `cells` on the warm pool and returns their results in input
    /// order. A cell that fails — output diverging from the host
    /// reference, a hang, an exhausted hardware structure, a crash — comes
    /// back as its typed error and the sweep continues, so one broken
    /// cell never costs the rest of an Eval-scale run. Per-run completion
    /// lines stream to stderr as workers finish; cached cells print none.
    fn run_cells(&self, cells: Vec<Cell>) -> Vec<Result<RunReport, SimError>> {
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
            .map(|((s, v), outcome)| match outcome {
                CellOutcome::Ok(rep) => Ok(rep),
                CellOutcome::Err(e) => Err(e),
                CellOutcome::Crashed(rep) => {
                    eprintln!("  {:14} {:7} ** {rep}", s.benchmark().name(), v.label());
                    Err(SimError::CellCrashed {
                        attempts: rep.attempts,
                        payload: rep.payload,
                    })
                }
            })
            .collect()
    }
}

/// Expands specs into cells: every cell of one benchmark and config holds
/// an `Arc` of the same setup, derived by [`CellSetup::with_config`] from
/// the one built setup of that benchmark, so workload data and kernels
/// are built once per benchmark, not per cell or per config.
fn share_setups(
    specs: &[Spec],
    setups: &HashMap<Benchmark, CellSetup>,
    cfg: &GpuConfig,
    scale: Scale,
) -> Vec<Cell> {
    let mut shared: HashMap<(Benchmark, &str), Arc<CellSetup>> = HashMap::new();
    let mut cell = |&(b, (name, at), v): &Spec| {
        let setup = || Arc::new(setups[&b].with_config(at(cfg.clone(), scale)));
        (Arc::clone(shared.entry((b, name)).or_insert_with(setup)), v)
    };
    specs.iter().map(&mut cell).collect()
}

/// Runs every cell the selected figures read — the union of their
/// benchmarks × configs × variants, each cell once — with `cfg` the base
/// config every named [`Config`] derives from. Each benchmark's setup is
/// built once over the worker pool (data and kernels) and shared by all
/// of its cells (`share_setups`); a benchmark whose setup
/// fails records a failure for each of its cells. Cells run config by
/// config (first use), then by benchmark ([`Benchmark::ALL`] order), then
/// by variant (first use); a trace written from the matrix keeps that
/// order.
pub fn run_figures(
    runner: &SweepRunner,
    figures: &[&Figure],
    scale: Scale,
    cfg: GpuConfig,
) -> Matrix {
    let (mut specs, mut configs, mut variants) = (Vec::<Spec>::new(), Vec::new(), Vec::new());
    for (bs, cs, vs) in figures.iter().map(|f| f.cells) {
        for &(name, at) in cs {
            for (&b, &v) in bs.iter().flat_map(|b| vs.iter().map(move |v| (b, v))) {
                if !specs.iter().any(|s| (s.0, s.1 .0, s.2) == (b, name, v)) {
                    specs.push((b, (name, at), v));
                }
            }
        }
        configs.extend(cs.iter().map(|c| c.0));
        variants.extend(vs);
    }
    specs.sort_by_key(|&(b, c, v)| {
        let order = (first(&configs, c.0), first(&Benchmark::ALL, b));
        (order, first(&variants, v))
    });
    eprintln!(
        "Running {} cell(s) for {} figure(s) ({scale:?} scale)...",
        specs.len(),
        figures.len()
    );
    let named = |b: &Benchmark| specs.iter().any(|s| s.0 == *b);
    let benchmarks = Benchmark::ALL.into_iter().filter(named).collect();
    let built = gpu_sim::sweep::run_cells(benchmarks, runner.jobs(), |&b| {
        CellSetup::new(b, scale, cfg.clone())
    });
    let (mut m, mut setups) = (Matrix::default(), HashMap::new());
    for (b, r) in built {
        match r {
            Ok(setup) => {
                setups.insert(b, setup);
            }
            Err(e) => m.extend(
                (specs.iter().filter(|s| s.0 == b)).map(|&(b, c, v)| ((b, c.0, v), Err(e.clone()))),
            ),
        }
    }
    specs.retain(|s| setups.contains_key(&s.0));
    let runs = runner.run_cells(share_setups(&specs, &setups, &cfg, scale));
    let keys = specs.iter().map(|&(b, c, v)| (b, c.0, v));
    m.extend(keys.zip(runs));
    m
}

/// Where `x` first appears in `list`.
fn first<T: PartialEq>(list: &[T], x: T) -> Option<usize> {
    list.iter().position(|y| *y == x)
}

/// Results of a sweep, keyed by (benchmark, config name, variant).
#[derive(Debug, Default)]
pub struct Matrix {
    /// Successful runs, in run order.
    reports: Vec<(Key, RunReport)>,
    failures: Vec<(Key, SimError)>,
}

/// Folds `(key, result)` pairs into reports and failures.
impl Extend<(Key, Result<RunReport, SimError>)> for Matrix {
    fn extend<I: IntoIterator<Item = (Key, Result<RunReport, SimError>)>>(&mut self, runs: I) {
        for (k, r) in runs {
            match r {
                Ok(rep) => self.reports.push((k, rep)),
                Err(e) => self.failures.push((k, e)),
            }
        }
    }
}

impl Matrix {
    /// The report of one run, if it succeeded.
    pub fn find(&self, b: Benchmark, config: &str, v: Variant) -> Option<&RunReport> {
        let hit = |((kb, kc, kv), _): &&(Key, RunReport)| (*kb, *kc, *kv) == (b, config, v);
        self.reports.iter().find(hit).map(|(_, r)| r)
    }

    /// A single run's report.
    ///
    /// # Panics
    ///
    /// Panics if the cell did not run successfully.
    pub fn at(&self, b: Benchmark, config: &str, v: Variant) -> &RunReport {
        let missing = || panic!("no report for {b} [{v}] @ {config}");
        self.find(b, config, v).unwrap_or_else(missing)
    }

    /// Every run that failed, with its typed error.
    pub fn failures(&self) -> &[(Key, SimError)] {
        &self.failures
    }

    /// Detaches the recorded event traces in run order (the order the
    /// sweep was handed its cells, independent of worker interleaving),
    /// labelling each cell `<benchmark>/<variant>`, plus `@<config>` off
    /// the [`STOCK`] config. Failed and untraced cells are skipped.
    pub fn take_traces(&mut self) -> Vec<(String, TraceData)> {
        let mut out = Vec::new();
        for ((b, c, v), r) in &mut self.reports {
            let at = if *c == STOCK.0 {
                String::new()
            } else {
                format!("@{c}")
            };
            if let Some(t) = r.trace.take() {
                out.push((format!("{}/{}{at}", b.name(), v.label()), t));
            }
        }
        out
    }

    /// Prints a summary of failed runs to stderr (no-op when everything
    /// passed).
    pub fn report_failures(&self) {
        if !self.failures.is_empty() {
            eprintln!("\n{} run(s) FAILED and were excluded:", self.failures.len());
        }
        for ((b, c, v), e) in &self.failures {
            eprintln!("  {} [{}] @ {c}: {e}", b.name(), v.label());
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

/// Geometric mean (used for the headline speedup numbers); NaN for no
/// values, so a claim over nothing never holds.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.into_iter().map(|v| v.max(1e-12).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Arithmetic mean; NaN for no values.
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// How a [`Claim`]'s measured values must fall.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sense {
    /// Every value strictly above this.
    Above(f64),
    /// Every value strictly below this.
    Below(f64),
    /// Every value within the tolerance (second) of the target (first);
    /// a zero tolerance asks for the exact value.
    Near(f64, f64),
    /// The values strictly ascending.
    Ordered,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Above(x) => write!(f, "> {}", num(x)),
            Below(x) => write!(f, "< {}", num(x)),
            Near(x, 0.0) => write!(f, "= {}", num(x)),
            Near(x, t) => write!(f, "{} ± {}", num(x), num(t)),
            Ordered => f.write_str("ascending"),
        }
    }
}

/// One comparison with the paper, as data: `all_figures` prints it and
/// the Test-scale sweep asserts it.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// What is compared, with its unit.
    pub name: &'static str,
    /// What the paper reports, aligned with `measured`: one value for every
    /// measured value, or one per measured value with NaN where the paper
    /// gives none. Empty when the paper gives no figure.
    pub paper: Vec<f64>,
    /// What this reproduction measured: one value, one per benchmark or
    /// variant covered, or the series an [`Ordered`] claim orders.
    pub measured: Vec<f64>,
    /// How the measured values must fall.
    pub sense: Sense,
}

impl Claim {
    /// Whether the measured values fall as the sense says. A claim with
    /// nothing measured (its rows failed), an ordering of fewer than two
    /// values, or a NaN never holds.
    pub fn holds(&self) -> bool {
        let m = &self.measured;
        let all = |ok: &dyn Fn(f64) -> bool| !m.is_empty() && m.iter().all(|&v| ok(v));
        match self.sense {
            Above(x) => all(&|v| v > x),
            Below(x) => all(&|v| v < x),
            Near(x, t) => all(&|v| (v - x).abs() <= t),
            Ordered => m.len() > 1 && m.windows(2).all(|w| w[0] < w[1]),
        }
    }

    /// `measured / paper` at each measured position; NaN where either side
    /// is not positive or the paper gives no value there.
    fn ratios(&self) -> Vec<f64> {
        let paper = |i| self.paper.get(if self.paper.len() == 1 { 0 } else { i });
        let ratio = |(i, &m): (usize, &f64)| match paper(i) {
            Some(&p) if m > 0.0 && p > 0.0 => m / p,
            _ => f64::NAN,
        };
        self.measured.iter().enumerate().map(ratio).collect()
    }

    /// The claim's distance to the paper: the mean |log2(measured /
    /// paper)| over the positions with a [ratio](Self::ratios), 0 on the
    /// paper; `None` when no position has one.
    fn distance(&self) -> Option<f64> {
        let ratios = self.ratios().into_iter().filter(|r| !r.is_nan());
        let logs: Vec<f64> = ratios.map(|r| r.log2().abs()).collect();
        (!logs.is_empty()).then(|| mean(logs))
    }
}

/// The fidelity factor of claim distances: 2^(mean distance), 1 on the
/// paper; NaN for none.
fn fidelity(distances: impl IntoIterator<Item = f64>) -> f64 {
    mean(distances).exp2()
}

/// A number as a claim row shows it: integers whole, others to three
/// decimals.
fn num(v: f64) -> String {
    let whole = v.fract() == 0.0 && v.abs() < 1e15;
    format!("{:.*}", if whole { 0 } else { 3 }, v)
}

/// `values` as a table cell, `—` standing for NaN and for none.
fn cell(values: &[f64], fmt: fn(f64) -> String) -> String {
    let show = |&v: &f64| if v.is_nan() { "—".into() } else { fmt(v) };
    let joined = values.iter().map(show).reduce(|a, b| a + ", " + &b);
    joined.unwrap_or_else(|| "—".into())
}

/// A number to three decimals.
const FIXED3: fn(f64) -> String = |v| format!("{v:.3}");

/// One fidelity row: how many claims, how many of them have a distance,
/// and the [`fidelity`] factor of those distances.
fn factor_row(label: &str, claims: usize, d: &[f64]) -> String {
    let factor = cell(&[fidelity(d.iter().copied())], FIXED3);
    format!("| {label} | {claims} | {} | {factor} |\n", d.len())
}

/// The claims of `figures` over `m` and their fidelity, as the Markdown
/// `all_figures` prints after its tables and EXPERIMENTS.md embeds: one
/// row per claim, then per figure the factor of its claims' distances and
/// one overall factor. The overall factor leaves out the figures that read
/// no cell (Tables 2 and 3, §4.3): their exact rows are model constants.
pub fn claims_markdown(m: &Matrix, figures: &[&Figure]) -> String {
    let (mut rows, mut factors, mut held, mut total) = (String::new(), String::new(), 0, 0);
    let (mut overall, mut overall_d) = (0, Vec::new());
    for f in figures {
        let claims = (f.summary)(m, &f.rows(m));
        let d: Vec<f64> = claims.iter().filter_map(Claim::distance).collect();
        for c in &claims {
            let verdict = if c.holds() { "held" } else { "NOT HELD" };
            let values = [
                cell(&c.measured, num),
                c.sense.to_string(),
                cell(&c.paper, num),
                cell(&c.ratios(), FIXED3),
                cell(c.distance().as_slice(), FIXED3),
            ];
            let values = values.join(" | ");
            rows += &format!("| {verdict} | {} | {} | {values} |\n", f.name, c.name);
            held += usize::from(c.holds());
        }
        factors += &factor_row(f.name, claims.len(), &d);
        total += claims.len();
        if !f.cells.0.is_empty() {
            overall += claims.len();
            overall_d.extend(d);
        }
    }
    factors += &factor_row("overall", overall, &overall_d);
    format!(
        "Claims: {held} of {total} held.\n\n\
         | verdict | figure | claim | measured | want | paper | measured / paper | d |\n\
         |---|---|---|---|---|---|---|---|\n{rows}\n\
         Fidelity: d = mean |log2(measured / paper)| where both are positive; \
         factor = 2^(mean d), 1.000 on the paper; overall leaves out the exact tables.\n\n\
         | figure | claims | with a distance | factor |\n\
         |---|---|---|---|\n{factors}"
    )
}

/// A claim over any number of measured values.
fn claim(name: &'static str, p: &[f64], m: impl IntoIterator<Item = f64>, sense: Sense) -> Claim {
    let (paper, measured) = (p.to_vec(), m.into_iter().collect());
    Claim {
        name,
        paper,
        measured,
        sense,
    }
}

/// An exact claim: a table entry the model must reproduce verbatim.
fn exact(name: &'static str, paper: u64, model: impl TryInto<u64>) -> Claim {
    let m = model.try_into().map_or(f64::NAN, |m| m as f64);
    claim(name, &[paper as f64], [m], Near(paper as f64, 0.0))
}

/// A figure's cells: benchmarks (in row order) × named configs ×
/// variants. A table with no cells leaves all three empty.
pub type Cells = (&'static [Benchmark], &'static [Config], &'static [Variant]);

/// One experiment of the paper's evaluation: the cells it reads, how it
/// prints and what it claims.
pub struct Figure {
    /// Selector on the `all_figures` command line (`fig06`, `table2`, …).
    pub name: &'static str,
    /// The cells the figure reads.
    pub cells: Cells,
    /// How the figure prints.
    pub render: Render,
    /// The figure's comparisons with the paper, over its rendered rows.
    pub summary: fn(&Matrix, &[Benchmark]) -> Vec<Claim>,
}

/// How a [`Figure`] prints.
pub enum Render {
    /// A benchmark × series table through [`print_figure`]; with `--csv`
    /// also written to `out/figures/<name>_<csv>.csv` (gitignored).
    Table {
        /// Table heading.
        title: &'static str,
        /// Table columns.
        series: &'static [&'static str],
        /// CSV file suffix and columns (the table's measured columns,
        /// without derived ones).
        csv: (&'static str, &'static [&'static str]),
        /// The entry for one benchmark and one column of either list.
        value: fn(&Matrix, Benchmark, &str) -> f64,
        /// Number format of a table entry.
        fmt: fn(f64) -> String,
    },
    /// Any other layout: the figure prints itself from its rendered rows.
    Text(fn(&Matrix, &[Benchmark])),
}

impl Figure {
    /// The benchmarks all of whose cells in this figure completed, in row
    /// order: the rows the figure renders and claims over.
    pub fn rows(&self, m: &Matrix) -> Vec<Benchmark> {
        let (bs, cs, vs) = self.cells;
        let ok = |b| {
            cs.iter()
                .all(|c| vs.iter().all(|&v| m.find(b, c.0, v).is_some()))
        };
        bs.iter().copied().filter(|&b| ok(b)).collect()
    }

    /// Whether the command-line selector `name` picks this figure: its
    /// name, or the group its name starts (`ablation` selects every
    /// `ablation_*` figure).
    pub fn selected_by(&self, name: &str) -> bool {
        let group = self.name.strip_prefix(name);
        self.name == name || group.is_some_and(|r| r.starts_with('_'))
    }

    /// Prints the figure over `rows`; a table also goes to its CSV file
    /// when `csv` is set.
    pub fn render(&self, m: &Matrix, rows: &[Benchmark], csv: bool) -> std::io::Result<()> {
        match self.render {
            Render::Table {
                title,
                csv: (file, csv_series),
                series,
                value,
                fmt,
            } => {
                print_figure(title, rows, series, |b, s| value(m, b, s), fmt);
                if csv {
                    let name = format!("{}_{file}", self.name);
                    let out = Path::new("out/figures");
                    write_csv(out, &name, rows, csv_series, |b, s| value(m, b, s))?;
                }
            }
            Render::Text(print) => print(m, rows),
        }
        Ok(())
    }
}

const NONE: Cells = (&[], &[], &[]);
const ALL: &[Benchmark] = &Benchmark::ALL;
const FLAT_CDP_DTBL: &[Variant] = &[Flat, Cdp, Dtbl];
const LAUNCHING: &[Variant] = &[CdpIdeal, DtblIdeal, Cdp, Dtbl];
const WITH_NC: &[Variant] = &[Flat, Cdp, Dtbl, DtblNoCoalesce];
const THREE: &[&str] = &["Flat", "CDP", "DTBL"];
const FOUR: &[&str] = &["CDPI", "DTBLI", "CDP", "DTBL"];

/// The launch-bearing subset the coalescing ablation runs.
const SUBSET: &[Benchmark] = &[
    Benchmark::Amr,
    Benchmark::Bht,
    Benchmark::BfsCitation,
    Benchmark::RegxString,
    Benchmark::PreMovielens,
];

/// Figure 12's AGT sizes: the paper's 512/1024/2048 plus 32 and 128. The
/// paper sweeps them against pending-group populations in the tens of
/// thousands; this reproduction's inputs are 100-1000x smaller, so the
/// same mechanism (hash-slot conflicts -> descriptor spills ->
/// global-memory walks) is exercised with a proportionally scaled sweep
/// alongside the paper's sizes.
const AGT_SIZES: &[Config] = &[
    ("32", |c, s| agt_config(c, s, 32)),
    ("128", |c, s| agt_config(c, s, 128)),
    ("512", |c, s| agt_config(c, s, 512)),
    ("1024", |c, s| agt_config(c, s, 1024)),
    ("2048", |c, s| agt_config(c, s, 2048)),
];

/// Figure 12's columns: the names of [`AGT_SIZES`].
const SIZES: &[&str] = &["32", "128", "512", "1024", "2048"];

fn agt_config(mut cfg: GpuConfig, scale: Scale, entries: usize) -> GpuConfig {
    // At Test scale shrink the AGT proportionally so the sweep still
    // exercises overflow.
    cfg.agt_entries = if scale == Scale::Test {
        entries / 16
    } else {
        entries
    };
    // Detailed walk timing: a spilled descriptor costs an un-prefetched
    // global fetch before its group can schedule.
    cfg.pipeline.agt_overflow_load = 150;
    cfg
}

/// The stock machine's GTO warp scheduler, then round-robin.
const SCHEDULERS: &[Config] = &[STOCK, ("RoundRobin", |c, _| round_robin(c))];

fn round_robin(cfg: GpuConfig) -> GpuConfig {
    let warp_sched = WarpSchedPolicy::RoundRobin;
    GpuConfig { warp_sched, ..cfg }
}

/// 0 (the stock machine), 1 and 2 SMXs reserved for dynamic work (§5.2B),
/// in index order.
const RESERVED: &[Config] = &[
    STOCK,
    ("reserved1", |c, _| reserve(c, 1)),
    ("reserved2", |c, _| reserve(c, 2)),
];

fn reserve(cfg: GpuConfig, dyn_reserved_smx: usize) -> GpuConfig {
    GpuConfig {
        dyn_reserved_smx,
        ..cfg
    }
}

/// A [`STOCK`]-config cell's stats.
fn stats(m: &Matrix, b: Benchmark, v: Variant) -> &Stats {
    &m.at(b, STOCK.0, v).stats
}

/// The variant a table column names.
fn column(series: &str) -> Variant {
    Variant::from_label(series).expect("a variant column")
}

fn cycles(m: &Matrix, b: Benchmark, config: &str, v: Variant) -> f64 {
    m.at(b, config, v).stats.cycles.max(1) as f64
}

fn speedup(m: &Matrix, b: Benchmark, v: Variant) -> f64 {
    stats(m, b, Flat).cycles as f64 / cycles(m, b, STOCK.0, v)
}

/// The average waiting time of `b`'s DTBL run under `config`.
fn dtbl_wait(m: &Matrix, b: Benchmark, config: &str) -> Option<f64> {
    m.at(b, config, Dtbl).stats.avg_waiting_time_opt()
}

/// Peak pending-launch footprint of CDP and DTBL, in bytes.
fn footprints(m: &Matrix, b: Benchmark) -> (f64, f64) {
    let peak = |v| stats(m, b, v).peak_pending_bytes as f64;
    (peak(Cdp), peak(Dtbl))
}

/// `f` of each `named` benchmark among the rendered `rows`: a named
/// benchmark whose row failed contributes nothing, so its claim fails.
fn each(rows: &[Benchmark], named: &[Benchmark], f: impl Fn(Benchmark) -> f64) -> Vec<f64> {
    named
        .iter()
        .filter(|b| rows.contains(b))
        .map(|&b| f(b))
        .collect()
}

/// Every experiment of the paper's evaluation, each defined once:
/// `all_figures` runs the union of the selected entries' cells in one
/// sweep and renders every table, CSV file and claim from this list.
pub static FIGURES: [Figure; 13] = [
    Figure {
        name: "table2",
        cells: NONE,
        render: Render::Text(|_, _| print!("{}", table2().text)),
        summary: |_, _| table2().claims,
    },
    Figure {
        name: "table3",
        cells: NONE,
        render: Render::Text(|_, _| print!("{}", table3().text)),
        summary: |_, _| table3().claims,
    },
    Figure {
        name: "overhead",
        cells: NONE,
        render: Render::Text(|_, _| print!("{}", overhead().text)),
        summary: |_, _| overhead().claims,
    },
    Figure {
        name: "fig06",
        cells: (ALL, &[STOCK], FLAT_CDP_DTBL),
        render: Render::Table {
            title: "Figure 6: Warp Activity Percentage",
            series: THREE,
            csv: ("warp_activity", THREE),
            value: |m, b, s| stats(m, b, column(s)).warp_activity_pct(),
            fmt: |v| format!("{v:.1}%"),
        },
        summary: fig06,
    },
    Figure {
        name: "fig07",
        cells: (ALL, &[STOCK], FLAT_CDP_DTBL),
        render: Render::Table {
            title: "Figure 7: DRAM Efficiency",
            series: THREE,
            csv: ("dram_efficiency", THREE),
            value: |m, b, s| stats(m, b, column(s)).dram_efficiency(),
            fmt: |v| format!("{v:.3}"),
        },
        summary: fig07,
    },
    Figure {
        name: "fig08",
        cells: (ALL, &[STOCK], LAUNCHING),
        render: Render::Table {
            title: "Figure 8: SMX Occupancy",
            series: FOUR,
            csv: ("occupancy", FOUR),
            value: |m, b, s| stats(m, b, column(s)).smx_occupancy_pct(),
            fmt: |v| format!("{v:.1}%"),
        },
        summary: fig08,
    },
    Figure {
        name: "fig09",
        cells: (ALL, &[STOCK], LAUNCHING),
        render: Render::Table {
            title: "Figure 9: Average Waiting Time (kcycles)",
            series: FOUR,
            csv: ("waiting_kcycles", FOUR),
            // `None` (no started dynamic launch) renders as 0.0, same as
            // the paper's empty bars for launch-free benchmarks.
            value: |m, b, s| stats(m, b, column(s)).avg_waiting_time_opt().unwrap_or(0.0) / 1000.0,
            fmt: |v| format!("{v:.1}"),
        },
        summary: fig09,
    },
    Figure {
        name: "fig10",
        cells: (ALL, &[STOCK], &[Cdp, Dtbl]),
        render: Render::Table {
            title: "Figure 10: Peak Pending-Launch Footprint (KB) + DTBL Reduction",
            series: &["CDP(KB)", "DTBL(KB)", "red(%)"],
            csv: ("footprint_kb", &["CDP", "DTBL"]),
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
        },
        summary: fig10,
    },
    Figure {
        name: "fig11",
        cells: (ALL, &[STOCK], &Variant::MAIN),
        render: Render::Table {
            title: "Figure 11: Speedup over Flat Implementation",
            series: FOUR,
            csv: ("speedup", FOUR),
            value: |m, b, s| speedup(m, b, column(s)),
            fmt: |v| format!("{v:.2}x"),
        },
        summary: fig11,
    },
    Figure {
        name: "fig12",
        cells: (ALL, AGT_SIZES, &[Dtbl]),
        render: Render::Table {
            title: "Figure 12: Performance Sensitivity to AGT Size (speedup normalized to 1024 entries)",
            series: SIZES,
            csv: ("agt_speedup", SIZES),
            value: |m, b, s| cycles(m, b, "1024", Dtbl) / cycles(m, b, s, Dtbl),
            fmt: |v| format!("{v:.3}"),
        },
        summary: fig12,
    },
    Figure {
        name: "ablation_coalescing",
        cells: (SUBSET, &[STOCK], WITH_NC),
        render: Render::Text(coalescing_table),
        summary: coalescing,
    },
    Figure {
        name: "ablation_scheduler",
        cells: (&[Benchmark::BfsCitation], SCHEDULERS, FLAT_CDP_DTBL),
        render: Render::Text(scheduler_table),
        summary: scheduler,
    },
    Figure {
        name: "ablation_spatial",
        cells: (&[Benchmark::ClrGraph500], RESERVED, &[Dtbl]),
        render: Render::Text(spatial_table),
        summary: spatial,
    },
];

/// Figure 6's claims: dynamic launching raises warp activity, and CDP and
/// DTBL launch the same dynamic work (§5.2A).
fn fig06(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let act = |b, v| stats(m, b, v).warp_activity_pct();
    let gain = |b| act(b, Dtbl) - act(b, Flat);
    let gap = |b| act(b, Dtbl) - act(b, Cdp);
    let avg_gain = mean(bs.iter().map(|&b| gain(b)));
    let avg_gap = [mean(bs.iter().map(|&b| gap(b)))];
    let widest = bs.iter().map(|&b| gap(b).abs()).fold(f64::NAN, f64::max);
    // Known deviation 2: this flat AMR is level-synchronous, not the
    // paper's serialized recursion, and its 16-thread groups run half-empty
    // warps, so its gain is a fraction of the paper's (−3.0 pt at Test
    // scale, +5.6 at Eval).
    let amr = each(bs, &[Benchmark::Amr], gain);
    vec![
        claim("DTBL − Flat activity (pt)", &[10.7], [avg_gain], Above(0.0)),
        claim("DTBL − CDP activity (pt)", &[0.0], avg_gap, Near(0.0, 0.5)),
        claim("widest DTBL − CDP gap (pt)", &[0.0], [widest], Below(1.0)),
        claim("dev 2: amr DTBL − Flat (pt)", &[45.3], amr, Below(15.0)),
    ]
}

/// Figure 7's claim: DTBL's coalesced children access DRAM more
/// efficiently than Flat's serialized loops.
fn fig07(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let eff = |b, v| stats(m, b, v).dram_efficiency();
    let rel = geomean(bs.iter().map(|&b| eff(b, Dtbl) / eff(b, Flat).max(1e-9)));
    vec![claim("DTBL / Flat efficiency", &[1.27], [rel], Above(1.0))]
}

/// Figure 8's claims: DTBL out-occupies CDP, ideal and measured.
fn fig08(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let avg = |v: Variant| mean(bs.iter().map(|&b| stats(m, b, v).smx_occupancy_pct()));
    let ideal = avg(DtblIdeal) - avg(CdpIdeal);
    let real = avg(Dtbl) - avg(Cdp);
    vec![
        claim("DTBLI − CDPI, avg (pt)", &[17.9], [ideal], Above(0.0)),
        claim("DTBL − CDP, avg (pt)", &[], [real], Above(0.0)),
    ]
}

/// Figure 10's claims: DTBL's pending launches take less memory.
fn fig10(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let fp: Vec<(f64, f64)> = bs.iter().map(|&b| footprints(m, b)).collect();
    let cut = 100.0 * mean(fp.iter().filter(|f| f.0 > 0.0).map(|(c, d)| 1.0 - d / c));
    let worse = fp.iter().filter(|(cdp, dtbl)| dtbl > cdp).count() as f64;
    vec![
        claim("footprint cut, avg (%)", &[25.6], [cut], Above(0.0)),
        claim("benchmarks DTBL above CDP", &[0.0], [worse], Near(0.0, 0.0)),
    ]
}

/// Figure 12's claim: the average speedup rises with the AGT size.
fn fig12(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let speedup = |b, c| cycles(m, b, "1024", Dtbl) / cycles(m, b, c, Dtbl);
    let by_size = AGT_SIZES
        .iter()
        .map(|c| mean(bs.iter().map(|&b| speedup(b, c.0))));
    let paper = [f64::NAN, f64::NAN, 0.76, 1.0, 1.20];
    vec![claim("avg speedup by AGT size", &paper, by_size, Ordered)]
}

/// The coalescing ablation's claim: coalescing adds speed on top of the
/// cheap launch path.
fn coalescing(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let c = |b, v| cycles(m, b, STOCK.0, v);
    let gain = |b| c(b, DtblNoCoalesce) / c(b, Dtbl);
    let gain = geomean(bs.iter().map(|&b| gain(b)));
    vec![claim("DTBL-NC / DTBL cycles", &[1.31], [gain], Above(1.0))]
}

/// The scheduler ablation's claims: DTBL's win over CDP survives a warp
/// scheduler swap (§5.1).
fn scheduler(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let ratio = |b, c| cycles(m, b, c, Cdp) / cycles(m, b, c, Dtbl);
    let over = |c| each(bs, bs, |b| ratio(b, c));
    let (gto, rr) = (over(STOCK.0), over("RoundRobin"));
    let ratio = rr.iter().zip(&gto).map(|(r, g)| r / g);
    vec![
        claim("DTBL over CDP, RR", &[1.40], rr.clone(), Above(1.0)),
        claim("DTBL over CDP, RR / GTO", &[1.0], ratio, Near(1.0, 0.05)),
    ]
}

/// The spatial-sharing ablation's claim: reserving SMXs for dynamic work
/// moves the wait of pending groups, so the reservation is honoured. The
/// paper proposes the extension (§5.2B) without measuring it, and here
/// the wait moves both ways (longer at Test scale, within 4% at Eval), so
/// the claim names no direction: |reserved / stock wait − 1| is above 0.
fn spatial(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let wait = |b, c: &Config| dtbl_wait(m, b, c.0).unwrap_or(f64::NAN);
    let off = |b, c| (wait(b, c) / wait(b, &RESERVED[0]) - 1.0).abs();
    let off = bs
        .iter()
        .flat_map(|&b| RESERVED[1..].iter().map(move |c| off(b, c)));
    vec![claim("reserved SMXs move the wait", &[], off, Above(0.0))]
}

/// Figure 9's claims: aggregated groups wait less than device kernels.
/// Reductions are over launch-bearing benchmarks only; a pair where
/// either side recorded no waiting time drops out of the geomean
/// instead of polluting it with a fake zero.
fn fig09(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let wait = |b, v| stats(m, b, v).avg_waiting_time_opt();
    let red = |from: Variant, to: Variant| {
        let launching = bs.iter().filter(|&&b| stats(m, b, Dtbl).dyn_launches() > 0);
        let ratio = |&b| Some(wait(b, to)?.max(1.0) / wait(b, from)?.max(1.0));
        [100.0 * (1.0 - geomean(launching.filter_map(ratio)))]
    };
    let (ideal, real) = (red(CdpIdeal, DtblIdeal), red(Cdp, Dtbl));
    vec![
        claim("DTBLI vs CDPI wait cut (%)", &[18.8], ideal, Above(0.0)),
        claim("DTBL vs CDP wait cut (%)", &[24.1], real, Above(0.0)),
    ]
}

/// The evaluation's headline: Figure 11's ordering and geomeans, the
/// low-degree inputs, and the DTBL diagnostics the paper quotes in the
/// text. Four claims pin known deviations (EXPERIMENTS.md) by direction,
/// so one that closes fails loudly.
fn fig11(m: &Matrix, bs: &[Benchmark]) -> Vec<Claim> {
    let g = |v| geomean(bs.iter().map(|&b| speedup(m, b, v)));
    let dtbl = |b| stats(m, b, Dtbl);
    let launching = || bs.iter().map(|&b| dtbl(b)).filter(|s| s.dyn_launches() > 0);
    let order = [g(Cdp), 1.0, g(Dtbl), g(CdpIdeal), g(DtblIdeal)];
    let over = |b| speedup(m, b, Dtbl) / speedup(m, b, Cdp);
    let over_cdp = geomean(bs.iter().map(|&b| over(b)));
    let low = [Benchmark::BfsUsaRoad, Benchmark::JoinUniform];
    let low = low.iter().filter(|b| bs.contains(b));
    let low = low.flat_map(|&b| LAUNCHING.iter().map(move |&v| speedup(m, b, v)));
    let threads = [mean(launching().map(Stats::avg_dyn_launch_threads))];
    // Known deviations 1, 3, 4 and 5: small inputs amplify every gain;
    // regx_string launches less per unit of work than the paper's trace;
    // one-shot launch bursts fall back before the first kernel lands;
    // the synthetic flight graph concentrates work in its hubs.
    let matched = 100.0 * mean(launching().map(Stats::match_rate));
    let one = |b, v| each(bs, &[b], |b| speedup(m, b, v));
    let regx = one(Benchmark::RegxString, Cdp);
    let flight = one(Benchmark::SsspFlight, Dtbl);
    let paper = [0.86, 1.0, 1.21, 1.43, 1.63];
    vec![
        claim("CDP < Flat < DTBL < CDPI < DTBLI", &paper, order, Ordered),
        claim("DTBL over CDP, geomean", &[1.40], [over_cdp], Above(1.0)),
        claim("bfs_usa_road, join_uniform", &[1.0], low, Near(1.0, 0.15)),
        claim("threads per dynamic launch", &[40.0], threads, Below(128.0)),
        claim("dev 1: DTBL geomean", &[1.21], [order[2]], Above(1.21)),
        claim("dev 3: regx_string CDP", &[0.95], regx, Above(1.0)),
        claim("dev 4: match rate (%)", &[98.0], [matched], Below(98.0)),
        claim("dev 5: sssp_flight DTBL", &[1.0], flight, Above(2.0)),
    ]
}

/// A table with no cells, read once from the model's constants: the text
/// it prints and an exact claim for each value of it the paper states.
struct Sheet {
    text: String,
    width: usize,
    claims: Vec<Claim>,
}

impl Sheet {
    /// An empty sheet under `title`, padding row labels to `width`.
    fn new(title: &str, width: usize) -> Self {
        let rule = "-".repeat(title.chars().count() + 1);
        let (text, claims) = (format!("\n{title}\n{rule}\n"), Vec::new());
        Sheet {
            text,
            width,
            claims,
        }
    }

    /// Appends a `label value` row that makes `claims`.
    fn row(
        &mut self,
        label: &str,
        value: impl fmt::Display,
        claims: impl IntoIterator<Item = Claim>,
    ) {
        let width = self.width;
        self.text += &format!("{label:<width$} {value}\n");
        self.claims.extend(claims);
    }

    /// Appends a row printing `value`, claimed to be the paper's exactly.
    fn exact<T: TryInto<u64> + fmt::Display + Copy>(
        &mut self,
        label: &'static str,
        paper: u64,
        value: T,
    ) {
        self.row(label, value, [exact(label, paper, value)]);
    }
}

/// Table 2, from the simulator's actual defaults, so the documented
/// baseline can never drift from the code.
fn table2() -> Sheet {
    let c = GpuConfig::k20c();
    let mut t = Sheet::new("Table 2: simulator configuration (Tesla K20c baseline)", 42);
    t.exact("# of SMX", 13, c.num_smx);
    t.exact(
        "Max # of Resident Thread Blocks per SMX",
        16,
        c.max_tb_per_smx,
    );
    t.exact(
        "Max # of Resident Threads per SMX",
        2048,
        c.max_threads_per_smx,
    );
    t.exact("# of 32-bit Registers per SMX", 65536, c.regs_per_smx);
    let (l1, shared) = (c.mem.l1.size_bytes / 1024, c.shared_mem_per_smx / 1024);
    let sizes = [
        exact("L1 (KB)", 16, l1),
        exact("shared memory (KB)", 48, shared),
    ];
    t.row(
        "L1 Cache / Shared Mem Size per SMX",
        format!("{l1}KB / {shared}KB"),
        sizes,
    );
    t.exact("Max # of Concurrent Kernels", 32, c.kde_entries);
    t.row("Warp scheduler", format!("{:?}", c.warp_sched), []);
    t.row("Memory partitions", c.mem.num_partitions, []);
    let l2 = c.mem.l2_slice.size_bytes * c.mem.num_partitions as u32 / 1024;
    t.row("L2 size (total)", format!("{l2}KB"), []);
    t.exact("AGT entries (DTBL)", 1024, c.agt_entries);
    t
}

/// Table 3 (latency modeling for CDP and DTBL), from the simulator's
/// latency table.
fn table3() -> Sheet {
    let t = LatencyTable::k20c();
    let mut s = Sheet::new(
        "Table 3: latency modeling for CDP and DTBL (unit: cycles)",
        44,
    );
    s.exact(
        "cudaStreamCreateWithFlags (CDP only)",
        7165,
        t.stream_create,
    );
    let (b, a) = (t.get_param_buf_b, t.get_param_buf_a);
    let buf = [
        exact("parameter buffer b", 8023, b),
        exact("parameter buffer A", 129, a),
    ];
    s.row(
        "cudaGetParameterBuffer (CDP and DTBL)",
        format!("b: {b}, A: {a}"),
        buf,
    );
    let (b, a) = (t.launch_device_b, t.launch_device_a);
    let launch = [
        exact("device launch b", 12187, b),
        exact("device launch A", 1592, a),
    ];
    s.row(
        "cudaLaunchDevice (CDP only)",
        format!("b: {b}, A: {a}"),
        launch,
    );
    s.exact("Kernel dispatching", 283, t.kernel_dispatch);
    let agg = [exact("cudaLaunchAggGroup (DTBL only)", 33, t.agg_launch)];
    let agg_text = format!("{} (KDE search + AGT probe)", t.agg_launch);
    s.row("cudaLaunchAggGroup (DTBL only)", agg_text, agg);
    let full = t.launch_device(32);
    s.text += &format!("\nPer-warp model: latency(x) = b + A*x for x calling lanes.\nExample: cudaLaunchDevice with a full warp costs {full} cycles\n");
    s
}

/// The §4.3 hardware-overhead analysis: extension registers and the AGT
/// SRAM cost at several sizes, and the launch-path timing.
fn overhead() -> Sheet {
    let cfg = GpuConfig::k20c();
    let mut s = Sheet::new("Hardware overhead analysis (paper §4.3)", 0);
    for agt_entries in [512u32, 1024, 2048] {
        let c = sram_cost(&OverheadParams {
            kde_entries: cfg.kde_entries as u32,
            num_smx: cfg.num_smx as u32,
            tb_slots_per_smx: cfg.max_tb_per_smx as u32,
            agt_entries,
        });
        let (kde, fcfs, tbcr) = (c.kde_ext_bytes, c.fcfs_bytes, c.tbcr_bytes);
        let (regs, agt, total) = (c.extension_register_bytes(), c.agt_bytes, c.total_bytes());
        let paper = (agt_entries == 1024).then(|| {
            [
                exact("extension registers (B)", 1096, regs),
                exact("AGT at 1024 entries (B)", 20 * 1024, agt),
            ]
        });
        let costs = format!("extension regs {regs:>5} B (KDE {kde} + FCFS {fcfs} + TBCR {tbcr}), AGT {agt:>6} B, total {total:>6} B");
        s.row(
            &format!("AGT {agt_entries:>5} entries:"),
            costs,
            paper.into_iter().flatten(),
        );
    }
    let t = launch_timing(cfg.kde_entries as u32);
    let (search, probe) = (t.kde_search_cycles, t.agt_probe_cycles);
    let paper = [
        exact("KDE eligibility search (cycles)", 32, search),
        exact("AGT hash probe (cycles)", 1, probe),
    ];
    let timing = format!(
        "KDE eligibility search {search} cycles (pipelined, 1/entry), AGT hash probe {probe} cycle"
    );
    s.text.push('\n');
    s.row("Launch timing:", timing, paper);
    s
}

/// Ablation 1: coalescing off (`DTBL-NC`) launches every aggregated group
/// as a device kernel — the §4.3 "just add Kernel Distributor entries"
/// alternative, keeping DTBL's cheap launch command — so the gain column
/// is what coalescing adds on top of the shorter launch path.
fn coalescing_table(m: &Matrix, bs: &[Benchmark]) {
    println!("\nAblation 1: thread-block coalescing (launch-bearing subset)");
    println!("------------------------------------------------------------");
    println!("benchmark              CDP      DTBL   DTBL-NC coalesce-gain");
    for &b in bs {
        let s = |v| speedup(m, b, v);
        let (cdp, dtbl, nc) = (s(Cdp), s(Dtbl), s(DtblNoCoalesce));
        let gain = dtbl / nc;
        println!(
            "{:<16}{cdp:>9.2}x{dtbl:>9.2}x{nc:>9.2}x{gain:>11.2}x",
            b.name()
        );
    }
}

/// Ablation 2: §5.1 claims the DTBL extension is transparent to the warp
/// scheduler, so the DTBL-over-CDP ratio should survive a GTO →
/// round-robin swap.
fn scheduler_table(m: &Matrix, bs: &[Benchmark]) {
    println!("\nAblation 2: warp scheduler (GTO vs round-robin), bfs_citation");
    println!("---------------------------------------------------------------");
    for (&b, &(config, at)) in bs
        .iter()
        .flat_map(|b| SCHEDULERS.iter().map(move |c| (b, c)))
    {
        let policy = format!("{:?}", at(GpuConfig::k20c(), Scale::Test).warp_sched);
        let c = |v| m.at(b, config, v).stats.cycles as f64;
        let (flat, cdp, dtbl) = (c(Flat), c(Cdp), c(Dtbl));
        let (cdp_x, dtbl_x, over) = (flat / cdp, flat / dtbl, cdp / dtbl);
        println!(
            "{policy}: Flat {flat} cyc, CDP {cdp_x:.2}x, DTBL {dtbl_x:.2}x, DTBL/CDP {over:.2}x"
        );
    }
}

/// Ablation 3: spatial sharing, SMXs reserved for dynamic work (§5.2B).
fn spatial_table(m: &Matrix, bs: &[Benchmark]) {
    println!("\nAblation 3: spatial sharing (§5.2B extension), clr_graph500 DTBL");
    println!("------------------------------------------------------------------");
    for (&b, (reserved, c)) in bs
        .iter()
        .flat_map(|b| RESERVED.iter().enumerate().map(move |r| (b, r)))
    {
        let s = &m.at(b, c.0, Dtbl).stats;
        let waiting = dtbl_wait(m, b, c.0).map_or("n/a".to_string(), |w| format!("{w:.0}"));
        let (cycles, kb) = (s.cycles, s.peak_pending_bytes / 1024);
        println!("reserved SMXs = {reserved}: {cycles} cycles, avg waiting {waiting} cycles, peak pending {kb} KB");
    }
}

/// Writes one figure as `<dir>/<name>.csv` (benchmark rows, series
/// columns), creating `dir` on demand. An error names the file it could
/// not write.
pub fn write_csv(
    dir: &Path,
    name: &str,
    benchmarks: &[Benchmark],
    series: &[&str],
    mut value: impl FnMut(Benchmark, &str) -> f64,
) -> std::io::Result<PathBuf> {
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
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty()).is_nan());
    }

    #[test]
    fn write_csv_roundtrip() {
        let p = write_csv(
            &std::env::temp_dir(),
            &format!("bench_unit_test_fig_{}", std::process::id()),
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
        let body = std::fs::read_to_string(&p).expect("readable");
        std::fs::remove_file(p).expect("removable");
        assert!(body.starts_with("benchmark,A,B\n"));
        assert!(body.contains("amr,1.5,2"));
    }

    #[test]
    fn cells_share_one_setup_per_benchmark_and_config() {
        let benchmarks = [Benchmark::BfsUsaRoad, Benchmark::JoinUniform];
        let cfg = GpuConfig::test_small();
        let setups: HashMap<Benchmark, CellSetup> = benchmarks
            .into_iter()
            .map(|b| {
                (
                    b,
                    CellSetup::new(b, Scale::Test, cfg.clone()).expect("setup builds"),
                )
            })
            .collect();
        let mut specs = Vec::new();
        for b in benchmarks {
            for c in [STOCK, AGT_SIZES[0]] {
                specs.extend(FLAT_CDP_DTBL.iter().map(|&v| (b, c, v)));
            }
        }
        let cells = share_setups(&specs, &setups, &cfg, Scale::Test);
        assert_eq!(cells.len(), 12);
        // The Flat/CDP/DTBL cells of one benchmark and config are the same
        // setup — one workload and kernel build — not three.
        for w in cells.chunks(3) {
            assert!(Arc::ptr_eq(&w[0].0, &w[1].0));
            assert!(Arc::ptr_eq(&w[1].0, &w[2].0));
        }
        // Another config of the same benchmark shares the data under its
        // own config; another benchmark shares neither.
        assert!(!Arc::ptr_eq(&cells[0].0, &cells[3].0));
        assert!(cells[0].0.app().ptr_eq(cells[3].0.app()));
        assert_eq!(cells[3].0.run_cfg(Variant::Dtbl).agt_entries, 2);
        assert!(!cells[0].0.app().ptr_eq(cells[6].0.app()));
    }

    /// A figure reading `bs` × `vs` on the stock machine that prints and
    /// claims nothing.
    fn cells(bs: &'static [Benchmark], vs: &'static [Variant]) -> Figure {
        Figure {
            name: "cells",
            cells: (bs, &[STOCK], vs),
            render: Render::Text(|_, _| {}),
            summary: |_, _| Vec::new(),
        }
    }

    #[test]
    fn server_matrix_caches_repeats_bit_identically() {
        let runner = SweepRunner::new(2).with_retries(1);
        let f = cells(&[Benchmark::BfsUsaRoad], &[Flat, Dtbl]);
        let run = || run_figures(&runner, &[&f], Scale::Test, GpuConfig::test_small());
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
        for v in [Flat, Dtbl] {
            assert_eq!(
                m1.at(Benchmark::BfsUsaRoad, STOCK.0, v).stats,
                m2.at(Benchmark::BfsUsaRoad, STOCK.0, v).stats,
                "cached result is bit-identical"
            );
        }
    }

    fn figure(name: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.name == name).expect("a figure")
    }

    /// A figure runs exactly its own cells, each once even when two
    /// selected figures read it, and renders the rows that completed.
    #[test]
    fn figures_run_the_union_of_their_cells() {
        let (coalescing, fig06) = (figure("ablation_coalescing"), figure("fig06"));
        let runner = SweepRunner::new(1);
        let m = run_figures(&runner, &[coalescing], Scale::Test, GpuConfig::k20c());
        assert!(m.failures().is_empty());
        assert_eq!(
            runner.server().cache_misses(),
            20,
            "5 benchmarks x 4 variants"
        );
        assert!(m.find(Benchmark::Amr, STOCK.0, DtblNoCoalesce).is_some());
        assert!(m.find(Benchmark::BfsUsaRoad, STOCK.0, Flat).is_none());
        assert_eq!(coalescing.rows(&m), SUBSET);
        // fig06 reads Flat/CDP/DTBL, which the ablation ran on its five
        // benchmarks; fig08 reads the ideal variants, which nothing ran.
        assert_eq!(fig06.rows(&m), SUBSET);
        assert!(figure("fig08").rows(&m).is_empty());
        // fig06 and the scheduler ablation share bfs_citation's
        // Flat/CDP/DTBL cells on the stock (GTO) config: 16 * 3 + 3.
        let scheduler = figure("ablation_scheduler");
        let runner = SweepRunner::new(2);
        let m = run_figures(
            &runner,
            &[fig06, scheduler, fig06],
            Scale::Test,
            GpuConfig::k20c(),
        );
        assert_eq!(
            runner.server().cache_misses() + runner.server().cache_hits(),
            51
        );
        assert_eq!(fig06.rows(&m).len(), 16);
        assert_eq!(scheduler.rows(&m), [Benchmark::BfsCitation]);
    }

    /// A figure's columns must be readable from exactly the runs it asks
    /// for: every variant-labelled column names one of its variants, and
    /// Figure 12's columns name its configs.
    #[test]
    fn figure_columns_read_only_the_figures_own_variants() {
        assert!(SIZES.iter().eq(AGT_SIZES.iter().map(|c| &c.0)));
        for f in &FIGURES {
            if let Render::Table {
                series,
                csv: (_, csv_series),
                ..
            } = f.render
            {
                for s in series.iter().chain(csv_series) {
                    if let Some(v) = Variant::from_label(s) {
                        assert!(f.cells.2.contains(&v), "{}: column {s}", f.name);
                    }
                }
            }
        }
    }

    /// Figures that share a config name share the config: the matrix keys
    /// cells by name, so one name must not mean two machines.
    #[test]
    fn config_names_are_unambiguous() {
        let configs: Vec<Config> = FIGURES.iter().flat_map(|f| f.cells.1).copied().collect();
        let hash = |at: fn(GpuConfig, Scale) -> GpuConfig| {
            at(GpuConfig::k20c(), Scale::Test).content_hash()
        };
        for (a, at) in &configs {
            for (b, bt) in &configs {
                if a == b {
                    assert_eq!(hash(*at), hash(*bt), "config {a}");
                }
            }
        }
    }

    /// Every sense fails on a crafted value on the wrong side of it, and
    /// a claim over nothing (or NaN) never holds.
    #[test]
    fn each_sense_fails_on_a_crafted_value() {
        let c = |m: &[f64], sense| claim("c", &[], m.iter().copied(), sense).holds();
        assert!(c(&[1.5], Above(1.0)) && !c(&[1.0], Above(1.0)));
        assert!(!c(&[2.0, 0.5], Above(1.0)), "every value must hold");
        assert!(c(&[0.5], Below(1.0)) && !c(&[1.0], Below(1.0)));
        assert!(!c(&[0.5, 1.5], Below(1.0)));
        assert!(c(&[1.1], Near(1.0, 0.15)) && !c(&[1.2], Near(1.0, 0.15)));
        assert!(c(&[1096.0], Near(1096.0, 0.0)) && !c(&[1097.0], Near(1096.0, 0.0)));
        assert!(c(&[0.7, 1.0, 1.7], Ordered));
        assert!(!c(&[1.0, 0.7, 1.7], Ordered) && !c(&[1.0, 1.0], Ordered));
        assert!(!c(&[1.0], Ordered), "one value orders nothing");
        for sense in [Above(0.0), Below(1.0), Near(0.0, 1.0), Ordered] {
            assert!(!c(&[], sense), "{sense}: nothing measured");
            assert!(!c(&[f64::NAN, f64::NAN], sense), "{sense}: NaN");
        }
    }

    /// The fidelity arithmetic on hand-computed values: an exact claim is
    /// on the paper, 1.69 against 1.21 is 0.482 away, distances are taken
    /// on |log2| and averaged as logs, and a claim with a side at or below
    /// zero has no distance.
    #[test]
    fn fidelity_is_the_mean_log_distance_to_the_paper() {
        let d = |c: Claim| c.distance();
        assert_eq!(d(exact("regs", 1096, 1096u32)), Some(0.0));
        assert_eq!(fidelity([0.0]), 1.0);
        let dtbl = d(claim("DTBL", &[1.21], [1.69], Above(1.21))).expect("both sides positive");
        assert!((dtbl - 0.482).abs() < 5e-4, "{dtbl}");
        let spread = d(claim("s", &[1.0], [2.0, 0.25], Above(0.0)));
        assert_eq!(spread, Some(1.5), "mean of |log2| 1 and |log2| 2");
        let logs = d(claim("l", &[1.0], [2.0, 8.0], Above(0.0)));
        assert_eq!(logs, Some(2.0), "mean of log2 1 and 3, not log2 of mean 5");
        assert_eq!(fidelity([1.0, 3.0]), 4.0, "2^2, not the mean of 2 and 8");
        let gaps = claim("g", &[f64::NAN, 0.5], [1.0, 1.0], Ordered);
        assert_eq!(d(gaps), Some(1.0), "a gap in the paper is skipped");
        assert_eq!(d(claim("zero", &[0.0], [0.5], Near(0.0, 1.0))), None);
        assert_eq!(d(claim("negative", &[45.3], [-3.0], Below(15.0))), None);
        assert_eq!(d(claim("none", &[], [0.5], Above(0.0))), None);
    }

    /// The claims block: one row per claim with verdict, measured, sense,
    /// paper, ratio and distance, and a fidelity block that counts the
    /// claims without a distance and leaves the figures that read no cell
    /// out of the overall factor.
    #[test]
    fn claims_markdown_rows_and_fidelity() {
        let exact_table = Figure {
            name: "exact",
            cells: NONE,
            render: Render::Text(|_, _| {}),
            summary: |_, _| vec![exact("regs", 1096, 1095u32)],
        };
        let measured = Figure {
            summary: |_, _| {
                vec![
                    claim("DTBL", &[1.21], [1.69], Above(1.21)),
                    claim("gap", &[0.0], [-0.024], Near(0.0, 0.5)),
                ]
            },
            ..cells(&[Benchmark::Amr], &[Flat])
        };
        let md = claims_markdown(&Matrix::default(), &[&exact_table, &measured]);
        let rows = [
            "Claims: 2 of 3 held.",
            "| NOT HELD | exact | regs | 1095 | = 1096 | 1096 | 0.999 | 0.001 |",
            "| held | cells | DTBL | 1.690 | > 1.210 | 1.210 | 1.397 | 0.482 |",
            "| held | cells | gap | -0.024 | 0 ± 0.500 | 0 | — | — |",
            "| exact | 1 | 1 | 1.001 |",
            "| cells | 2 | 1 | 1.397 |",
            "| overall | 2 | 1 | 1.397 |",
        ];
        for row in rows {
            assert!(md.lines().any(|l| l == row), "{row} not in\n{md}");
        }
    }

    /// `all_figures ablation` selects the three ablations, and a figure
    /// name selects only itself.
    #[test]
    fn selectors_name_a_figure_or_its_group() {
        let picked = |n: &str| -> Vec<&str> {
            FIGURES
                .iter()
                .filter(|f| f.selected_by(n))
                .map(|f| f.name)
                .collect()
        };
        let ablations = [
            "ablation_coalescing",
            "ablation_scheduler",
            "ablation_spatial",
        ];
        assert_eq!(picked("ablation"), ablations);
        assert_eq!(picked("fig12"), ["fig12"]);
        assert!(picked("fig").is_empty() && picked("ablation_").is_empty());
    }
}
