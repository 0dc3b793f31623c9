//! The six workloads, the metrics they report, and the code that runs
//! them. README.md records why each workload has the cells it has.

use crate::adapter::{self, Cell, CellRun, Conn, Counts, Daemon, Engine, SimStats, DIGEST_SEED};
use crate::measure::{mean, median, peak_rss_mb, percentile, Metrics};
use crate::spans;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// `(name, unit, better, bound)`: what `--trace 0` prints. `bound` is
/// the share of the parent's median a metric may lose before a change
/// counts as a regression.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("cells_per_s", "1/s", "higher", 0.25),
    ("warp_insts_per_s", "1/s", "higher", 0.25),
    ("hit_us_p50", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.12),
];

/// `(name, unit, better)`: what `--trace 1` prints. A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.setup_ms", "ms", "lower"),
    ("workloads.setup_share", "ratio", "lower"),
    ("gpu-isa.build_decode_us_per_kernel", "us", "lower"),
    ("gpu-isa.exec_alu_ns_per_warp_inst_uniform", "ns", "lower"),
    ("gpu-isa.exec_alu_ns_per_warp_inst_varying", "ns", "lower"),
    ("gpu-isa.exec_alu_ns_per_warp_inst_masked", "ns", "lower"),
    ("gpu-isa.active_lanes_per_warp_inst", "count", "higher"),
    ("gpu-isa.est_share", "ratio", "lower"),
    ("gpu-mem.coalesce_ns_per_warp_seq", "ns", "lower"),
    ("gpu-mem.coalesce_ns_per_warp_scatter", "ns", "lower"),
    ("gpu-mem.l1_ns_per_access_hit", "ns", "lower"),
    ("gpu-mem.l2_ns_per_access_miss_evict", "ns", "lower"),
    ("gpu-mem.dram_ns_per_cmd_row_hit", "ns", "lower"),
    ("gpu-mem.dram_ns_per_cmd_row_miss", "ns", "lower"),
    ("gpu-mem.subsystem_ns_per_txn_stream", "ns", "lower"),
    ("gpu-mem.subsystem_ns_per_txn_scatter", "ns", "lower"),
    ("gpu-mem.backing_ns_per_word", "ns", "lower"),
    ("gpu-mem.txns", "count", "lower"),
    ("gpu-mem.txns_per_warp_inst", "ratio", "lower"),
    ("gpu-mem.l1_hit_rate", "ratio", "higher"),
    ("gpu-mem.l2_hit_rate", "ratio", "higher"),
    ("gpu-mem.dram_cmds", "count", "lower"),
    ("gpu-mem.dram_row_hit_rate", "ratio", "higher"),
    ("gpu-mem.est_share", "ratio", "lower"),
    ("dtbl-core.agt_ns_per_insert_coalesce", "ns", "lower"),
    ("dtbl-core.agt_ns_per_insert_overflow", "ns", "lower"),
    ("dtbl-core.pool_ns_per_coalesce", "ns", "lower"),
    ("dtbl-core.fcfs_ns_per_mark", "ns", "lower"),
    ("dtbl-core.agg_coalesced", "count", "higher"),
    ("dtbl-core.agg_fallbacks", "count", "lower"),
    ("dtbl-core.agt_overflows", "count", "lower"),
    ("dtbl-core.match_rate", "ratio", "higher"),
    ("dtbl-core.est_share", "ratio", "lower"),
    ("gpu-sim.construct_ms_per_cell", "ms", "lower"),
    ("gpu-sim.rebind_ms_per_cell", "ms", "lower"),
    ("gpu-sim.cache_hit_us_per_cell", "us", "lower"),
    ("gpu-sim.content_hash_ns", "ns", "lower"),
    ("gpu-sim.simulate_ms", "ms", "lower"),
    ("gpu-sim.host_ns_per_warp_inst", "ns", "lower"),
    ("gpu-sim.host_ns_per_sim_cycle", "ns", "lower"),
    ("gpu-sim.sim_cycles", "count", "lower"),
    ("gpu-sim.warp_insts", "count", "lower"),
    ("gpu-sim.sim_cycles_per_s", "1/s", "higher"),
    ("gpu-sim.sim_cycles_per_warp_inst", "ratio", "lower"),
    ("gpu-sim.dyn_launches", "count", "lower"),
    ("gpu-sim.dyn_launches_per_kinst", "ratio", "lower"),
    ("gpu-sim.occupancy_pct", "%", "higher"),
    ("gpu-sim.residual_share", "ratio", "lower"),
    ("gpu-sim.stats_digest", "count", "lower"),
    ("gpu-sim.dtbl_over_cdp_host_ratio", "ratio", "lower"),
    ("gpu-sim.excess_us_per_dyn_launch", "us", "lower"),
    ("gpu-sim.shard_x2_speedup", "ratio", "higher"),
    ("gpu-trace.emit_ns_per_event", "ns", "lower"),
    ("gpu-trace.jsonl_ns_per_event", "ns", "lower"),
    ("gpu-trace.chrome_ns_per_event", "ns", "lower"),
    ("gpu-trace.parse_jsonl_ns_per_event", "ns", "lower"),
    ("gpu-trace.json_parse_mb_per_s", "MB/s", "higher"),
    ("gpu-trace.events", "count", "lower"),
    ("gpu-trace.dropped", "count", "lower"),
    ("gpu-trace.bytes_per_event", "ratio", "lower"),
    ("gpu-trace.trace_events_per_s", "1/s", "higher"),
    ("gpu-trace.record_overhead_ratio", "ratio", "lower"),
    ("gpu-trace.trace_overhead_ratio", "ratio", "lower"),
    ("gpu-trace.export_share", "ratio", "lower"),
    ("gpu-serve.parse_request_ns", "ns", "lower"),
    ("gpu-serve.report_encode_us", "us", "lower"),
    ("gpu-serve.report_decode_us", "us", "lower"),
    ("gpu-serve.admission_ns_per_push_pop", "ns", "lower"),
    ("gpu-serve.ping_rtt_us", "us", "lower"),
    ("gpu-serve.persist_store_ms", "ms", "lower"),
    ("gpu-serve.persist_load_ms", "ms", "lower"),
    ("gpu-serve.restart_hit_frac", "ratio", "higher"),
    ("gpu-serve.jobs_per_s", "1/s", "higher"),
    ("gpu-serve.miss_latency_ms_p50", "ms", "lower"),
    ("gpu-serve.miss_latency_ms_p90", "ms", "lower"),
    ("gpu-serve.hit_latency_us_p50", "us", "lower"),
    ("gpu-serve.hit_latency_us_p90", "us", "lower"),
    ("gpu-serve.hit_under_load_ms_p50", "ms", "lower"),
    ("gpu-serve.admission_wait_us_p50", "us", "lower"),
    ("gpu-serve.admission_wait_us_p95", "us", "lower"),
    ("gpu-serve.slot_contention", "count", "lower"),
    ("gpu-serve.warm_binds", "count", "higher"),
    ("gpu-serve.cold_builds", "count", "lower"),
    ("gpu-serve.cache_hits", "count", "higher"),
    ("gpu-serve.cache_misses", "count", "lower"),
    ("gpu-serve.overhead_vs_inproc_ratio", "ratio", "lower"),
    ("sim-rand.ns_per_u64", "ns", "lower"),
    ("bench.passes", "count", "higher"),
    ("bench.span_overhead_ratio", "ratio", "lower"),
];

/// `(name, why)` in the order `run` and `layers` go through them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "matrix_test",
        "70 small Test-scale cells (14 benchmarks x 5 figure variants): per-cell setup, rebind and batch overhead weigh most",
    ),
    (
        "eval_exec",
        "Eval-scale regx cells, 0.64 txns and 0.001 launches per warp inst: functional execute and warp issue dominate, memory and launch path idle",
    ),
    (
        "eval_mem",
        "seven Eval-scale Flat cells, 3.8 txns per warp inst and no dynamic launch: coalescer, caches, DRAM and backing store dominate",
    ),
    (
        "eval_launch",
        "Eval-scale DTBL-family cells beside their CDP twins, 12 launches per 1000 warp insts: KMU, distributor, AGT and TB scheduler, the paper's subject",
    ),
    (
        "traced_launch",
        "three Eval-scale launch cells recorded under TraceConfig::all() and exported as JSONL: every emission site and the exporter live",
    ),
    (
        "serve_mix",
        "84 Test-scale cells through a loopback gpu-serve daemon, one client: a batch of misses, then five batches of hits: wire, admission, job table and result cache",
    ),
];

/// A run sets up at least `MIN_SETUP_REPS` times, then until
/// `SETUP_BUDGET` is spent or `MAX_SETUP_REPS` is reached; `setup_s` is
/// the median. A set-up takes 4 to 90 ms.
const MIN_SETUP_REPS: usize = 7;
const MAX_SETUP_REPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// After each pass the whole batch is resubmitted against the full result
/// cache at least `MIN_HIT_REPS` times, then until `HIT_BUDGET` is spent
/// or `MAX_HIT_REPS` is reached: many samples where a hit costs
/// microseconds, few where it clones a recorded trace.
const MIN_HIT_REPS: usize = 3;
const MAX_HIT_REPS: usize = 200;
const HIT_BUDGET: Duration = Duration::from_millis(100);
/// Fewest timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` a `--trace 1` run spends on timed passes.
const TRACED_PASS_SHARE: f64 = 0.6;
/// What each micro-kernel may spend after its warm-up.
const MICRO_BUDGET: Duration = Duration::from_millis(10);

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    /// Spans on and per-layer metrics out.
    pub trace: bool,
}

/// What a run found: how many cell results were checked, how many were
/// wrong, and the metrics of the requested kind.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// splitmix64: the benchmark's own generator, so its choices do not
/// depend on code under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Tallies checked results and prints each wrong one by cell.
#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn outcome(self, metrics: Metrics) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }

    fn fail(&mut self, cell: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {cell}: {why}");
    }

    /// One cell result against the reference statistics of its cell.
    fn check(&mut self, cell: &Cell, got: Result<&SimStats, &String>, want: Option<&SimStats>) {
        self.attempted += 1;
        match (got, want) {
            (Err(e), _) => self.fail(&cell.name(), e),
            (Ok(s), Some(w)) if s != w => {
                self.fail(&cell.name(), "Stats differ from the reference pass")
            }
            _ => {}
        }
    }
}

fn eval_cells(list: &[(&str, &str)]) -> Vec<Cell> {
    list.iter().map(|(b, v)| Cell::new(b, v, true)).collect()
}

/// The cells of a simulation workload: `timed` in every pass, `warm_only`
/// once before timing starts.
struct SimCells {
    timed: Vec<Cell>,
    warm_only: Vec<Cell>,
    traced: bool,
}

/// The two Test-scale benchmarks whose cells take 0.3 to 0.9 s each and
/// would hide the per-cell overhead the small cells are there to show.
const HEAVY_TEST: [&str; 2] = ["clr_graph500", "clr_cage15"];

fn sim_cells(workload: &str) -> Option<SimCells> {
    let plain = |timed| SimCells {
        timed,
        warm_only: Vec::new(),
        traced: false,
    };
    Some(match workload {
        "matrix_test" => {
            let timed = adapter::test_matrix(&HEAVY_TEST, false);
            // The rest of the 80-cell matrix runs once in a per-layer run,
            // so that `gpu-sim.sim_cycles` reads the roadmap's 28,590,263.
            let mut warm_only = adapter::test_matrix(&[], false);
            warm_only.retain(|c| !timed.contains(c));
            SimCells {
                timed,
                warm_only,
                traced: false,
            }
        }
        "eval_exec" => plain(eval_cells(&[
            ("regx_darpa", "CDPI"),
            ("regx_string", "CDPI"),
        ])),
        "eval_mem" => plain(eval_cells(&[
            ("sssp_cage15", "Flat"),
            ("bht", "Flat"),
            ("bfs_cage15", "Flat"),
            ("sssp_flight", "Flat"),
            ("bfs_usa_road", "Flat"),
            ("amr", "Flat"),
            ("pre_movielens", "Flat"),
        ])),
        "eval_launch" => plain(eval_cells(&[
            ("bfs_cage15", "DTBLI"),
            ("bfs_cage15", "CDPI"),
            ("amr", "DTBL"),
            ("amr", "CDP"),
            ("amr", "DTBLI"),
            ("amr", "CDPI"),
            ("bht", "DTBLI"),
            ("bht", "CDPI"),
            ("join_gaussian", "DTBL"),
            ("join_gaussian", "CDP"),
        ])),
        "traced_launch" => SimCells {
            timed: eval_cells(&[("amr", "DTBL"), ("bht", "DTBLI"), ("bfs_cage15", "DTBL")]),
            warm_only: Vec::new(),
            traced: true,
        },
        _ => return None,
    })
}

pub fn run(workload: &str, args: &Args) -> Result<Outcome, String> {
    match sim_cells(workload) {
        Some(cells) => run_sim(workload, &cells, args),
        None if workload == "serve_mix" => run_serve(args),
        None => Err(format!("unknown workload {workload}")),
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What the set-ups and timed passes of any workload measured.
struct Timing {
    /// Seconds per set-up.
    setup_s: Vec<f64>,
    /// Seconds inside `workloads.setup` spans over all set-ups.
    setup_span_s: f64,
    /// Seconds per timed pass: `[spans off, spans on]`.
    walls: [Vec<f64>; 2],
    /// Microseconds per cell served from the result cache.
    hit_us: Vec<f64>,
}

impl Timing {
    /// Sets up repeatedly with `one`, keeping the last product.
    fn of_setups<T>(
        args: &Args,
        mut one: impl FnMut() -> Result<T, String>,
    ) -> Result<(Timing, T), String> {
        spans::set_enabled(args.trace);
        let mut setup_s = Vec::new();
        let mut product = None;
        let start = Instant::now();
        while setup_s.len() < MIN_SETUP_REPS
            || (setup_s.len() < MAX_SETUP_REPS && start.elapsed() < SETUP_BUDGET)
        {
            let t = Instant::now();
            product = Some(one()?);
            setup_s.push(seconds_since(t));
        }
        spans::set_enabled(false);
        let timing = Timing {
            setup_s,
            setup_span_s: spans::total_s("workloads.setup"),
            walls: [Vec::new(), Vec::new()],
            hit_us: Vec::new(),
        };
        Ok((timing, product.expect("MIN_SETUP_REPS > 0")))
    }

    /// Runs `pass` until the measuring time is spent, and at least the
    /// minimum number of times; `pass` returns its wall seconds. A
    /// per-layer run has spans on in every other pass, so that the two
    /// kinds see the same host conditions.
    fn timed_passes(
        &mut self,
        args: &Args,
        mut pass: impl FnMut(&mut Timing) -> Result<f64, String>,
    ) -> Result<(), String> {
        // A per-layer run also fits its micro-kernels and probes into
        // `--seconds`, and needs two passes of each kind.
        let (budget_s, min_passes) = if args.trace {
            (args.seconds * TRACED_PASS_SHARE, 4)
        } else {
            (args.seconds, MIN_PASSES)
        };
        let start = Instant::now();
        let mut done = 0;
        // Stop where one more pass would overshoot by more than stopping undershoots.
        while done < min_passes || seconds_since(start) * (1.0 + 0.5 / done as f64) <= budget_s {
            let spans_on = args.trace && done % 2 == 1;
            spans::set_enabled(spans_on);
            let wall = pass(self);
            spans::set_enabled(false);
            self.walls[usize::from(spans_on)].push(wall?);
            done += 1;
        }
        Ok(())
    }

    /// Seconds per pass with spans off. Throughput is all the work of the
    /// timed passes over all their time, so this is a mean.
    fn pass_s(&self) -> f64 {
        mean(&self.walls[0])
    }

    fn end_to_end(&self, cells_per_pass: usize, warp_insts_per_pass: u64) -> Metrics {
        let mut m = Metrics::default();
        m.set("cells_per_s", cells_per_pass as f64 / self.pass_s());
        m.set(
            "warp_insts_per_s",
            warp_insts_per_pass as f64 / self.pass_s(),
        );
        m.set("hit_us_p50", median(&self.hit_us));
        m.set("setup_s", median(&self.setup_s));
        m.set("peak_rss_mb", peak_rss_mb());
        m
    }

    /// The per-layer metrics every workload has.
    fn common_layers(&self, m: &mut Metrics) {
        let setups = self.setup_s.len() as f64;
        m.set(
            "bench.passes",
            (self.walls[0].len() + self.walls[1].len()) as f64,
        );
        m.set(
            "bench.span_overhead_ratio",
            mean(&self.walls[1]) / self.pass_s(),
        );
        m.set("workloads.setup_ms", self.setup_span_s * 1e3 / setups);
        m.set(
            "workloads.setup_share",
            self.setup_span_s / self.setup_s.iter().sum::<f64>(),
        );
        for (name, value) in adapter::micro::run_all(MICRO_BUDGET) {
            m.set(name, value);
        }
    }
}

/// Reference statistics by cell from a checked pass.
fn references(runs: &[CellRun], check: &mut Checker, into: &mut HashMap<Cell, SimStats>) {
    for r in runs {
        check.check(&r.cell, r.result.as_ref().map(|(s, _)| s), None);
        if let Ok((stats, _)) = &r.result {
            into.insert(r.cell, stats.clone());
        }
    }
}

/// What exporting a traced pass produced, and the seconds the exporter
/// took (checking its output is not part of them).
#[derive(Default)]
struct Exported {
    events: u64,
    dropped: u64,
    bytes: u64,
    export_s: f64,
}

/// Exports every recorded trace of a pass, checking that nothing was
/// dropped and that the export has a line per record.
fn export_traces(runs: &mut [CellRun], check: &mut Checker) -> Exported {
    let mut out = Exported::default();
    for r in runs.iter_mut() {
        let name = r.cell.name();
        let Ok((_, trace)) = &mut r.result else {
            continue;
        };
        check.attempted += 1;
        let Some(trace) = trace.take() else {
            check.fail(&name, "traced cell came back without a trace");
            continue;
        };
        let (events, dropped, want_lines) =
            (trace.events(), trace.dropped(), trace.expected_lines());
        let t = Instant::now();
        let text = trace.export_jsonl(&name);
        out.export_s += seconds_since(t);
        let lines = text.lines().count() as u64;
        if dropped != 0 {
            check.fail(&name, &format!("{dropped} trace events dropped"));
        } else if lines != want_lines {
            check.fail(
                &name,
                &format!("exported {lines} lines for {want_lines} records"),
            );
        }
        out.events += events;
        out.dropped += dropped;
        out.bytes += text.len() as u64;
    }
    out
}

/// What a simulation workload measured besides its [`Timing`].
struct SimRun {
    timing: Timing,
    /// The warm-up pass's statistics by (untraced) cell.
    reference: HashMap<Cell, SimStats>,
    /// Seconds per timed pass up to the end of `run_batch`, before any export.
    record_walls: Vec<f64>,
    /// Seconds per untraced pass of a traced workload, spans off.
    untraced_walls: Vec<f64>,
    /// Nanoseconds inside `run_warm` per timed pass, by (untraced) cell.
    sim_ns: HashMap<Cell, Vec<f64>>,
    exported: Exported,
}

fn measure_sim(cells: &SimCells, args: &Args, check: &mut Checker) -> Result<SimRun, String> {
    let mut rng = Rng(args.seed);
    let timed: Vec<Cell> = if cells.traced {
        cells.timed.iter().map(|c| c.traced()).collect()
    } else {
        cells.timed.clone()
    };
    let mut engine_cells = cells.timed.clone();
    engine_cells.extend(&cells.warm_only);
    if cells.traced {
        engine_cells.extend(&timed);
    }
    let (mut timing, engine) = Timing::of_setups(args, || {
        let engine = Engine::new(&engine_cells)?;
        engine.cold_construct(&timed[0]);
        Ok(engine)
    })?;

    // Untimed passes: first touch of the warm slot, and the reference
    // statistics every later result is compared with. The cells that are
    // only warmed feed counts, so only a per-layer run needs them.
    let mut reference = HashMap::new();
    if args.trace {
        references(&engine.run_pass(&cells.warm_only), check, &mut reference);
    }
    references(&engine.run_pass(&cells.timed), check, &mut reference);
    if cells.traced {
        export_traces(&mut engine.run_pass(&timed), check);
    }
    let check_all = |runs: &[CellRun], check: &mut Checker| {
        for r in runs {
            let want = reference.get(&r.cell.untraced());
            check.check(&r.cell, r.result.as_ref().map(|(s, _)| s), want);
        }
    };

    let mut record_walls = Vec::new();
    let mut sim_ns: HashMap<Cell, Vec<f64>> = HashMap::new();
    let mut exported = Exported::default();
    timing.timed_passes(args, |timing| {
        engine.clear_cache();
        let order = rng.shuffled(&timed);
        let t = Instant::now();
        let mut runs = {
            let _g = spans::enter("bench.pass", "");
            engine.run_pass(&order)
        };
        let mut wall = seconds_since(t);
        record_walls.push(wall);
        if cells.traced {
            exported = export_traces(&mut runs, check);
            wall += exported.export_s;
        }
        check_all(&runs, check);
        for r in &runs {
            sim_ns
                .entry(r.cell.untraced())
                .or_default()
                .push(r.sim_ns as f64);
        }

        // The cache now holds every cell: resubmissions are all hits.
        spans::set_enabled(false);
        let hits_start = Instant::now();
        for rep in 0..MAX_HIT_REPS {
            if rep >= MIN_HIT_REPS && hits_start.elapsed() >= HIT_BUDGET {
                break;
            }
            let t = Instant::now();
            let hits = engine.run_pass(&order);
            timing
                .hit_us
                .push(seconds_since(t) * 1e6 / order.len() as f64);
            if rep == 0 {
                check_all(&hits, check);
            }
        }
        Ok(wall)
    })?;

    // What the same cells cost with tracing off, for the overhead ratios.
    let mut untraced_walls = Vec::new();
    if args.trace && cells.traced {
        for _ in 0..2 {
            engine.clear_cache();
            let order = rng.shuffled(&cells.timed);
            let t = Instant::now();
            let runs = engine.run_pass(&order);
            untraced_walls.push(seconds_since(t));
            check_all(&runs, check);
        }
    }
    Ok(SimRun {
        timing,
        reference,
        record_walls,
        untraced_walls,
        sim_ns,
        exported,
    })
}

fn run_sim(workload: &str, cells: &SimCells, args: &Args) -> Result<Outcome, String> {
    let mut check = Checker::default();
    let run = measure_sim(cells, args, &mut check)?;
    let timing = &run.timing;

    let mut timed_counts = Counts::default();
    let mut all_counts = Counts::default();
    let mut digest = DIGEST_SEED;
    for c in cells.timed.iter().chain(&cells.warm_only) {
        let Some(stats) = run.reference.get(c) else {
            continue;
        };
        let counts = Counts::of(stats);
        all_counts.add(&counts);
        if cells.timed.contains(c) {
            timed_counts.add(&counts);
        }
        digest = adapter::digest_into(digest, stats);
    }
    let c = &timed_counts;

    if !args.trace {
        return Ok(check.outcome(timing.end_to_end(cells.timed.len(), c.warp_insts)));
    }

    let mut m = Metrics::default();
    timing.common_layers(&mut m);
    m.set("gpu-sim.cache_hit_us_per_cell", median(&timing.hit_us));

    let pass_s = timing.pass_s();
    let spans_on_passes = timing.walls[1].len() as f64;
    let untraced_s = if cells.traced {
        let untraced_s = mean(&run.untraced_walls);
        let x = &run.exported;
        m.set("gpu-trace.events", x.events as f64);
        m.set("gpu-trace.dropped", x.dropped as f64);
        m.set(
            "gpu-trace.bytes_per_event",
            x.bytes as f64 / x.events.max(1) as f64,
        );
        m.set("gpu-trace.trace_events_per_s", x.events as f64 / pass_s);
        // Spans cost the same few calls on or off, so all passes count.
        m.set(
            "gpu-trace.record_overhead_ratio",
            mean(&run.record_walls) / untraced_s,
        );
        m.set("gpu-trace.trace_overhead_ratio", pass_s / untraced_s);
        m.set(
            "gpu-trace.export_share",
            spans::total_s("gpu-trace.export") / spans_on_passes / mean(&timing.walls[1]),
        );
        untraced_s
    } else {
        pass_s
    };

    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let sim_ns = untraced_s * 1e9;
    m.set(
        "gpu-sim.simulate_ms",
        spans::total_s("gpu-sim.simulate") * 1e3 / spans_on_passes,
    );
    m.set(
        "gpu-sim.host_ns_per_warp_inst",
        sim_ns / c.warp_insts.max(1) as f64,
    );
    m.set(
        "gpu-sim.host_ns_per_sim_cycle",
        sim_ns / c.sim_cycles.max(1) as f64,
    );
    m.set("gpu-sim.sim_cycles", all_counts.sim_cycles as f64);
    m.set("gpu-sim.warp_insts", all_counts.warp_insts as f64);
    m.set("gpu-sim.sim_cycles_per_s", c.sim_cycles as f64 / untraced_s);
    m.set(
        "gpu-sim.sim_cycles_per_warp_inst",
        per(c.sim_cycles, c.warp_insts),
    );
    m.set("gpu-sim.dyn_launches", c.dyn_launches as f64);
    m.set(
        "gpu-sim.dyn_launches_per_kinst",
        1e3 * per(c.dyn_launches, c.warp_insts),
    );
    m.set(
        "gpu-sim.occupancy_pct",
        100.0 * per(c.resident_warp_cycles, c.warp_slot_cycles),
    );
    m.set("gpu-sim.stats_digest", (digest & 0xffff_ffff_ffff) as f64);
    m.set(
        "gpu-isa.active_lanes_per_warp_inst",
        per(c.active_lanes, c.warp_insts),
    );
    m.set("gpu-mem.txns", c.txns as f64);
    m.set("gpu-mem.txns_per_warp_inst", per(c.txns, c.warp_insts));
    m.set(
        "gpu-mem.l1_hit_rate",
        per(c.l1_hits, c.l1_hits + c.l1_misses),
    );
    m.set(
        "gpu-mem.l2_hit_rate",
        per(c.l2_hits, c.l2_hits + c.l2_misses),
    );
    m.set("gpu-mem.dram_cmds", c.dram_cmds as f64);
    m.set(
        "gpu-mem.dram_row_hit_rate",
        per(c.dram_row_hits, c.dram_cmds),
    );
    m.set("dtbl-core.agg_coalesced", c.agg_coalesced as f64);
    m.set("dtbl-core.agg_fallbacks", c.agg_fallbacks as f64);
    m.set("dtbl-core.agt_overflows", c.agt_overflows as f64);
    m.set(
        "dtbl-core.match_rate",
        per(c.agg_coalesced, c.agg_coalesced + c.agg_fallbacks),
    );

    // DTBL-family cells against the CDP-family twins that execute the
    // same instructions and transactions: what the launch path alone costs.
    let (mut dtbl_ns, mut cdp_ns, mut launches) = (0.0, 0.0, 0u64);
    for cell in &cells.timed {
        let ns = |c: &Cell| run.sim_ns.get(c).map(|v| median(v));
        if let Some((d, p)) = cell.cdp_twin().and_then(|twin| ns(cell).zip(ns(&twin))) {
            dtbl_ns += d;
            cdp_ns += p;
            launches += Counts::of(&run.reference[cell]).dyn_launches;
        }
    }
    if cdp_ns > 0.0 {
        m.set("gpu-sim.dtbl_over_cdp_host_ratio", dtbl_ns / cdp_ns);
        m.set(
            "gpu-sim.excess_us_per_dyn_launch",
            (dtbl_ns - cdp_ns) / 1e3 / launches.max(1) as f64,
        );
    }
    if matches!(workload, "eval_exec" | "eval_mem") {
        m.set(
            "gpu-sim.shard_x2_speedup",
            crate::shard_child_pass_s(workload).map_or(0.0, |child| pass_s / child),
        );
    }

    // Estimated shares: a layer's event count times its micro-kernel
    // cost, over the wall time of the pass. Estimates, not measurements:
    // the micro-kernels run hot and alone.
    let cost = |name: &str| m.get(name).unwrap_or(0.0);
    let isa = c.warp_insts as f64
        * (cost("gpu-isa.exec_alu_ns_per_warp_inst_uniform")
            + cost("gpu-isa.exec_alu_ns_per_warp_inst_varying")
            + cost("gpu-isa.exec_alu_ns_per_warp_inst_masked"))
        / 3.0;
    let row_hit = per(c.dram_row_hits, c.dram_cmds);
    let mem = (c.l1_hits + c.l1_misses) as f64 * cost("gpu-mem.l1_ns_per_access_hit")
        + (c.l2_hits + c.l2_misses) as f64 * cost("gpu-mem.l2_ns_per_access_miss_evict")
        + c.dram_cmds as f64
            * (row_hit * cost("gpu-mem.dram_ns_per_cmd_row_hit")
                + (1.0 - row_hit) * cost("gpu-mem.dram_ns_per_cmd_row_miss"))
        // One scattered warp coalesces into 32 transactions.
        + c.txns as f64 * cost("gpu-mem.coalesce_ns_per_warp_scatter") / 32.0;
    let dtbl = c.dyn_launches as f64
        * (cost("dtbl-core.agt_ns_per_insert_coalesce") + cost("dtbl-core.pool_ns_per_coalesce"));
    m.set("gpu-isa.est_share", isa / sim_ns);
    m.set("gpu-mem.est_share", mem / sim_ns);
    m.set("dtbl-core.est_share", dtbl / sim_ns);
    m.set("gpu-sim.residual_share", 1.0 - (isa + mem + dtbl) / sim_ns);

    Ok(check.outcome(m))
}

/// One timed pass of a simulation workload after set-up and a warm-up
/// pass, in seconds: what the `SMX_JOBS=2` child of
/// `gpu-sim.shard_x2_speedup` prints.
pub fn child_pass_s(workload: &str) -> Result<f64, String> {
    let cells = sim_cells(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let engine = Engine::new(&cells.timed)?;
    let mut wall = 0.0;
    for _warm_then_timed in 0..2 {
        engine.clear_cache();
        let t = Instant::now();
        let runs = engine.run_pass(&cells.timed);
        if let Some(e) = runs.iter().find_map(|r| r.result.as_ref().err()) {
            return Err(e.clone());
        }
        wall = seconds_since(t);
    }
    Ok(wall)
}

/// Submits every cell of `order`, then waits for every job in turn:
/// the daemon's queue stays full, as under a sweep client. Returns the
/// wall seconds from the first SUBMIT to the last report.
fn serve_batch(
    conn: &mut Conn,
    order: &[Cell],
    reference: &HashMap<Cell, SimStats>,
    check: &mut Checker,
) -> f64 {
    let t = Instant::now();
    let jobs: Vec<_> = order.iter().map(|c| conn.submit(c)).collect();
    let got: Vec<_> = order
        .iter()
        .zip(jobs)
        .map(|(c, job)| job.and_then(|job| conn.wait(c, job)))
        .collect();
    let wall_s = seconds_since(t);
    for (c, got) in order.iter().zip(&got) {
        check.check(c, got.as_ref(), reference.get(c));
    }
    wall_s
}

/// Hit batches per daemon lifetime.
const HIT_BATCHES: usize = 5;

/// What one daemon lifetime measured.
struct Lifetime {
    /// Seconds for the batch of misses.
    miss_s: f64,
    /// Microseconds per job of each batch of hits.
    hit_us: Vec<f64>,
    /// Seconds from the first SUBMIT to the last report.
    wall_s: f64,
    snapshot: adapter::Snapshot,
}

/// One daemon lifetime: every cell once as one batch of misses in
/// seeded order, then `HIT_BATCHES` batches of the same cells, reordered,
/// against the now-full result cache.
fn lifetime(
    cells: &[Cell],
    reference: &HashMap<Cell, SimStats>,
    rng: &mut Rng,
    check: &mut Checker,
) -> Result<Lifetime, String> {
    let daemon = Daemon::start(None)?;
    let mut conn = Conn::connect(daemon.addr(), "a")?;
    let t0 = Instant::now();
    let miss_s = serve_batch(&mut conn, &rng.shuffled(cells), reference, check);
    let hit_us = (0..HIT_BATCHES)
        .map(|_| {
            serve_batch(&mut conn, &rng.shuffled(cells), reference, check) * 1e6
                / cells.len() as f64
        })
        .collect();
    let wall_s = seconds_since(t0);
    let snapshot = conn.snapshot()?;
    let n = cells.len() as u64;
    let want = (n, n * HIT_BATCHES as u64);
    let counted = (
        snapshot.counter("server.cache_misses"),
        snapshot.counter("server.cache_hits"),
    );
    check.attempted += 1;
    if counted != want {
        check.fail(
            "serve_mix",
            &format!("daemon counted {counted:?} (misses, hits), expected {want:?}"),
        );
    }
    drop(conn);
    daemon.stop();
    Ok(Lifetime {
        miss_s,
        hit_us,
        wall_s,
        snapshot,
    })
}

/// Request latencies on an idle pool, one request at a time: every cell
/// once in seeded order, each miss followed by a re-request of a seeded
/// earlier cell. Returns `(miss ms, hit µs)` samples.
fn idle_latencies(
    cells: &[Cell],
    reference: &HashMap<Cell, SimStats>,
    rng: &mut Rng,
    check: &mut Checker,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let daemon = Daemon::start(None)?;
    let mut conn = Conn::connect(daemon.addr(), "a")?;
    let order = rng.shuffled(cells);
    let (mut miss_ms, mut hit_us) = (Vec::new(), Vec::new());
    for i in 0..order.len() {
        let t = Instant::now();
        let got = conn.request(&order[i]);
        miss_ms.push(seconds_since(t) * 1e3);
        check.check(&order[i], got.as_ref(), reference.get(&order[i]));
        let again = &order[rng.below(i + 1)];
        let t = Instant::now();
        let got = conn.request(again);
        hit_us.push(seconds_since(t) * 1e6);
        check.check(again, got.as_ref(), reference.get(again));
    }
    drop(conn);
    daemon.stop();
    Ok((miss_ms, hit_us))
}

/// Cells of 25 to 40 ms: long enough that a hit sent 5 ms after the miss
/// finds the one worker busy.
const LOAD_CELLS: [&str; 6] = ["Flat", "CDP", "CDPI", "DTBL", "DTBLI", "DTBL-NC"];
const LOAD_DELAY: Duration = Duration::from_millis(5);

/// What a cache hit costs while a second client's miss holds the worker.
/// Two closed-loop clients.
fn hit_under_load_ms(check: &mut Checker) -> Result<f64, String> {
    let daemon = Daemon::start(None)?;
    let mut a = Conn::connect(daemon.addr(), "a")?;
    let mut b = Conn::connect(daemon.addr(), "b")?;
    let cached = Cell::new("join_uniform", "Flat", false);
    let primed = b.request(&cached)?;
    let mut ms = Vec::new();
    for variant in LOAD_CELLS {
        let long = Cell::new("clr_citation", variant, false);
        let (miss, hit) = std::thread::scope(|s| {
            let miss = s.spawn(|| a.request(&long));
            std::thread::sleep(LOAD_DELAY);
            let t = Instant::now();
            let hit = b.request(&cached);
            ms.push(seconds_since(t) * 1e3);
            (miss.join().expect("client thread"), hit)
        });
        check.check(&long, miss.as_ref(), None);
        check.check(&cached, hit.as_ref(), Some(&primed));
    }
    drop((a, b));
    daemon.stop();
    Ok(median(&ms))
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng(args.seed);
    let mut check = Checker::default();
    let cells = adapter::test_matrix(&HEAVY_TEST, true);
    let (mut timing, engine) = Timing::of_setups(args, || {
        let engine = Engine::new(&cells)?;
        let daemon = Daemon::start(None)?;
        Conn::connect(daemon.addr(), "setup")?.ping()?;
        daemon.stop();
        Ok(engine)
    })?;

    // The same cells in process: the reference statistics, and what the
    // simulation alone costs.
    let mut reference = HashMap::new();
    let mut inproc_s = Vec::new();
    for pass in 0..3 {
        engine.clear_cache();
        let t = Instant::now();
        let runs = engine.run_pass(&cells);
        if pass > 0 {
            inproc_s.push(seconds_since(t));
        }
        references(&runs, &mut check, &mut reference);
    }
    let mut counts = Counts::default();
    for s in reference.values() {
        counts.add(&Counts::of(s));
    }

    lifetime(&cells, &reference, &mut rng, &mut check)?; // warm-up
    let (mut miss_s, mut life_s) = (Vec::new(), Vec::new());
    let mut last = None;
    timing.timed_passes(args, |timing| {
        let life = lifetime(&cells, &reference, &mut rng, &mut check)?;
        timing.hit_us.extend(&life.hit_us);
        life_s.push(life.wall_s);
        miss_s.push(life.miss_s);
        last = Some(life.snapshot);
        Ok(life.miss_s)
    })?;
    let snapshot = last.expect("at least one pass ran");

    if !args.trace {
        return Ok(check.outcome(timing.end_to_end(cells.len(), counts.warp_insts)));
    }

    let mut m = Metrics::default();
    timing.common_layers(&mut m);
    m.set("gpu-sim.sim_cycles", counts.sim_cycles as f64);
    m.set("gpu-sim.warp_insts", counts.warp_insts as f64);
    let jobs = (1 + HIT_BATCHES) * cells.len();
    m.set("gpu-serve.jobs_per_s", jobs as f64 / mean(&life_s));
    // Two lifetimes: 168 samples each, so p90 has more than ten beyond it.
    let (mut miss_ms, mut hit_us) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (m, h) = idle_latencies(&cells, &reference, &mut rng, &mut check)?;
        miss_ms.extend(m);
        hit_us.extend(h);
    }
    m.set("gpu-serve.miss_latency_ms_p50", median(&miss_ms));
    m.set("gpu-serve.miss_latency_ms_p90", percentile(&miss_ms, 0.9));
    m.set("gpu-serve.hit_latency_us_p50", median(&hit_us));
    m.set("gpu-serve.hit_latency_us_p90", percentile(&hit_us, 0.9));
    m.set(
        "gpu-serve.hit_under_load_ms_p50",
        hit_under_load_ms(&mut check)?,
    );
    let pct = |p: &str| snapshot.percentile("admission.wait_us", p).unwrap_or(0) as f64;
    m.set("gpu-serve.admission_wait_us_p50", pct("p50"));
    m.set("gpu-serve.admission_wait_us_p95", pct("p95"));
    for (metric, counter) in [
        ("gpu-serve.slot_contention", "server.slot_contention"),
        ("gpu-serve.warm_binds", "server.warm_binds"),
        ("gpu-serve.cold_builds", "server.cold_builds"),
        ("gpu-serve.cache_hits", "server.cache_hits"),
        ("gpu-serve.cache_misses", "server.cache_misses"),
    ] {
        m.set(metric, snapshot.counter(counter) as f64);
    }
    m.set(
        "gpu-serve.overhead_vs_inproc_ratio",
        mean(&miss_s) / mean(&inproc_s),
    );
    Ok(check.outcome(m))
}
