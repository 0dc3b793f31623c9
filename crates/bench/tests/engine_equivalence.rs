//! The engines' headline contract at workload scale: across the full
//! benchmark matrix, the event-driven engine must produce `Stats`
//! structurally identical to stepping every cycle — cycle counts, launch
//! records, memory counters, occupancy integrals, the lot. Any component
//! whose `next_event_at` horizon overshoots its true next state change
//! shows up here as a divergence. The same holds for the serving paths:
//! cold, warm-pooled and cached cells agree bit for bit.

use bench::{run_figures, Figure, Matrix, Render, SweepRunner, STOCK};
use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::{BudgetKind, CancelToken, Gpu, GpuConfig, SimError, Stats};
use gpu_trace::{Category, TraceConfig};
use workloads::{Benchmark, Scale, Variant};

const VARIANTS: [Variant; 3] = [Variant::Flat, Variant::Cdp, Variant::Dtbl];

/// Runs `benchmarks` × [`VARIANTS`] on `runner` under `cfg`.
fn sweep(runner: &SweepRunner, benchmarks: &'static [Benchmark], cfg: GpuConfig) -> Matrix {
    let f = Figure {
        name: "equivalence",
        cells: (benchmarks, &[STOCK], &VARIANTS),
        render: Render::Text(|_, _| {}),
        summary: |_, _| Vec::new(),
    };
    run_figures(runner, &[&f], Scale::Test, cfg)
}

/// Asserts two matrices agree cell-for-cell: same failure set, and
/// bit-identical `Stats` on every successful cell.
fn assert_matrices_identical(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(
        a.failures().len(),
        b.failures().len(),
        "{what}: failure sets diverged"
    );
    for &bm in Benchmark::ALL.iter() {
        for &v in &VARIANTS {
            assert_eq!(
                a.find(bm, STOCK.0, v).is_some(),
                b.find(bm, STOCK.0, v).is_some(),
                "{what}: {bm} [{v}] succeeded under one engine but not the other"
            );
            if a.find(bm, STOCK.0, v).is_none() {
                continue;
            }
            assert_eq!(
                a.at(bm, STOCK.0, v).stats,
                b.at(bm, STOCK.0, v).stats,
                "{what}: {bm} [{v}] Stats diverged"
            );
        }
    }
}

/// All 16 benchmarks × 3 variants, once per engine. Uses a worker pool
/// for wall clock; `sweep_determinism` separately proves the pool cannot
/// affect results.
#[test]
fn event_driven_stats_match_per_cycle() {
    let evented = sweep(&SweepRunner::new(4), &Benchmark::ALL, GpuConfig::k20c());
    let mut cfg = GpuConfig::k20c();
    cfg.force_per_cycle = true;
    let percycle = sweep(&SweepRunner::new(4), &Benchmark::ALL, cfg);
    assert_matrices_identical(&evented, &percycle, "event-driven vs per-cycle");
}

/// Sampled tracing keeps the event engine on: under `TraceConfig::all()`
/// (every category plus a metrics sample each 1000 cycles — the daemon
/// TRACE op's and `--trace`'s configuration) the sample cycles are landing
/// sites of the skip, so the event-driven run must record the same
/// `Stats`, the same events and the same samples as stepping every cycle.
/// A skip that overshot a sample cycle would drop or shift a sample; one
/// that mis-accounted the skipped span would change a sample's occupancy.
#[test]
fn sampled_tracing_matches_per_cycle_across_matrix() {
    const TRACED_VARIANTS: [Variant; 4] = [
        Variant::Flat,
        Variant::Cdp,
        Variant::Dtbl,
        Variant::DtblIdeal,
    ];
    let cells: Vec<(Benchmark, Variant)> = Benchmark::ALL
        .iter()
        .flat_map(|&bm| TRACED_VARIANTS.map(|v| (bm, v)))
        .collect();
    // Cells are compared and dropped one at a time: a matrix of full
    // traces held twice over would be gigabytes.
    gpu_sim::sweep::run_cells(cells, 4, |&(bm, v)| {
        let run = |force_per_cycle: bool| {
            let mut cfg = GpuConfig::k20c();
            cfg.trace = TraceConfig::all();
            cfg.force_per_cycle = force_per_cycle;
            let mut report = bm.run_with(v, Scale::Test, cfg)?;
            let trace = report.trace.take().expect("tracing was enabled");
            Ok((report.stats, trace))
        };
        let (ev_stats, ev) = run(false)?;
        let (pc_stats, pc) = run(true)?;
        assert_eq!(ev_stats, pc_stats, "{bm} [{v}]: Stats diverged");
        assert!(ev.events == pc.events, "{bm} [{v}]: events diverged");
        assert_eq!(ev.samples, pc.samples, "{bm} [{v}]: samples diverged");
        assert_eq!(ev.dropped, pc.dropped, "{bm} [{v}]: drop counts diverged");
        assert_eq!(
            ev.samples.len() as u64,
            (ev_stats.cycles - 1) / 1000,
            "{bm} [{v}]: one sample per 1000 cycles"
        );
        Ok::<(), SimError>(())
    })
    .into_iter()
    .for_each(|((bm, v), result)| result.unwrap_or_else(|e| panic!("{bm} [{v}]: {e}")));
}

/// The reference the serving paths are held to: every cell built and run
/// on its own fresh `Gpu::new` (`CellSetup::new(..)?.run(v)`), nothing
/// pooled, nothing cached. Panics (assertion failures included) re-raise.
fn fresh_matrix(benchmarks: &[Benchmark], cfg: &GpuConfig) -> Matrix {
    let cells: Vec<(Benchmark, Variant)> = benchmarks
        .iter()
        .flat_map(|&bm| VARIANTS.map(|v| (bm, v)))
        .collect();
    let mut m = Matrix::default();
    m.extend(
        gpu_sim::sweep::run_cells(cells, 4, |&(bm, v)| {
            bm.run_with(v, Scale::Test, cfg.clone())
        })
        .into_iter()
        .map(|((bm, v), r)| ((bm, STOCK.0, v), r)),
    );
    m
}

/// The warm-pool serving contract across the full matrix: every benchmark
/// run cold (fresh construction per cell), warm-pooled (reset + bind on
/// the runner's server), and as a cache hit (same runner, repeat sweep)
/// must produce bit-identical `Stats`. Any mutable field `Gpu::reset_bind`
/// forgets to reinitialize, or any artifact-relevant config field
/// `GpuConfig::content_hash` forgets to hash, shows up here.
#[test]
fn cold_warm_and_cached_paths_are_bit_identical() {
    let cold = fresh_matrix(&Benchmark::ALL, &GpuConfig::k20c());

    let runner = SweepRunner::new(4);
    let server = runner.server();
    let warm = sweep(&runner, &Benchmark::ALL, GpuConfig::k20c());
    assert_matrices_identical(&cold, &warm, "cold vs warm-pooled");
    let executed = server.cache_misses();
    assert!(
        server.warm_binds() > 0,
        "a 48-cell batch on a 4-slot pool must rebind warm instances"
    );

    let cached = sweep(&runner, &Benchmark::ALL, GpuConfig::k20c());
    assert_eq!(
        server.cache_misses(),
        executed,
        "the repeat batch must be served entirely from the result cache"
    );
    assert_eq!(server.cache_hits(), executed);
    assert_matrices_identical(&cold, &cached, "cold vs cache-hit");
}

/// Traces through the serving paths, not just aggregate stats: the JSONL
/// export of a warm-pooled run and of a cache-hit run must be
/// byte-identical to the cold run — same events, same order, same cycle
/// stamps (cached reports carry the first run's recorded trace verbatim).
#[test]
fn warm_and_cached_traces_match_cold_byte_for_byte() {
    // In `Benchmark::ALL` order, the order a sweep runs (and exports) them.
    const TRACED: [Benchmark; 3] = [Benchmark::Amr, Benchmark::Bht, Benchmark::BfsUsaRoad];
    let mut cfg = GpuConfig::k20c();
    cfg.trace = TraceConfig {
        mask: Category::default_mask(),
        metrics_interval: 1000,
        ..TraceConfig::off()
    };
    let runner = SweepRunner::new(1);
    let jsonl = |m: &mut Matrix| -> String {
        assert!(m.failures().is_empty(), "traced runs must all succeed");
        gpu_trace::export::jsonl(&m.take_traces())
    };

    let mut cold = fresh_matrix(&TRACED, &cfg);
    let cold_jsonl = jsonl(&mut cold);
    assert!(!cold_jsonl.is_empty());

    let mut warm = sweep(&runner, &TRACED, cfg.clone());
    assert!(
        jsonl(&mut warm) == cold_jsonl,
        "warm-pooled JSONL trace diverged from cold construction"
    );

    let mut cached = sweep(&runner, &TRACED, cfg);
    assert_eq!(
        runner.server().cache_hits(),
        9,
        "second traced batch is all hits"
    );
    assert!(
        jsonl(&mut cached) == cold_jsonl,
        "cache-hit JSONL trace diverged from cold construction"
    );
}

/// A run budget is part of the determinism contract, not an escape hatch
/// from it: a cycle cap must land both engines — per-cycle and
/// event-driven — on the *identical* cycle with bit-identical partial
/// `Stats`. The cap is folded into the event
/// engine's skip target, so even a skip that would have sailed past the
/// cap stops exactly on it.
#[test]
fn cycle_cap_trips_at_identical_cycle_across_engines() {
    let (b, v) = (Benchmark::BfsCitation, Variant::Dtbl);
    let full = b
        .run_with(v, Scale::Test, GpuConfig::k20c())
        .expect("unbudgeted probe run completes");
    let cap = full.stats.cycles / 2;
    assert!(cap > 0, "the probe run must be long enough to halve");

    let run = |mut cfg: GpuConfig| -> (u64, Box<Stats>) {
        cfg.budget.cycle_cap = Some(cap);
        match b.run_with(v, Scale::Test, cfg) {
            Err(SimError::DeadlineExceeded {
                budget: BudgetKind::Cycles,
                cycle,
                stats,
            }) => (cycle, stats),
            other => panic!("expected a cycle-cap stop, got {other:?}"),
        }
    };

    let mut pc_cfg = GpuConfig::k20c();
    pc_cfg.force_per_cycle = true;
    let (pc_cycle, pc_stats) = run(pc_cfg);
    let (ev_cycle, ev_stats) = run(GpuConfig::k20c());

    assert_eq!(
        pc_cycle, cap,
        "per-cycle engine must stop exactly at the cap"
    );
    assert_eq!(ev_cycle, cap, "event engine must land exactly on the cap");
    assert_eq!(
        pc_stats, ev_stats,
        "partial stats diverged: per-cycle vs event-driven"
    );
}

/// One root warp whose lanes each grab a device-side parameter buffer and
/// CDP-launch a child — the heap grows *mid-run*, at an instruction, not
/// at setup.
fn heapy_gpu(cfg: GpuConfig) -> Gpu {
    let mut prog = Program::new();
    // Child: tag its 32-word slice.
    let mut cb = KernelBuilder::new("child", Dim3::x(32), 1);
    let base = cb.ld_param(0);
    let gtid = cb.global_tid();
    let addr = cb.mad(gtid, Op::Imm(4), Op::Reg(base));
    cb.st(Space::Global, addr, 0, Op::Reg(gtid));
    let child = prog.add(cb.build().unwrap());
    // Root: each lane launches one child on its own slice.
    let mut rb = KernelBuilder::new("root", Dim3::x(8), 1);
    let out = rb.ld_param(0);
    let gtid = rb.global_tid();
    let buf = rb.get_param_buf(1);
    let slice = rb.imul(gtid, Op::Imm(32 * 4));
    let sbase = rb.iadd(slice, Op::Reg(out));
    rb.st_param_word(buf, 0, Op::Reg(sbase));
    rb.launch_device(child, Op::Imm(1), buf);
    let root = prog.add(rb.build().unwrap());

    let mut gpu = Gpu::new(cfg, prog);
    let out = gpu.malloc(8 * 32 * 4).unwrap();
    gpu.launch(root, 1, &[out], 0).unwrap();
    gpu
}

/// The live-heap cap trips the first time an *executed instruction* grows
/// the heap past it. Heap growth only happens on cycles where work runs,
/// and both engines step exactly those cycles, so the trip cycle — and
/// the partial stats — must be identical across them.
#[test]
fn heap_cap_trips_at_identical_cycle_across_engines() {
    // Measure the post-setup baseline once; the device-side parameter
    // buffers allocated mid-run are what must push past the cap.
    let baseline = heapy_gpu(GpuConfig::test_small()).heap_live_bytes();
    let cap = baseline + 300;

    let run = |mut cfg: GpuConfig| -> (u64, Box<Stats>) {
        cfg.budget.live_heap_cap = Some(cap);
        let mut gpu = heapy_gpu(cfg);
        match gpu.run_to_idle() {
            Err(SimError::DeadlineExceeded {
                budget: BudgetKind::LiveHeap,
                cycle,
                stats,
            }) => (cycle, stats),
            other => panic!("expected a live-heap stop, got {other:?}"),
        }
    };

    let mut pc_cfg = GpuConfig::test_small();
    pc_cfg.force_per_cycle = true;
    let (pc_cycle, pc_stats) = run(pc_cfg);
    let (ev_cycle, ev_stats) = run(GpuConfig::test_small());

    assert!(pc_cycle > 0, "the cap must trip mid-run, not at setup");
    assert_eq!(
        pc_cycle, ev_cycle,
        "heap-cap trip cycle: per-cycle vs event"
    );
    assert_eq!(
        pc_stats, ev_stats,
        "heap-cap partial stats: per-cycle vs event"
    );
}

/// Wall-clock deadlines depend on the host, so the contract is shape
/// only: a 0 ms deadline must surface as the typed `WallClock` budget
/// stop carrying a partial-stats snapshot stamped with the stop cycle —
/// never a panic, never an unrelated error. (The wall check is sampled
/// every 1024 steps, so the per-cycle engine guarantees it runs.)
#[test]
fn wall_clock_deadline_surfaces_as_a_typed_error() {
    let mut cfg = GpuConfig::k20c();
    cfg.force_per_cycle = true;
    cfg.budget.deadline_ms = Some(0);
    match Benchmark::BfsCitation.run_with(Variant::Dtbl, Scale::Test, cfg) {
        Err(SimError::DeadlineExceeded {
            budget: BudgetKind::WallClock,
            cycle,
            stats,
        }) => {
            assert!(cycle > 0, "the deadline is checked after stepping");
            assert_eq!(
                stats.cycles, cycle,
                "the partial snapshot must be stamped with the stop cycle"
            );
        }
        other => panic!("expected a wall-clock stop, got {other:?}"),
    }
}

/// A token cancelled before the run starts stops it at the first
/// boundary check with partial stats — the cooperative-cancellation
/// contract a sweep driver relies on to abandon cells.
#[test]
fn pre_cancelled_token_stops_the_run_with_partial_stats() {
    let token = CancelToken::new();
    token.cancel();
    let mut cfg = GpuConfig::k20c();
    cfg.budget.cancel = Some(token);
    match Benchmark::BfsCitation.run_with(Variant::Dtbl, Scale::Test, cfg) {
        Err(SimError::Cancelled { cycle, stats }) => {
            assert!(cycle >= 1, "cancellation lands after at least one step");
            assert_eq!(stats.cycles, cycle);
        }
        other => panic!("expected a cancellation stop, got {other:?}"),
    }
}
