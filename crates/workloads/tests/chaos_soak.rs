//! Chaos soak (the supervision tentpole's acceptance harness): fault
//! plans × injected panics × tight budgets × cancellation, composed over
//! every Table-4 benchmark and executed under the supervised sweep. The
//! bar:
//!
//! * **zero escaped panics** — the soak itself completing proves it;
//! * every outcome is **typed or recovered** — `Ok`, an expected
//!   `SimError` variant for its chaos mode, or a structured
//!   [`CrashReport`](gpu_sim::sweep::CrashReport) for the injected
//!   panics (and *only* those);
//! * degradation counters in `Stats` agree with the `LaunchDegraded` /
//!   `LaunchBackoff` / `DeadlineHit` events in the trace.

use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::sweep::{run_cells_supervised, CellOutcome};
use gpu_sim::{BudgetKind, CancelToken, FaultPlan, Gpu, GpuConfig, SimError};
use gpu_trace::{Category, EventKind, LaunchPath, TraceConfig};
use workloads::{Benchmark, Scale, Variant};

/// A cycle cap most Test-scale runs exceed; cells shorter than it simply
/// finish, which is also a legal outcome.
const CYCLE_CAP: u64 = 8_000;

/// One way to hurt a run. `Panic` injects a closure-level panic (the
/// supervision harness's job); the others go through the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Chaos {
    /// No fault, no budget — the control group.
    Calm,
    /// Forced AGT misses + zero spill storage + one KMU slot: the full
    /// DTBL → device-kernel → host-serialized ladder.
    AgtSqueeze,
    /// Two KMU device-pool slots: saturation backoffs.
    KmuSqueeze,
    /// Device heap denied after cycle 1: typed resource errors allowed.
    HeapFault,
    /// Tight deterministic run budget.
    CycleCap,
    /// A token cancelled before the run starts.
    Cancel,
    /// The cell closure itself panics.
    Panic,
}

const MODES: [Chaos; 7] = [
    Chaos::Calm,
    Chaos::AgtSqueeze,
    Chaos::KmuSqueeze,
    Chaos::HeapFault,
    Chaos::CycleCap,
    Chaos::Cancel,
    Chaos::Panic,
];

fn config_for(mode: Chaos) -> GpuConfig {
    let mut cfg = GpuConfig::k20c();
    match mode {
        Chaos::Calm | Chaos::Panic => {}
        Chaos::AgtSqueeze => {
            cfg.fault = FaultPlan {
                force_agt_overflow: true,
                agt_overflow_capacity: Some(0),
                kmu_device_capacity: Some(1),
                ..FaultPlan::default()
            };
        }
        Chaos::KmuSqueeze => {
            cfg.fault = FaultPlan {
                kmu_device_capacity: Some(2),
                ..FaultPlan::default()
            };
        }
        Chaos::HeapFault => {
            cfg.fault = FaultPlan {
                after_cycle: 1,
                heap_limit_bytes: Some(0),
                ..FaultPlan::default()
            };
        }
        Chaos::CycleCap => cfg.budget.cycle_cap = Some(CYCLE_CAP),
        Chaos::Cancel => {
            let token = CancelToken::new();
            token.cancel();
            cfg.budget.cancel = Some(token);
        }
    }
    cfg
}

/// A resource error a fault plan is allowed to surface.
fn typed_resource_error(e: &SimError) -> bool {
    matches!(
        e,
        SimError::OutOfMemory { .. } | SimError::CycleLimit { .. }
    )
}

/// The whole grid — 16 benchmarks × 7 chaos modes — through the
/// supervised sweep in one pass: panics isolated and quarantined, every
/// other outcome matched against what its chaos mode permits.
#[test]
fn chaos_soak_survives_the_full_grid() {
    let cells: Vec<(Benchmark, Chaos)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| MODES.map(|m| (b, m)))
        .collect();
    let total = cells.len();
    let outcomes = run_cells_supervised(cells, 4, 1, |&(b, mode)| {
        if mode == Chaos::Panic {
            panic!("chaos: injected panic in {b}");
        }
        b.run_with(Variant::Dtbl, Scale::Test, config_for(mode))
            .map(|r| r.stats)
    });
    assert_eq!(outcomes.len(), total);

    let mut cap_trips = 0usize;
    let mut ladder_recoveries = 0usize;
    let mut crashes = 0usize;
    for ((b, mode), outcome) in &outcomes {
        match (mode, outcome) {
            // The injected panic is persistent, so both attempts crash
            // and the report carries the payload and attempt count.
            (Chaos::Panic, CellOutcome::Crashed(report)) => {
                crashes += 1;
                assert_eq!(report.attempts, 2, "{b}: first run + 1 quarantined retry");
                assert!(
                    report.payload.contains("injected panic"),
                    "{b}: payload lost: {}",
                    report.payload
                );
            }
            (_, CellOutcome::Crashed(report)) => {
                panic!("{b} [{mode:?}]: only injected panics may crash: {report}")
            }
            (Chaos::Panic, _) => panic!("{b}: an injected panic cannot succeed"),

            (Chaos::Calm, CellOutcome::Ok(_)) => {}
            (Chaos::Calm, CellOutcome::Err(e)) => {
                panic!("{b}: the control group must validate: {e}")
            }

            // The ladder absorbs every squeeze: its last rung runs any
            // child grid, so only a guest fault could end such a run.
            (Chaos::AgtSqueeze | Chaos::KmuSqueeze, CellOutcome::Ok(stats)) => {
                if stats.degraded_to_device_kernel > 0
                    || stats.launch_backoffs > 0
                    || stats.degraded_to_host_serial > 0
                {
                    ladder_recoveries += 1;
                }
            }
            (Chaos::AgtSqueeze | Chaos::KmuSqueeze, CellOutcome::Err(e)) => {
                panic!("{b} [{mode:?}]: the ladder must carry a squeezed run home: {e}")
            }

            (Chaos::HeapFault, CellOutcome::Ok(_)) => {}
            (Chaos::HeapFault, CellOutcome::Err(e)) => assert!(
                typed_resource_error(e),
                "{b} [heap fault]: untyped failure: {e}"
            ),

            (Chaos::CycleCap, CellOutcome::Ok(stats)) => assert!(
                stats.cycles <= CYCLE_CAP,
                "{b}: a run past the cap must have been stopped"
            ),
            (Chaos::CycleCap, CellOutcome::Err(e)) => match e {
                SimError::DeadlineExceeded {
                    budget: BudgetKind::Cycles,
                    cycle,
                    stats,
                } => {
                    cap_trips += 1;
                    assert_eq!(*cycle, CYCLE_CAP, "{b}: must stop exactly at the cap");
                    assert_eq!(stats.cycles, *cycle, "{b}: partial snapshot stamp");
                }
                other => panic!("{b}: cycle cap surfaced as {other}"),
            },

            (Chaos::Cancel, CellOutcome::Err(SimError::Cancelled { stats, cycle })) => {
                assert_eq!(stats.cycles, *cycle, "{b}: partial snapshot stamp");
            }
            (Chaos::Cancel, other) => {
                panic!("{b}: a pre-cancelled token must cancel, got {other:?}")
            }
        }
    }
    assert_eq!(
        crashes,
        Benchmark::ALL.len(),
        "one injected panic per benchmark"
    );
    assert!(
        cap_trips > 0,
        "the cycle cap must trip at least one benchmark"
    );
    assert!(
        ladder_recoveries > 0,
        "at least one squeezed cell must recover via the ladder"
    );
}

/// Counters and events are two views of the same ladder: on a traced
/// squeezed run, each `Stats` degradation counter must equal the number
/// of matching trace events.
#[test]
fn degradation_counters_match_trace_events() {
    let cfg = GpuConfig {
        trace: TraceConfig {
            mask: Category::Launch.bit(),
            ring: 64,
            limit: u32::MAX,
            metrics_interval: 0,
        },
        ..config_for(Chaos::AgtSqueeze)
    };
    let report = Benchmark::Amr
        .run_with(Variant::Dtbl, Scale::Test, cfg)
        .expect("the ladder must carry the squeezed run home");
    let stats = &report.stats;
    let trace = report.trace.expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "the consistency check needs every event");

    let mut to_fallback = 0u64;
    let mut to_host = 0u64;
    let mut backoffs = 0u64;
    for ev in &trace.events {
        match ev.kind {
            EventKind::LaunchDegraded { to_path, .. } => {
                if to_path == LaunchPath::AggFallback.code() {
                    to_fallback += 1;
                } else if to_path == LaunchPath::HostSerial.code() {
                    to_host += 1;
                }
            }
            EventKind::LaunchBackoff { .. } => backoffs += 1,
            _ => {}
        }
    }
    assert!(stats.degraded_to_device_kernel > 0, "the squeeze must bite");
    assert_eq!(
        to_fallback, stats.degraded_to_device_kernel,
        "rung 1→2 events vs counter"
    );
    assert_eq!(
        to_host, stats.degraded_to_host_serial,
        "rung 2→3 events vs counter"
    );
    assert_eq!(backoffs, stats.launch_backoffs, "backoff events vs counter");
}

/// A budget stop leaves a `DeadlineHit` marker in the trace — exactly
/// one, carrying the budget kind and the limit that tripped.
#[test]
fn budget_stop_is_marked_in_the_trace() {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("spin", Dim3::x(32), 1);
    let gtid = b.global_tid();
    let base = b.ld_param(0);
    let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
    b.st(Space::Global, addr, 0, Op::Reg(gtid));
    let k = prog.add(b.build().unwrap());
    let mut cfg = GpuConfig::test_small();
    cfg.trace = TraceConfig {
        mask: Category::Launch.bit(),
        ring: 16,
        limit: u32::MAX,
        metrics_interval: 0,
    };
    cfg.budget.cycle_cap = Some(3);
    let mut gpu = Gpu::new(cfg, prog);
    let out = gpu.malloc(32 * 4).unwrap();
    gpu.launch(k, 1, &[out], 0).unwrap();
    match gpu.run_to_idle() {
        Err(SimError::DeadlineExceeded {
            budget: BudgetKind::Cycles,
            cycle: 3,
            ..
        }) => {}
        other => panic!("expected a cycle-cap stop at cycle 3, got {other:?}"),
    }
    let trace = gpu.take_trace().expect("tracing was enabled");
    let hits: Vec<_> = trace
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::DeadlineHit { budget, limit } => Some((ev.cycle, budget, limit)),
            _ => None,
        })
        .collect();
    assert_eq!(
        hits,
        vec![(3, BudgetKind::Cycles.code(), 3)],
        "exactly one DeadlineHit, at the stop cycle, naming the tripped cap"
    );
}
