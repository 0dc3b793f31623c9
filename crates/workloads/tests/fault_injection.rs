//! Deterministic fault-injection sweep: every Table-4 benchmark
//! configuration is run under each fault class of
//! [`FaultPlan`](gpu_sim::FaultPlan), asserting that the simulator either
//! degrades gracefully (spills, device-kernel fallbacks, slower runs with
//! identical results) or fails with a clean typed [`SimError`] — never a
//! panic, and never a silently wrong result.
//!
//! Any panic inside `Benchmark::run_with` fails these tests, so the whole
//! `run_to_idle`/validation path is exercised as a no-panic surface.
//!
//! Each sweep fans its benchmark cells over [`gpu_sim::sweep::run_cells`]
//! worker threads — cells are independent (each builds its own `Gpu`), so
//! the results are identical to a serial loop, just faster. A worker
//! panic propagates when the scope joins, so the no-panic guarantee is
//! still enforced.

use gpu_sim::sweep::run_cells;
use gpu_sim::{DegradePolicy, FaultPlan, GpuConfig, SimError};
use workloads::{Benchmark, Scale, Variant};

/// Worker threads per sweep: bounded below the machine width because
/// cargo's test harness already runs the `#[test]` fns concurrently.
fn jobs() -> usize {
    gpu_sim::sweep::default_jobs().min(4)
}

/// Runs every benchmark under `fault` on worker threads and returns the
/// per-benchmark outcomes in `Benchmark::ALL` order.
fn sweep_all(v: Variant, fault: FaultPlan) -> Vec<(Benchmark, Result<(), SimError>)> {
    run_cells(Benchmark::ALL.to_vec(), jobs(), |&b| {
        let cfg = GpuConfig {
            fault,
            ..GpuConfig::k20c()
        };
        b.run_with(v, Scale::Test, cfg).map(|_| ())
    })
}

/// Asserts the outcome is clean: a validated report or one of the typed
/// errors a fault plan is allowed to surface.
fn assert_typed(b: Benchmark, v: Variant, res: &Result<(), SimError>) {
    if let Err(e) = res {
        assert!(
            matches!(
                e,
                SimError::OutOfMemory { .. }
                    | SimError::AgtExhausted { .. }
                    | SimError::KmuSaturated { .. }
                    | SimError::HwqFull { .. }
                    | SimError::CycleLimit { .. }
            ),
            "{b} [{v}]: fault injection must surface a resource error, got: {e}"
        );
    }
}

/// Forced AGT hash misses push every coalesce through the spill path;
/// spilling is graceful degradation, so every benchmark must still
/// validate.
#[test]
fn forced_agt_overflow_degrades_gracefully() {
    let fault = FaultPlan {
        force_agt_overflow: true,
        ..FaultPlan::default()
    };
    for (b, res) in sweep_all(Variant::Dtbl, fault) {
        res.unwrap_or_else(|e| panic!("{b}: spills must not fail a run: {e}"));
    }
}

/// With spill storage capped at zero on top of forced misses, every
/// aggregated launch falls back to a device kernel — still graceful.
#[test]
fn capped_spill_storage_falls_back_to_device_kernels() {
    let fault = FaultPlan {
        force_agt_overflow: true,
        agt_overflow_capacity: Some(0),
        ..FaultPlan::default()
    };
    for (b, res) in sweep_all(Variant::Dtbl, fault) {
        res.unwrap_or_else(|e| panic!("{b}: fallback must not fail a run: {e}"));
    }
}

/// A heap cap that activates after the host's cycle-0 allocations starves
/// the device-side paths (parameter buffers, pending records, spill
/// descriptors). Runs either complete (no dynamic launches needed the
/// heap) or fail with a typed resource error.
#[test]
fn runtime_heap_exhaustion_is_a_typed_error() {
    let fault = FaultPlan {
        after_cycle: 1,
        heap_limit_bytes: Some(0),
        ..FaultPlan::default()
    };
    let cells: Vec<(Benchmark, Variant)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| [Variant::Cdp, Variant::Dtbl].map(|v| (b, v)))
        .collect();
    let results = run_cells(cells, jobs(), |&(b, v)| {
        let cfg = GpuConfig {
            fault,
            ..GpuConfig::k20c()
        };
        b.run_with(v, Scale::Test, cfg).map(|_| ())
    });
    for ((b, v), res) in &results {
        assert_typed(*b, *v, res);
    }
}

/// A saturated KMU device-kernel pool rejects device launches; the run
/// either needed none (Ok) or fails with `KmuSaturated` — never a panic.
/// Pinned to [`DegradePolicy::strict`]: this is the pre-ladder contract;
/// the default ladder recovers instead
/// (`kmu_saturation_recovers_under_the_ladder`).
#[test]
fn kmu_saturation_is_a_typed_error() {
    let fault = FaultPlan {
        kmu_device_capacity: Some(2),
        ..FaultPlan::default()
    };
    let results = run_cells(Benchmark::ALL.to_vec(), jobs(), |&b| {
        let cfg = GpuConfig {
            fault,
            degrade: DegradePolicy::strict(),
            ..GpuConfig::k20c()
        };
        b.run_with(Variant::Cdp, Scale::Test, cfg).map(|_| ())
    });
    for (b, res) in results {
        assert_typed(b, Variant::Cdp, &res);
    }
}

/// The same saturated KMU under the default degradation ladder: no run
/// aborts any more. Saturated launches wait out deterministic backoffs
/// and retry; every benchmark completes *and validates*, and the ones
/// that actually hit the cap show backoffs in their stats.
#[test]
fn kmu_saturation_recovers_under_the_ladder() {
    let fault = FaultPlan {
        kmu_device_capacity: Some(2),
        ..FaultPlan::default()
    };
    let results = run_cells(Benchmark::ALL.to_vec(), jobs(), |&b| {
        let cfg = GpuConfig {
            fault,
            degrade: DegradePolicy::ladder(),
            ..GpuConfig::k20c()
        };
        b.run_with(Variant::Cdp, Scale::Test, cfg).map(|r| r.stats)
    });
    let mut saturated_runs = 0;
    for (b, res) in results {
        let stats = res.unwrap_or_else(|e| panic!("{b}: the ladder must absorb saturation: {e}"));
        if stats.kmu_saturation_rejections > 0 {
            saturated_runs += 1;
            assert!(
                stats.launch_backoffs > 0,
                "{b}: saturated attempts must show up as backoffs"
            );
        }
    }
    assert!(
        saturated_runs > 0,
        "a 2-slot KMU pool must saturate at least one benchmark"
    );
}

/// The full ladder end-to-end on one benchmark (`amr`, whose refinement
/// bursts keep child kernels resident): forced AGT misses plus zero spill
/// storage deny every aggregated group its descriptor (rung 1 → 2), the
/// single-slot KMU pool saturates the resulting device-kernel fallbacks
/// into backed-off retries, and launches whose retries exhaust execute
/// host-serialized (rung 2 → 3). The run still completes and *validates*,
/// with every stage of the descent visible in the stats.
#[test]
fn full_ladder_descends_to_host_serialized_and_validates() {
    let fault = FaultPlan {
        force_agt_overflow: true,
        agt_overflow_capacity: Some(0),
        kmu_device_capacity: Some(1),
        ..FaultPlan::default()
    };
    let cfg = GpuConfig {
        fault,
        degrade: DegradePolicy::ladder(),
        ..GpuConfig::k20c()
    };
    let report = Benchmark::Amr
        .run_with(Variant::Dtbl, Scale::Test, cfg)
        .expect("the ladder must carry the run to a validated completion");
    let stats = &report.stats;
    assert!(
        stats.degraded_to_device_kernel > 0,
        "rung 1→2: denied aggregated groups must be counted"
    );
    assert!(
        stats.launch_backoffs > 0,
        "rung 2: saturated fallbacks must retry with backoff"
    );
    assert!(
        stats.degraded_to_host_serial > 0,
        "rung 2→3: exhausted retries must host-serialize"
    );
}

/// The benchmarks launch from the host one kernel at a time and drain the
/// machine in between, so even a single-slot hardware work queue never
/// rejects — the cap must be invisible.
#[test]
fn single_slot_hwq_is_enough_for_the_harness() {
    let fault = FaultPlan {
        hwq_capacity: Some(1),
        ..FaultPlan::default()
    };
    for (b, res) in sweep_all(Variant::Dtbl, fault) {
        res.unwrap_or_else(|e| panic!("{b}: serialized host launches fit any queue: {e}"));
    }
}

/// Degraded memory (every completion delayed) slows runs down but must
/// not change any benchmark's result.
#[test]
fn delayed_memory_preserves_results() {
    let fault = FaultPlan {
        mem_delay: 64,
        ..FaultPlan::default()
    };
    for (b, res) in sweep_all(Variant::Dtbl, fault) {
        res.unwrap_or_else(|e| panic!("{b}: a slow memory must only cost cycles: {e}"));
    }
}
