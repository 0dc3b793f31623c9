//! The parallel sweep's contract: scheduling cells onto worker threads is
//! the *only* difference from a serial loop, so every run's `Stats` must
//! be identical whichever way the matrix was executed. Each cell builds
//! its own `Gpu` and seeds its own `sim-rand` streams, so nothing about a
//! sibling cell can leak into a run.

use bench::{run_figures, Figure, Matrix, Render, SweepRunner, STOCK};
use gpu_sim::GpuConfig;
use workloads::{Benchmark, Scale, Variant};

const BENCHMARKS: [Benchmark; 3] = [
    Benchmark::Amr,
    Benchmark::BfsCitation,
    Benchmark::RegxString,
];
const VARIANTS: [Variant; 3] = [Variant::Flat, Variant::Cdp, Variant::Dtbl];

/// Runs the 3 × 3 matrix on `jobs` workers.
fn sweep(jobs: usize) -> Matrix {
    let f = Figure {
        name: "determinism",
        cells: (&BENCHMARKS, &[STOCK], &VARIANTS),
        render: Render::Text(|_, _| {}),
        summary: |_, _| Vec::new(),
    };
    run_figures(
        &SweepRunner::new(jobs),
        &[&f],
        Scale::Test,
        GpuConfig::k20c(),
    )
}

/// 3 benchmarks × 3 variants, serially and at two worker counts: every
/// cell's `Stats` must compare equal (full structural equality — cycle
/// counts, launch records, memory counters, the lot), and the failure
/// sets must match.
#[test]
fn parallel_sweep_stats_match_serial() {
    let serial = sweep(1);
    for jobs in [4usize, 8] {
        let parallel = sweep(jobs);
        assert_eq!(
            serial.failures().len(),
            parallel.failures().len(),
            "--jobs {jobs}: failure set diverged from serial"
        );
        for &b in &BENCHMARKS {
            for &v in &VARIANTS {
                assert_eq!(
                    serial.find(b, STOCK.0, v).is_some(),
                    parallel.find(b, STOCK.0, v).is_some(),
                    "{b} [{v}]: succeeded in one mode but not the other at --jobs {jobs}"
                );
                if serial.find(b, STOCK.0, v).is_none() {
                    continue;
                }
                assert_eq!(
                    serial.at(b, STOCK.0, v).stats,
                    parallel.at(b, STOCK.0, v).stats,
                    "{b} [{v}]: Stats diverged between serial and --jobs {jobs}"
                );
            }
        }
    }
}
