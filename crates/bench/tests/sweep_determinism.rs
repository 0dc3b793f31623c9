//! The parallel sweep's contract: scheduling cells onto worker threads is
//! the *only* difference from a serial loop, so every run's `Stats` must
//! be identical whichever way the matrix was executed. Each cell builds
//! its own `Gpu` and seeds its own `sim-rand` streams, so nothing about a
//! sibling cell can leak into a run.

use bench::SweepRunner;
use gpu_sim::GpuConfig;
use workloads::{Benchmark, Scale, Variant};

const BENCHMARKS: [Benchmark; 3] = [
    Benchmark::Amr,
    Benchmark::BfsCitation,
    Benchmark::RegxString,
];
const VARIANTS: [Variant; 3] = [Variant::Flat, Variant::Cdp, Variant::Dtbl];

/// 3 benchmarks × 3 variants, serially and at two worker counts: every
/// cell's `Stats` must compare equal (full structural equality — cycle
/// counts, launch records, memory counters, the lot), and the failure
/// sets must match.
#[test]
fn parallel_sweep_stats_match_serial() {
    let serial =
        SweepRunner::new(1).run_matrix(&BENCHMARKS, &VARIANTS, Scale::Test, GpuConfig::k20c());
    for jobs in [4usize, 8] {
        let parallel = SweepRunner::new(jobs).run_matrix(
            &BENCHMARKS,
            &VARIANTS,
            Scale::Test,
            GpuConfig::k20c(),
        );
        assert_eq!(
            serial.failures().len(),
            parallel.failures().len(),
            "--jobs {jobs}: failure set diverged from serial"
        );
        for &b in &BENCHMARKS {
            for &v in &VARIANTS {
                assert_eq!(
                    serial.contains(b, v),
                    parallel.contains(b, v),
                    "{b} [{v}]: succeeded in one mode but not the other at --jobs {jobs}"
                );
                if !serial.contains(b, v) {
                    continue;
                }
                assert_eq!(
                    serial.get(b, v).stats,
                    parallel.get(b, v).stats,
                    "{b} [{v}]: Stats diverged between serial and --jobs {jobs}"
                );
            }
        }
    }
}
