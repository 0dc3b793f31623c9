//! Ablations of the DTBL design choices called out in DESIGN.md:
//!
//! 1. **Coalescing off** (`DTBL-NC`): every aggregated group is launched
//!    as a device kernel — the §4.3 "just add Kernel Distributor entries"
//!    alternative, but keeping DTBL's cheap launch command. Shows how much
//!    of the win comes from coalescing vs. the shorter launch path.
//! 2. **Warp scheduler GTO vs. round-robin**: §5.1 claims the DTBL
//!    extension is transparent to the warp scheduler; the DTBL-over-CDP
//!    ratio should survive a scheduler swap.
//! 3. **Spatial sharing**: SMXs reserved for dynamic work (§5.2B).

use bench::{geomean, scale_from_args, SweepRunner};
use gpu_sim::{GpuConfig, WarpSchedPolicy};
use std::sync::Arc;
use workloads::{Benchmark, CellSetup, Scale, Variant};

const SUBSET: [Benchmark; 5] = [
    Benchmark::Amr,
    Benchmark::Bht,
    Benchmark::BfsCitation,
    Benchmark::RegxString,
    Benchmark::PreMovielens,
];

/// Builds the one setup an ablation's config axis shares; a failure is
/// reported and the ablation prints no rows.
fn setup(b: Benchmark, scale: Scale) -> Option<CellSetup> {
    CellSetup::new(b, scale, GpuConfig::k20c())
        .map_err(|e| eprintln!("  {} setup ** FAILED: {e}", b.name()))
        .ok()
}

fn main() {
    let scale = scale_from_args();
    let runner = SweepRunner::from_args();

    println!("Ablation 1: thread-block coalescing (launch-bearing subset)");
    println!("------------------------------------------------------------");
    let variants = [
        Variant::Flat,
        Variant::Cdp,
        Variant::Dtbl,
        Variant::DtblNoCoalesce,
    ];
    let m = runner.run_matrix(&SUBSET, &variants, scale, GpuConfig::k20c());
    let subset = m.ok_benchmarks(&SUBSET, &variants);
    println!(
        "{:<16}{:>10}{:>10}{:>10}{:>12}",
        "benchmark", "CDP", "DTBL", "DTBL-NC", "coalesce-gain"
    );
    for &b in &subset {
        let flat = m.get(b, Variant::Flat).stats.cycles as f64;
        let s = |v: Variant| flat / m.get(b, v).stats.cycles.max(1) as f64;
        println!(
            "{:<16}{:>9.2}x{:>9.2}x{:>9.2}x{:>11.2}x",
            b.name(),
            s(Variant::Cdp),
            s(Variant::Dtbl),
            s(Variant::DtblNoCoalesce),
            s(Variant::Dtbl) / s(Variant::DtblNoCoalesce),
        );
    }
    let gain = geomean(subset.iter().map(|&b| {
        m.get(b, Variant::DtblNoCoalesce).stats.cycles as f64
            / m.get(b, Variant::Dtbl).stats.cycles.max(1) as f64
    }));
    println!("coalescing contributes {gain:.2}x (geomean) on top of the cheap launch path\n");

    println!("Ablation 2: warp scheduler (GTO vs round-robin), bfs_citation");
    println!("---------------------------------------------------------------");
    let policies = [WarpSchedPolicy::Gto, WarpSchedPolicy::RoundRobin];
    let sched_variants = [Variant::Flat, Variant::Cdp, Variant::Dtbl];
    if let Some(bfs) = setup(Benchmark::BfsCitation, scale) {
        let cells = policies
            .iter()
            .flat_map(|&warp_sched| {
                let s = Arc::new(bfs.with_config(GpuConfig {
                    warp_sched,
                    ..GpuConfig::k20c()
                }));
                sched_variants.map(move |v| (Arc::clone(&s), v))
            })
            .collect();
        // Results come back in cell order: one chunk of variants per policy.
        let results = runner.run_cells(cells);
        for (policy, runs) in policies.iter().zip(results.chunks(sched_variants.len())) {
            let cycles: Result<Vec<u64>, _> = runs
                .iter()
                .map(|(_, r)| r.as_ref().map(|r| r.stats.cycles))
                .collect();
            let Ok(cycles) = cycles else {
                for ((_, v), r) in runs {
                    if let Err(e) = r {
                        eprintln!("  {policy:?} {v:?}: ** FAILED: {e}");
                    }
                }
                continue;
            };
            let (flat, cdp, dtbl) = (cycles[0], cycles[1], cycles[2]);
            println!(
                "{policy:?}: Flat {flat} cyc, CDP {:.2}x, DTBL {:.2}x, DTBL/CDP {:.2}x",
                flat as f64 / cdp as f64,
                flat as f64 / dtbl as f64,
                cdp as f64 / dtbl as f64,
            );
        }
    }
    println!("(the DTBL-over-CDP ratio should be scheduler-insensitive, §5.1)");

    println!("\nAblation 3: spatial sharing (§5.2B extension), clr_graph500 DTBL");
    println!("------------------------------------------------------------------");
    let reserved = [0usize, 1, 2];
    let cells = setup(Benchmark::ClrGraph500, scale).map_or(Vec::new(), |clr| {
        reserved
            .iter()
            .map(|&dyn_reserved_smx| {
                let cfg = GpuConfig {
                    dyn_reserved_smx,
                    ..GpuConfig::k20c()
                };
                (Arc::new(clr.with_config(cfg)), Variant::Dtbl)
            })
            .collect()
    });
    for (reserved, (_, result)) in reserved.iter().zip(runner.run_cells(cells)) {
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("  reserved SMXs = {reserved}: ** FAILED: {e}");
                continue;
            }
        };
        let waiting = r
            .stats
            .avg_waiting_time_opt()
            .map_or("n/a".to_string(), |w| format!("{w:.0}"));
        println!(
            "reserved SMXs = {reserved}: {} cycles, avg waiting {waiting} cycles, peak pending {} KB",
            r.stats.cycles,
            r.stats.peak_pending_bytes / 1024,
        );
    }
    println!("(the paper suggests spatial sharing to shorten the wait of pending groups)");

    m.report_failures();
}
