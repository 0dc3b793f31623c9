//! Figure 12: performance sensitivity to the AGT size — DTBL runtime at
//! 512/1024/2048 AGT entries, normalized to 1024.

use bench::{print_figure, scale_from_args, Cell, SweepRunner};
use gpu_sim::GpuConfig;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use workloads::{Benchmark, CellSetup, Scale, Variant};

fn main() {
    let scale = scale_from_args();
    let runner = SweepRunner::from_args();
    // The paper sweeps 512/1024/2048 against pending-group populations in
    // the tens of thousands; this reproduction's inputs are 100-1000x
    // smaller, so the same mechanism (hash-slot conflicts -> descriptor
    // spills -> global-memory walks) is exercised with a proportionally
    // scaled sweep alongside the paper's sizes.
    let sizes = [32usize, 128, 512, 1024, 2048];
    // At Test scale shrink the AGT proportionally so the sweep still
    // exercises overflow.
    let entries_at = |s: usize| if scale == Scale::Test { s / 16 } else { s };
    let config_at = |s: usize| {
        let mut cfg = GpuConfig {
            agt_entries: entries_at(s),
            ..GpuConfig::k20c()
        };
        // Detailed walk timing: a spilled descriptor costs an
        // un-prefetched global fetch before its group can schedule.
        cfg.pipeline.agt_overflow_load = 150;
        cfg
    };

    // One setup per benchmark; each AGT size is that setup under another
    // config.
    let mut failed: HashSet<Benchmark> = HashSet::new();
    let mut cells: Vec<Cell> = Vec::new();
    let setups = gpu_sim::sweep::run_cells(Benchmark::ALL.to_vec(), runner.jobs(), |&b| {
        CellSetup::new(b, scale, GpuConfig::k20c())
    });
    for (b, setup) in setups {
        match setup {
            Ok(setup) => cells.extend(
                sizes
                    .iter()
                    .map(|&s| (Arc::new(setup.with_config(config_at(s))), Variant::Dtbl)),
            ),
            Err(e) => {
                eprintln!("  ** {} setup FAILED: {e}", b.name());
                failed.insert(b);
            }
        }
    }

    // Results come back in cell order: `sizes` cycles within a benchmark.
    let mut cycles: HashMap<(Benchmark, usize), u64> = HashMap::new();
    for (i, ((setup, _), result)) in runner.run_cells(cells).into_iter().enumerate() {
        let (b, s) = (setup.benchmark(), sizes[i % sizes.len()]);
        match result {
            Ok(r) => {
                cycles.insert((b, s), r.stats.cycles);
            }
            Err(e) => {
                eprintln!("  ** {} AGT={} FAILED: {e}", b.name(), entries_at(s));
                failed.insert(b);
            }
        }
    }
    let benchmarks: Vec<Benchmark> = Benchmark::ALL
        .iter()
        .copied()
        .filter(|b| !failed.contains(b))
        .collect();
    print_figure(
        "Figure 12: Performance Sensitivity to AGT Size (speedup normalized to 1024 entries)",
        &benchmarks,
        &["32", "128", "512", "1024", "2048"],
        |b, s| {
            let sz: usize = s.parse().expect("size");
            cycles[&(b, 1024)] as f64 / cycles[&(b, sz)].max(1) as f64
        },
        |v| format!("{v:.3}"),
    );
    println!("\n(paper: 512 entries cause 1.31x slowdown, 2048 give 1.20x speedup on average;");
    println!(" launch-dense benchmarks — bht, regx — are the most sensitive)");
    if !failed.is_empty() {
        eprintln!("\n{} benchmark(s) FAILED and were excluded:", failed.len());
        for b in &failed {
            eprintln!("  {}", b.name());
        }
    }
}
