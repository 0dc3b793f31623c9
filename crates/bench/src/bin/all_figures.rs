//! Renders Figures 6–11 of the paper's evaluation from one sweep:
//! `all_figures` prints all six, `all_figures fig09 fig11` only those,
//! running just the variants the selection reads. Use
//! `fig12_agt_sensitivity` for the AGT sweep (it needs its own
//! configurations).
//!
//! `--test-scale` switches to the fast test inputs, `--csv` also writes
//! each figure under `out/figures/`, and `--trace PATH` records the sweep
//! (see [`bench::TraceOpts`]).

use bench::{
    csv_from_args, figures_from_args, print_figure, scale_from_args, write_csv, SweepRunner,
    TraceOpts,
};
use workloads::{Benchmark, Variant};

fn main() {
    let scale = scale_from_args();
    let csv = csv_from_args();
    let trace = TraceOpts::from_args();
    let figures = figures_from_args();
    let mut variants: Vec<Variant> = Vec::new();
    for &v in figures.iter().flat_map(|f| f.variants) {
        if !variants.contains(&v) {
            variants.push(v);
        }
    }
    eprintln!(
        "Running the {}-benchmark x {}-variant matrix ({scale:?} scale)...",
        Benchmark::ALL.len(),
        variants.len()
    );
    let mut m =
        SweepRunner::from_args().run_matrix(&Benchmark::ALL, &variants, scale, trace.gpu_config());
    // Render only the rows whose variants all completed; failed runs are
    // reported at the end so one diverging benchmark never costs the
    // whole sweep.
    let benchmarks = m.ok_benchmarks(&Benchmark::ALL, &variants);

    for f in &figures {
        if csv {
            write_csv(
                &format!("{}_{}", f.name, f.csv),
                &benchmarks,
                f.csv_series,
                |b, s| (f.value)(&m, b, s),
            )
            .expect("csv");
        }
        print_figure(
            f.title,
            &benchmarks,
            f.series,
            |b, s| (f.value)(&m, b, s),
            f.fmt,
        );
        (f.summary)(&m, &benchmarks);
    }
    if csv {
        eprintln!("CSV series written under out/figures/");
    }

    trace.write(&mut m, &Benchmark::ALL, &variants);
    m.report_failures();
}
