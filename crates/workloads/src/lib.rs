//! Irregular GPU benchmarks for the DTBL reproduction (Table 4 of the
//! paper) plus the synthetic datasets they run on.
//!
//! Every application is implemented three ways over identical data
//! structures: **Flat** (the nested loop serialized in each thread),
//! **CDP** (device-kernel launch per pocket of parallelism) and **DTBL**
//! (aggregated-group launch), plus the zero-launch-latency ideal variants
//! (CDPI/DTBLI) the paper uses to isolate scheduling effects.
//!
//! The entry point is [`Benchmark`]: pick one of the paper's 16
//! benchmark/input configurations, a [`Variant`], and a scale, and get
//! back a validated [`RunReport`] carrying every metric of Figures 6–11.
//! Any failure — a hang, exhausted hardware structure, or output that
//! diverges from the host reference — comes back as a typed
//! [`gpu_sim::SimError`] naming the benchmark, never a panic.
//!
//! ```no_run
//! use workloads::{Benchmark, Scale, Variant};
//!
//! let report = Benchmark::BfsCitation.run(Variant::Dtbl, Scale::Test).unwrap();
//! println!("speedup-relevant cycles: {}", report.stats.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
mod common;
pub mod data;
mod harness;
mod report;
mod setup;

pub use common::{
    build_kernel, ceil_div, child_guard, emit_dfp, emit_dfp_with_threshold, validate_scalar,
    validate_u32, LaunchMode, Variant, CHILD_TB, DFP_THRESHOLD,
};
pub use harness::{Benchmark, Scale};
pub use report::RunReport;
pub use setup::{cell_key, AppData, CellSetup};
