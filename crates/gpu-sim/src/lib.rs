//! Cycle-level GK110-class GPU simulator with CDP and DTBL.
//!
//! This crate assembles the substrates into the machine the DTBL paper
//! evaluates on:
//!
//! * the **baseline GPU** of §2: SMXs with warp contexts, a PDOM SIMT
//!   reconvergence stack, greedy-then-oldest warp scheduling, memory
//!   coalescing into the [`gpu_mem`] hierarchy, hardware work queues, the
//!   Kernel Management Unit and the 32-entry Kernel Distributor with
//!   concurrent kernel execution;
//! * **CUDA Dynamic Parallelism** (§2.4): `cudaGetParameterBuffer` /
//!   `cudaLaunchDevice` with the per-warp `A·x + b` latency model of
//!   Table 3, per-launch stream creation, and the 283-cycle KMU dispatch;
//! * **Dynamic Thread Block Launch** (§4): `cudaLaunchAggGroup` backed by
//!   the [`dtbl_core`] Aggregated Group Table and scheduling pool, with
//!   eligibility search, hash allocation, coalescing to resident kernels,
//!   fallback device-kernel launches, and the extended SMX-scheduler flow.
//!
//! The entry point is [`Gpu`]: load a [`gpu_isa::Program`], `malloc` and
//! fill device memory, `launch` kernels into streams, then
//! [`Gpu::run_to_idle`] and read the [`Stats`] — which carry exactly the
//! metrics plotted in the paper's Figures 6–11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Diagnostics are gpu-trace events or typed errors: a stray print in the
// simulator corrupts figure stdout and dodges the category filter.
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod access_slab;
mod config;
mod error;
mod fault;
mod gpu;
mod invariants;
mod launch;
pub mod server;
mod smx;
mod stats;
pub mod sweep;
mod trace;
mod watchdog;

pub use config::{
    CancelToken, GpuConfig, LatencyTable, PipelineLatencies, RunBudget, WarpSchedPolicy,
};
pub use error::{BudgetKind, HangReport, SimError, StuckWarp, StuckWarpState};
pub use fault::FaultPlan;
pub use gpu::Gpu;
pub use server::{BatchServer, CellKey, WarmSlot};
pub use smx::warp::{StackEntry, Warp, WarpState, NO_RECONV};
pub use smx::{Smx, TbSlot, Tbcr};
pub use stats::{DynLaunchKind, LaunchRecord, Stats};

pub use gpu_trace::{TraceConfig, TraceData};
