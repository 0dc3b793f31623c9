//! GPU memory hierarchy for the DTBL simulator.
//!
//! The crate separates *function* from *timing*, the same split GPGPU-Sim
//! uses and the one the DTBL paper's measurements rely on:
//!
//! * [`BackingStore`] is the functional global memory: a sparse, paged,
//!   byte-addressed 4 GiB space. Values are read and written here
//!   immediately when a warp issues a memory instruction.
//! * [`MemSubsystem`] is the timing model: per-SMX L1 caches, a partitioned
//!   L2, and per-partition DRAM controllers with banks, row buffers and a
//!   FR-FCFS-lite scheduler. It never sees data values — only addresses —
//!   and reports when each transaction's latency has elapsed.
//! * [`coalesce`] implements the warp-level access coalescer that turns 32
//!   lane addresses into 128-byte memory transactions; scattered addresses
//!   produce more transactions ("memory divergence", §2.2 of the paper).
//!
//! The DRAM model tracks the exact statistic Figure 7 of the paper plots:
//! `dram_efficiency = (n_rd + n_wr) / n_activity`, where `n_activity`
//! counts cycles with a pending memory request at the controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Diagnostics are gpu-trace events or typed errors: a stray print in the
// simulator corrupts figure stdout and dodges the category filter.
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod backing;
mod cache;
pub mod coalesce;
mod config;
mod dram;
mod geometry;
mod mono_queue;
mod mshr;
#[cfg(test)]
mod reference;
mod subsystem;

pub use backing::{BackingStore, LinearAllocator};
pub use cache::{Cache, CacheConfig, CacheStats, Lookup};
pub use config::MemConfig;
pub use dram::{DramConfig, DramPartition, DramStats};
pub use subsystem::{AccessId, AccessKind, MemStats, MemSubsystem};

/// Size of a memory transaction segment in bytes (one cache line).
pub const SEGMENT_BYTES: u32 = 128;
