//! Umbrella crate for the DTBL reproduction workspace.
//!
//! Re-exports the public API of every member crate so the examples and
//! integration tests in this repository have a single import root. See
//! `README.md` for a tour and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dtbl_core;
pub use gpu_isa;
pub use gpu_mem;
pub use gpu_sim;
pub use workloads;
