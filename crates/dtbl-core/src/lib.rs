//! Dynamic Thread Block Launch — the ISCA 2015 paper's contribution.
//!
//! This crate implements the microarchitectural state and decision logic
//! that §4.2 of the paper adds to a Kepler-class GPU:
//!
//! * [`Agt`] — the **Aggregated Group Table**: an on-chip table of
//!   Aggregated Group Entries (AGEs) holding the dimensions, parameter
//!   address, link pointer, and in-flight thread-block count of every
//!   pending aggregated group. Free entries are found with the paper's
//!   one-cycle hash probe (`ind = hw_tid & (AGT_size - 1)`); when the
//!   probed slot is taken, the group's descriptor spills to global memory
//!   and the linked list stores the memory pointer instead.
//! * [`SchedulingPool`] — the **Kernel Distributor Entry extensions**
//!   (`NAGEI`/`LAGEI` registers) and the linked-list scheduling pool that
//!   chains every aggregated group coalesced to a kernel, including the
//!   Figure 5 coalescing procedure with its two NAGEI-update scenarios.
//! * [`FcfsController`] — the FCFS controller with the per-entry *marked*
//!   bit and the extra *first-dispatch* bit the paper adds so a kernel
//!   whose native TBs already finished scheduling can be re-marked when new
//!   groups arrive.
//! * [`overhead`] — the §4.3 hardware cost model, regenerating the paper's
//!   1096 B of extension registers and 20 KiB AGT numbers from first
//!   principles.
//!
//! The cycle-level integration (SMX scheduler flow, launch latencies,
//! fallback device-kernel launches) lives in the `gpu-sim` crate; this
//! crate is pure data-structure logic so every transition of the paper's
//! Figure 5 flowchart is unit- and property-testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agt;
mod fcfs;
pub mod overhead;
mod pool;

pub use agt::{AggGroupInfo, Agt, AgtIndex, AgtStats, GroupRef};
pub use fcfs::FcfsController;
pub use pool::{CoalesceOutcome, PoolStats, SchedulingPool};
