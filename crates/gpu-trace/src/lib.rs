//! `gpu-trace`: structured cycle-level event tracing for the DTBL
//! simulator.
//!
//! The crate provides four layers, all dependency-free:
//!
//! 1. **Events** ([`TraceEvent`], [`EventKind`], [`Category`]): typed,
//!    integer-only payloads covering the full launch path — host launch,
//!    HWQ enqueue, KMU dispatch, KDE alloc/free, AGT insert/coalesce/
//!    evict, TB placement, warp issue/stall, barrier, cache hit/miss,
//!    DRAM row activate, kernel retire — each stamped with the cycle.
//! 2. **Bus** ([`TraceSink`], [`Recorder`], [`TraceBuffer`]): a
//!    ring-buffered recorder owned by each simulator instance plus small
//!    staging buffers embedded in components that do not see the global
//!    clock. Zero cost when disabled: every emission site is a single
//!    predictable branch on a category mask, and nothing allocates.
//! 3. **Metrics** ([`MetricsRegistry`], [`Histogram`],
//!    [`MetricsSample`]): counters, gauges, and windowed p50/p95/p99
//!    histograms derived from the events, plus a per-interval time
//!    series (warp activity %, occupancy %, AGT fill, DRAM efficiency).
//! 4. **Export** ([`export::chrome_trace`], [`export::jsonl`] and their
//!    parsers): Chrome `trace_event` JSON for Perfetto and line-delimited
//!    JSON for scripting. The writers append bytes straight to one
//!    pre-sized `String`: the `event_kinds!` table in [`event`] generates
//!    each kind's `,"field":value` bytes
//!    ([`EventKind::write_json_fields`]), so exporting allocates per
//!    cell, never per event. The parsers read through an in-repo JSON
//!    value type ([`json::Json`]) because the workspace takes no
//!    external dependencies.
//!
//! Per-simulator recorders keep parallel sweeps deterministic: each sweep
//! cell owns its sink and traces are written in input order by the
//! harness.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use event::{Category, EventKind, LaunchPath, StallReason, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry, MetricsSample};
pub use recorder::{Recorder, TraceBuffer, TraceConfig, TraceData, TraceSink};
