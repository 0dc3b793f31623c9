//! Trace wiring: mask propagation, the per-cycle drain, and interval
//! metrics sampling.
//!
//! Components that do not see the global clock (KMU, Kernel Distributor,
//! AGT/scheduling pool, FCFS controller, SMXs, memory subsystem) stage
//! cycle-less [`gpu_trace::EventKind`] payloads in an embedded
//! [`gpu_trace::TraceBuffer`]; once per cycle [`Gpu::step`] drains them
//! all into the central [`gpu_trace::Recorder`], stamping the current
//! cycle. The drain order is fixed (KMU, distributor, pool, FCFS, SMXs in
//! index order, memory) so traces are deterministic for a given run; it is
//! part of the trace's byte format.

use crate::gpu::Gpu;
use gpu_trace::{MetricsSample, TraceData};

/// Counter snapshot taken at the previous metrics sample, so each sample
/// reports interval deltas rather than lifetime totals.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TraceWindow {
    issues: u64,
    lanes: u64,
    resident: u64,
    row_hits: u64,
    row_misses: u64,
}

impl Gpu {
    /// Pushes the configured category mask into every component's staging
    /// buffer. Called once from [`Gpu::new`]; a zero mask (tracing off)
    /// keeps every `on(..)` guard false so no event is ever staged.
    pub(crate) fn apply_trace_mask(&mut self) {
        let mask = self.tracer.mask();
        self.launch_unit.set_trace_mask(mask);
        for s in &mut self.smxs {
            s.trace_mut().set_mask(mask);
        }
        self.timing.set_trace_mask(mask);
    }

    /// Drains every staging buffer into the recorder, stamping `now`.
    pub(crate) fn drain_traces(&mut self, now: u64) {
        self.launch_unit.drain_trace(now, &mut self.tracer);
        for s in &mut self.smxs {
            self.tracer.absorb(now, s.trace_mut());
        }
        self.timing.drain_trace(now, &mut self.tracer);
    }

    /// Takes one time-series sample every `metrics_interval` cycles: warp
    /// activity and occupancy over the interval, current AGT fill, and
    /// DRAM row-buffer efficiency over the interval.
    pub(crate) fn sample_metrics(&mut self, now: u64) {
        let interval = u64::from(self.tracer.metrics_interval());
        if interval == 0 || now == 0 || !now.is_multiple_of(interval) {
            return;
        }
        let mem = self.timing.stats();
        let cur = TraceWindow {
            issues: self.stats.warp_issues,
            lanes: self.stats.active_lanes,
            resident: self.stats.resident_warp_cycles,
            row_hits: mem.dram.row_hits,
            row_misses: mem.dram.row_misses,
        };
        let prev = std::mem::replace(&mut self.trace_win, cur);
        let (agt_fill, agt_overflow) = self.launch_unit.agt_fill();

        let d_issues = cur.issues - prev.issues;
        let d_lanes = cur.lanes - prev.lanes;
        let warp_activity_pct = if d_issues > 0 {
            d_lanes as f64 / (d_issues * gpu_isa::WARP_SIZE as u64) as f64 * 100.0
        } else {
            0.0
        };
        let capacity = interval * self.cfg.num_smx as u64 * u64::from(self.cfg.max_warps_per_smx());
        let occupancy_pct = if capacity > 0 {
            (cur.resident - prev.resident) as f64 / capacity as f64 * 100.0
        } else {
            0.0
        };
        let d_rows = (cur.row_hits - prev.row_hits) + (cur.row_misses - prev.row_misses);
        let dram_efficiency_pct = if d_rows > 0 {
            (cur.row_hits - prev.row_hits) as f64 / d_rows as f64 * 100.0
        } else {
            0.0
        };
        self.tracer.push_sample(MetricsSample {
            cycle: now,
            warp_activity_pct,
            occupancy_pct,
            agt_fill: agt_fill as u32,
            agt_overflow: agt_overflow as u32,
            dram_efficiency_pct,
            issues: d_issues,
        });
    }

    /// Takes the recorded trace (events, samples, drop counter), leaving
    /// the recorder empty. `None` when tracing is disabled.
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.tracer.enabled().then(|| self.tracer.take())
    }
}
