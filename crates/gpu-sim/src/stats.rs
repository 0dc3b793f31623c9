//! Run statistics — every metric the paper's evaluation section plots.

use gpu_mem::MemStats;
use gpu_trace::LaunchPath;
use std::sync::Arc;

/// Which launch mechanism produced a dynamic launch (for the per-category
/// waiting-time and footprint statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DynLaunchKind {
    /// CDP device kernel (`cudaLaunchDevice`).
    DeviceKernel,
    /// DTBL aggregated group (`cudaLaunchAggGroup`), coalesced.
    AggGroup,
    /// DTBL launch that fell back to a device kernel (no eligible kernel).
    AggFallback,
    /// Launch executed functionally on the host after every in-GPU path
    /// was exhausted — the last rung of the degradation ladder.
    HostSerialized,
}

impl DynLaunchKind {
    /// The trace-path code a launch of this kind is recorded under.
    pub(crate) fn path(self) -> LaunchPath {
        match self {
            DynLaunchKind::DeviceKernel => LaunchPath::DeviceKernel,
            DynLaunchKind::AggGroup => LaunchPath::AggGroup,
            DynLaunchKind::AggFallback => LaunchPath::AggFallback,
            DynLaunchKind::HostSerialized => LaunchPath::HostSerial,
        }
    }
}

/// One dynamic launch's lifecycle timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Launch mechanism.
    pub kind: DynLaunchKind,
    /// Cycle the launch command was issued by the warp.
    pub launched_at: u64,
    /// Cycle the first thread block started executing on an SMX.
    pub first_tb_at: Option<u64>,
    /// Thread blocks in the launch.
    pub ntb: u32,
    /// Threads per block.
    pub threads_per_tb: u32,
    /// Global-memory bytes reserved while the launch is pending
    /// (parameter buffer + descriptor); released when the first thread
    /// block starts.
    pub reserved_bytes: u64,
}

impl LaunchRecord {
    /// Waiting time (Figure 9): launch to first thread block start.
    pub fn waiting_time(&self) -> Option<u64> {
        self.first_tb_at.map(|t| t.saturating_sub(self.launched_at))
    }
}

/// All counters accumulated during one simulation run.
///
/// `PartialEq` compares every counter and launch record, so two runs of
/// the same (benchmark, variant, seed) cell can be checked for identical
/// results regardless of whether they executed serially or on a sweep
/// worker thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Total cycles simulated (kernel launch to all-idle).
    pub cycles: u64,
    /// Dynamic instructions issued (warp granularity).
    pub warp_issues: u64,
    /// Sum over issued instructions of active lanes.
    pub active_lanes: u64,
    /// Per-cycle sum of resident (not finished) warps across all SMXs.
    pub resident_warp_cycles: u64,
    /// Cycles during which at least one SMX had a resident warp.
    pub busy_cycles: u64,
    /// Thread blocks that completed execution.
    pub tb_completed: u64,
    /// Host kernel launches.
    pub host_launches: u64,
    /// Dynamic launches (CDP kernels, aggregated groups, fallbacks).
    /// Shared, so a finished `Stats` clones in O(1) whatever its launch
    /// count; a run holds the only reference while it appends (see
    /// `Stats::push_launch`), so it never copies the log.
    pub launches: Arc<Vec<LaunchRecord>>,
    /// Peak bytes of global memory reserved for *pending* dynamic
    /// launches (parameter buffers + descriptors) — Figure 10.
    pub peak_pending_bytes: u64,
    /// Currently pending bytes (bookkeeping for the peak).
    pub pending_bytes: u64,
    /// Aggregated-group coalesce successes (DTBL).
    pub agg_coalesced: u64,
    /// Aggregated-group fallbacks to device kernels (DTBL).
    pub agg_fallbacks: u64,
    /// Groups whose descriptor spilled to global memory (AGT full).
    pub agt_overflows: u64,
    /// Memory-subsystem statistics snapshot (filled at run end).
    pub mem: MemStats,
    /// Barrier waits observed (diagnostics).
    pub barrier_waits: u64,
    /// AGT hash-probe misses forced by the fault plan.
    pub forced_agt_overflows: u64,
    /// Memory-completion wake-ups delayed by the fault plan.
    pub forced_mem_delays: u64,
    /// Always 0: a host launch at an injected hardware-work-queue cap
    /// parks in the deferral queue (`host_launches_deferred`) instead of
    /// being rejected. Kept because the wire encoding and the stats
    /// digest carry it.
    pub hwq_full_rejections: u64,
    /// Device launches rejected by an injected KMU device-pool cap.
    pub kmu_saturation_rejections: u64,
    /// Aggregated launches that fell back to device kernels because the
    /// injected overflow-descriptor cap left no spill storage.
    pub agt_overflow_exhausted: u64,
    /// Heap allocations denied by the injected heap-byte cap.
    pub heap_cap_denials: u64,
    /// Aggregated launches the degradation ladder demoted to plain device
    /// kernels after the AGT's spill storage was exhausted (rung 1 → 2).
    pub degraded_to_device_kernel: u64,
    /// Device-kernel launches the ladder executed host-serialized after
    /// the KMU stayed saturated through every retry (rung 2 → 3).
    pub degraded_to_host_serial: u64,
    /// Backoff-and-retry waits taken at saturated launch sites.
    pub launch_backoffs: u64,
    /// Host launches the ladder parked in the software deferral queue
    /// because their hardware work queue was at capacity.
    pub host_launches_deferred: u64,
    /// Maximum resident warps per SMX (copied from config for occupancy).
    pub max_warps_per_smx: u32,
    /// Number of SMXs (for occupancy normalization).
    pub num_smx: u32,
}

impl Stats {
    /// Appends a dynamic launch's record and returns its index.
    pub(crate) fn push_launch(&mut self, record: LaunchRecord) -> usize {
        let launches = Arc::make_mut(&mut self.launches);
        launches.push(record);
        launches.len() - 1
    }

    /// The record at `index`, to fill in as its launch progresses.
    pub(crate) fn launch_mut(&mut self, index: usize) -> &mut LaunchRecord {
        &mut Arc::make_mut(&mut self.launches)[index]
    }

    /// Warp activity percentage (Figure 6): average fraction of active
    /// lanes per issued warp-instruction, in percent.
    pub fn warp_activity_pct(&self) -> f64 {
        if self.warp_issues == 0 {
            0.0
        } else {
            100.0 * self.active_lanes as f64 / (self.warp_issues as f64 * gpu_isa::WARP_SIZE as f64)
        }
    }

    /// SMX occupancy (Figure 8): average resident warps per SMX per cycle
    /// divided by the maximum resident warps, in percent. Averaged over
    /// *busy* cycles so pure launch-tail idle time does not dilute it.
    pub fn smx_occupancy_pct(&self) -> f64 {
        if self.busy_cycles == 0 || self.num_smx == 0 || self.max_warps_per_smx == 0 {
            0.0
        } else {
            100.0 * self.resident_warp_cycles as f64
                / (self.busy_cycles as f64 * self.num_smx as f64 * self.max_warps_per_smx as f64)
        }
    }

    /// Warp activity as an `Option`: `None` when no warp instruction
    /// issued (a zero-work run), so aggregation across runs can skip the
    /// run instead of averaging in a made-up zero — and no `0/0` NaN can
    /// reach a figure. The plain
    /// [`warp_activity_pct`](Self::warp_activity_pct) collapses `None` to
    /// `0.0`.
    pub fn warp_activity_pct_opt(&self) -> Option<f64> {
        (self.warp_issues != 0).then(|| self.warp_activity_pct())
    }

    /// SMX occupancy as an `Option`: `None` when the machine never had a
    /// busy cycle (or the config denominators are zero), mirroring
    /// [`warp_activity_pct_opt`](Self::warp_activity_pct_opt).
    pub fn smx_occupancy_pct_opt(&self) -> Option<f64> {
        (self.busy_cycles != 0 && self.num_smx != 0 && self.max_warps_per_smx != 0)
            .then(|| self.smx_occupancy_pct())
    }

    /// DRAM efficiency (Figure 7).
    pub fn dram_efficiency(&self) -> f64 {
        self.mem.dram_efficiency()
    }

    /// Mean waiting time over dynamic launches that started (Figure 9);
    /// `None` when the run had no started dynamic launches (e.g. the Flat
    /// variant), so callers averaging across runs can skip the run instead
    /// of absorbing a made-up zero — and no division by zero can occur.
    pub fn avg_waiting_time_opt(&self) -> Option<f64> {
        mean(self.launches.iter().filter_map(LaunchRecord::waiting_time))
    }

    /// Mean waiting time over dynamic launches that started (Figure 9).
    /// Zero when there were none; see
    /// [`avg_waiting_time_opt`](Self::avg_waiting_time_opt) to distinguish
    /// "no launches" from "zero wait".
    pub fn avg_waiting_time(&self) -> f64 {
        self.avg_waiting_time_opt().unwrap_or(0.0)
    }

    /// Mean waiting time restricted to one launch mechanism (separates
    /// coalesced aggregated groups from fallback device kernels); `None`
    /// when no launch of that mechanism started.
    pub fn avg_waiting_time_of_opt(&self, kind: DynLaunchKind) -> Option<f64> {
        mean(
            self.launches
                .iter()
                .filter(|l| l.kind == kind)
                .filter_map(LaunchRecord::waiting_time),
        )
    }

    /// Mean waiting time restricted to one launch mechanism. Zero when no
    /// launch of that mechanism started.
    pub fn avg_waiting_time_of(&self, kind: DynLaunchKind) -> f64 {
        self.avg_waiting_time_of_opt(kind).unwrap_or(0.0)
    }

    /// Number of launches of one mechanism.
    pub fn launches_of(&self, kind: DynLaunchKind) -> usize {
        self.launches.iter().filter(|l| l.kind == kind).count()
    }

    /// Number of dynamic launches recorded.
    pub fn dyn_launches(&self) -> usize {
        self.launches.len()
    }

    /// Average threads per dynamic launch (the paper's "low compute
    /// intensity" characterization, ~40 threads); `None` when the run had
    /// no dynamic launches.
    pub fn avg_dyn_launch_threads_opt(&self) -> Option<f64> {
        mean(
            self.launches
                .iter()
                .map(|l| u64::from(l.ntb) * u64::from(l.threads_per_tb)),
        )
    }

    /// Average threads per dynamic launch; zero when the run had none.
    pub fn avg_dyn_launch_threads(&self) -> f64 {
        self.avg_dyn_launch_threads_opt().unwrap_or(0.0)
    }

    /// Eligible-kernel match rate for DTBL launches (§4.2 reports ~98%);
    /// `None` when the run attempted no aggregated launches at all.
    pub fn match_rate_opt(&self) -> Option<f64> {
        let total = self.agg_coalesced + self.agg_fallbacks;
        (total != 0).then(|| self.agg_coalesced as f64 / total as f64)
    }

    /// Eligible-kernel match rate for DTBL launches. Zero when the run
    /// attempted no aggregated launches.
    pub fn match_rate(&self) -> f64 {
        self.match_rate_opt().unwrap_or(0.0)
    }

    pub(crate) fn add_pending(&mut self, bytes: u64) {
        self.pending_bytes += bytes;
        self.peak_pending_bytes = self.peak_pending_bytes.max(self.pending_bytes);
    }

    pub(crate) fn remove_pending(&mut self, bytes: u64) {
        self.pending_bytes = self.pending_bytes.saturating_sub(bytes);
    }
}

/// Mean of an integer sequence; `None` for an empty one (never NaN).
fn mean(values: impl Iterator<Item = u64>) -> Option<f64> {
    let (mut sum, mut n) = (0u64, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    (n != 0).then(|| sum as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_activity_percentage() {
        let s = Stats {
            warp_issues: 10,
            active_lanes: 160,
            ..Stats::default()
        };
        assert!((s.warp_activity_pct() - 50.0).abs() < 1e-12);
        assert_eq!(Stats::default().warp_activity_pct(), 0.0);
    }

    #[test]
    fn zero_work_percentages_are_finite_never_nan() {
        // A run that issued nothing (e.g. a cancelled cell or an empty
        // launch) must report clean zeros / None, never 0/0 = NaN.
        let s = Stats::default();
        assert_eq!(s.warp_activity_pct(), 0.0);
        assert_eq!(s.smx_occupancy_pct(), 0.0);
        assert!(s.warp_activity_pct().is_finite());
        assert!(s.smx_occupancy_pct().is_finite());
        assert_eq!(s.warp_activity_pct_opt(), None);
        assert_eq!(s.smx_occupancy_pct_opt(), None);
        // Busy cycles with zero config denominators still divide safely.
        let degenerate = Stats {
            busy_cycles: 10,
            resident_warp_cycles: 10,
            num_smx: 0,
            max_warps_per_smx: 0,
            ..Stats::default()
        };
        assert_eq!(degenerate.smx_occupancy_pct(), 0.0);
        assert_eq!(degenerate.smx_occupancy_pct_opt(), None);
        // And the Option forms agree with the plain forms when work ran.
        let s = Stats {
            warp_issues: 4,
            active_lanes: 64,
            busy_cycles: 8,
            resident_warp_cycles: 64,
            num_smx: 2,
            max_warps_per_smx: 64,
            ..Stats::default()
        };
        assert_eq!(s.warp_activity_pct_opt(), Some(s.warp_activity_pct()));
        assert_eq!(s.smx_occupancy_pct_opt(), Some(s.smx_occupancy_pct()));
    }

    #[test]
    fn occupancy_normalizes_by_busy_cycles() {
        let s = Stats {
            busy_cycles: 100,
            resident_warp_cycles: 100 * 2 * 32, // 32 warps avg on 2 SMXs
            num_smx: 2,
            max_warps_per_smx: 64,
            ..Stats::default()
        };
        assert!((s.smx_occupancy_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn waiting_time_averages_started_launches() {
        let mut s = Stats::default();
        s.push_launch(LaunchRecord {
            kind: DynLaunchKind::AggGroup,
            launched_at: 100,
            first_tb_at: Some(150),
            ntb: 1,
            threads_per_tb: 64,
            reserved_bytes: 0,
        });
        s.push_launch(LaunchRecord {
            kind: DynLaunchKind::DeviceKernel,
            launched_at: 0,
            first_tb_at: Some(250),
            ntb: 2,
            threads_per_tb: 32,
            reserved_bytes: 0,
        });
        s.push_launch(LaunchRecord {
            kind: DynLaunchKind::DeviceKernel,
            launched_at: 0,
            first_tb_at: None, // never started: excluded
            ntb: 1,
            threads_per_tb: 32,
            reserved_bytes: 0,
        });
        assert!((s.avg_waiting_time() - 150.0).abs() < 1e-12);
        assert_eq!(s.dyn_launches(), 3);
        assert!((s.avg_waiting_time_of(DynLaunchKind::AggGroup) - 50.0).abs() < 1e-12);
        assert!((s.avg_waiting_time_of(DynLaunchKind::DeviceKernel) - 250.0).abs() < 1e-12);
        assert_eq!(s.launches_of(DynLaunchKind::DeviceKernel), 2);
        assert_eq!(s.launches_of(DynLaunchKind::AggFallback), 0);
        assert!((s.avg_dyn_launch_threads() - (64.0 + 64.0 + 32.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn pending_bytes_tracks_peak() {
        let mut s = Stats::default();
        s.add_pending(100);
        s.add_pending(50);
        s.remove_pending(120);
        s.add_pending(10);
        assert_eq!(s.peak_pending_bytes, 150);
        assert_eq!(s.pending_bytes, 40);
    }

    #[test]
    fn match_rate() {
        let s = Stats {
            agg_coalesced: 98,
            agg_fallbacks: 2,
            ..Stats::default()
        };
        assert!((s.match_rate() - 0.98).abs() < 1e-12);
        assert!((s.match_rate_opt().unwrap() - 0.98).abs() < 1e-12);
    }

    /// A run with no dynamic launches (Flat) must yield finite averages —
    /// zero from the f64 helpers, `None` from the `_opt` forms — never a
    /// NaN that would poison a figure's cross-benchmark average.
    #[test]
    fn empty_run_averages_are_finite() {
        let s = Stats::default();
        assert_eq!(s.avg_waiting_time(), 0.0);
        assert_eq!(s.avg_waiting_time_of(DynLaunchKind::AggGroup), 0.0);
        assert_eq!(s.avg_dyn_launch_threads(), 0.0);
        assert_eq!(s.match_rate(), 0.0);
        assert!(s.avg_waiting_time_opt().is_none());
        assert!(s
            .avg_waiting_time_of_opt(DynLaunchKind::DeviceKernel)
            .is_none());
        assert!(s.avg_dyn_launch_threads_opt().is_none());
        assert!(s.match_rate_opt().is_none());
        for v in [
            s.avg_waiting_time(),
            s.avg_dyn_launch_threads(),
            s.match_rate(),
            s.warp_activity_pct(),
            s.smx_occupancy_pct(),
            s.dram_efficiency(),
        ] {
            assert!(v.is_finite(), "metric must never be NaN/inf, got {v}");
        }
    }
}
