//! Metrics registry: counters, gauges, and windowed histograms derived
//! from trace events, plus the per-interval time-series sample row.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::event::{EventKind, LaunchPath, StallReason, TraceEvent};
use crate::recorder::TraceData;

/// One row of the per-interval time series sampled by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct MetricsSample {
    /// Cycle the sample was taken at (end of the interval).
    pub cycle: u64,
    /// Warp activity % over the interval: active lanes per issued warp
    /// slot, as in Figure 10 of the paper.
    pub warp_activity_pct: f64,
    /// SMX occupancy % over the interval: resident warps vs capacity.
    pub occupancy_pct: f64,
    /// Live on-chip AGT entries at sample time.
    pub agt_fill: u32,
    /// Live overflowed (in-memory) AGT entries at sample time.
    pub agt_overflow: u32,
    /// DRAM bus efficiency % over the interval.
    pub dram_efficiency_pct: f64,
    /// Warp issue slots consumed during the interval.
    pub issues: u64,
}

/// A sliding-window histogram over `u64` observations with quantile
/// queries. The window bounds memory for long traces; quantiles are
/// computed over the retained window.
#[derive(Clone, Debug)]
pub struct Histogram {
    window: usize,
    values: VecDeque<u64>,
    total_count: u64,
    total_sum: u64,
}

impl Histogram {
    /// Creates a histogram retaining at most `window` observations.
    pub fn new(window: usize) -> Self {
        Histogram {
            window: window.max(1),
            values: VecDeque::new(),
            total_count: 0,
            total_sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        if self.values.len() == self.window {
            self.values.pop_front();
        }
        self.values.push_back(v);
        self.total_count += 1;
        self.total_sum += v;
    }

    /// Observations recorded over the histogram's lifetime (not just the
    /// window).
    pub fn count(&self) -> u64 {
        self.total_count
    }

    /// Mean over the histogram's lifetime.
    pub fn mean(&self) -> f64 {
        if self.total_count == 0 {
            0.0
        } else {
            self.total_sum as f64 / self.total_count as f64
        }
    }

    /// Quantile `q` in `[0, 1]` over the retained window; `None` when
    /// empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted: Vec<u64> = self.values.iter().copied().collect();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }

    /// Median over the window.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 95th percentile over the window.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// 99th percentile over the window.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }
}

/// Default histogram window used by [`MetricsRegistry`].
const HIST_WINDOW: usize = 4096;

/// A registry of named counters, gauges, and windowed histograms. Can be
/// fed manually or derived wholesale from a [`TraceData`] with
/// [`MetricsRegistry::from_trace`].
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records an observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(HIST_WINDOW))
            .record(value);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Derives the standard registry from a trace:
    ///
    /// - `event.<kind>` counters for every event kind seen;
    /// - `stall.<reason>` counters from warp-stall events;
    /// - `tb.smx<id>` thread-block placement counters (load balance);
    /// - `waiting_time.<path>` histograms from matched
    ///   `dyn_launch`→`launch_sched` pairs;
    /// - `lanes_per_issue` histogram from warp issues;
    /// - gauges for final AGT fill and warp activity from the last sample.
    pub fn from_trace(data: &TraceData) -> Self {
        let mut m = MetricsRegistry::new();
        let mut launched_at: BTreeMap<u32, (u64, LaunchPath)> = BTreeMap::new();
        for TraceEvent { cycle, kind } in &data.events {
            m.inc(&format!("event.{}", kind.name()), 1);
            match *kind {
                EventKind::DynLaunch { record, path, .. } => {
                    if let Some(p) = LaunchPath::from_code(path) {
                        launched_at.insert(record, (*cycle, p));
                    }
                }
                EventKind::LaunchSched { record, .. } => {
                    if let Some((at, path)) = launched_at.remove(&record) {
                        m.observe(
                            &format!("waiting_time.{}", path.name()),
                            cycle.saturating_sub(at),
                        );
                    }
                }
                EventKind::WarpStall { reason, .. } => {
                    let name = StallReason::from_code(reason)
                        .map(StallReason::name)
                        .unwrap_or("unknown");
                    m.inc(&format!("stall.{name}"), 1);
                }
                EventKind::WarpIssue { lanes, .. } => {
                    m.observe("lanes_per_issue", lanes as u64);
                }
                EventKind::TbPlace { smx, .. } => {
                    m.inc(&format!("tb.smx{smx}"), 1);
                }
                _ => {}
            }
        }
        if let Some(last) = data.samples.last() {
            m.set_gauge("agt_fill", last.agt_fill as f64);
            m.set_gauge("warp_activity_pct", last.warp_activity_pct);
            m.set_gauge("occupancy_pct", last.occupancy_pct);
        }
        m
    }

    /// Human-readable dump of every metric.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<28} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<28} {v:.2}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count / mean / p50 / p95 / p99):\n");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<28} {} / {:.1} / {} / {} / {}",
                    h.count(),
                    h.mean(),
                    h.p50().unwrap_or(0),
                    h.p95().unwrap_or(0),
                    h.p99().unwrap_or(0),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(1000);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-12);
        assert_eq!(h.p50(), Some(51), "even count: upper median");
        assert_eq!(h.p95(), Some(95));
        assert_eq!(h.p99(), Some(99));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(1.0), Some(100));
    }

    #[test]
    fn histogram_window_slides() {
        let mut h = Histogram::new(4);
        for v in [1, 2, 3, 4, 100, 100, 100, 100] {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(100), "old values fell out of the window");
        assert_eq!(h.count(), 8, "lifetime count keeps everything");
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new(8);
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn from_trace_matches_launch_pairs_and_stalls() {
        let data = TraceData {
            events: vec![
                TraceEvent {
                    cycle: 100,
                    kind: EventKind::DynLaunch {
                        record: 0,
                        path: LaunchPath::AggGroup.code(),
                        kernel: 1,
                        ntb: 2,
                    },
                },
                TraceEvent {
                    cycle: 130,
                    kind: EventKind::WarpStall {
                        smx: 0,
                        warp: 1,
                        reason: StallReason::Memory.code(),
                    },
                },
                TraceEvent {
                    cycle: 400,
                    kind: EventKind::LaunchSched { record: 0, smx: 3 },
                },
            ],
            samples: vec![],
            dropped: 0,
        };
        let m = MetricsRegistry::from_trace(&data);
        assert_eq!(m.counter("event.dyn_launch"), 1);
        assert_eq!(m.counter("stall.memory"), 1);
        let h = m.histogram("waiting_time.agg_group").expect("histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), Some(300));
        assert!(m.summary().contains("waiting_time.agg_group"));
    }
}
