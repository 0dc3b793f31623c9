//! The event bus: sink trait, ring-buffered recorder, and the embeddable
//! per-component staging buffer.
//!
//! The hot-path contract is *zero cost when disabled*: every emission site
//! guards on [`Recorder::on`] / [`TraceBuffer::on`], which is a single
//! always-false branch when the mask is zero, and the simulator drains
//! component buffers only when the recorder is enabled at all.

use std::collections::VecDeque;

use crate::event::{Category, EventKind, TraceEvent};
use crate::metrics::MetricsSample;

/// Static configuration for tracing, carried inside the simulator's
/// `GpuConfig`. `Copy + Eq` so the enclosing config stays `Copy + Eq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Category filter mask; `0` disables tracing entirely.
    pub mask: u32,
    /// Capacity of the most-recent-events ring kept for hang dumps.
    pub ring: u32,
    /// Maximum number of events retained for export. Events beyond the
    /// limit are counted as dropped rather than silently discarded.
    pub limit: u32,
    /// Sample the metrics time series every this many cycles; `0` disables
    /// sampling.
    pub metrics_interval: u32,
}

impl TraceConfig {
    /// Tracing fully disabled (the default for every stock `GpuConfig`).
    pub fn off() -> Self {
        TraceConfig {
            mask: 0,
            ring: 64,
            limit: 1 << 22,
            metrics_interval: 0,
        }
    }

    /// Every category enabled with default ring/limit and 1k-cycle
    /// metrics sampling.
    pub fn all() -> Self {
        TraceConfig {
            mask: Category::mask_all(),
            metrics_interval: 1000,
            ..TraceConfig::off()
        }
    }

    /// True when any category is enabled.
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// Anything that can receive trace events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, ev: TraceEvent);
}

/// Everything a traced run produced, detached from the recorder so it can
/// travel inside a `RunReport`.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// All retained events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Periodic metrics samples (empty unless `metrics_interval > 0`).
    pub samples: Vec<MetricsSample>,
    /// Events discarded after the retention limit was hit.
    pub dropped: u64,
}

/// The per-simulator recorder: category filter, bounded ring of recent
/// events (for hang dumps), the full retained event log, and the metrics
/// time series.
#[derive(Clone, Debug)]
pub struct Recorder {
    mask: u32,
    ring_cap: usize,
    ring: VecDeque<TraceEvent>,
    events: Vec<TraceEvent>,
    limit: usize,
    dropped: u64,
    samples: Vec<MetricsSample>,
    metrics_interval: u32,
}

impl Recorder {
    /// A disabled recorder: records nothing, allocates nothing.
    pub fn off() -> Self {
        Recorder::new(TraceConfig::off())
    }

    /// Builds a recorder from its configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        Recorder {
            mask: cfg.mask,
            ring_cap: cfg.ring as usize,
            ring: VecDeque::new(),
            events: Vec::new(),
            limit: cfg.limit as usize,
            dropped: 0,
            samples: Vec::new(),
            metrics_interval: cfg.metrics_interval,
        }
    }

    /// True when any category is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }

    /// True when `cat` is enabled — the guard every emission site uses.
    #[inline]
    pub fn on(&self, cat: Category) -> bool {
        self.mask & cat.bit() != 0
    }

    /// The active category mask.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Metrics sampling interval in cycles (`0` = off).
    pub fn metrics_interval(&self) -> u32 {
        self.metrics_interval
    }

    /// Records `kind` at `cycle` if its category is enabled.
    #[inline]
    pub fn emit(&mut self, cycle: u64, kind: EventKind) {
        if self.mask & kind.category().bit() == 0 {
            return;
        }
        self.push(TraceEvent { cycle, kind });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.ring_cap > 0 {
            if self.ring.len() == self.ring_cap {
                self.ring.pop_front();
            }
            self.ring.push_back(ev);
        }
        if self.events.len() < self.limit {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Drains a component's staging buffer, stamping every pending payload
    /// with `cycle`.
    pub fn absorb(&mut self, cycle: u64, buf: &mut TraceBuffer) {
        for kind in buf.drain() {
            self.push(TraceEvent { cycle, kind });
        }
    }

    /// Appends one metrics time-series sample.
    pub fn push_sample(&mut self, sample: MetricsSample) {
        self.samples.push(sample);
    }

    /// Snapshot of the most recent events (oldest first).
    pub fn recent(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped past the retention limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Detaches everything recorded so far, leaving the recorder empty but
    /// still configured.
    pub fn take(&mut self) -> TraceData {
        TraceData {
            events: std::mem::take(&mut self.events),
            samples: std::mem::take(&mut self.samples),
            dropped: std::mem::replace(&mut self.dropped, 0),
        }
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, ev: TraceEvent) {
        if self.mask & ev.kind.category().bit() == 0 {
            return;
        }
        self.push(ev);
    }
}

/// A small staging buffer embedded in components that do not see the
/// global cycle counter (KMU, Kernel Distributor, AGT, scheduling pool,
/// memory subsystem, DRAM partitions). Components push cycle-less payloads
/// under their own `on()` guard; the simulator absorbs every buffer once
/// per cycle, stamping the current cycle. Within one cycle the absorb
/// order is fixed, keeping traces deterministic.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    mask: u32,
    pending: Vec<EventKind>,
}

impl TraceBuffer {
    /// Enables the categories in `mask` for this buffer.
    pub fn set_mask(&mut self, mask: u32) {
        self.mask = mask;
    }

    /// The active category mask.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// True when `cat` is enabled — the guard every emission site uses.
    #[inline]
    pub fn on(&self, cat: Category) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Stages one payload. Call only under an [`TraceBuffer::on`] guard.
    #[inline]
    pub fn push(&mut self, kind: EventKind) {
        self.pending.push(kind);
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes and returns all staged payloads in push order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, EventKind> {
        self.pending.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> EventKind {
        EventKind::WarpIssue {
            smx: 0,
            warp: cycle as u32,
            lanes: 32,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::off();
        assert!(!r.enabled());
        r.emit(5, ev(5));
        assert!(r.is_empty());
        assert!(r.recent().is_empty());
    }

    #[test]
    fn mask_filters_categories() {
        let mut r = Recorder::new(TraceConfig {
            mask: Category::Launch.bit(),
            ..TraceConfig::off()
        });
        r.emit(1, ev(1)); // Warp category: filtered out.
        r.emit(
            2,
            EventKind::KdeAlloc {
                kde: 0,
                kernel: 1,
                ntb: 4,
            },
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.recent().len(), 1);
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut r = Recorder::new(TraceConfig {
            mask: Category::mask_all(),
            ring: 4,
            ..TraceConfig::off()
        });
        for c in 0..10 {
            r.emit(c, ev(c));
        }
        let recent = r.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].cycle, 6);
        assert_eq!(recent[3].cycle, 9);
        assert_eq!(r.len(), 10, "full log unaffected by ring capacity");
    }

    #[test]
    fn limit_counts_dropped_events() {
        let mut r = Recorder::new(TraceConfig {
            mask: Category::mask_all(),
            limit: 3,
            ..TraceConfig::off()
        });
        for c in 0..5 {
            r.emit(c, ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let data = r.take();
        assert_eq!(data.events.len(), 3);
        assert_eq!(data.dropped, 2);
        assert_eq!(r.dropped(), 0, "take resets the counter");
    }

    #[test]
    fn absorb_stamps_buffer_payloads() {
        let mut r = Recorder::new(TraceConfig::all());
        let mut buf = TraceBuffer::default();
        buf.set_mask(r.mask());
        assert!(buf.on(Category::Tb));
        buf.push(EventKind::TbRetire {
            smx: 1,
            slot: 2,
            kde: 3,
        });
        r.absorb(42, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(r.len(), 1);
        assert_eq!(r.take().events[0].cycle, 42);
    }
}
