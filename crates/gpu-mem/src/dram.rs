//! Per-partition DRAM controller timing model.
//!
//! Each memory partition owns one controller with `banks` banks. Banks
//! track their open row; a request to the open row ("row hit") streams its
//! burst immediately, while a row conflict pays a precharge+activate
//! penalty. The scheduler is FR-FCFS-lite: among the oldest
//! `sched_window` queued requests it issues a ready row-hit first, falling
//! back to the oldest ready request.
//!
//! The controller maintains the statistic Figure 7 of the paper is built
//! from: `dram_efficiency = (n_rd + n_wr) / n_activity`, where a cycle is
//! *active* when the controller has a pending or in-flight request. With a
//! 2-cycle burst the theoretical peak efficiency is 0.5, which matches the
//! paper's y-axis range (its best benchmark reaches ≈ 0.55 on a different
//! burst ratio).

use crate::geometry::Divisor;
use crate::mono_queue::MonoQueue;
use gpu_trace::{Category, EventKind, TraceBuffer};
use std::collections::VecDeque;

/// DRAM controller timing parameters (in core-clock cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks per partition.
    pub banks: u32,
    /// Bytes covered by one row in one bank.
    pub row_bytes: u32,
    /// Data-bus occupancy of one command's burst.
    pub t_burst: u64,
    /// Precharge + activate penalty on a row conflict.
    pub t_row_miss: u64,
    /// Column-access latency from command issue to first data.
    pub t_cas: u64,
    /// FR-FCFS lookahead window.
    pub sched_window: usize,
    /// Maximum queued requests before the controller back-pressures.
    pub queue_capacity: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 16,
            row_bytes: 2048,
            t_burst: 2,
            t_row_miss: 20,
            t_cas: 10,
            sched_window: 16,
            queue_capacity: 64,
        }
    }
}

/// Counters exported by a [`DramPartition`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read commands issued.
    pub n_rd: u64,
    /// Write commands issued.
    pub n_wr: u64,
    /// Cycles with at least one pending or in-flight request.
    pub active_cycles: u64,
    /// Commands that hit the open row.
    pub row_hits: u64,
    /// Commands that required precharge + activate.
    pub row_misses: u64,
}

impl DramStats {
    /// `(n_rd + n_wr) / n_activity` — the paper's DRAM efficiency metric.
    pub fn efficiency(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            (self.n_rd + self.n_wr) as f64 / self.active_cycles as f64
        }
    }

    /// Merges another partition's counters into this one (used to
    /// aggregate the per-GPU figure).
    pub fn merge(&mut self, other: &DramStats) {
        self.n_rd += other.n_rd;
        self.n_wr += other.n_wr;
        self.active_cycles += other.active_cycles;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
    }
}

/// A queued request, with the bank and row its address maps to resolved
/// when it was enqueued so the scheduler's window scan does no address
/// arithmetic.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: u64,
    local_addr: u32,
    bank: u32,
    row: u32,
    is_write: bool,
}

/// One memory partition's DRAM controller.
///
/// Addresses passed in are *partition-local* (the
/// [`MemSubsystem`](crate::MemSubsystem) strips the partition interleave).
#[derive(Clone, Debug)]
pub struct DramPartition {
    cfg: DramConfig,
    /// Geometry, derived once: `addr → row index → (row, bank)`.
    row_bytes: Divisor,
    banks: Divisor,
    open_row: Vec<Option<u32>>,
    bank_ready: Vec<u64>,
    bus_free_at: u64,
    last_now: u64,
    queue: VecDeque<Pending>,
    /// Reads on the bus or in their CAS delay, keyed `(done, id)` with the
    /// address as payload. `done = burst_end + t_cas` and `burst_end`
    /// never decreases, so this is a FIFO but for equal-`done` ties.
    in_flight: MonoQueue<u32>,
    stats: DramStats,
    trace: TraceBuffer,
}

impl DramPartition {
    /// Creates an idle controller.
    ///
    /// # Panics
    ///
    /// Panics if `banks`, `row_bytes` or `sched_window` is zero: no
    /// address maps to a bank, or the scheduler never considers a request
    /// and every read waits for the watchdog.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.sched_window != 0,
            "DramConfig::sched_window must be non-zero"
        );
        DramPartition {
            cfg,
            row_bytes: Divisor::new(cfg.row_bytes, "DramConfig::row_bytes"),
            banks: Divisor::new(cfg.banks, "DramConfig::banks"),
            open_row: vec![None; cfg.banks as usize],
            bank_ready: vec![0; cfg.banks as usize],
            bus_free_at: 0,
            last_now: 0,
            queue: VecDeque::new(),
            in_flight: MonoQueue::new(),
            stats: DramStats::default(),
            trace: TraceBuffer::default(),
        }
    }

    /// The partition's trace staging buffer. The owning subsystem sets the
    /// category mask and drains it each cycle; the controller itself does
    /// not know its partition index, so [`EventKind::DramRowActivate`]
    /// payloads are staged with `partition == u32::MAX` and patched at
    /// drain time.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// True when the request queue has room.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    /// Free request-queue slots.
    pub fn free_capacity(&self) -> usize {
        self.cfg.queue_capacity - self.queue.len()
    }

    /// Enqueues a request. Reads are reported back by [`tick`](Self::tick)
    /// when their data returns; writes are posted (never reported).
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_accept`](Self::can_accept) is false.
    pub fn push(&mut self, id: u64, local_addr: u32, is_write: bool) {
        assert!(
            self.can_accept(),
            "DRAM queue overflow — caller must check can_accept"
        );
        let (bank, row) = self.bank_and_row(local_addr);
        self.queue.push_back(Pending {
            id,
            local_addr,
            bank,
            row,
            is_write,
        });
    }

    fn bank_and_row(&self, local_addr: u32) -> (u32, u32) {
        let (row_idx, _) = self.row_bytes.div_rem(local_addr);
        let (row, bank) = self.banks.div_rem(row_idx);
        (bank, row)
    }

    /// Brings `active_cycles` accounting up to (but not including) cycle
    /// `now`, reconstructing what per-cycle ticks over the skipped span
    /// `(last tick, now)` would have recorded.
    ///
    /// Must be called **before** any [`push`](Self::push) at cycle `now`
    /// when ticks were skipped: the horizon contract guarantees nothing
    /// issued or completed during the span, so `queue`/`in_flight` were
    /// frozen at their pre-push contents and only the `c < bus_free_at`
    /// busy term could flip mid-span. [`tick`](Self::tick) calls this
    /// itself; it is idempotent per cycle.
    pub fn catch_up(&mut self, now: u64) {
        let gap = now.saturating_sub(self.last_now.saturating_add(1));
        if gap == 0 {
            return;
        }
        if !self.queue.is_empty() || !self.in_flight.is_empty() {
            self.stats.active_cycles += gap;
        } else {
            let busy_end = now.min(self.bus_free_at);
            self.stats.active_cycles += busy_end.saturating_sub(self.last_now + 1);
        }
        self.last_now = now - 1;
    }

    /// Advances the controller to cycle `now` (with monotonically
    /// increasing `now`; cycles may be skipped if
    /// [`next_event_at`](Self::next_event_at) proves them uneventful).
    /// Appends the ids of reads whose data returned this cycle to
    /// `completed`.
    pub fn tick(&mut self, now: u64, completed: &mut Vec<u64>) {
        self.tick_with(now, |id, _| completed.push(id));
    }

    /// [`tick`](Self::tick), handing each returning read's `(id,
    /// local_addr)` to `returned` instead of collecting ids — the
    /// subsystem routes the fill by its address, so it keeps no id → line
    /// map.
    pub(crate) fn tick_with(&mut self, now: u64, mut returned: impl FnMut(u64, u32)) {
        self.catch_up(now);
        self.last_now = now;
        let busy = !self.queue.is_empty() || !self.in_flight.is_empty() || now < self.bus_free_at;
        if busy {
            self.stats.active_cycles += 1;
        }

        while let Some((id, local_addr)) = self.in_flight.pop_due(now) {
            returned(id, local_addr);
        }

        if self.bus_free_at > now || self.queue.is_empty() {
            return;
        }

        // FR-FCFS-lite: first ready row-hit in the window, else the oldest
        // ready request.
        let window = self.queue.len().min(self.cfg.sched_window);
        let mut choice: Option<usize> = None;
        for (i, p) in self.queue.iter().take(window).enumerate() {
            if self.bank_ready[p.bank as usize] > now {
                continue;
            }
            if self.open_row[p.bank as usize] == Some(p.row) {
                choice = Some(i);
                break;
            }
            if choice.is_none() {
                choice = Some(i);
            }
        }
        let Some(idx) = choice else { return };
        let p = self.queue.remove(idx).expect("index in range");
        let (bank, row) = (p.bank as usize, p.row);
        let hit = self.open_row[bank] == Some(row);
        let penalty = if hit {
            self.stats.row_hits += 1;
            0
        } else {
            self.stats.row_misses += 1;
            if self.trace.on(Category::Dram) {
                self.trace.push(EventKind::DramRowActivate {
                    partition: u32::MAX,
                    bank: bank as u32,
                });
            }
            self.cfg.t_row_miss
        };
        self.open_row[bank] = Some(row);
        if p.is_write {
            self.stats.n_wr += 1;
        } else {
            self.stats.n_rd += 1;
        }
        let burst_end = now + penalty + self.cfg.t_burst;
        self.bus_free_at = burst_end;
        self.bank_ready[bank] = burst_end;
        if !p.is_write {
            self.in_flight
                .push(burst_end + self.cfg.t_cas, p.id, p.local_addr);
        }
    }

    /// Earliest future cycle at which this controller's observable state
    /// can change: a queued command issuing (no earlier than the bus
    /// freeing), an in-flight read's data returning, or the drained bus
    /// flipping [`quiescent`](Self::quiescent). `None` when the controller
    /// is quiescent as of `now`.
    ///
    /// This is a *safe lower bound*: the true next change is never earlier
    /// than the returned cycle, so a caller may skip `tick` calls for every
    /// cycle strictly before it.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some((done, _)) = self.in_flight.front() {
            fold(done.max(now + 1));
        }
        if !self.queue.is_empty() {
            // All banks are ready by `bus_free_at` (burst ends are
            // monotone), so a command issues exactly when the bus frees.
            fold(self.bus_free_at.max(now + 1));
        } else if self.bus_free_at > now {
            // Only the posted-write bus drain remains; quiescence (and the
            // last busy `active_cycles` edge) flips at `bus_free_at`.
            fold(self.bus_free_at);
        }
        next
    }

    /// True when no work is queued or in flight and the data bus has
    /// drained (posted writes occupy the bus after they are dequeued).
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty() && self.last_now >= self.bus_free_at
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_quiescent(d: &mut DramPartition, start: u64) -> (Vec<u64>, u64) {
        let mut completed = Vec::new();
        let mut now = start;
        while !d.quiescent() {
            d.tick(now, &mut completed);
            now += 1;
            assert!(now < start + 100_000, "controller wedged");
        }
        (completed, now)
    }

    #[test]
    fn single_read_completes() {
        let mut d = DramPartition::new(DramConfig::default());
        d.push(7, 0, false);
        let (done, _) = run_until_quiescent(&mut d, 0);
        assert_eq!(done, vec![7]);
        assert_eq!(d.stats().n_rd, 1);
        assert_eq!(d.stats().row_misses, 1, "first access opens the row");
    }

    #[test]
    fn writes_are_posted_and_counted() {
        let mut d = DramPartition::new(DramConfig::default());
        d.push(1, 0, true);
        let (done, _) = run_until_quiescent(&mut d, 0);
        assert!(done.is_empty(), "writes produce no completion");
        assert_eq!(d.stats().n_wr, 1);
    }

    #[test]
    fn row_hits_stream_faster_than_conflicts() {
        // Window of 1 disables FR-FCFS reordering so the access pattern
        // alone decides hit/conflict behaviour.
        let cfg = DramConfig {
            sched_window: 1,
            ..DramConfig::default()
        };
        // Sequential lines within one row: expect row hits after the first.
        let mut seq = DramPartition::new(cfg);
        for i in 0..16u32 {
            seq.push(u64::from(i), i * 128, false);
        }
        let (_, seq_end) = run_until_quiescent(&mut seq, 0);

        // Same bank, alternating rows: every access conflicts.
        let mut conf = DramPartition::new(cfg);
        let stride = cfg.row_bytes * cfg.banks; // same bank, next row
        for i in 0..16u32 {
            conf.push(u64::from(i), (i % 2) * stride, false);
        }
        let (_, conf_end) = run_until_quiescent(&mut conf, 0);

        assert!(
            seq_end < conf_end,
            "row hits must finish sooner: {seq_end} vs {conf_end}"
        );
        assert!(seq.stats().row_hits >= 14);
        assert_eq!(conf.stats().row_hits, 0);
        assert!(seq.stats().efficiency() > conf.stats().efficiency());
    }

    #[test]
    fn efficiency_bounded_by_burst_ratio() {
        let cfg = DramConfig::default();
        let mut d = DramPartition::new(cfg);
        for i in 0..64u32 {
            d.push(u64::from(i), i * 128, false);
        }
        run_until_quiescent(&mut d, 0);
        let e = d.stats().efficiency();
        assert!(
            e > 0.0 && e <= 1.0 / cfg.t_burst as f64 + 1e-9,
            "efficiency {e}"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let cfg = DramConfig::default();
        let mut d = DramPartition::new(cfg);
        let mut completed = Vec::new();
        // Open row 0 of bank 0.
        d.push(0, 0, false);
        let mut now = 0;
        while d.stats().n_rd == 0 {
            d.tick(now, &mut completed);
            now += 1;
        }
        // Queue: conflict (row 1 of bank 0) first, then a hit (row 0).
        let conflict_addr = cfg.row_bytes * cfg.banks;
        d.push(1, conflict_addr, false);
        d.push(2, 64, false);
        // Let the bus drain, then watch issue order.
        loop {
            d.tick(now, &mut completed);
            now += 1;
            if d.stats().n_rd == 2 {
                break;
            }
            assert!(now < 10_000);
        }
        assert_eq!(d.stats().row_hits, 1, "the hit must have been issued first");
    }

    #[test]
    fn active_cycles_only_count_busy_periods() {
        let mut d = DramPartition::new(DramConfig::default());
        let mut completed = Vec::new();
        for now in 0..100 {
            d.tick(now, &mut completed); // idle
        }
        assert_eq!(d.stats().active_cycles, 0);
        d.push(1, 0, false);
        let (_, _end) = run_until_quiescent(&mut d, 100);
        assert!(d.stats().active_cycles > 0);
    }

    #[test]
    fn skipped_span_matches_per_cycle_active_cycles() {
        // Drive one controller per-cycle and a clone event-driven (jumping
        // straight to next_event_at); both must agree on every counter.
        let mut per_cycle = DramPartition::new(DramConfig::default());
        per_cycle.push(1, 0, false);
        per_cycle.push(2, 4096, false); // different bank/row
        let mut evented = per_cycle.clone();

        let (done_a, _) = run_until_quiescent(&mut per_cycle, 0);

        let mut done_b = Vec::new();
        let mut now = 0;
        let mut iters = 0;
        while !evented.quiescent() {
            evented.tick(now, &mut done_b);
            now = match evented.next_event_at(now) {
                Some(t) => t,
                None => now + 1,
            };
            iters += 1;
            assert!(iters < 1_000, "horizon failed to make progress");
        }
        assert_eq!(done_a, done_b);
        assert_eq!(per_cycle.stats(), evented.stats());
    }

    #[test]
    fn next_event_at_is_none_when_quiescent() {
        let mut d = DramPartition::new(DramConfig::default());
        assert_eq!(d.next_event_at(0), None);
        d.push(9, 0, false);
        assert!(d.next_event_at(0).is_some());
        run_until_quiescent(&mut d, 0);
        assert_eq!(d.next_event_at(d.last_now), None);
    }

    #[test]
    fn next_event_covers_posted_write_bus_drain() {
        let mut d = DramPartition::new(DramConfig::default());
        let mut completed = Vec::new();
        d.push(1, 0, true);
        d.tick(0, &mut completed); // issues the write; bus busy until burst end
        assert!(!d.quiescent());
        let ev = d.next_event_at(0).expect("bus drain is an event");
        assert_eq!(ev, d.bus_free_at);
        d.tick(ev, &mut completed);
        assert!(d.quiescent());
    }

    #[test]
    fn backpressure_via_can_accept() {
        let cfg = DramConfig {
            queue_capacity: 2,
            ..DramConfig::default()
        };
        let mut d = DramPartition::new(cfg);
        d.push(1, 0, false);
        d.push(2, 128, false);
        assert!(!d.can_accept());
    }

    #[test]
    #[should_panic(expected = "DramConfig::banks must be non-zero")]
    fn zero_banks_is_rejected_at_construction() {
        let _ = DramPartition::new(DramConfig {
            banks: 0,
            ..DramConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "DramConfig::row_bytes must be non-zero")]
    fn zero_row_bytes_is_rejected_at_construction() {
        let _ = DramPartition::new(DramConfig {
            row_bytes: 0,
            ..DramConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "DramConfig::sched_window must be non-zero")]
    fn zero_sched_window_is_rejected_at_construction() {
        let _ = DramPartition::new(DramConfig {
            sched_window: 0,
            ..DramConfig::default()
        });
    }

    #[test]
    fn stats_merge() {
        let mut a = DramStats {
            n_rd: 1,
            n_wr: 2,
            active_cycles: 10,
            row_hits: 1,
            row_misses: 2,
        };
        a.merge(&a.clone());
        assert_eq!(a.n_rd, 2);
        assert_eq!(a.active_cycles, 20);
        assert!((a.efficiency() - 6.0 / 20.0).abs() < 1e-12);
    }
}
