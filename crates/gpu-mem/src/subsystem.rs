//! The assembled memory subsystem: per-SMX L1s, partitioned L2, DRAM.
//!
//! This is a timing-only model (values live in
//! [`BackingStore`](crate::BackingStore)). Transactions are injected with
//! [`MemSubsystem::access`] and complete — after their modelled latency —
//! via [`MemSubsystem::tick`]. Loads and atomics return an [`AccessId`] the
//! caller waits on; plain stores are posted and never reported.

use crate::cache::{Cache, CacheStats, Lookup};
use crate::config::{MemConfig, PartitionMap};
use crate::dram::{DramPartition, DramStats};
use crate::mono_queue::MonoQueue;
use crate::mshr::MshrTable;
use gpu_trace::{Category, EventKind, Recorder, TraceBuffer};
use std::collections::VecDeque;

/// Handle for an in-flight load or atomic transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessId(pub u64);

/// The kind of memory transaction, which decides its path through the
/// hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Cached in L1 and L2; the warp waits for the data.
    Load,
    /// Write-through past L1, write-back in L2; posted (no completion).
    Store,
    /// Performed at the L2 (as on NVIDIA hardware); bypasses L1; the warp
    /// waits for the old value.
    Atomic,
}

/// Aggregate statistics for the whole subsystem.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Transactions injected, by kind.
    pub loads: u64,
    /// Store transactions injected.
    pub stores: u64,
    /// Atomic transactions injected.
    pub atomics: u64,
    /// Aggregated L1 counters (all SMXs).
    pub l1: CacheStats,
    /// Aggregated L2 counters (all partitions).
    pub l2: CacheStats,
    /// Aggregated DRAM counters (all partitions).
    pub dram: DramStats,
}

impl MemStats {
    /// The paper's Figure 7 metric, aggregated over partitions.
    pub fn dram_efficiency(&self) -> f64 {
        self.dram.efficiency()
    }
}

#[derive(Clone, Copy, Debug)]
struct PartReq {
    ready_at: u64,
    id: Option<AccessId>,
    addr: u32,
    kind: AccessKind,
}

/// One memory partition: its input queue from the interconnect, its L2
/// slice and its DRAM channel.
#[derive(Debug)]
struct Partition {
    input: VecDeque<PartReq>,
    l2: Cache,
    dram: DramPartition,
}

impl Partition {
    /// Posted write-back of an evicted dirty line; dropped if the
    /// controller is saturated (the data is functionally safe, only
    /// bandwidth accounting is lost, and a saturated queue already models
    /// the contention).
    fn write_back(&mut self, local_addr: u32, next_dram_id: &mut u64) {
        if self.dram.can_accept() {
            self.dram.push(*next_dram_id, local_addr, true);
            *next_dram_id += 1;
        }
    }
}

/// The timing model of the GPU's global-memory hierarchy.
///
/// # Example
///
/// ```
/// use gpu_mem::{AccessKind, MemConfig, MemSubsystem};
///
/// let mut mem = MemSubsystem::new(MemConfig::default());
/// let id = mem.access(0, 0x1000, AccessKind::Load, 0).unwrap();
/// let mut done = Vec::new();
/// let mut now = 0;
/// while done.is_empty() {
///     mem.tick(now, &mut done);
///     now += 1;
/// }
/// assert_eq!(done, vec![id]);
/// ```
#[derive(Debug)]
pub struct MemSubsystem {
    cfg: MemConfig,
    /// Geometry and latency sums, derived once.
    partition_map: PartitionMap,
    /// L2 lookup (or returning fill) to data back at the SMX.
    l2_to_smx: u64,
    l1: Vec<Cache>,
    parts: Vec<Partition>,
    /// Completions, as two queues that are each pushed in deadline
    /// order: L1 hits mature `l1_hit_latency` after the `access` that
    /// made them, L2 hits and fills `l2_to_smx` after the `tick` that
    /// made them. `tick` merges their matured prefixes by `(at, id)`.
    l1_done: MonoQueue<()>,
    l2_done: MonoQueue<()>,
    /// Ids completing at the L2 in the current `tick`, gathered across
    /// partitions so they enter `l2_done` in id order.
    l2_batch: Vec<AccessId>,
    /// Outstanding L2-miss lines and their waiters.
    mshr: MshrTable,
    next_access: u64,
    next_dram_id: u64,
    stats_kind: (u64, u64, u64),
    /// A lower bound on [`next_event_at`](Self::next_event_at), `u64::MAX`
    /// when quiescent: [`access`](Self::access) folds each new deadline
    /// in, and a [`tick`](Self::tick) at or past it recomputes it exactly
    /// while walking the partitions. A tick before it has nothing to do
    /// and returns at once.
    wake: u64,
    /// The last cycle [`tick`](Self::tick) was called for: the DRAM
    /// controllers' `active_cycles` are reported as of it, whether or not
    /// that tick walked them.
    last_tick: u64,
    trace: TraceBuffer,
}

impl MemSubsystem {
    /// Builds the hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, on a geometry no transaction could
    /// traverse: a zero `num_partitions`, `partition_interleave`,
    /// `l2_ports`, cache `line_bytes` / `ways` or DRAM `banks` /
    /// `row_bytes` / `sched_window`, or a `dram.queue_capacity` below 2
    /// (an L2 miss needs room for a victim write-back and the line fetch,
    /// so a shallower queue would stall every load until the watchdog).
    pub fn new(cfg: MemConfig) -> Self {
        assert!(cfg.l2_ports != 0, "MemConfig::l2_ports must be non-zero");
        assert!(
            cfg.dram.queue_capacity >= 2,
            "DramConfig::queue_capacity must be at least 2"
        );
        MemSubsystem {
            partition_map: PartitionMap::new(&cfg),
            l2_to_smx: cfg.l2_latency + cfg.icnt_back,
            l1: (0..cfg.num_smx).map(|_| Cache::new(cfg.l1)).collect(),
            parts: (0..cfg.num_partitions)
                .map(|_| Partition {
                    input: VecDeque::new(),
                    l2: Cache::new(cfg.l2_slice),
                    dram: DramPartition::new(cfg.dram),
                })
                .collect(),
            l1_done: MonoQueue::new(),
            l2_done: MonoQueue::new(),
            l2_batch: Vec::new(),
            mshr: MshrTable::new(),
            next_access: 0,
            next_dram_id: 0,
            stats_kind: (0, 0, 0),
            wake: u64::MAX,
            last_tick: 0,
            trace: TraceBuffer::default(),
            cfg,
        }
    }

    /// Enables trace categories for the subsystem and every DRAM
    /// partition. A zero mask (the default) keeps all emission sites on
    /// their single always-false branch.
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.trace.set_mask(mask);
        for part in &mut self.parts {
            part.dram.trace_mut().set_mask(mask);
        }
    }

    /// Moves staged trace payloads into `rec`, stamping them with `now`
    /// and filling in the partition index on DRAM events. Call once per
    /// cycle when tracing is enabled.
    pub fn drain_trace(&mut self, now: u64, rec: &mut Recorder) {
        rec.absorb(now, &mut self.trace);
        for (p, part) in self.parts.iter_mut().enumerate() {
            for mut kind in part.dram.trace_mut().drain() {
                if let EventKind::DramRowActivate { partition, .. } = &mut kind {
                    *partition = p as u32;
                }
                rec.emit(now, kind);
            }
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Injects one transaction from SMX `smx` at cycle `now`.
    ///
    /// Returns `Some(id)` for loads and atomics (the caller must wait for
    /// `id` to appear in a [`tick`](Self::tick) completion), `None` for
    /// posted stores.
    ///
    /// # Panics
    ///
    /// Panics if `smx` is out of range for the configured SMX count.
    pub fn access(
        &mut self,
        smx: usize,
        addr: u32,
        kind: AccessKind,
        now: u64,
    ) -> Option<AccessId> {
        match kind {
            AccessKind::Load => self.stats_kind.0 += 1,
            AccessKind::Store => self.stats_kind.1 += 1,
            AccessKind::Atomic => self.stats_kind.2 += 1,
        }
        let id = AccessId(self.next_access);
        self.next_access += 1;
        match kind {
            AccessKind::Load => {
                let hit = self.l1[smx].access_read(addr) == Lookup::Hit;
                if self.trace.on(Category::Cache) {
                    self.trace.push(EventKind::CacheAccess {
                        level: 1,
                        unit: smx as u16,
                        hit: hit as u8,
                    });
                }
                if hit {
                    let at = now + self.cfg.l1_hit_latency;
                    self.l1_done.push(at, id.0, ());
                    self.wake = self.wake.min(at);
                } else {
                    self.route_to_partition(addr, Some(id), kind, now);
                }
                Some(id)
            }
            AccessKind::Store => {
                // Write-through, no-write-allocate: tags updated for hit
                // accounting only; traffic always goes to the partition.
                let hit = self.l1[smx].access_write(addr) == Lookup::Hit;
                if self.trace.on(Category::Cache) {
                    self.trace.push(EventKind::CacheAccess {
                        level: 1,
                        unit: smx as u16,
                        hit: hit as u8,
                    });
                }
                self.route_to_partition(addr, None, kind, now);
                None
            }
            AccessKind::Atomic => {
                // Atomics are performed at L2 and must not hit stale L1
                // state; Kepler invalidates/bypasses L1 for atomics.
                self.l1[smx].invalidate(addr);
                self.route_to_partition(addr, Some(id), kind, now);
                Some(id)
            }
        }
    }

    fn route_to_partition(&mut self, addr: u32, id: Option<AccessId>, kind: AccessKind, now: u64) {
        let (p, local) = self.partition_map.locate(addr);
        let ready_at = now + self.cfg.icnt_fwd;
        // The L2 and DRAM operate on partition-local line addresses.
        self.parts[p].input.push_back(PartReq {
            ready_at,
            id,
            addr: local,
            kind,
        });
        self.wake = self.wake.min(ready_at);
    }

    /// Advances the subsystem to cycle `now` (call with monotonically
    /// increasing values; cycles before [`next_event_at`](Self::next_event_at)
    /// may be skipped) and appends the ids of transactions whose latency
    /// elapsed this cycle to `completed`.
    pub fn tick(&mut self, now: u64, completed: &mut Vec<AccessId>) {
        self.last_tick = now;
        if now < self.wake {
            return;
        }
        let MemSubsystem {
            cfg,
            parts,
            mshr,
            l2_batch,
            trace,
            next_dram_id,
            ..
        } = self;
        // `next_event_at(now)`, folded while the partitions are walked.
        let mut wake = u64::MAX;
        for (p, part) in parts.iter_mut().enumerate() {
            // A partition with nothing serviceable in its input queue and
            // a quiescent controller has no state this cycle can change:
            // `catch_up` reconstructs the idle span when work arrives.
            let serviceable = part.input.front().is_some_and(|r| r.ready_at <= now);
            if !serviceable && part.dram.quiescent() {
                if let Some(front) = part.input.front() {
                    wake = wake.min(front.ready_at);
                }
                continue;
            }
            // Settle skipped-span `active_cycles` accounting before this
            // cycle's L2 stage pushes new DRAM requests: the span must be
            // accounted with the frozen pre-push queue state.
            part.dram.catch_up(now);
            // L2 services a bounded number of lookups per cycle.
            for _ in 0..cfg.l2_ports {
                // An L2 miss may enqueue both a victim write-back and the
                // line fetch, so require room for two DRAM requests.
                if part.dram.free_capacity() < 2 {
                    break;
                }
                let Some(req) = part.input.pop_front_if(|r| r.ready_at <= now) else {
                    break;
                };
                let line = part.l2.line_of(req.addr);
                let lookup = match req.kind {
                    AccessKind::Load | AccessKind::Atomic => {
                        if mshr.merge(MshrTable::key(p, line), req.id) {
                            // MSHR merge: the line is already on its way.
                            continue;
                        }
                        part.l2.access_read(req.addr)
                    }
                    // Write-back, write-allocate (no fetch-on-write; the
                    // functional model already has the data).
                    AccessKind::Store => part.l2.access_write(req.addr),
                };
                if trace.on(Category::Cache) {
                    trace.push(EventKind::CacheAccess {
                        level: 2,
                        unit: p as u16,
                        hit: (lookup == Lookup::Hit) as u8,
                    });
                }
                match lookup {
                    Lookup::Hit => l2_batch.extend(req.id),
                    Lookup::Miss { writeback } => {
                        if let Some(victim) = writeback {
                            part.write_back(victim, next_dram_id);
                        }
                        if req.kind != AccessKind::Store {
                            part.dram.push(*next_dram_id, line, false);
                            *next_dram_id += 1;
                            mshr.open(MshrTable::key(p, line), req.id);
                        }
                    }
                }
            }

            // The returning fill still traverses the L2 pipeline before
            // data heads back across the interconnect.
            part.dram
                .tick_with(now, |_, line| mshr.close(MshrTable::key(p, line), l2_batch));
            if let Some(front) = part.input.front() {
                wake = wake.min(front.ready_at.max(now + 1));
            }
            if let Some(t) = part.dram.next_event_at(now) {
                wake = wake.min(t);
            }
        }

        // Everything that completed at the L2 this cycle matures at the
        // same `at`; in id order it extends `l2_done` monotonically.
        if !l2_batch.is_sorted() {
            l2_batch.sort_unstable();
        }
        let at = now + self.l2_to_smx;
        for id in self.l2_batch.drain(..) {
            self.l2_done.push(at, id.0, ());
        }

        // Merge the two queues' matured prefixes by `(at, id)`.
        loop {
            let due = |q: &MonoQueue<()>| q.front().filter(|&(at, _)| at <= now);
            let from_l1 = match (due(&self.l1_done), due(&self.l2_done)) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l1), Some(l2)) => l1 < l2,
            };
            let queue = if from_l1 {
                &mut self.l1_done
            } else {
                &mut self.l2_done
            };
            let (id, ()) = queue.pop_due(now).expect("front is due");
            completed.push(AccessId(id));
        }
        for done in [&self.l1_done, &self.l2_done] {
            if let Some((at, _)) = done.front() {
                wake = wake.min(at.max(now + 1));
            }
        }
        self.wake = wake;
    }

    /// The cached lower bound on [`next_event_at`](Self::next_event_at),
    /// in O(1): exact after a tick, folded down by each later access.
    /// `None` when quiescent.
    pub fn next_wake(&self) -> Option<u64> {
        (self.wake != u64::MAX).then_some(self.wake)
    }

    /// Earliest future cycle at which any observable subsystem state can
    /// change: a scheduled completion maturing, a partition input queue's
    /// front request becoming serviceable, or a DRAM controller event
    /// (issue, fill return, bus drain). `None` when the subsystem is
    /// quiescent as of `now`.
    ///
    /// This is a *safe lower bound* — the true next change is never
    /// earlier — so a caller may skip [`tick`](Self::tick) calls for every
    /// cycle strictly before the returned one. A front request blocked on
    /// DRAM back-pressure folds in as `now + 1` (no skip), which is
    /// conservative but correct.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        for done in [&self.l1_done, &self.l2_done] {
            if let Some((at, _)) = done.front() {
                fold(at.max(now + 1));
            }
        }
        for part in &self.parts {
            if let Some(front) = part.input.front() {
                fold(front.ready_at.max(now + 1));
            }
            if let Some(t) = part.dram.next_event_at(now) {
                fold(t);
            }
        }
        next
    }

    /// Number of load/atomic transactions issued but not yet reported
    /// complete: every [`AccessId`] the caller is still waiting on. Used
    /// by the simulator's invariant checker to prove request conservation
    /// across L1 → L2 → DRAM (each id is in exactly one place: the
    /// partition input queue, an L2 miss-waiter list, or a completion
    /// queue).
    pub fn in_flight(&self) -> usize {
        self.l1_done.len()
            + self.l2_done.len()
            + self.mshr.waiters()
            + self
                .parts
                .iter()
                .flat_map(|part| &part.input)
                .filter(|r| r.id.is_some())
                .count()
    }

    /// True when no transaction is queued or in flight anywhere. O(1):
    /// a tick leaves the cached wake-up unset exactly when nothing is
    /// left, and every access sets it.
    pub fn quiescent(&self) -> bool {
        self.wake == u64::MAX
    }

    /// Aggregated statistics across all caches and partitions.
    pub fn stats(&self) -> MemStats {
        let mut l1 = CacheStats::default();
        for c in &self.l1 {
            let s = c.stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.writebacks += s.writebacks;
        }
        let mut l2 = CacheStats::default();
        let mut dram = DramStats::default();
        for part in &self.parts {
            let s = part.l2.stats();
            l2.hits += s.hits;
            l2.misses += s.misses;
            l2.writebacks += s.writebacks;
            dram.merge(&part.dram.stats_through(self.last_tick));
        }
        MemStats {
            loads: self.stats_kind.0,
            stores: self.stats_kind.1,
            atomics: self.stats_kind.2,
            l1,
            l2,
            dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mem: &mut MemSubsystem, start: u64) -> (Vec<AccessId>, u64) {
        let mut done = Vec::new();
        let mut now = start;
        while !mem.quiescent() {
            mem.tick(now, &mut done);
            now += 1;
            assert!(now < start + 1_000_000, "memory subsystem wedged");
        }
        (done, now)
    }

    #[test]
    fn load_completes_and_second_load_is_faster() {
        let mut mem = MemSubsystem::new(MemConfig::default());
        let id = mem.access(0, 0x1000, AccessKind::Load, 0).unwrap();
        let (done, t_miss) = drain(&mut mem, 0);
        assert_eq!(done, vec![id]);

        // Same line again: L1 hit, must be much faster.
        let id2 = mem.access(0, 0x1000, AccessKind::Load, t_miss).unwrap();
        let (done2, t_hit) = drain(&mut mem, t_miss);
        assert_eq!(done2, vec![id2]);
        let miss_lat = t_miss;
        let hit_lat = t_hit - t_miss;
        assert!(
            hit_lat < miss_lat / 3,
            "L1 hit ({hit_lat}) should be far cheaper than a cold miss ({miss_lat})"
        );
    }

    #[test]
    fn store_is_posted() {
        let mut mem = MemSubsystem::new(MemConfig::default());
        assert!(mem.access(0, 0x40, AccessKind::Store, 0).is_none());
        let (done, _) = drain(&mut mem, 0);
        assert!(done.is_empty());
        assert_eq!(mem.stats().stores, 1);
    }

    #[test]
    fn atomic_waits_for_old_value() {
        let mut mem = MemSubsystem::new(MemConfig::default());
        let id = mem.access(2, 0x80, AccessKind::Atomic, 0).unwrap();
        let (done, t) = drain(&mut mem, 0);
        assert_eq!(done, vec![id]);
        assert!(t > mem.config().l1_hit_latency, "atomics bypass L1");
    }

    #[test]
    fn l1_is_private_per_smx() {
        let mut mem = MemSubsystem::new(MemConfig::default());
        mem.access(0, 0x1000, AccessKind::Load, 0).unwrap();
        drain(&mut mem, 0);
        let l1_misses_before = mem.stats().l1.misses;
        // Another SMX touching the same line must miss its own L1 (though
        // it will hit in the shared L2).
        mem.access(1, 0x1000, AccessKind::Load, 10_000).unwrap();
        drain(&mut mem, 10_000);
        assert_eq!(mem.stats().l1.misses, l1_misses_before + 1);
        assert!(mem.stats().l2.hits >= 1);
    }

    #[test]
    fn mshr_merges_duplicate_misses() {
        let mut mem = MemSubsystem::new(MemConfig::default());
        let a = mem.access(0, 0x2000, AccessKind::Load, 0).unwrap();
        let b = mem.access(1, 0x2000, AccessKind::Load, 0).unwrap();
        let (done, _) = drain(&mut mem, 0);
        assert_eq!(done.len(), 2);
        assert!(done.contains(&a) && done.contains(&b));
        // Only one DRAM read must have been issued for the shared line.
        assert_eq!(mem.stats().dram.n_rd, 1);
    }

    #[test]
    fn coalesced_stream_beats_scattered_on_dram_efficiency() {
        let cfg = MemConfig::default();
        let mut seq = MemSubsystem::new(cfg);
        let mut now = 0;
        let mut done = Vec::new();
        for i in 0..256u32 {
            seq.access(0, i * 128, AccessKind::Load, now);
            seq.tick(now, &mut done);
            now += 1;
        }
        while !seq.quiescent() {
            seq.tick(now, &mut done);
            now += 1;
        }

        let mut scat = MemSubsystem::new(cfg);
        let mut now = 0;
        for i in 0..256u32 {
            // Large prime stride: scattered rows and partitions.
            scat.access(0, i.wrapping_mul(1_048_583 * 4), AccessKind::Load, now);
            scat.tick(now, &mut done);
            now += 1;
        }
        while !scat.quiescent() {
            scat.tick(now, &mut done);
            now += 1;
        }

        let e_seq = seq.stats().dram_efficiency();
        let e_scat = scat.stats().dram_efficiency();
        assert!(
            e_seq > e_scat,
            "sequential ({e_seq:.3}) must beat scattered ({e_scat:.3})"
        );
    }

    #[test]
    fn l2_shared_across_smxs_saves_dram_traffic() {
        let mut mem = MemSubsystem::new(MemConfig::default());
        mem.access(0, 0x3000, AccessKind::Load, 0).unwrap();
        drain(&mut mem, 0);
        assert_eq!(mem.stats().dram.n_rd, 1);
        mem.access(5, 0x3000, AccessKind::Load, 20_000).unwrap();
        drain(&mut mem, 20_000);
        assert_eq!(mem.stats().dram.n_rd, 1, "second SMX hits in L2");
    }

    #[test]
    #[should_panic(expected = "DramConfig::queue_capacity must be at least 2")]
    fn dram_queue_too_shallow_for_an_l2_miss_is_rejected_at_construction() {
        let mut cfg = MemConfig::default();
        cfg.dram.queue_capacity = 1;
        let _ = MemSubsystem::new(cfg);
    }

    #[test]
    #[should_panic(expected = "MemConfig::num_partitions must be non-zero")]
    fn zero_partitions_is_rejected_at_construction() {
        let _ = MemSubsystem::new(MemConfig {
            num_partitions: 0,
            ..MemConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "MemConfig::l2_ports must be non-zero")]
    fn zero_l2_ports_is_rejected_at_construction() {
        let _ = MemSubsystem::new(MemConfig {
            l2_ports: 0,
            ..MemConfig::default()
        });
    }

    #[test]
    fn quiescent_initially() {
        let mem = MemSubsystem::new(MemConfig::default());
        assert!(mem.quiescent());
        assert_eq!(mem.next_event_at(0), None);
    }

    #[test]
    fn event_driven_drain_matches_per_cycle() {
        let cfg = MemConfig::default();
        let mut a = MemSubsystem::new(cfg);
        let mut b = MemSubsystem::new(cfg);
        for m in [&mut a, &mut b] {
            m.access(0, 0x1000, AccessKind::Load, 0).unwrap();
            m.access(1, 0x9000, AccessKind::Atomic, 0).unwrap();
            m.access(2, 0x40, AccessKind::Store, 0);
        }
        let (done_a, _) = drain(&mut a, 0);

        let mut done_b = Vec::new();
        let mut now = 0;
        let mut ticks = 0;
        while !b.quiescent() {
            b.tick(now, &mut done_b);
            now = b.next_event_at(now).unwrap_or(now + 1);
            ticks += 1;
            assert!(ticks < 10_000, "horizon failed to make progress");
        }
        assert_eq!(done_a, done_b, "completion order must be identical");
        assert_eq!(a.stats(), b.stats(), "all counters must be bit-identical");
        assert!(
            ticks < 200,
            "event-driven drain should take O(events) ticks, took {ticks}"
        );
    }
}
