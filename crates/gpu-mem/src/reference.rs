//! The memory timing model as it was written first — binary heaps for
//! completions, `HashMap`s for the MSHRs, a division per address split,
//! every partition ticked every cycle — kept as the test oracle for the
//! O(work) structures that replaced it. Only tracing is stripped.
//!
//! The differential below drives [`RefSubsystem`] and the real
//! [`MemSubsystem`] with the same random transaction streams and demands
//! the same completion *sequence*, counters, in-flight count, quiescence
//! and horizon at every step. It is the check that the monotone FIFOs pop
//! in the heap's `(at, id)` order, that an idle partition may be skipped,
//! and that the derived geometry is the same function of the address.

// The oracle keeps the hashing structures the timing model replaced.
#![allow(clippy::disallowed_types)]

use crate::cache::{Cache, CacheStats, Lookup};
use crate::coalesce::{coalesce, coalesce_mask_into};
use crate::config::MemConfig;
use crate::dram::{DramConfig, DramPartition, DramStats};
use crate::subsystem::{AccessId, AccessKind, MemStats, MemSubsystem};
use crate::CacheConfig;
use sim_rand::{Rng, SeedableRng, StdRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

struct Pending {
    id: u64,
    local_addr: u32,
    is_write: bool,
}

struct RefDram {
    cfg: DramConfig,
    open_row: Vec<Option<u32>>,
    bank_ready: Vec<u64>,
    bus_free_at: u64,
    last_now: u64,
    queue: VecDeque<Pending>,
    /// Min-heap on `(done, id)`.
    in_flight: BinaryHeap<Reverse<(u64, u64)>>,
    stats: DramStats,
}

impl RefDram {
    fn new(cfg: DramConfig) -> Self {
        RefDram {
            cfg,
            open_row: vec![None; cfg.banks as usize],
            bank_ready: vec![0; cfg.banks as usize],
            bus_free_at: 0,
            last_now: 0,
            queue: VecDeque::new(),
            in_flight: BinaryHeap::new(),
            stats: DramStats::default(),
        }
    }

    fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    fn free_capacity(&self) -> usize {
        self.cfg.queue_capacity - self.queue.len()
    }

    fn push(&mut self, id: u64, local_addr: u32, is_write: bool) {
        assert!(self.can_accept());
        self.queue.push_back(Pending {
            id,
            local_addr,
            is_write,
        });
    }

    fn bank_and_row(&self, local_addr: u32) -> (usize, u32) {
        let row_idx = local_addr / self.cfg.row_bytes;
        (
            (row_idx % self.cfg.banks) as usize,
            row_idx / self.cfg.banks,
        )
    }

    fn catch_up(&mut self, now: u64) {
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

    fn tick(&mut self, now: u64, completed: &mut Vec<u64>) {
        self.catch_up(now);
        self.last_now = now;
        if !self.queue.is_empty() || !self.in_flight.is_empty() || now < self.bus_free_at {
            self.stats.active_cycles += 1;
        }
        while let Some(&Reverse((done, id))) = self.in_flight.peek() {
            if done > now {
                break;
            }
            completed.push(id);
            self.in_flight.pop();
        }
        if self.bus_free_at > now || self.queue.is_empty() {
            return;
        }
        let window = self.queue.len().min(self.cfg.sched_window);
        let mut choice: Option<usize> = None;
        for i in 0..window {
            let (bank, row) = self.bank_and_row(self.queue[i].local_addr);
            if self.bank_ready[bank] > now {
                continue;
            }
            if self.open_row[bank] == Some(row) {
                choice = Some(i);
                break;
            }
            if choice.is_none() {
                choice = Some(i);
            }
        }
        let Some(idx) = choice else { return };
        let p = self.queue.remove(idx).expect("index in range");
        let (bank, row) = self.bank_and_row(p.local_addr);
        let penalty = if self.open_row[bank] == Some(row) {
            self.stats.row_hits += 1;
            0
        } else {
            self.stats.row_misses += 1;
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
                .push(Reverse((burst_end + self.cfg.t_cas, p.id)));
        }
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(&Reverse((done, _))) = self.in_flight.peek() {
            fold(done.max(now + 1));
        }
        if !self.queue.is_empty() {
            fold(self.bus_free_at.max(now + 1));
        } else if self.bus_free_at > now {
            fold(self.bus_free_at);
        }
        next
    }

    fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty() && self.last_now >= self.bus_free_at
    }
}

struct PartReq {
    ready_at: u64,
    id: Option<AccessId>,
    addr: u32,
    kind: AccessKind,
}

struct RefSubsystem {
    cfg: MemConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    dram: Vec<RefDram>,
    part_in: Vec<VecDeque<PartReq>>,
    /// Min-heap on `(at, id)`.
    completions: BinaryHeap<Reverse<(u64, AccessId)>>,
    miss_waiters: HashMap<(usize, u32), Vec<AccessId>>,
    dram_reads: HashMap<u64, (usize, u32)>,
    next_access: u64,
    next_dram_id: u64,
    stats_kind: (u64, u64, u64),
}

impl RefSubsystem {
    fn new(cfg: MemConfig) -> Self {
        let n = cfg.num_partitions;
        RefSubsystem {
            l1: (0..cfg.num_smx).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..n).map(|_| Cache::new(cfg.l2_slice)).collect(),
            dram: (0..n).map(|_| RefDram::new(cfg.dram)).collect(),
            part_in: (0..n).map(|_| VecDeque::new()).collect(),
            completions: BinaryHeap::new(),
            miss_waiters: HashMap::new(),
            dram_reads: HashMap::new(),
            next_access: 0,
            next_dram_id: 0,
            stats_kind: (0, 0, 0),
            cfg,
        }
    }

    fn partition_of(&self, addr: u32) -> (usize, u32) {
        let il = self.cfg.partition_interleave;
        let p = (addr / il) as usize % self.cfg.num_partitions;
        let local = (addr / il / self.cfg.num_partitions as u32) * il + addr % il;
        (p, local)
    }

    fn access(&mut self, smx: usize, addr: u32, kind: AccessKind, now: u64) -> Option<AccessId> {
        let id = AccessId(self.next_access);
        self.next_access += 1;
        let tracked = match kind {
            AccessKind::Load => {
                self.stats_kind.0 += 1;
                if self.l1[smx].access_read(addr) == Lookup::Hit {
                    self.completions
                        .push(Reverse((now + self.cfg.l1_hit_latency, id)));
                    return Some(id);
                }
                Some(id)
            }
            AccessKind::Store => {
                self.stats_kind.1 += 1;
                self.l1[smx].access_write(addr);
                None
            }
            AccessKind::Atomic => {
                self.stats_kind.2 += 1;
                self.l1[smx].invalidate(addr);
                Some(id)
            }
        };
        let (p, local) = self.partition_of(addr);
        self.part_in[p].push_back(PartReq {
            ready_at: now + self.cfg.icnt_fwd,
            id: tracked,
            addr: local,
            kind,
        });
        tracked
    }

    fn tick(&mut self, now: u64, completed: &mut Vec<AccessId>) {
        let line_mask = !(self.cfg.l2_slice.line_bytes - 1);
        let l2_done = now + self.cfg.l2_latency + self.cfg.icnt_back;
        for p in 0..self.cfg.num_partitions {
            self.dram[p].catch_up(now);
            for _ in 0..self.cfg.l2_ports {
                let can_issue = self.part_in[p].front().is_some_and(|r| r.ready_at <= now)
                    && self.dram[p].free_capacity() >= 2;
                if !can_issue {
                    break;
                }
                let req = self.part_in[p].pop_front().expect("front checked");
                let line = req.addr & line_mask;
                match req.kind {
                    AccessKind::Load | AccessKind::Atomic => {
                        if let Some(waiters) = self.miss_waiters.get_mut(&(p, line)) {
                            waiters.extend(req.id);
                            continue;
                        }
                        match self.l2[p].access_read(req.addr) {
                            Lookup::Hit => {
                                if let Some(id) = req.id {
                                    self.completions.push(Reverse((l2_done, id)));
                                }
                            }
                            Lookup::Miss { writeback } => {
                                if let Some(victim) = writeback {
                                    self.dram_write(p, victim);
                                }
                                let did = self.next_dram_id;
                                self.next_dram_id += 1;
                                self.dram[p].push(did, line, false);
                                self.dram_reads.insert(did, (p, line));
                                self.miss_waiters
                                    .insert((p, line), req.id.into_iter().collect());
                            }
                        }
                    }
                    AccessKind::Store => {
                        if let Lookup::Miss {
                            writeback: Some(victim),
                        } = self.l2[p].access_write(req.addr)
                        {
                            self.dram_write(p, victim);
                        }
                    }
                }
            }
            let mut returned = Vec::new();
            self.dram[p].tick(now, &mut returned);
            for did in returned {
                if let Some(key) = self.dram_reads.remove(&did) {
                    for id in self.miss_waiters.remove(&key).into_iter().flatten() {
                        self.completions.push(Reverse((l2_done, id)));
                    }
                }
            }
        }
        while let Some(&Reverse((at, id))) = self.completions.peek() {
            if at > now {
                break;
            }
            completed.push(id);
            self.completions.pop();
        }
    }

    fn dram_write(&mut self, p: usize, local_addr: u32) {
        if self.dram[p].can_accept() {
            let did = self.next_dram_id;
            self.next_dram_id += 1;
            self.dram[p].push(did, local_addr, true);
        }
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(&Reverse((at, _))) = self.completions.peek() {
            fold(at.max(now + 1));
        }
        for q in &self.part_in {
            if let Some(front) = q.front() {
                fold(front.ready_at.max(now + 1));
            }
        }
        for d in &self.dram {
            if let Some(t) = d.next_event_at(now) {
                fold(t);
            }
        }
        next
    }

    fn in_flight(&self) -> usize {
        self.completions.len()
            + self.miss_waiters.values().map(Vec::len).sum::<usize>()
            + self
                .part_in
                .iter()
                .flatten()
                .filter(|r| r.id.is_some())
                .count()
    }

    fn quiescent(&self) -> bool {
        self.completions.is_empty()
            && self.miss_waiters.is_empty()
            && self.part_in.iter().all(VecDeque::is_empty)
            && self.dram.iter().all(RefDram::quiescent)
    }

    fn stats(&self) -> MemStats {
        let sum = |caches: &[Cache]| {
            let mut s = CacheStats::default();
            for c in caches {
                s.hits += c.stats().hits;
                s.misses += c.stats().misses;
                s.writebacks += c.stats().writebacks;
            }
            s
        };
        let mut dram = DramStats::default();
        for d in &self.dram {
            dram.merge(&d.stats);
        }
        MemStats {
            loads: self.stats_kind.0,
            stores: self.stats_kind.1,
            atomics: self.stats_kind.2,
            l1: sum(&self.l1),
            l2: sum(&self.l2),
            dram,
        }
    }
}

/// The geometry no K20c dimension exercises: a 3-way 48 KiB L1, L2
/// slices of 12 sets, 12 banks of 1536-byte rows, 192-byte interleave.
fn odd_geometry(num_partitions: usize) -> MemConfig {
    MemConfig {
        num_smx: 4,
        num_partitions,
        l1: CacheConfig {
            size_bytes: 48 * 1024,
            line_bytes: 128,
            ways: 3,
            write_back: false,
        },
        l2_slice: CacheConfig {
            // Small enough that random traffic evicts dirty lines.
            size_bytes: 12 * 4 * 128,
            line_bytes: 128,
            ways: 4,
            write_back: true,
        },
        dram: DramConfig {
            banks: 12,
            row_bytes: 1536,
            queue_capacity: 8,
            ..DramConfig::default()
        },
        partition_interleave: 192,
        ..MemConfig::default()
    }
}

fn configs() -> Vec<(&'static str, MemConfig)> {
    let k20c = MemConfig::default();
    let small_l2 = CacheConfig {
        size_bytes: 8 * 1024,
        ..CacheConfig::l2_slice_256kb()
    };
    vec![
        ("k20c", k20c),
        (
            // Dirty evictions and DRAM back-pressure on the K20c shape.
            "k20c, 8 KiB L2 slices, 4-deep DRAM queues",
            MemConfig {
                l2_slice: small_l2,
                dram: DramConfig {
                    queue_capacity: 4,
                    ..k20c.dram
                },
                ..k20c
            },
        ),
        ("odd geometry, 5 partitions", odd_geometry(5)),
        ("odd geometry, 7 partitions", odd_geometry(7)),
        (
            // Reads issued on consecutive cycles share `done` after a row
            // miss, and FR-FCFS may issue the younger id first: the id
            // tie-break decides the order.
            "t_burst = 0, one L2 port",
            MemConfig {
                l2_slice: small_l2,
                dram: DramConfig {
                    t_burst: 0,
                    ..k20c.dram
                },
                l2_ports: 1,
                ..k20c
            },
        ),
        (
            "t_burst = 0, t_cas = 0, no latencies",
            MemConfig {
                l1_hit_latency: 0,
                icnt_fwd: 0,
                icnt_back: 0,
                l2_latency: 0,
                dram: DramConfig {
                    t_burst: 0,
                    t_cas: 0,
                    t_row_miss: 3,
                    ..k20c.dram
                },
                ..odd_geometry(5)
            },
        ),
    ]
}

/// One random transaction: hot lines (L1/L2 hits, MSHR merges), a
/// strided region (row hits, one partition after another) and full-range
/// scatter (row conflicts, evictions).
fn random_access(rng: &mut StdRng, cfg: &MemConfig) -> (usize, u32, AccessKind) {
    let smx = rng.gen_range(0..cfg.num_smx);
    let addr = match rng.gen_range(0u32..10) {
        0..=3 => rng.gen_range(0u32..24) * 128 + rng.gen_range(0u32..128),
        4..=6 => 0x10_0000 + rng.gen_range(0u32..4096) * 128,
        _ => rng.gen(),
    };
    let kind = match rng.gen_range(0u32..10) {
        0..=5 => AccessKind::Load,
        6..=8 => AccessKind::Store,
        _ => AccessKind::Atomic,
    };
    (smx, addr, kind)
}

fn assert_same_state(what: &str, now: u64, real: &MemSubsystem, oracle: &RefSubsystem) {
    assert_eq!(
        real.in_flight(),
        oracle.in_flight(),
        "{what} @{now}: in_flight"
    );
    assert_eq!(
        real.quiescent(),
        oracle.quiescent(),
        "{what} @{now}: quiescent"
    );
    assert_eq!(
        real.next_event_at(now),
        oracle.next_event_at(now),
        "{what} @{now}: next_event_at"
    );
}

/// Drives both models through bursts and gaps, stepping per cycle or by
/// the horizon, and compares everything observable at every step.
fn differential(what: &str, cfg: MemConfig, seed: u64, by_horizon: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut real = MemSubsystem::new(cfg);
    let mut oracle = RefSubsystem::new(cfg);
    let (mut done_real, mut done_oracle) = (Vec::new(), Vec::new());
    let mut now = 0u64;
    let mut issued = 0;
    while issued < 6_000 || !oracle.quiescent() {
        assert!(now < 10_000_000, "{what}: wedged");
        // Bursts of up to a few warps' worth of transactions, then gaps
        // long enough for every partition to drain and go idle.
        if issued < 6_000 && rng.gen_bool(0.35) {
            let burst = if rng.gen_bool(0.1) {
                rng.gen_range(32usize..96)
            } else {
                rng.gen_range(1usize..8)
            };
            for _ in 0..burst {
                let (smx, addr, kind) = random_access(&mut rng, &cfg);
                assert_eq!(
                    real.access(smx, addr, kind, now),
                    oracle.access(smx, addr, kind, now),
                    "{what} @{now}: access id"
                );
                issued += 1;
            }
            assert_same_state(what, now, &real, &oracle);
        }
        done_real.clear();
        done_oracle.clear();
        real.tick(now, &mut done_real);
        oracle.tick(now, &mut done_oracle);
        assert_eq!(done_real, done_oracle, "{what} @{now}: completion sequence");
        assert_eq!(real.stats(), oracle.stats(), "{what} @{now}: stats");
        assert_same_state(what, now, &real, &oracle);
        now = if rng.gen_bool(0.02) {
            // An idle gap (or, stepping by horizon, a late wake-up).
            now + rng.gen_range(1u64..2_000)
        } else if by_horizon {
            oracle.next_event_at(now).unwrap_or(now + 1)
        } else {
            now + 1
        };
    }
    assert!(real.quiescent());
    assert_eq!(real.stats(), oracle.stats(), "{what}: final stats");
    let s = real.stats();
    assert!(
        s.l1.hits > 0 && s.l2.hits > 0 && s.dram.n_rd > 0,
        "{what}: {s:?}"
    );
}

#[test]
fn subsystem_equals_the_heap_and_hashmap_oracle_per_cycle() {
    for (i, (what, cfg)) in configs().into_iter().enumerate() {
        for seed in 0..3 {
            differential(what, cfg, 0x5EED + 16 * i as u64 + seed, false);
        }
    }
}

#[test]
fn subsystem_equals_the_heap_and_hashmap_oracle_by_horizon() {
    for (i, (what, cfg)) in configs().into_iter().enumerate() {
        for seed in 0..3 {
            differential(what, cfg, 0xE7E7 + 16 * i as u64 + seed, true);
        }
    }
}

/// The stand-alone controller against its heap form, under a scheduler
/// window that reorders and timing that produces equal `done` cycles.
#[test]
fn dram_partition_equals_the_heap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD7A3);
    for cfg in [
        DramConfig::default(),
        DramConfig {
            banks: 12,
            row_bytes: 1536,
            t_burst: 0,
            queue_capacity: 24,
            ..DramConfig::default()
        },
        DramConfig {
            t_burst: 0,
            t_cas: 0,
            t_row_miss: 2,
            sched_window: 4,
            ..DramConfig::default()
        },
    ] {
        let mut real = DramPartition::new(cfg);
        let mut oracle = RefDram::new(cfg);
        let (mut done_real, mut done_oracle) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        let mut pushed = 0;
        while pushed < 20_000 || !oracle.quiescent() {
            while pushed < 20_000 && oracle.can_accept() && rng.gen_bool(0.4) {
                // Few rows over all banks: hits to reorder around.
                let addr = rng.gen_range(0u32..64) * cfg.row_bytes + rng.gen_range(0u32..8) * 128;
                let is_write = rng.gen_bool(0.3);
                // The public `push` takes any id: unordered ones make a
                // row hit issued right behind a row miss tie on `done`
                // with the smaller id second, so the tie-break decides.
                let id = rng.gen_range(0u64..1 << 40);
                assert!(real.can_accept());
                real.push(id, addr, is_write);
                oracle.push(id, addr, is_write);
                pushed += 1;
            }
            assert_eq!(real.free_capacity(), oracle.free_capacity());
            done_real.clear();
            done_oracle.clear();
            real.tick(now, &mut done_real);
            oracle.tick(now, &mut done_oracle);
            assert_eq!(done_real, done_oracle, "{cfg:?} @{now}");
            assert_eq!(real.stats(), &oracle.stats, "{cfg:?} @{now}");
            assert_eq!(real.quiescent(), oracle.quiescent(), "{cfg:?} @{now}");
            assert_eq!(
                real.next_event_at(now),
                oracle.next_event_at(now),
                "{cfg:?} @{now}"
            );
            now = match rng.gen_range(0u32..40) {
                0 => now + rng.gen_range(1u64..300),
                1..=9 => oracle.next_event_at(now).unwrap_or(now + 1),
                _ => now + 1,
            };
        }
    }
}

/// `partition_of` through the derived geometry equals the division form.
#[test]
fn partition_of_equals_the_division_form() {
    let mut rng = StdRng::seed_from_u64(0x9A47);
    for (what, cfg) in configs() {
        let oracle = RefSubsystem::new(cfg);
        for _ in 0..50_000 {
            let addr: u32 = rng.gen();
            assert_eq!(
                cfg.partition_of(addr),
                oracle.partition_of(addr),
                "{what} {addr:#x}"
            );
        }
    }
}

/// The mask form, the `Option` form and sort + dedup agree on any warp.
#[test]
fn coalesce_forms_agree_with_sort_and_dedup() {
    let mut rng = StdRng::seed_from_u64(0xC0A2);
    let mut buf = vec![7u32, 9];
    for case in 0..20_000 {
        let mask: u32 = match case % 4 {
            0 => u32::MAX,
            1 => rng.gen::<u32>() & rng.gen::<u32>(),
            _ => rng.gen(),
        };
        let base: u32 = rng.gen();
        let mut addrs = [0u32; 32];
        for a in &mut addrs {
            *a = match case % 5 {
                0 => rng.gen(),
                // Consecutive-ish, unaligned, descending or wrapping.
                1 => base.wrapping_add(rng.gen_range(0u32..64) * 4 + rng.gen_range(0u32..4)),
                2 => base.wrapping_sub(rng.gen_range(0u32..2048)),
                3 => u32::MAX - rng.gen_range(0u32..300),
                _ => rng.gen_range(0u32..1024),
            };
        }
        let optional: Vec<Option<u32>> = (0..32)
            .map(|lane| (mask >> lane & 1 == 1).then_some(addrs[lane]))
            .collect();
        let mut want: Vec<u32> = optional
            .iter()
            .flatten()
            .flat_map(|a| [a & !127, a.wrapping_add(3) & !127])
            .collect();
        want.sort_unstable();
        want.dedup();

        assert_eq!(coalesce(&optional), want, "case {case}");
        // The previous warp's segments are replaced, not appended to.
        coalesce_mask_into(&addrs, mask, &mut buf);
        assert_eq!(buf, want, "case {case}");
    }
}
