//! The Aggregated Group Table (AGT) and Aggregated Group Entries (AGEs).

use gpu_isa::KernelId;
use gpu_trace::{Category, EventKind, TraceBuffer};
use std::collections::HashMap;
use std::fmt;

/// Index of an entry within the on-chip AGT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgtIndex(pub u32);

impl fmt::Display for AgtIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "age{}", self.0)
    }
}

/// Where an aggregated group's descriptor lives.
///
/// §4.2: the SMX scheduler records the AGT index when the hash probe found
/// a free on-chip entry, "otherwise it will record the pointer to global
/// memory where the aggregated group information is stored". Walking a
/// memory-resident descriptor costs a global-memory load; the simulator
/// charges that latency when it dereferences a [`GroupRef::Memory`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupRef {
    /// On-chip AGE — zero-cost for the SMX scheduler to read.
    Agt(AgtIndex),
    /// Spilled descriptor at this global-memory address.
    Memory(u32),
}

impl GroupRef {
    /// True when the descriptor spilled to global memory.
    pub fn is_overflow(&self) -> bool {
        matches!(self, GroupRef::Memory(_))
    }

    /// Encodes the reference as a single integer for trace events: on-chip
    /// indices map to their value, overflow addresses set bit 32.
    pub fn trace_code(self) -> u64 {
        match self {
            GroupRef::Agt(i) => u64::from(i.0),
            GroupRef::Memory(a) => (1u64 << 32) | u64::from(a),
        }
    }
}

/// The launch-time description of one aggregated group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AggGroupInfo {
    /// Kernel function the group executes (and whose Kernel Distributor
    /// entry it coalesced with).
    pub kernel: KernelId,
    /// Number of thread blocks in the group (x extent; launches are 1D in
    /// this model).
    pub ntb: u32,
    /// Global address of the group's parameter buffer.
    pub param_addr: u32,
    /// Kernel Distributor entry the group was coalesced to.
    pub kde: u32,
}

/// One AGE plus its bookkeeping: link pointer, scheduled-TB cursor and
/// executing-TB count (the `ExeBL` field of Figure 4).
#[derive(Clone, Copy, Debug)]
struct Age {
    info: AggGroupInfo,
    next: Option<GroupRef>,
    /// Thread blocks distributed to SMXs so far.
    scheduled: u32,
    /// Thread blocks currently executing (distributed, not yet finished).
    exe_bl: u32,
    /// Thread blocks that finished execution.
    finished: u32,
}

impl Age {
    fn new(info: AggGroupInfo) -> Self {
        Age {
            info,
            next: None,
            scheduled: 0,
            exe_bl: 0,
            finished: 0,
        }
    }

    fn fully_scheduled(&self) -> bool {
        self.scheduled >= self.info.ntb
    }

    fn releasable(&self) -> bool {
        self.fully_scheduled() && self.finished >= self.info.ntb
    }
}

/// Allocation and occupancy counters for the AGT.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgtStats {
    /// Groups placed in on-chip entries.
    pub on_chip_allocs: u64,
    /// Groups spilled to global memory because the hashed slot was busy.
    pub overflow_allocs: u64,
    /// High-water mark of simultaneously live on-chip entries.
    pub peak_on_chip: usize,
    /// High-water mark of simultaneously live overflow descriptors.
    pub peak_overflow: usize,
}

impl AgtStats {
    /// Fraction of allocations that had to spill, in `[0, 1]`.
    pub fn overflow_rate(&self) -> f64 {
        let total = self.on_chip_allocs + self.overflow_allocs;
        if total == 0 {
            0.0
        } else {
            self.overflow_allocs as f64 / total as f64
        }
    }
}

/// The Aggregated Group Table.
///
/// A fixed power-of-two number of on-chip entries, allocated with the
/// paper's hash `ind = hw_tid & (AGT_size - 1)` — a single-cycle probe
/// justified by the observation that every hardware thread on an SMX is
/// equally likely to launch a group. Probe misses spill to global memory
/// (modelled as a side table keyed by the descriptor's address; the
/// simulator owns the address allocation and the latency accounting).
///
/// # Example
///
/// ```
/// use dtbl_core::{AggGroupInfo, Agt, GroupRef};
/// use gpu_isa::KernelId;
///
/// let mut agt = Agt::new(1024);
/// let info = AggGroupInfo { kernel: KernelId(0), ntb: 4, param_addr: 0x100, kde: 0 };
/// let r = agt.insert(77, info, || Some(0xdead_0000)).unwrap();
/// assert_eq!(r, GroupRef::Agt(dtbl_core::AgtIndex(77)));
/// assert_eq!(agt.info(r).ntb, 4);
/// ```
#[derive(Clone, Debug)]
pub struct Agt {
    entries: Vec<Option<Age>>,
    overflow: HashMap<u32, Age>,
    live_on_chip: usize,
    stats: AgtStats,
    /// Fault-injection hook: treat every probe as a conflict so each
    /// insert exercises the overflow path.
    force_overflow: bool,
    trace: TraceBuffer,
}

impl Agt {
    /// Creates an AGT with `size` on-chip entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two (the hash function
    /// requires a power-of-two table).
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "AGT size must be a power of two");
        Agt {
            entries: vec![None; size],
            overflow: HashMap::new(),
            live_on_chip: 0,
            stats: AgtStats::default(),
            force_overflow: false,
            trace: TraceBuffer::default(),
        }
    }

    /// The AGT's trace staging buffer; the owning scheduling pool also
    /// routes its coalesce events through it so intra-cycle ordering is
    /// preserved. The simulator sets the mask and drains it each cycle.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Fault injection: when `on`, every subsequent probe behaves as a
    /// hash miss, spilling the descriptor through `overflow_addr`.
    pub fn set_force_overflow(&mut self, on: bool) {
        self.force_overflow = on;
    }

    /// Number of on-chip entries.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// The paper's hash: `hw_tid & (AGT_size - 1)`.
    pub fn hash_index(&self, hw_tid: u32) -> AgtIndex {
        AgtIndex(hw_tid & (self.entries.len() as u32 - 1))
    }

    /// Allocates a descriptor for a new aggregated group.
    ///
    /// Probes the hashed slot; on conflict the descriptor spills to the
    /// global-memory address produced by `overflow_addr` (called only when
    /// needed, since the address space belongs to the caller). Returns
    /// `None` — allocating nothing — when the slot conflicts **and**
    /// `overflow_addr` cannot produce an address (overflow storage
    /// exhausted); callers then fall back to a device-kernel launch.
    pub fn insert(
        &mut self,
        hw_tid: u32,
        info: AggGroupInfo,
        overflow_addr: impl FnOnce() -> Option<u32>,
    ) -> Option<GroupRef> {
        let idx = self.hash_index(hw_tid);
        let slot = &mut self.entries[idx.0 as usize];
        let r = if slot.is_none() && !self.force_overflow {
            *slot = Some(Age::new(info));
            self.live_on_chip += 1;
            self.stats.on_chip_allocs += 1;
            self.stats.peak_on_chip = self.stats.peak_on_chip.max(self.live_on_chip);
            GroupRef::Agt(idx)
        } else {
            let addr = overflow_addr()?;
            self.overflow.insert(addr, Age::new(info));
            self.stats.overflow_allocs += 1;
            self.stats.peak_overflow = self.stats.peak_overflow.max(self.overflow.len());
            GroupRef::Memory(addr)
        };
        if self.trace.on(Category::Agt) {
            self.trace.push(EventKind::AgtInsert {
                group: r.trace_code(),
                kernel: info.kernel.0,
                kde: info.kde,
                overflow: r.is_overflow() as u8,
            });
        }
        Some(r)
    }

    /// True when `r` names a live descriptor (on-chip or overflow).
    pub fn contains(&self, r: GroupRef) -> bool {
        match r {
            GroupRef::Agt(i) => self
                .entries
                .get(i.0 as usize)
                .is_some_and(|slot| slot.is_some()),
            GroupRef::Memory(a) => self.overflow.contains_key(&a),
        }
    }

    fn age(&self, r: GroupRef) -> &Age {
        match r {
            GroupRef::Agt(i) => self.entries[i.0 as usize]
                .as_ref()
                .expect("dangling AGT reference"),
            GroupRef::Memory(a) => self.overflow.get(&a).expect("dangling overflow reference"),
        }
    }

    fn age_mut(&mut self, r: GroupRef) -> &mut Age {
        match r {
            GroupRef::Agt(i) => self.entries[i.0 as usize]
                .as_mut()
                .expect("dangling AGT reference"),
            GroupRef::Memory(a) => self
                .overflow
                .get_mut(&a)
                .expect("dangling overflow reference"),
        }
    }

    /// The group's launch description.
    ///
    /// # Panics
    ///
    /// Panics on a dangling reference (group already released) —
    /// indicates a scheduler bug.
    pub fn info(&self, r: GroupRef) -> AggGroupInfo {
        self.age(r).info
    }

    /// Follows the scheduling-pool link.
    pub fn next_of(&self, r: GroupRef) -> Option<GroupRef> {
        self.age(r).next
    }

    /// Sets the scheduling-pool link (`Next` field of the AGE).
    pub fn set_next(&mut self, r: GroupRef, next: GroupRef) {
        self.age_mut(r).next = Some(next);
    }

    /// Records one thread block of the group distributed to an SMX.
    /// Returns the block's index within the group.
    ///
    /// # Panics
    ///
    /// Panics if the group was already fully scheduled.
    pub fn tb_scheduled(&mut self, r: GroupRef) -> u32 {
        let age = self.age_mut(r);
        assert!(!age.fully_scheduled(), "scheduling past the end of a group");
        let idx = age.scheduled;
        age.scheduled += 1;
        age.exe_bl += 1;
        idx
    }

    /// True when every thread block of the group has been distributed.
    pub fn fully_scheduled(&self, r: GroupRef) -> bool {
        self.age(r).fully_scheduled()
    }

    /// Records one thread block of the group finishing execution, and
    /// releases the entry when the group is completely done. Returns
    /// `true` when the entry was released.
    pub fn tb_finished(&mut self, r: GroupRef) -> bool {
        let age = self.age_mut(r);
        assert!(age.exe_bl > 0, "finishing a TB that was never scheduled");
        age.exe_bl -= 1;
        age.finished += 1;
        if age.releasable() {
            match r {
                GroupRef::Agt(i) => {
                    self.entries[i.0 as usize] = None;
                    self.live_on_chip -= 1;
                }
                GroupRef::Memory(a) => {
                    self.overflow.remove(&a);
                }
            }
            if self.trace.on(Category::Agt) {
                self.trace.push(EventKind::AgtEvict {
                    group: r.trace_code(),
                });
            }
            true
        } else {
            false
        }
    }

    /// Number of currently live on-chip entries.
    pub fn live_on_chip(&self) -> usize {
        self.live_on_chip
    }

    /// Number of currently live overflow descriptors.
    pub fn live_overflow(&self) -> usize {
        self.overflow.len()
    }

    /// Allocation counters.
    pub fn stats(&self) -> &AgtStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(ntb: u32) -> AggGroupInfo {
        AggGroupInfo {
            kernel: KernelId(1),
            ntb,
            param_addr: 0x40,
            kde: 3,
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Agt::new(1000);
    }

    #[test]
    fn hash_is_masked_hw_tid() {
        let agt = Agt::new(1024);
        assert_eq!(agt.hash_index(0), AgtIndex(0));
        assert_eq!(agt.hash_index(1023), AgtIndex(1023));
        assert_eq!(agt.hash_index(1024), AgtIndex(0));
        assert_eq!(agt.hash_index(1500), AgtIndex(1500 - 1024));
    }

    #[test]
    fn insert_uses_hashed_slot() {
        let mut agt = Agt::new(16);
        let r = agt
            .insert(35, info(2), || unreachable!("no overflow expected"))
            .unwrap();
        assert_eq!(r, GroupRef::Agt(AgtIndex(3)));
        assert_eq!(agt.live_on_chip(), 1);
        assert_eq!(agt.info(r), info(2));
    }

    #[test]
    fn conflicting_insert_spills_to_memory() {
        let mut agt = Agt::new(16);
        let a = agt.insert(3, info(1), || unreachable!()).unwrap();
        let b = agt.insert(19, info(2), || Some(0x9000)).unwrap(); // same slot 3
        assert!(!a.is_overflow());
        assert_eq!(b, GroupRef::Memory(0x9000));
        assert_eq!(agt.live_overflow(), 1);
        assert_eq!(agt.info(b).ntb, 2);
        assert!((agt.stats().overflow_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let mut agt = Agt::new(16);
        let r = agt.insert(3, info(1), || unreachable!()).unwrap();
        assert_eq!(agt.tb_scheduled(r), 0);
        assert!(agt.fully_scheduled(r));
        assert!(agt.tb_finished(r), "single-TB group releases on finish");
        assert_eq!(agt.live_on_chip(), 0);
        // Slot 3 is usable again.
        let r2 = agt.insert(3, info(5), || unreachable!()).unwrap();
        assert_eq!(r2, GroupRef::Agt(AgtIndex(3)));
    }

    #[test]
    fn release_requires_all_tbs_finished_and_scheduled() {
        let mut agt = Agt::new(16);
        let r = agt.insert(0, info(3), || unreachable!()).unwrap();
        agt.tb_scheduled(r);
        agt.tb_scheduled(r);
        assert!(!agt.tb_finished(r), "one of three TBs still unscheduled");
        assert!(!agt.tb_finished(r));
        agt.tb_scheduled(r);
        assert!(agt.fully_scheduled(r));
        assert!(agt.tb_finished(r));
    }

    #[test]
    fn overflow_entry_lifecycle() {
        let mut agt = Agt::new(2);
        let _a = agt.insert(0, info(1), || unreachable!()).unwrap();
        let b = agt.insert(2, info(1), || Some(0x100)).unwrap();
        agt.tb_scheduled(b);
        assert!(agt.tb_finished(b));
        assert_eq!(agt.live_overflow(), 0);
    }

    #[test]
    fn link_fields() {
        let mut agt = Agt::new(16);
        let a = agt.insert(0, info(1), || unreachable!()).unwrap();
        let b = agt.insert(1, info(1), || unreachable!()).unwrap();
        assert_eq!(agt.next_of(a), None);
        agt.set_next(a, b);
        assert_eq!(agt.next_of(a), Some(b));
    }

    #[test]
    fn tb_index_counts_up() {
        let mut agt = Agt::new(16);
        let r = agt.insert(0, info(3), || unreachable!()).unwrap();
        assert_eq!(agt.tb_scheduled(r), 0);
        assert_eq!(agt.tb_scheduled(r), 1);
        assert_eq!(agt.tb_scheduled(r), 2);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn overscheduling_panics() {
        let mut agt = Agt::new(16);
        let r = agt.insert(0, info(1), || unreachable!()).unwrap();
        agt.tb_scheduled(r);
        agt.tb_scheduled(r);
    }

    #[test]
    fn peak_statistics_track_high_water() {
        let mut agt = Agt::new(4);
        let a = agt.insert(0, info(1), || unreachable!()).unwrap();
        let _b = agt.insert(1, info(1), || unreachable!()).unwrap();
        agt.tb_scheduled(a);
        agt.tb_finished(a);
        assert_eq!(agt.stats().peak_on_chip, 2);
        assert_eq!(agt.live_on_chip(), 1);
    }
}
