//! The scheduling pool: KDE extension registers and the Figure 5 policy.
//!
//! Each Kernel Distributor entry gains two registers (§4.2):
//!
//! * `NAGEI` — *Next* aggregated group to schedule for the kernel;
//! * `LAGEI` — *Last* aggregated group coalesced to the kernel.
//!
//! Together with the `Next` field of each AGE they form a linked list —
//! the scheduling pool — that the SMX scheduler walks after distributing
//! the kernel's native thread blocks.

use crate::agt::{AggGroupInfo, Agt, GroupRef};
use gpu_trace::{Category, EventKind, Recorder};

/// Per-KDE-entry extension registers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct KdeExt {
    /// Next aggregated group to be scheduled (`None`: nothing pending).
    nagei: Option<GroupRef>,
    /// Last aggregated group coalesced to this kernel.
    lagei: Option<GroupRef>,
}

/// Outcome of presenting one aggregated group to the coalescing logic
/// (the decision diamond chain of Figure 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoalesceOutcome {
    /// The group joined kernel `kde`'s scheduling pool.
    Coalesced {
        /// Where the group's descriptor lives.
        group: GroupRef,
        /// True when the kernel had gone quiet and must be re-marked in
        /// the FCFS controller (§4.2 scenario 1).
        remark: bool,
    },
    /// No eligible kernel is resident: the caller must fall back to a full
    /// device-kernel launch through the KMU.
    Fallback,
}

/// Coalescing counters; the paper reports a 98% average match rate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Groups successfully coalesced.
    pub coalesced: u64,
    /// Groups that fell back to device-kernel launches.
    pub fallbacks: u64,
    /// Fallbacks caused specifically by overflow-descriptor exhaustion
    /// (the hashed AGT slot was busy and no spill address could be
    /// allocated), a subset of `fallbacks`.
    pub overflow_exhausted: u64,
}

impl PoolStats {
    /// Fraction of launches that found an eligible kernel.
    pub fn match_rate(&self) -> f64 {
        let total = self.coalesced + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.coalesced as f64 / total as f64
        }
    }
}

/// The DTBL scheduling pool: owns the [`Agt`] and the per-KDE extension
/// registers, and implements the §4.2 coalescing and walking rules.
///
/// # Example
///
/// ```
/// use dtbl_core::{AggGroupInfo, CoalesceOutcome, SchedulingPool};
/// use gpu_isa::KernelId;
///
/// let mut pool = SchedulingPool::new(1024, 32);
/// let info = AggGroupInfo { kernel: KernelId(0), ntb: 2, param_addr: 0, kde: 4 };
/// // Kernel in KDE slot 4 is resident and still marked by the FCFS.
/// let out = pool.coalesce(Some(4), true, 0, info, || Some(0x8000));
/// assert!(matches!(out, CoalesceOutcome::Coalesced { remark: false, .. }));
/// assert_eq!(pool.stats().match_rate(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct SchedulingPool {
    agt: Agt,
    ext: Vec<KdeExt>,
    stats: PoolStats,
}

impl SchedulingPool {
    /// Creates a pool with an `agt_size`-entry AGT (power of two) and
    /// `kde_entries` Kernel Distributor entries.
    pub fn new(agt_size: usize, kde_entries: usize) -> Self {
        SchedulingPool {
            agt: Agt::new(agt_size),
            ext: vec![KdeExt::default(); kde_entries],
            stats: PoolStats::default(),
        }
    }

    /// The underlying Aggregated Group Table.
    pub fn agt(&self) -> &Agt {
        &self.agt
    }

    /// Mutable access to the AGT (for the SMX scheduler's per-TB
    /// bookkeeping).
    pub fn agt_mut(&mut self) -> &mut Agt {
        &mut self.agt
    }

    /// Coalescing counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Enables trace categories for the pool and its AGT. All pool events
    /// route through the AGT's staging buffer so insert/coalesce ordering
    /// is preserved within a cycle.
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.agt.trace_mut().set_mask(mask);
    }

    /// Moves staged AGT/pool trace payloads into `rec`, stamped with
    /// `now`. Call once per cycle when tracing is enabled.
    pub fn drain_trace(&mut self, now: u64, rec: &mut Recorder) {
        rec.absorb(now, self.agt.trace_mut());
    }

    /// The Figure 5 procedure for one newly launched aggregated group.
    ///
    /// * `eligible` — KDE entry holding an eligible kernel (same entry PC
    ///   and thread-block configuration), found by the caller's pipelined
    ///   KDE search; `None` triggers the device-kernel fallback.
    /// * `marked` — whether that kernel is currently marked by the FCFS
    ///   controller.
    /// * `hw_tid` — hardware thread index of the launching thread (hash
    ///   input).
    /// * `overflow_addr` — allocator for a global-memory descriptor slot,
    ///   invoked only if the hashed AGT entry is occupied; returning
    ///   `None` (overflow storage exhausted) also falls back to a
    ///   device-kernel launch, recorded in
    ///   [`PoolStats::overflow_exhausted`].
    pub fn coalesce(
        &mut self,
        eligible: Option<u32>,
        marked: bool,
        hw_tid: u32,
        mut info: AggGroupInfo,
        overflow_addr: impl FnOnce() -> Option<u32>,
    ) -> CoalesceOutcome {
        let Some(kde) = eligible else {
            self.stats.fallbacks += 1;
            if self.agt.trace_mut().on(Category::Agt) {
                self.agt.trace_mut().push(EventKind::AggFallback {
                    kernel: info.kernel.0,
                });
            }
            return CoalesceOutcome::Fallback;
        };
        info.kde = kde;
        let Some(group) = self.agt.insert(hw_tid, info, overflow_addr) else {
            // Hashed slot occupied and no overflow address available: the
            // group cannot be described anywhere, so degrade to a full
            // device-kernel launch.
            self.stats.fallbacks += 1;
            self.stats.overflow_exhausted += 1;
            if self.agt.trace_mut().on(Category::Agt) {
                self.agt.trace_mut().push(EventKind::AggFallback {
                    kernel: info.kernel.0,
                });
            }
            return CoalesceOutcome::Fallback;
        };
        let ext = &mut self.ext[kde as usize];

        if ext.nagei.is_none() {
            // Either the first group ever coalesced to this kernel, or all
            // previously coalesced groups have been scheduled. Point NAGEI
            // at the new group; the old chain (if any) is fully consumed.
            ext.nagei = Some(group);
        } else {
            // Pending groups exist: append behind LAGEI.
            let last = ext.lagei.expect("NAGEI set implies LAGEI set");
            self.agt.set_next(last, group);
        }
        // LAGEI always advances to the newest group.
        ext.lagei = Some(group);
        self.stats.coalesced += 1;
        if self.agt.trace_mut().on(Category::Agt) {
            self.agt.trace_mut().push(EventKind::AgtCoalesce {
                group: group.trace_code(),
                kde,
                remark: !marked as u8,
            });
        }

        CoalesceOutcome::Coalesced {
            group,
            // Scenario 1: the kernel was unmarked (all its TBs scheduled,
            // waiting for completion) — it must be re-marked so the new
            // group gets scheduled.
            remark: !marked,
        }
    }

    /// Next aggregated group to schedule for kernel `kde`.
    pub fn nagei(&self, kde: u32) -> Option<GroupRef> {
        self.ext[kde as usize].nagei
    }

    /// Last aggregated group coalesced to kernel `kde`.
    pub fn lagei(&self, kde: u32) -> Option<GroupRef> {
        self.ext[kde as usize].lagei
    }

    /// Advances `NAGEI` past the current group once the SMX scheduler has
    /// distributed all of its thread blocks. Returns the new `NAGEI`
    /// (`None` when the pool is drained, i.e. the group marked by `LAGEI`
    /// has been fully distributed and the kernel can be unmarked).
    ///
    /// # Panics
    ///
    /// Panics if `NAGEI` is empty or the current group is not fully
    /// scheduled — both indicate an SMX-scheduler bug.
    pub fn advance_nagei(&mut self, kde: u32) -> Option<GroupRef> {
        let cur = self.ext[kde as usize]
            .nagei
            .expect("advance_nagei with empty NAGEI");
        assert!(
            self.agt.fully_scheduled(cur),
            "advancing past a group with undistributed TBs"
        );
        let next = self.agt.next_of(cur);
        self.ext[kde as usize].nagei = next;
        next
    }

    /// Clears the extension registers when a Kernel Distributor entry is
    /// released (kernel complete) so the slot can be reused.
    pub fn reset_kde(&mut self, kde: u32) {
        self.ext[kde as usize] = KdeExt::default();
    }

    /// Total pending (coalesced but not fully scheduled) groups across all
    /// kernels, by walking every chain. Used by tests and footprint
    /// accounting.
    pub fn pending_groups(&self, kde: u32) -> usize {
        let mut n = 0;
        let mut cur = self.ext[kde as usize].nagei;
        while let Some(g) = cur {
            n += 1;
            cur = self.agt.next_of(g);
        }
        n
    }

    /// Verifies the NAGEI→…→LAGEI chain of `kde` is well-formed: every
    /// link names a live descriptor, the walk is acyclic (bounded by the
    /// number of live descriptors), and it terminates at `LAGEI`. Returns
    /// the chain length, or a description of the first broken law. Used
    /// by the simulator's per-cycle invariant checker.
    pub fn chain_check(&self, kde: u32) -> Result<usize, String> {
        let ext = &self.ext[kde as usize];
        let bound = self.agt.live_on_chip() + self.agt.live_overflow();
        let mut n = 0usize;
        let mut cur = ext.nagei;
        let mut last_seen = None;
        while let Some(g) = cur {
            if !self.agt.contains(g) {
                return Err(format!("kde {kde}: chain links dangling group {g:?}"));
            }
            n += 1;
            if n > bound {
                return Err(format!(
                    "kde {kde}: chain walk exceeded {bound} live groups (cycle)"
                ));
            }
            last_seen = Some(g);
            cur = self.agt.next_of(g);
        }
        if n > 0 && last_seen != ext.lagei {
            return Err(format!(
                "kde {kde}: chain tail {last_seen:?} disagrees with LAGEI {:?}",
                ext.lagei
            ));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::KernelId;

    fn info(ntb: u32) -> AggGroupInfo {
        AggGroupInfo {
            kernel: KernelId(0),
            ntb,
            param_addr: 0,
            kde: 0,
        }
    }

    fn pool() -> SchedulingPool {
        SchedulingPool::new(64, 8)
    }

    #[test]
    fn no_eligible_kernel_falls_back() {
        let mut p = pool();
        let out = p.coalesce(None, false, 0, info(1), || unreachable!());
        assert_eq!(out, CoalesceOutcome::Fallback);
        assert_eq!(p.stats().fallbacks, 1);
        assert_eq!(p.stats().match_rate(), 0.0);
    }

    #[test]
    fn first_group_sets_both_registers() {
        let mut p = pool();
        let out = p.coalesce(Some(2), true, 5, info(3), || unreachable!());
        let CoalesceOutcome::Coalesced { group, remark } = out else {
            panic!("expected coalesce");
        };
        assert!(!remark, "kernel still marked: no re-mark needed");
        assert_eq!(p.nagei(2), Some(group));
        assert_eq!(p.lagei(2), Some(group));
        assert_eq!(p.pending_groups(2), 1);
    }

    #[test]
    fn groups_chain_in_arrival_order() {
        let mut p = pool();
        let g1 = match p.coalesce(Some(0), true, 1, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        let g2 = match p.coalesce(Some(0), true, 2, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        let g3 = match p.coalesce(Some(0), true, 3, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        assert_eq!(p.nagei(0), Some(g1));
        assert_eq!(p.lagei(0), Some(g3));
        assert_eq!(p.agt().next_of(g1), Some(g2));
        assert_eq!(p.agt().next_of(g2), Some(g3));
        assert_eq!(p.pending_groups(0), 3);
    }

    #[test]
    fn quiet_kernel_triggers_remark_and_fresh_nagei() {
        let mut p = pool();
        // First group: kernel marked; schedule it fully and advance.
        let g1 = match p.coalesce(Some(1), true, 1, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        p.agt_mut().tb_scheduled(g1);
        assert_eq!(p.advance_nagei(1), None, "pool drained");
        // Kernel now unmarked (caller side). A new group arrives.
        let out = p.coalesce(Some(1), false, 2, info(2), || unreachable!());
        let CoalesceOutcome::Coalesced { group: g2, remark } = out else {
            panic!()
        };
        assert!(remark, "scenario 1: quiet kernel must be re-marked");
        assert_eq!(
            p.nagei(1),
            Some(g2),
            "NAGEI points at the new group, not the stale chain"
        );
    }

    #[test]
    fn advance_walks_the_chain() {
        let mut p = pool();
        let mut groups = Vec::new();
        for t in 0..3 {
            match p.coalesce(Some(0), true, t, info(2), || unreachable!()) {
                CoalesceOutcome::Coalesced { group, .. } => groups.push(group),
                _ => panic!(),
            }
        }
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(p.nagei(0), Some(*g));
            p.agt_mut().tb_scheduled(*g);
            p.agt_mut().tb_scheduled(*g);
            let next = p.advance_nagei(0);
            assert_eq!(next, groups.get(i + 1).copied());
        }
        assert_eq!(p.pending_groups(0), 0);
    }

    #[test]
    #[should_panic(expected = "undistributed TBs")]
    fn cannot_advance_past_unscheduled_group() {
        let mut p = pool();
        p.coalesce(Some(0), true, 0, info(2), || unreachable!());
        p.advance_nagei(0);
    }

    #[test]
    fn overflow_groups_join_the_chain() {
        let mut p = SchedulingPool::new(2, 4);
        let g1 = match p.coalesce(Some(0), true, 0, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        // Same hash slot: spills.
        let g2 = match p.coalesce(Some(0), true, 2, info(1), || Some(0xBEEF00)) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        assert!(g2.is_overflow());
        assert_eq!(p.agt().next_of(g1), Some(g2));
        assert_eq!(p.pending_groups(0), 2);
    }

    #[test]
    fn reset_kde_clears_registers() {
        let mut p = pool();
        p.coalesce(Some(3), true, 0, info(1), || unreachable!());
        p.reset_kde(3);
        assert_eq!(p.nagei(3), None);
        assert_eq!(p.lagei(3), None);
    }

    #[test]
    fn chains_on_distinct_kdes_are_independent() {
        let mut p = pool();
        let ga = match p.coalesce(Some(0), true, 0, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        let gb = match p.coalesce(Some(1), true, 1, info(1), || unreachable!()) {
            CoalesceOutcome::Coalesced { group, .. } => group,
            _ => panic!(),
        };
        assert_eq!(p.nagei(0), Some(ga));
        assert_eq!(p.nagei(1), Some(gb));
        assert_eq!(p.agt().next_of(ga), None);
        assert_eq!(p.agt().next_of(gb), None);
    }

    #[test]
    fn match_rate_mixes_outcomes() {
        let mut p = pool();
        p.coalesce(Some(0), true, 0, info(1), || unreachable!());
        p.coalesce(Some(0), true, 1, info(1), || unreachable!());
        p.coalesce(None, true, 2, info(1), || unreachable!());
        assert!((p.stats().match_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
