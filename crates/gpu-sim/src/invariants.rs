//! Per-cycle invariant checker.
//!
//! Enabled by `GpuConfig::check_invariants` (on by default in debug/test
//! builds), [`Gpu::check_invariants`] re-derives the machine's bookkeeping
//! from first principles at the end of every [`step`](crate::Gpu::step)
//! and fails fast with [`SimError::InvariantViolation`] naming the first
//! broken law. The laws:
//!
//! 1. **SMX resource accounting** — `used_threads` / `used_regs` /
//!    `used_shared` equal the sums over resident thread blocks and stay
//!    within the configured limits.
//! 2. **Warp accounting** — each SMX's `live_warps` equals its non-retired
//!    warps; each TB's `live_warps` matches its warp slots; barriers never
//!    count more arrivals than live warps.
//! 3. **TB-slot / KDE consistency** — every resident thread block points
//!    at an installed KDE entry, and each entry's `native_exe` / `agg_exe`
//!    counters equal its actually-resident blocks (no TB-slot leaks).
//! 4. **AGT / chain well-formedness** — every resident aggregated block's
//!    group descriptor is still live in the AGT, and each kernel's
//!    NAGEI→LAGEI descriptor chain is walkable and cycle-free
//!    (amortized: chains are walked every 256 cycles, the cheap laws run
//!    every cycle).
//! 5. **Memory-request conservation** — warps' outstanding-request counts,
//!    the owner map and the memory subsystem's in-flight transactions all
//!    agree: no completion is ever dropped or double-delivered.
//! 6. **FCFS mark consistency** — every FCFS-marked kernel names a
//!    resident Kernel Distributor entry that still has distributable work
//!    (pending native blocks under the first-dispatch bit, or a non-empty
//!    aggregated-group chain). A marked-but-workless kernel would sit at
//!    the head of the FCFS order forever, starving the kernels behind it.
//! 7. **Cached front-end state** — the incrementally maintained values the
//!    per-cycle front end reads instead of scanning agree with a scan:
//!    an SMX's warp-ready table holds a cycle for exactly the warps that
//!    exist and are `Ready`, its cached horizon never exceeds the table
//!    minimum, and its free-TB-slot count equals its empty slots; the
//!    KMU's queued-host count equals the sum of its work-queue depths;
//!    the machine-wide resident-warp total equals Σ `Smx::live_warps`.
//!    A stale-high horizon or a stale count would silently hide an
//!    issuable warp, a free slot or queued kernel from the scheduler.

// The checker is a debug-build observer, off in every timed run; its two
// per-step tallies may hash.
#![allow(clippy::disallowed_types)]

use crate::error::SimError;
use crate::gpu::Gpu;
use crate::smx::warp::WarpState;
use std::collections::HashMap;

/// How often the O(live groups) descriptor-chain walk runs; the cheap
/// accounting laws run every cycle.
const CHAIN_WALK_STRIDE: u64 = 256;

impl Gpu {
    /// Checks every invariant law, returning the first violation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] with the broken law spelled out.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let cycle = self.cycle;
        let fail = |law: String| -> Result<(), SimError> {
            Err(SimError::InvariantViolation { cycle, law })
        };

        // Laws 1–3 per SMX, accumulating per-KDE resident-block counts.
        let mut native_resident: HashMap<u32, u32> = HashMap::new();
        let mut agg_resident: HashMap<u32, u32> = HashMap::new();
        let mut total_waiting_mem: usize = 0;
        let mut resident_warps = 0u32;
        for smx in &self.smxs {
            let mut threads = 0u32;
            let mut regs = 0u32;
            let mut shared = 0u32;
            for (slot, tb) in smx.tb_slots.iter().enumerate() {
                let Some(tb) = tb else { continue };
                threads += tb.threads_reserved;
                regs += tb.regs_reserved;
                shared += tb.shared.len() as u32;
                let live = tb
                    .warp_slots
                    .iter()
                    .filter(|&&w| {
                        smx.warps[w]
                            .as_ref()
                            .is_some_and(|warp| !matches!(warp.state, WarpState::Done))
                    })
                    .count() as u32;
                if live != tb.live_warps {
                    return fail(format!(
                        "SMX {} TB slot {slot}: live_warps={} but {live} warps are live",
                        smx.id, tb.live_warps
                    ));
                }
                if tb.barrier_arrived > tb.live_warps {
                    return fail(format!(
                        "SMX {} TB slot {slot}: {} barrier arrivals exceed {} live warps",
                        smx.id, tb.barrier_arrived, tb.live_warps
                    ));
                }
                if self.kd.get(tb.tbcr.kdei).is_none() {
                    return fail(format!(
                        "SMX {} TB slot {slot}: resident block of unmapped KDE {}",
                        smx.id, tb.tbcr.kdei
                    ));
                }
                match tb.tbcr.agei {
                    None => *native_resident.entry(tb.tbcr.kdei).or_default() += 1,
                    Some(group) => {
                        *agg_resident.entry(tb.tbcr.kdei).or_default() += 1;
                        if !self.pool.agt().contains(group) {
                            return fail(format!(
                                "SMX {} TB slot {slot}: aggregated block of a freed AGT group",
                                smx.id
                            ));
                        }
                    }
                }
            }
            if threads != smx.used_threads || regs != smx.used_regs || shared != smx.used_shared {
                return fail(format!(
                    "SMX {} resource ledger drifted: counted {threads} threads / {regs} regs / \
                     {shared} shared bytes, ledger says {} / {} / {}",
                    smx.id, smx.used_threads, smx.used_regs, smx.used_shared
                ));
            }
            if smx.used_threads > self.cfg.max_threads_per_smx
                || smx.used_regs > self.cfg.regs_per_smx
                || smx.used_shared > self.cfg.shared_mem_per_smx
            {
                return fail(format!(
                    "SMX {} over-committed: {} threads / {} regs / {} shared bytes",
                    smx.id, smx.used_threads, smx.used_regs, smx.used_shared
                ));
            }
            let mut live = 0u32;
            for warp in smx.warps.iter().flatten() {
                if !matches!(warp.state, WarpState::Done) {
                    live += 1;
                }
                if let WarpState::WaitingMem { outstanding } = warp.state {
                    total_waiting_mem += outstanding as usize;
                    if outstanding == 0 {
                        return fail(format!(
                            "SMX {} has a warp waiting on zero memory requests",
                            smx.id
                        ));
                    }
                }
            }
            if live != smx.live_warps {
                return fail(format!(
                    "SMX {} live_warps={} but {live} warps are live",
                    smx.id, smx.live_warps
                ));
            }
            resident_warps += live;

            // Law 7 (SMX side).
            for (w, warp) in smx.warps.iter().enumerate() {
                let ready = warp
                    .as_ref()
                    .is_some_and(|warp| matches!(warp.state, WarpState::Ready));
                if ready != (smx.issuable_at(w) != u64::MAX) {
                    return fail(format!(
                        "SMX {} warp slot {w}: ready table says {} but the warp is {}",
                        smx.id,
                        smx.issuable_at(w),
                        warp.as_ref()
                            .map_or("vacant".into(), |warp| format!("{:?}", warp.state))
                    ));
                }
            }
            let (cached, exact) = (smx.ready.cached_min(), smx.ready.exact_min());
            if cached > exact {
                return fail(format!(
                    "SMX {} ready horizon {cached} is past its earliest issuable warp at {exact}",
                    smx.id
                ));
            }
            let free = smx.tb_slots.iter().filter(|tb| tb.is_none()).count();
            if free != smx.free_tb_slots() {
                return fail(format!(
                    "SMX {} counts {} free TB slots but {free} are empty",
                    smx.id,
                    smx.free_tb_slots()
                ));
            }
        }

        // Law 7 (machine side).
        if resident_warps != self.resident_warps {
            return fail(format!(
                "resident-warp total {} but the SMXs hold {resident_warps} live warps",
                self.resident_warps
            ));
        }
        let queued: usize = self.kmu.hwq_depths().iter().sum();
        if queued != self.kmu.host_queued() {
            return fail(format!(
                "KMU counts {} queued host kernels but its work queues hold {queued}",
                self.kmu.host_queued()
            ));
        }

        // Law 3 (KDE side): counters match resident blocks; schedule
        // cursors stay within the grid.
        for kde in self.kd.occupied() {
            let Some(entry) = self.kd.get(kde) else {
                continue;
            };
            if entry.next_native_tb > entry.grid_ntb {
                return fail(format!(
                    "KDE {kde} scheduled {} native blocks of a {}-block grid",
                    entry.next_native_tb, entry.grid_ntb
                ));
            }
            if entry.native_done + entry.native_exe > entry.next_native_tb {
                return fail(format!(
                    "KDE {kde}: {} done + {} executing native blocks exceed {} scheduled",
                    entry.native_done, entry.native_exe, entry.next_native_tb
                ));
            }
            let resident = native_resident.get(&kde).copied().unwrap_or(0);
            if entry.native_exe != resident {
                return fail(format!(
                    "KDE {kde}: native_exe={} but {resident} native blocks are resident",
                    entry.native_exe
                ));
            }
            let resident = agg_resident.get(&kde).copied().unwrap_or(0);
            if entry.agg_exe != resident {
                return fail(format!(
                    "KDE {kde}: agg_exe={} but {resident} aggregated blocks are resident",
                    entry.agg_exe
                ));
            }
            // Law 4: chain walk, amortized.
            if cycle.is_multiple_of(CHAIN_WALK_STRIDE) {
                if let Err(e) = self.pool.chain_check(kde) {
                    return fail(format!("KDE {kde} descriptor chain: {e}"));
                }
            }
        }
        // Resident blocks of released KDEs would have tripped the unmapped
        // check above; a pool chain on a *free* KDE slot is a leak.
        if cycle.is_multiple_of(CHAIN_WALK_STRIDE) {
            for kde in 0..self.kd.capacity() as u32 {
                if self.kd.get(kde).is_none() && self.pool.nagei(kde).is_some() {
                    return fail(format!("free KDE {kde} still owns a descriptor chain"));
                }
            }
        }

        // Law 6: FCFS mark consistency. Every transition that exhausts a
        // kernel's distributable work re-derives its mark (refresh_mark),
        // so a marked entry must always be resident and have work left.
        for kde in self.fcfs.marked_in_order() {
            let Some(entry) = self.kd.get(kde) else {
                return fail(format!("FCFS-marked kernel {kde} has no resident KDE"));
            };
            let native_pending =
                self.fcfs.is_first_dispatch(kde) && !entry.native_fully_scheduled();
            if !native_pending && self.pool.nagei(kde).is_none() {
                return fail(format!(
                    "FCFS-marked kernel {kde} has nothing to distribute \
                     (native {}/{} scheduled, first-dispatch={}, empty pool)",
                    entry.next_native_tb,
                    entry.grid_ntb,
                    self.fcfs.is_first_dispatch(kde)
                ));
            }
        }

        // Law 5: memory-request conservation.
        if total_waiting_mem != self.access_owner.len() {
            return fail(format!(
                "memory conservation: warps wait on {total_waiting_mem} requests but \
                 {} are mapped to owners",
                self.access_owner.len()
            ));
        }
        let in_flight = self.timing.in_flight();
        if self.access_owner.len() > in_flight {
            return fail(format!(
                "memory conservation: {} owned requests exceed {in_flight} in flight",
                self.access_owner.len()
            ));
        }

        Ok(())
    }
}
