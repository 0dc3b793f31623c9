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
//!    exist and are `Ready`, and neither its cached bound nor the
//!    machine's per-SMX ready bound exceeds the table minimum (nor the
//!    machine's least bound the per-SMX ones); its free-TB-slot count
//!    equals its empty slots; the KMU's queued-host count equals the sum
//!    of its work-queue depths; the distributor's resident count matches
//!    its occupied slots; the machine-wide resident-warp total equals
//!    Σ `Smx::live_warps`; the memory subsystem's cached wake-up is no
//!    later than its next event; a block need the distributor recorded as
//!    fitting nowhere, in the current capacity epoch, still fits on no
//!    SMX it may use. A stale-high bound, a stale count or a stale miss
//!    would silently hide an issuable warp, a memory completion, a free
//!    slot or a queued kernel from the scheduler. Each check is O(slots).

use crate::error::SimError;
use crate::gpu::{smx_limit, Gpu};
use crate::smx::warp::WarpState;

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

        // Laws 1–2 per SMX (law 3 is the launch unit's, below).
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
            let exact = smx.ready.exact_min();
            let (own, machine) = (smx.ready.cached_min(), self.ready_bound[smx.id]);
            if own > exact || machine > exact {
                return fail(format!(
                    "SMX {} ready bound {own} (machine's copy {machine}) is past its earliest \
                     issuable warp at {exact}",
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
        let least = self.ready_bound.iter().copied().min().unwrap_or(u64::MAX);
        if self.ready_min > least {
            return fail(format!(
                "least ready bound {} is past the SMXs' least, {least}",
                self.ready_min
            ));
        }
        if resident_warps != self.resident_warps {
            return fail(format!(
                "resident-warp total {} but the SMXs hold {resident_warps} live warps",
                self.resident_warps
            ));
        }
        for (kde, miss) in self.launch_unit.fit_misses() {
            let limit = smx_limit(self.smxs.len(), &self.cfg, miss.dynamic);
            if let Some(smx) =
                (self.smxs[..limit].iter()).find(|smx| smx.has_room(miss.needs, &self.cfg))
            {
                let (threads, regs, shared) = miss.needs;
                return fail(format!(
                    "KDE {kde}: recorded as fitting nowhere in capacity epoch {}, but SMX {} \
                     has room for {threads} threads / {regs} regs / {shared} shared bytes",
                    miss.epoch, smx.id
                ));
            }
        }
        let now = cycle.saturating_sub(1);
        let (wake, next) = (self.timing.next_wake(), self.timing.next_event_at(now));
        if wake.unwrap_or(u64::MAX) > next.unwrap_or(u64::MAX) {
            return fail(format!(
                "memory wake-up {wake:?} is past its next event {next:?} after cycle {now}"
            ));
        }
        // Laws 3, 4, 6 and the launch unit's cached counts, over every
        // resident block's TBCR.
        let blocks = self.smxs.iter().flat_map(|smx| {
            let slots = smx.tb_slots.iter().enumerate();
            slots.filter_map(|(slot, tb)| Some((smx.id, slot, tb.as_ref()?.tbcr)))
        });
        self.launch_unit.check_laws(cycle, blocks).or_else(fail)?;

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
