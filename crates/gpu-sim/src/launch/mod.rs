//! The launch unit: the paper's launch mechanism behind one seam (§2.2,
//! §4.2, Figures 4–5). Host streams and device launches ([`cdp`],
//! [`dtbl`]) feed the KMU ([`kmu`]), which dispatches kernels into the
//! Kernel Distributor ([`distributor`]); the FCFS controller orders them
//! for the SMX scheduler, DTBL's AGT and NAGEI/LAGEI pool coalesce
//! aggregated groups onto them, and [`degrade`] is the ladder a launch
//! walks when a launch-path structure is exhausted.
//!
//! [`Gpu`](crate::Gpu) owns one [`LaunchUnit`] and keeps the SMXs, memory
//! timing and warp issue. It submits launches, ticks the unit, takes the
//! [`next_block`](LaunchUnit::next_block) to distribute given what fits,
//! reports each [`block_finished`](LaunchUnit::block_finished), and asks
//! for idleness, the event horizon, the trace and the invariant laws.
//! Memory effects and accounting reach the unit as one borrowed
//! [`LaunchCtx`]; the unit owns none of them.

mod cdp;
mod degrade;
mod distributor;
mod dtbl;
mod kmu;

pub(crate) use degrade::{BACKOFF_BASE, BACKOFF_CAP, MAX_RETRIES};
use distributor::{KdeEntry, KernelDistributor};
use kmu::{Kmu, Origin, PendingKernel};

use crate::config::GpuConfig;
use crate::error::{HangReport, SimError};
use crate::gpu::invariant;
use crate::smx::{Smx, Tbcr};
use crate::stats::{LaunchRecord, Stats};
use degrade::LaunchRetry;
use dtbl_core::{FcfsController, GroupRef, SchedulingPool};
use gpu_isa::{Kernel, KernelId, Program};
use gpu_mem::{BackingStore, LinearAllocator};
use gpu_trace::{Category, EventKind, Recorder};
use std::collections::{BTreeMap, VecDeque};
// Launch-path maps, touched once per launch, never per cycle.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::sync::Arc;

/// What the launch unit borrows from the machine for one call: the
/// configuration and program, functional memory and its allocator, and
/// the accounting (stats, recorder, forward-progress marker).
pub(crate) struct LaunchCtx<'a> {
    pub(crate) cfg: &'a GpuConfig,
    pub(crate) program: &'a Program,
    pub(crate) mem: &'a mut BackingStore,
    pub(crate) alloc: &'a mut LinearAllocator,
    pub(crate) stats: &'a mut Stats,
    pub(crate) tracer: &'a mut Recorder,
    pub(crate) progress: &'a mut u64,
}

impl LaunchCtx<'_> {
    /// Allocates from the device heap, honoring an injected heap-byte cap.
    pub(crate) fn heap_alloc(&mut self, now: u64, bytes: u32) -> Option<u32> {
        let fault = &self.cfg.fault;
        if let Some(limit) = fault.heap_limit_bytes {
            if fault.active_at(now) && self.alloc.live_bytes() + u64::from(bytes) > limit {
                self.stats.heap_cap_denials += 1;
                return None;
            }
        }
        self.alloc.alloc(bytes)
    }
}

/// Where a host launch's parameters come from.
pub(crate) enum HostParams<'a> {
    /// Copied into a fresh parameter buffer.
    Words(&'a [u32]),
    /// Already written at this caller-managed address.
    At(u32),
}

/// A queue popped in `(cycle, seq)` order: earliest cycle first, FIFO
/// within a cycle.
#[derive(Clone, Debug)]
pub(crate) struct TimedQueue<T> {
    items: BTreeMap<(u64, u64), T>,
    seq: u64,
}

impl<T> TimedQueue<T> {
    pub(crate) fn new() -> Self {
        TimedQueue {
            items: BTreeMap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, at: u64, item: T) {
        self.items.insert((at, self.seq), item);
        self.seq += 1;
    }

    /// The earliest cycle queued.
    pub(crate) fn next_at(&self) -> Option<u64> {
        self.items.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Pops the head if it is due at `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.next_at()? > now {
            return None;
        }
        self.items.pop_first().map(|(_, item)| item)
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A thread block no SMX had room for: its [`Smx::needs`], whether it
/// may use the reserved SMXs, and the capacity epoch it failed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FitMiss {
    pub(crate) needs: (u32, u32, u32),
    pub(crate) dynamic: bool,
    pub(crate) epoch: u64,
}

/// A thread block the unit handed out: the SMX `fits` chose, and what
/// the block needs to be placed there.
#[derive(Debug)]
pub(crate) struct Grant {
    pub(crate) smx: usize,
    pub(crate) kernel: KernelId,
    pub(crate) kernel_fn: Arc<Kernel>,
    pub(crate) tbcr: Tbcr,
    /// Blocks in the grid or aggregated group the block belongs to.
    pub(crate) nctaid: u32,
    pub(crate) param_addr: u32,
}

/// The launch mechanism: KMU, Kernel Distributor, FCFS controller, AGT
/// and scheduling pool, the SMX scheduler's distribution memo, and the
/// degradation ladder's queues.
#[derive(Debug)]
pub(crate) struct LaunchUnit {
    kmu: Kmu,
    kd: KernelDistributor,
    pool: SchedulingPool,
    fcfs: FcfsController,
    /// Launch record of each aggregated group not yet started.
    #[allow(clippy::disallowed_types)]
    group_record: HashMap<GroupRef, usize>,
    /// Heap bytes reserved per parameter buffer, keyed by buffer address;
    /// recorded at allocation (host launch or `cudaGetParameterBuffer`)
    /// and released into the heap accounting when the kernel that owns
    /// the buffer retires — per launch, never per cycle.
    #[allow(clippy::disallowed_types)]
    param_bytes: HashMap<u32, u32>,
    /// Per KDE, the descriptor walk of a spilled (overflow) aggregated
    /// group: its descriptor must be fetched from global memory before
    /// the SMX scheduler can distribute its thread blocks (§4.3). Holds
    /// `(group, ready_at)` for the fetch in progress or completed.
    agt_walk: Vec<Option<(GroupRef, u64)>>,
    /// Occupied `agt_walk` slots: zero until the AGT overflows, so the
    /// event horizon scans no slot in the common case.
    agt_walks: usize,
    /// Per-KDE record of the last block that found no SMX with room,
    /// valid while `capacity_epoch` stands: SMX room only grows when a
    /// block retires, so until then the same needs fail again and the
    /// distributor skips the SMX walk.
    fit_miss: Vec<Option<FitMiss>>,
    /// Bumped by every thread-block retirement, the one event that frees
    /// SMX room.
    capacity_epoch: u64,
    /// The ladder's retry queue: KMU-saturated launches waiting out their
    /// deterministic backoff.
    retries: TimedQueue<LaunchRetry>,
    /// Host launches parked while their hardware work queue sits at an
    /// injected cap; drained FIFO as capacity frees.
    host_deferred: VecDeque<(u32, PendingKernel)>,
}

impl LaunchUnit {
    /// An empty unit shaped by `cfg` (KDE and AGT sizes).
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        LaunchUnit {
            kmu: Kmu::new(cfg.kde_entries),
            kd: KernelDistributor::new(cfg.kde_entries),
            pool: SchedulingPool::new(cfg.agt_entries, cfg.kde_entries),
            fcfs: FcfsController::new(cfg.kde_entries),
            group_record: Default::default(),
            param_bytes: Default::default(),
            agt_walk: vec![None; cfg.kde_entries],
            agt_walks: 0,
            fit_miss: vec![None; cfg.kde_entries],
            capacity_epoch: 0,
            retries: TimedQueue::new(),
            host_deferred: VecDeque::new(),
        }
    }

    /// True when the unit owes the machine nothing: no kernel queued,
    /// arriving, dispatching or resident, and no launch waiting in the
    /// ladder's retry or deferral queues.
    pub(crate) fn is_idle(&self) -> bool {
        self.kmu.is_empty()
            && self.kd.is_empty()
            && self.retries.is_empty()
            && self.host_deferred.is_empty()
    }

    /// Allocates a parameter buffer and records its size, so retiring
    /// the kernel that owns it releases exactly those bytes.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when the heap or an injected cap denies it.
    pub(crate) fn alloc_param(
        &mut self,
        bytes: u32,
        now: u64,
        ctx: &mut LaunchCtx,
    ) -> Result<u32, SimError> {
        let addr = ctx
            .heap_alloc(now, bytes)
            .ok_or(SimError::OutOfMemory { bytes })?;
        self.param_bytes.insert(addr, bytes);
        Ok(addr)
    }

    /// The one host-launch path: kernel lookup, the zero-block no-op,
    /// then the parameter buffer (allocated only for a launch that will
    /// enqueue, so a rejected or empty launch allocates nothing), the
    /// `HostLaunch` count and event, and the hardware work queue — or the
    /// ladder's deferral queue when an injected cap has it full.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownKernel`] and heap exhaustion.
    pub(crate) fn submit_host(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        stream: u32,
        params: HostParams,
        now: u64,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        let kernel_fn = ctx
            .program
            .get(kernel)
            .ok_or(SimError::UnknownKernel(kernel))?;
        let kernel_fn = Arc::clone(kernel_fn);
        if ntb == 0 {
            return Ok(());
        }
        let param_addr = match params {
            HostParams::Words(words) => {
                let addr = self.alloc_param((words.len().max(1) * 4) as u32, now, ctx)?;
                ctx.mem.write_slice_u32(addr, words);
                addr
            }
            HostParams::At(addr) => addr,
        };
        ctx.stats.host_launches += 1;
        if ctx.tracer.on(Category::Launch) {
            ctx.tracer.emit(
                now,
                EventKind::HostLaunch {
                    kernel: kernel.0,
                    ntb,
                    hwq: self.kmu.hwq_of_stream(stream) as u32,
                },
            );
        }
        let pk = PendingKernel {
            kernel,
            kernel_fn,
            ntb,
            param_addr,
            origin: Origin::Host { hwq: 0 }, // rewritten by push_host
        };
        if self.hwq_overloaded(stream, now, ctx.cfg) {
            // Parked until `process_deferred` finds the queue drained.
            ctx.stats.host_launches_deferred += 1;
            self.host_deferred.push_back((stream, pk));
        } else {
            self.kmu.push_host(stream, pk);
        }
        Ok(())
    }

    /// The unit's step ahead of distribution: the ladder's matured retries
    /// and parked host launches re-attempt, then the KMU ticks and a
    /// dispatch that lands installs. Returns whether anything changed.
    ///
    /// # Errors
    ///
    /// Whatever a re-attempted launch reports, and a KDE slot found
    /// occupied at installation.
    pub(crate) fn tick(&mut self, now: u64, ctx: &mut LaunchCtx) -> Result<bool, SimError> {
        let mut changed = self.process_deferred(now, ctx)?;
        let kd = &self.kd;
        if let Some((slot, pk)) = self
            .kmu
            .tick(now, ctx.cfg.latency.kernel_dispatch, |reserved| {
                kd.free_slot_excluding(reserved)
            })
        {
            self.install_kernel(slot, pk, now, ctx)?;
            changed = true;
        }
        Ok(changed)
    }

    fn install_kernel(
        &mut self,
        slot: u32,
        pk: PendingKernel,
        now: u64,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        let installed = self.kd.install(
            slot,
            KdeEntry {
                kernel: pk.kernel,
                kernel_fn: pk.kernel_fn,
                grid_ntb: pk.ntb,
                param_addr: pk.param_addr,
                next_native_tb: 0,
                native_exe: 0,
                native_done: 0,
                agg_exe: 0,
                origin: pk.origin,
            },
        );
        if installed.is_err() {
            // The KMU reserved this slot when the dispatch began; finding
            // it occupied means the reservation bookkeeping broke.
            return Err(invariant(now, format!("KDE slot {slot} already occupied")));
        }
        self.fcfs.mark_new(slot);
        *ctx.progress += 1;
        Ok(())
    }

    // ---- thread-block distribution (§2.3 + §4.2 DTBL flow) ----------------

    /// The next thread block to distribute, walking the FCFS order in
    /// place from position `*at` (0 at the start of a cycle): while it is
    /// walked, only the kernel being dispatched can leave it and none
    /// joins. `fits` names an SMX with room for one block of a kernel
    /// (`true`: it may use the SMXs reserved for dynamic work); the block
    /// is charged to its kernel, and the caller places it there.
    ///
    /// # Errors
    ///
    /// A typed invariant violation when the unit's bookkeeping broke.
    pub(crate) fn next_block(
        &mut self,
        now: u64,
        at: &mut usize,
        ctx: &mut LaunchCtx,
        mut fits: impl FnMut(&Kernel, bool) -> Option<usize>,
    ) -> Result<Option<Grant>, SimError> {
        while let Some(kde) = self.fcfs.marked_at(*at) {
            if let Some(grant) = self.try_dispatch_one(kde, now, ctx, &mut fits)? {
                return Ok(Some(grant));
            }
            if self.fcfs.is_marked(kde) {
                *at += 1;
            }
        }
        Ok(None)
    }

    /// Re-derives whether KDE `kde` still has distributable work and
    /// updates the FCFS controller to match: the first-dispatch bit falls
    /// once every native block has been handed out, and the entry is
    /// unmarked only when the aggregated-group pool is empty too.
    ///
    /// Every site that consumes distributable work funnels through this
    /// one check *after* updating its counters. Re-deriving both facts
    /// here (instead of each site testing one of them against a value
    /// read before its own update) means no ordering of "native cursor
    /// advanced" vs. "pool drained" can strand a kernel marked with
    /// nothing to distribute — which would pin it at the head of the FCFS
    /// order forever — or unmark one that still has work.
    fn refresh_mark(&mut self, kde: u32) {
        let native_pending = self
            .kd
            .get(kde)
            .is_some_and(|e| !e.native_fully_scheduled());
        if native_pending {
            return;
        }
        self.fcfs.clear_first_dispatch(kde);
        if self.pool.nagei(kde).is_none() {
            self.fcfs.unmark(kde);
        }
    }

    /// Attempts to hand out one thread block of kernel `kde`.
    fn try_dispatch_one(
        &mut self,
        kde: u32,
        now: u64,
        ctx: &mut LaunchCtx,
        fits: &mut impl FnMut(&Kernel, bool) -> Option<usize>,
    ) -> Result<Option<Grant>, SimError> {
        let Some(entry) = self.kd.get_mut(kde) else {
            return Ok(None);
        };
        // A first dispatch hands out the native blocks before the pool's
        // aggregated groups, which go from NAGEI (`None`: a native block).
        let group = if self.fcfs.is_first_dispatch(kde) && !entry.native_fully_scheduled() {
            None
        } else if let Some(group) = self.pool.nagei(kde) {
            Some(group)
        } else {
            // Nothing to distribute; a marked kernel with an empty pool is
            // transient (between clear-first and unmark) — re-derive its
            // mark so it leaves the FCFS order.
            self.refresh_mark(kde);
            return Ok(None);
        };

        // A spilled descriptor lives in global memory: the scheduler must
        // fetch it before it can distribute the group's thread blocks
        // (§4.3), stalling this kernel's dispatch — unlike a zero-cost
        // on-chip AGE. Checked before SMX selection so a walk-stalled
        // cycle leaves the round-robin cursor and first-load bookkeeping
        // untouched: such cycles are pure no-ops, which is what lets the
        // event-driven engine skip them wholesale.
        if let Some(group) = group.filter(|g| g.is_overflow()) {
            let walk = &mut self.agt_walk[kde as usize];
            match *walk {
                Some((g, ready)) if g == group => {
                    if now < ready {
                        return Ok(None);
                    }
                }
                _ => {
                    self.agt_walks += usize::from(walk.is_none());
                    *walk = Some((group, now + ctx.cfg.pipeline.agt_overflow_load));
                    return Ok(None);
                }
            }
        }

        // Spatial sharing (optional §5.2B extension): host-launched native
        // blocks keep off the reserved SMXs; dynamic work may go anywhere.
        let dynamic = group.is_some() || entry.origin.record().is_some();
        let miss = FitMiss {
            needs: Smx::needs(&entry.kernel_fn),
            dynamic,
            epoch: self.capacity_epoch,
        };
        if self.fit_miss[kde as usize] == Some(miss) {
            return Ok(None);
        }
        let Some(smx) = fits(&entry.kernel_fn, dynamic) else {
            self.fit_miss[kde as usize] = Some(miss);
            return Ok(None);
        };
        // Refcounted handle shared with the distributor entry — never a
        // deep copy of the kernel on the block-dispatch path.
        let (kernel, kernel_fn) = (entry.kernel, Arc::clone(&entry.kernel_fn));

        // Charge the block; `exhausted` when the native blocks have all
        // gone out or the pool drained, so the mark is re-derived.
        let (blkid, nctaid, param_addr, record, exhausted) = match group {
            None => {
                let blkid = entry.next_native_tb;
                entry.next_native_tb += 1;
                entry.native_exe += 1;
                let fully = entry.native_fully_scheduled();
                (
                    blkid,
                    entry.grid_ntb,
                    entry.param_addr,
                    entry.origin.record(),
                    fully,
                )
            }
            Some(group) => {
                entry.agg_exe += 1;
                let info = self.pool.agt().info(group);
                let blkid = self.pool.agt_mut().tb_scheduled(group);
                let drained = self.pool.agt().fully_scheduled(group)
                    && self.pool.advance_nagei(kde).is_none();
                let record = self.group_record.remove(&group);
                (blkid, info.ntb, info.param_addr, record, drained)
            }
        };
        if exhausted {
            self.refresh_mark(kde);
        }
        if let Some(r) = record {
            mark_launch_started(r, smx, now, ctx);
        }
        let tbcr = Tbcr {
            kdei: kde,
            agei: group,
            blkid,
        };
        Ok(Some(Grant {
            smx,
            kernel,
            kernel_fn,
            tbcr,
            nctaid,
            param_addr,
        }))
    }

    /// Does the bookkeeping that follows a thread block's retirement:
    /// KD/AGT counters, kernel retirement, FCFS/pool/KMU/heap cleanup.
    ///
    /// # Errors
    ///
    /// A typed invariant violation when the block's kernel is not
    /// resident.
    pub(crate) fn block_finished(
        &mut self,
        tbcr: Tbcr,
        now: u64,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        self.capacity_epoch += 1;
        let kde = tbcr.kdei;
        let entry = (self.kd.get_mut(kde))
            .ok_or_else(|| invariant(now, format!("TB completed for non-resident KDE {kde}")))?;
        match tbcr.agei {
            None => {
                entry.native_done += 1;
                entry.native_exe -= 1;
            }
            Some(group) => {
                entry.agg_exe -= 1;
                self.pool.agt_mut().tb_finished(group);
            }
        }
        let done = entry.native_fully_scheduled()
            && entry.native_all_done()
            && entry.agg_exe == 0
            && self.pool.nagei(kde).is_none();
        if !done {
            return Ok(());
        }
        let Some(entry) = self.kd.release(kde) else {
            return Err(invariant(now, format!("KDE {kde} vanished at release")));
        };
        if ctx.tracer.on(Category::Launch) {
            ctx.tracer.emit(
                now,
                EventKind::KernelRetire {
                    kde,
                    kernel: entry.kernel.0,
                },
            );
        }
        self.pool.reset_kde(kde);
        if self.agt_walk[kde as usize].take().is_some() {
            self.agt_walks -= 1;
        }
        self.fcfs.unmark(kde);
        if let Origin::Host { hwq } = entry.origin {
            self.kmu.unblock_hwq(hwq);
        }
        // The retired kernel's parameter buffer no longer pins heap
        // accounting (bump allocator: bytes only, no address reuse).
        // Free exactly the bytes recorded at allocation; a kernel
        // launched via a caller-managed buffer recorded nothing.
        if let Some(bytes) = self.param_bytes.remove(&entry.param_addr) {
            ctx.alloc.free_accounting(bytes);
        }
        Ok(())
    }

    /// Earliest future cycle at which the unit can change state, given
    /// that the step at `now` was quiet: a KMU event, a spilled
    /// descriptor's fetch, a retry maturing, or — while a host launch is
    /// parked — the next cycle.
    pub(crate) fn next_event_at(&self, now: u64) -> Option<u64> {
        let mut next = self.kmu.next_event_at(now);
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        // A walk whose fetch has already matured (`ready <= now`) is
        // consumed on the *next* dispatch attempt — with zero fetch
        // latency it can be inserted and mature within the same quiet
        // step — so it always folds at least `now + 1`.
        if self.agt_walks > 0 {
            for &(_, ready) in self.agt_walk.iter().flatten() {
                fold(ready.max(now + 1));
            }
        }
        // A deferred retry matures at its backoff deadline; a parked host
        // launch re-probes its work queue every cycle (the queue's drain
        // is itself a progress event, so `now + 1` is the only sound
        // bound).
        if let Some(at) = self.retries.next_at() {
            fold(at.max(now + 1));
        }
        if !self.host_deferred.is_empty() {
            fold(now + 1);
        }
        next
    }

    /// Pushes the trace category mask into the staging buffers.
    pub(crate) fn set_trace_mask(&mut self, mask: u32) {
        self.kmu.trace_mut().set_mask(mask);
        self.kd.trace_mut().set_mask(mask);
        self.pool.set_trace_mask(mask);
        self.fcfs.trace_mut().set_mask(mask);
    }

    /// Drains the staging buffers into `tracer`, stamping `now`, in the
    /// order the trace byte format fixes: KMU, distributor, pool, FCFS.
    pub(crate) fn drain_trace(&mut self, now: u64, tracer: &mut Recorder) {
        tracer.absorb(now, self.kmu.trace_mut());
        tracer.absorb(now, self.kd.trace_mut());
        self.pool.drain_trace(now, tracer);
        tracer.absorb(now, self.fcfs.trace_mut());
    }

    /// Live AGT descriptors: `(on chip, spilled)`.
    pub(crate) fn agt_fill(&self) -> (usize, usize) {
        let agt = self.pool.agt();
        (agt.live_on_chip(), agt.live_overflow())
    }

    /// The launch path's part of a hang report: work-queue depths,
    /// pending device kernels, resident kernels and live descriptors.
    pub(crate) fn hang_report(&self) -> HangReport {
        let (agt_live_on_chip, agt_live_overflow) = self.agt_fill();
        HangReport {
            hwq_depths: self.kmu.hwq_depths(),
            kmu_pending_device: self.kmu.pending_device_kernels(),
            kd_occupied: self.kd.occupied().count(),
            agt_live_on_chip,
            agt_live_overflow,
            ..HangReport::default()
        }
    }

    /// Every recorded fit miss of the current capacity epoch, by KDE.
    pub(crate) fn fit_misses(&self) -> impl Iterator<Item = (usize, FitMiss)> + '_ {
        let epoch = self.capacity_epoch;
        (self.fit_miss.iter().enumerate())
            .filter_map(move |(kde, m)| m.filter(|m| m.epoch == epoch).map(|m| (kde, m)))
    }

    /// The unit's own invariant laws (see `invariants.rs`), given the
    /// SMX, slot and TBCR of every resident thread block. Returns the
    /// first broken law.
    pub(crate) fn check_laws(
        &self,
        cycle: u64,
        blocks: impl Iterator<Item = (usize, usize, Tbcr)>,
    ) -> Result<(), String> {
        // Law 3 (block side): every resident block names an installed KDE
        // (so its tally below is in range) and, if aggregated, a live
        // group descriptor.
        let mut native_resident = vec![0u32; self.kd.capacity()];
        let mut agg_resident = vec![0u32; self.kd.capacity()];
        for (smx, slot, tbcr) in blocks {
            let (kde, at) = (tbcr.kdei, || format!("SMX {smx} TB slot {slot}"));
            if self.kd.get(kde).is_none() {
                return Err(format!("{}: resident block of unmapped KDE {kde}", at()));
            }
            match tbcr.agei {
                None => native_resident[kde as usize] += 1,
                Some(group) if self.pool.agt().contains(group) => agg_resident[kde as usize] += 1,
                Some(_) => return Err(format!("{}: aggregated block of a freed AGT group", at())),
            }
        }
        // Law 7: cached counts.
        if self.kd.is_empty() != self.kd.occupied().next().is_none() {
            return Err(format!(
                "distributor says empty={} with {} occupied slots",
                self.kd.is_empty(),
                self.kd.occupied().count()
            ));
        }
        let queued = self.kmu.hwq_total();
        if queued != self.kmu.host_queued() {
            return Err(format!(
                "KMU counts {} queued host kernels but its work queues hold {queued}",
                self.kmu.host_queued()
            ));
        }
        let walks = self.agt_walk.iter().flatten().count();
        if walks != self.agt_walks {
            let counted = self.agt_walks;
            return Err(format!(
                "{counted} descriptor walks counted, {walks} recorded"
            ));
        }

        // Law 3 (KDE side): counters match resident blocks; schedule
        // cursors stay within the grid.
        for kde in self.kd.occupied() {
            let Some(entry) = self.kd.get(kde) else {
                continue;
            };
            if entry.next_native_tb > entry.grid_ntb {
                return Err(format!(
                    "KDE {kde} scheduled {} native blocks of a {}-block grid",
                    entry.next_native_tb, entry.grid_ntb
                ));
            }
            if entry.native_done + entry.native_exe > entry.next_native_tb {
                return Err(format!(
                    "KDE {kde}: {} done + {} executing native blocks exceed {} scheduled",
                    entry.native_done, entry.native_exe, entry.next_native_tb
                ));
            }
            let resident = native_resident[kde as usize];
            if entry.native_exe != resident {
                return Err(format!(
                    "KDE {kde}: native_exe={} but {resident} native blocks are resident",
                    entry.native_exe
                ));
            }
            let resident = agg_resident[kde as usize];
            if entry.agg_exe != resident {
                return Err(format!(
                    "KDE {kde}: agg_exe={} but {resident} aggregated blocks are resident",
                    entry.agg_exe
                ));
            }
            // Law 4: chain walk, amortized.
            if cycle.is_multiple_of(CHAIN_WALK_STRIDE) {
                if let Err(e) = self.pool.chain_check(kde) {
                    return Err(format!("KDE {kde} descriptor chain: {e}"));
                }
            }
        }
        // Resident blocks of released KDEs trip the unmapped-KDE law; a
        // pool chain on a *free* KDE slot is a leak.
        if cycle.is_multiple_of(CHAIN_WALK_STRIDE) {
            for kde in 0..self.kd.capacity() as u32 {
                if self.kd.get(kde).is_none() && self.pool.nagei(kde).is_some() {
                    return Err(format!("free KDE {kde} still owns a descriptor chain"));
                }
            }
        }

        // Law 6: FCFS mark consistency. Every transition that exhausts a
        // kernel's distributable work re-derives its mark (refresh_mark),
        // so a marked entry must always be resident and have work left.
        for kde in self.fcfs.marked_in_order() {
            let Some(entry) = self.kd.get(kde) else {
                return Err(format!("FCFS-marked kernel {kde} has no resident KDE"));
            };
            let native_pending =
                self.fcfs.is_first_dispatch(kde) && !entry.native_fully_scheduled();
            if !native_pending && self.pool.nagei(kde).is_none() {
                return Err(format!(
                    "FCFS-marked kernel {kde} has nothing to distribute \
                     (native {}/{} scheduled, first-dispatch={}, empty pool)",
                    entry.next_native_tb,
                    entry.grid_ntb,
                    self.fcfs.is_first_dispatch(kde)
                ));
            }
        }
        Ok(())
    }
}

/// How often the O(live groups) descriptor-chain walk runs; the cheap
/// accounting laws run every cycle.
const CHAIN_WALK_STRIDE: u64 = 256;

/// Pushes a dynamic launch of `kernel` into the launch log and emits its
/// `DynLaunch` event; returns the record's index.
fn record_launch(kernel: KernelId, record: LaunchRecord, ctx: &mut LaunchCtx) -> usize {
    let index = ctx.stats.push_launch(record);
    if ctx.tracer.on(Category::Launch) {
        ctx.tracer.emit(
            record.launched_at,
            EventKind::DynLaunch {
                record: index as u32,
                path: record.kind.path().code(),
                kernel: kernel.0,
                ntb: record.ntb,
            },
        );
    }
    index
}

/// Records the first thread block of launch `record` starting on `smx`:
/// its waiting time ends and its pending bytes are released.
fn mark_launch_started(record: usize, smx: usize, now: u64, ctx: &mut LaunchCtx) {
    if ctx.stats.launches[record].first_tb_at.is_none() {
        let rec = ctx.stats.launch_mut(record);
        rec.first_tb_at = Some(now);
        let bytes = rec.reserved_bytes;
        ctx.stats.remove_pending(bytes);
        if ctx.tracer.on(Category::Launch) {
            ctx.tracer.emit(
                now,
                EventKind::LaunchSched {
                    record: record as u32,
                    smx: smx as u16,
                },
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{HostParams, LaunchCtx, LaunchUnit};
    use crate::gpu::{HEAP_BASE, HEAP_SIZE};
    use crate::smx::Tbcr;
    use crate::{DynLaunchKind, GpuConfig, Stats};
    use gpu_isa::{Dim3, KernelBuilder, LaunchKind, LaunchRequest, Program};
    use gpu_mem::{BackingStore, LinearAllocator};
    use gpu_trace::Recorder;

    /// What a launch unit borrows, owned by a test instead of a `Gpu`.
    pub(crate) struct Machine {
        pub(crate) cfg: GpuConfig,
        pub(crate) program: Program,
        pub(crate) mem: BackingStore,
        pub(crate) alloc: LinearAllocator,
        pub(crate) stats: Stats,
        pub(crate) tracer: Recorder,
        pub(crate) progress: u64,
    }

    impl Machine {
        pub(crate) fn new(cfg: GpuConfig, program: Program) -> Self {
            Machine {
                tracer: Recorder::new(cfg.trace),
                cfg,
                program,
                mem: BackingStore::new(),
                alloc: LinearAllocator::new(HEAP_BASE, HEAP_SIZE),
                stats: Stats::default(),
                progress: 0,
            }
        }

        pub(crate) fn ctx(&mut self) -> LaunchCtx<'_> {
            LaunchCtx {
                cfg: &self.cfg,
                program: &self.program,
                mem: &mut self.mem,
                alloc: &mut self.alloc,
                stats: &mut self.stats,
                tracer: &mut self.tracer,
                progress: &mut self.progress,
            }
        }
    }

    #[test]
    fn an_aggregated_group_coalesces_runs_and_retires_with_its_kernel() {
        let mut prog = Program::new();
        let mut b = KernelBuilder::new("child", Dim3::x(32), 1);
        let _ = b.imm(0);
        let k = prog.add(b.build().expect("valid kernel"));
        let mut m = Machine::new(GpuConfig::test_small(), prog);
        let mut unit = LaunchUnit::new(&m.cfg);
        let fcfs = |unit: &LaunchUnit| (unit.fcfs.is_marked(0), unit.fcfs.is_first_dispatch(0));

        // A one-block host kernel installs in KDE 0 once the KMU's
        // dispatch latency has passed, marked for its first dispatch.
        let landed = m.cfg.latency.kernel_dispatch;
        let params = HostParams::Words(&[0]);
        unit.submit_host(k, 1, 0, params, 0, &mut m.ctx())
            .expect("launch");
        assert!(
            !unit.tick(0, &mut m.ctx()).expect("tick"),
            "dispatch in flight"
        );
        assert!(unit.tick(landed, &mut m.ctx()).expect("tick"), "installed");
        assert_eq!(fcfs(&unit), (true, true));

        // Its native block goes to the SMX `fits` names; with no block
        // left and an empty pool the kernel leaves the FCFS order.
        let mut at = 0;
        let native = (unit.next_block(landed, &mut at, &mut m.ctx(), |_, _| Some(1)))
            .expect("no violation")
            .expect("the native block");
        let want = Tbcr {
            kdei: 0,
            agei: None,
            blkid: 0,
        };
        assert_eq!((native.smx, native.tbcr), (1, want));
        assert_eq!(fcfs(&unit), (false, false));

        // An aggregated launch of the same kernel finds it eligible and
        // coalesces: NAGEI set, kernel re-marked without the first bit.
        let now = landed + 10;
        let param_addr = unit.alloc_param(4, now, &mut m.ctx()).expect("heap");
        let req = LaunchRequest {
            kind: LaunchKind::Agg,
            kernel: k,
            ntb: 1,
            param_addr,
        };
        let visible = now + m.cfg.latency.agg_launch;
        (unit.handle_launch(7, req, now, visible, &mut m.ctx())).expect("launch");
        assert_eq!(m.stats.agg_coalesced, 1);
        let group = unit.pool.nagei(0).expect("NAGEI set");
        assert_eq!(fcfs(&unit), (true, false));
        let record = m.stats.launches.len() - 1;
        assert_eq!(m.stats.launches[record].kind, DynLaunchKind::AggGroup);
        assert_eq!(m.stats.launches[record].first_tb_at, None);

        // The group's block is granted (as dynamic work) a cycle later:
        // the launch's waiting time ends and the drained pool unmarks.
        let mut at = 0;
        let agg = (unit.next_block(now + 1, &mut at, &mut m.ctx(), |_, dynamic| {
            dynamic.then_some(0)
        }))
        .expect("no violation")
        .expect("the group's block");
        assert_eq!(
            (agg.tbcr.agei, agg.nctaid, agg.param_addr),
            (Some(group), 1, param_addr)
        );
        assert_eq!(m.stats.launches[record].first_tb_at, Some(now + 1));
        assert_eq!(fcfs(&unit), (false, false));
        assert!(unit
            .next_block(now + 1, &mut 0, &mut m.ctx(), |_, _| Some(0))
            .expect("ok")
            .is_none());

        // The kernel retires with its last block, native or aggregated.
        unit.block_finished(native.tbcr, now + 50, &mut m.ctx())
            .expect("finish");
        assert!(!unit.is_idle(), "the group's block still runs");
        unit.block_finished(agg.tbcr, now + 60, &mut m.ctx())
            .expect("finish");
        assert!(unit.is_idle(), "the kernel retired");
        assert_eq!((unit.kd.is_empty(), fcfs(&unit)), (true, (false, false)));
    }
}
