//! Streaming Multiprocessor (SMX): resident thread blocks, warps, resource
//! accounting, and warp selection.

pub mod warp;

use crate::config::{GpuConfig, WarpSchedPolicy};
use dtbl_core::GroupRef;
use gpu_isa::{Dim3, Kernel, KernelId, WarpEnv, WarpRegs};
use gpu_trace::{Category, EventKind, TraceBuffer};
use std::collections::HashSet;
use std::sync::Arc;
use warp::{Warp, WarpState};

/// The Thread Block Control Register contents (Figure 4): which Kernel
/// Distributor entry and (for aggregated TBs) which AGE this block belongs
/// to, plus its block id within the kernel grid or aggregated group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tbcr {
    /// Kernel Distributor entry index (KDEI).
    pub kdei: u32,
    /// Aggregated group reference (AGEI); `None` for native blocks.
    pub agei: Option<GroupRef>,
    /// Block index within the kernel grid or aggregated group (BLKID).
    pub blkid: u32,
}

/// A resident thread block.
#[derive(Clone, Debug)]
pub struct TbSlot {
    /// Control-register contents.
    pub tbcr: Tbcr,
    /// Kernel function id executed by this block.
    pub kernel: KernelId,
    /// The kernel function itself, shared (refcounted) with the program
    /// and the distributor entry — warp issue fetches instructions from
    /// here without a per-issue program-table lookup.
    pub kernel_fn: Arc<Kernel>,
    /// Parameter-buffer base for `LdParam`.
    pub param_base: u32,
    /// Warp slot indices (into [`Smx::warps`]) belonging to this block.
    pub warp_slots: Vec<usize>,
    /// Warps still running.
    pub live_warps: u32,
    /// Warps currently stopped at the barrier.
    pub barrier_arrived: u32,
    /// Functional shared-memory storage for the block.
    pub shared: Vec<u8>,
    /// Registers reserved (for release accounting).
    pub regs_reserved: u32,
    /// Threads reserved.
    pub threads_reserved: u32,
}

impl TbSlot {
    /// Reads a 32-bit word of shared memory. Returns `None` when the
    /// access is outside the block's static allocation — a bug in the
    /// simulated program, which the engine reports as a
    /// [`SimError::SharedMemFault`](crate::SimError::SharedMemFault)
    /// instead of crashing.
    pub fn shared_read(&self, addr: u32) -> Option<u32> {
        let a = addr as usize;
        let bytes = self.shared.get(a..a + 4)?;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Writes a 32-bit word of shared memory; `None` on out-of-bounds.
    pub fn shared_write(&mut self, addr: u32, v: u32) -> Option<()> {
        let a = addr as usize;
        let bytes = self.shared.get_mut(a..a + 4)?;
        bytes.copy_from_slice(&v.to_le_bytes());
        Some(())
    }
}

/// Table value of a warp slot that cannot issue: vacant, blocked on
/// memory, parked at a barrier, or done.
const NEVER: u64 = u64::MAX;

/// The warp scheduler's view of an SMX, split out of the [`Warp`]
/// contexts: one "issuable at" cycle per warp slot ([`NEVER`] for a slot
/// that cannot issue) plus a lower bound on their minimum. It is the
/// single record of *when* a `Ready` warp may issue, so every transition
/// — placement, each arm of the two issue paths, barrier release, memory
/// wake-up, block release — writes through [`set`](Self::set) /
/// [`block`](Self::block), and warp selection and the event horizon read
/// nothing else.
///
/// `min` never exceeds the table minimum whenever it is read: `set` folds
/// it down, and the only site that raises it, a complete
/// [`Smx::select_warps`] walk, stores the exact minimum over the slots it
/// did not pick. `Gpu` copies it into its per-SMX ready bound after each
/// call. Too low costs one wasted walk; too high would hide an issuable
/// warp.
#[derive(Clone, Debug)]
pub(crate) struct ReadyTable {
    at: Vec<u64>,
    min: u64,
}

impl ReadyTable {
    fn new() -> Self {
        ReadyTable {
            at: Vec::new(),
            min: NEVER,
        }
    }

    fn clear(&mut self) {
        self.at.clear();
        self.min = NEVER;
    }

    /// Warp slot `w` is `Ready` and may issue from cycle `at` on.
    #[inline]
    pub(crate) fn set(&mut self, w: usize, at: u64) {
        self.at[w] = at;
        self.min = self.min.min(at);
    }

    /// Warp slot `w` stops being issuable (blocked, done or vacated).
    #[inline]
    pub(crate) fn block(&mut self, w: usize) {
        self.at[w] = NEVER;
    }

    /// Cycle from which warp slot `w` may issue; `u64::MAX` when it
    /// cannot.
    #[inline]
    pub(crate) fn at(&self, w: usize) -> u64 {
        self.at[w]
    }

    /// The cached lower bound on [`exact_min`](Self::exact_min).
    pub(crate) fn cached_min(&self) -> u64 {
        self.min
    }

    /// The minimum over the table, by scanning it.
    pub(crate) fn exact_min(&self) -> u64 {
        self.at.iter().copied().min().unwrap_or(NEVER)
    }
}

/// Releases every warp of `tb` parked at its barrier: they become
/// issuable at cycle `at`. Takes the SMX's fields split so both issue
/// paths can call it while holding the issuing warp's block.
pub(crate) fn release_barrier(
    warps: &mut [Option<Warp>],
    ready: &mut ReadyTable,
    tb: &mut TbSlot,
    at: u64,
) {
    for &ws in &tb.warp_slots {
        if let Some(w) = warps[ws].as_mut() {
            if matches!(w.state, WarpState::AtBarrier) {
                w.state = WarpState::Ready;
                ready.set(ws, at);
            }
        }
    }
    tb.barrier_arrived = 0;
}

/// One streaming multiprocessor.
#[derive(Clone, Debug)]
pub struct Smx {
    /// SMX index.
    pub id: usize,
    /// Thread-block slots (bounded by `max_tb_per_smx`).
    pub tb_slots: Vec<Option<TbSlot>>,
    /// Warp slots (slab with free list).
    pub warps: Vec<Option<Warp>>,
    /// Per-warp-slot special-register tables (same length as `warps`),
    /// built at placement. Kept out of [`Warp`] (each is 1,792 B) so the
    /// issue path's warp context stays ≈ 0.4 KiB; only ALU issue reads
    /// them.
    pub envs: Vec<WarpEnv>,
    free_warp_slots: Vec<usize>,
    /// Free entries of `tb_slots`, so [`can_fit`](Self::can_fit) never
    /// scans them.
    free_tb_slots: usize,
    /// The scheduler's per-slot "issuable at" table (same length as
    /// `warps`) and its cached minimum.
    pub(crate) ready: ReadyTable,
    /// Threads currently resident.
    pub used_threads: u32,
    /// Registers currently reserved.
    pub used_regs: u32,
    /// Shared memory currently reserved.
    pub used_shared: u32,
    /// Live (not Done) warps, maintained incrementally for occupancy
    /// sampling.
    pub live_warps: u32,
    /// Kernels whose code/context has been set up on this SMX already
    /// (first block of a kernel pays `context_setup`).
    pub kernels_loaded: HashSet<KernelId>,
    /// Warp slot that issued most recently (GTO greedy pointer).
    pub greedy: Option<usize>,
    rr_cursor: usize,
    /// Recycled `warp_slots` index vectors from released thread blocks, so
    /// steady-state block dispatch reuses their capacity instead of
    /// allocating a fresh `Vec` per placed block.
    slot_vec_pool: Vec<Vec<usize>>,
    /// Recycled lane-major register slabs from released warps. Every warp
    /// — including the partial last warp of an odd-sized block — uses a
    /// full 32-lane slab, so the pool is uniform and short-lived DTBL
    /// aggregated blocks re-bind a warm slab instead of allocating.
    reg_pool: Vec<WarpRegs>,
    /// Resident warp slots in ascending `age` order. Ages are handed out
    /// from a monotone counter, so `place_tb` appends in order and the
    /// list stays sorted without ever sorting; GTO walks it instead of
    /// collect+sort every cycle.
    age_order: Vec<usize>,
    /// Scratch buffer [`select_warps`](Self::select_warps) writes its
    /// picks into, reused across cycles (read back via
    /// [`picked`](Self::picked)).
    pick_buf: Vec<usize>,
    trace: TraceBuffer,
}

impl Smx {
    /// Creates an empty SMX.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        Smx {
            id,
            tb_slots: vec![None; cfg.max_tb_per_smx],
            warps: Vec::new(),
            envs: Vec::new(),
            free_warp_slots: Vec::new(),
            free_tb_slots: cfg.max_tb_per_smx,
            ready: ReadyTable::new(),
            used_threads: 0,
            used_regs: 0,
            used_shared: 0,
            live_warps: 0,
            kernels_loaded: HashSet::new(),
            greedy: None,
            rr_cursor: 0,
            slot_vec_pool: Vec::new(),
            reg_pool: Vec::new(),
            age_order: Vec::new(),
            pick_buf: Vec::new(),
            trace: TraceBuffer::default(),
        }
    }

    /// Restores the state [`Smx::new`] would build while keeping the
    /// warm allocations: the warp slab's and scratch vectors' capacity,
    /// the pooled `warp_slots` vectors, and the pooled register slabs
    /// (any still attached to a leftover warp are recovered first). Used
    /// by `Gpu::reset_bind`; a run after a reset must be bit-identical to
    /// a run on a fresh SMX, so everything observable — including warp
    /// slot numbering, which feeds the AGT hash — is reinitialized.
    pub fn reset(&mut self, cfg: &GpuConfig) {
        for w in self.warps.drain(..).flatten() {
            self.reg_pool.push(w.regs);
        }
        self.envs.clear();
        self.free_warp_slots.clear();
        self.tb_slots.clear();
        self.tb_slots.resize(cfg.max_tb_per_smx, None);
        self.free_tb_slots = cfg.max_tb_per_smx;
        self.ready.clear();
        self.used_threads = 0;
        self.used_regs = 0;
        self.used_shared = 0;
        self.live_warps = 0;
        self.kernels_loaded.clear();
        self.greedy = None;
        self.rr_cursor = 0;
        self.age_order.clear();
        self.pick_buf.clear();
        self.trace.set_mask(0);
        self.trace.drain();
    }

    /// Staging buffer for thread-block placement/retirement events. The
    /// simulator sets the category mask and drains it once per cycle.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Registers needed by one thread block of `kernel`.
    fn regs_for(kernel: &Kernel) -> u32 {
        kernel.threads_per_block() * u32::from(kernel.regs_per_thread())
    }

    /// True when a thread block of `kernel` fits in the remaining
    /// resources (threads, registers, shared memory, TB slot, warp slots).
    pub fn can_fit(&self, kernel: &Kernel, cfg: &GpuConfig) -> bool {
        self.has_room(Self::needs(kernel), cfg)
    }

    /// One thread block's `(threads, registers, shared bytes)`.
    pub(crate) fn needs(kernel: &Kernel) -> (u32, u32, u32) {
        (
            kernel.threads_per_block(),
            Self::regs_for(kernel),
            kernel.shared_mem_bytes(),
        )
    }

    /// True when a TB slot and a block's [`needs`](Self::needs) are free.
    pub(crate) fn has_room(
        &self,
        (threads, regs, shared): (u32, u32, u32),
        cfg: &GpuConfig,
    ) -> bool {
        self.free_tb_slots > 0
            && self.used_threads + threads <= cfg.max_threads_per_smx
            && self.used_regs + regs <= cfg.regs_per_smx
            && self.used_shared + shared <= cfg.shared_mem_per_smx
    }

    /// Installs one thread block and its warps. Returns the TB slot
    /// index, or `None` when no slot is free (callers should check
    /// [`can_fit`](Self::can_fit) first; a `None` here means the
    /// scheduler's accounting is broken and is reported as an invariant
    /// violation).
    #[allow(clippy::too_many_arguments)]
    pub fn place_tb(
        &mut self,
        kernel_id: KernelId,
        kernel: &Arc<Kernel>,
        tbcr: Tbcr,
        nctaid: u32,
        param_base: u32,
        ready_at: u64,
        warp_age: &mut u64,
    ) -> Option<usize> {
        let slot = self.tb_slots.iter().position(Option::is_none)?;
        if self.trace.on(Category::Tb) {
            self.trace.push(EventKind::TbPlace {
                smx: self.id as u16,
                slot: slot as u16,
                kernel: kernel_id.0,
                kde: tbcr.kdei,
                blkid: tbcr.blkid,
                agg: tbcr.agei.is_some() as u8,
            });
        }
        let threads = kernel.threads_per_block();
        let n_warps = threads.div_ceil(gpu_isa::WARP_SIZE as u32);
        let mut warp_slots = self.slot_vec_pool.pop().unwrap_or_default();
        warp_slots.reserve(n_warps as usize);
        for wi in 0..n_warps {
            let lanes_left = threads - wi * gpu_isa::WARP_SIZE as u32;
            let valid = if lanes_left >= 32 {
                u32::MAX
            } else {
                (1u32 << lanes_left) - 1
            };
            let ws = self.free_warp_slots.pop().unwrap_or_else(|| {
                self.warps.push(None);
                self.envs.push(WarpEnv::new());
                self.ready.at.push(NEVER);
                self.warps.len() - 1
            });
            let regs = self.reg_pool.pop().unwrap_or_default();
            let w = Warp::new(slot, ws, kernel.regs_per_thread(), valid, *warp_age, regs);
            *warp_age += 1;
            self.envs[ws].build(
                kernel.block_dim(),
                Dim3::x(nctaid),
                tbcr.blkid,
                wi,
                valid,
                self.id as u32,
                param_base,
            );
            self.warps[ws] = Some(w);
            self.ready.set(ws, ready_at);
            warp_slots.push(ws);
            self.age_order.push(ws);
            self.live_warps += 1;
        }
        self.free_tb_slots -= 1;
        self.used_threads += threads;
        self.used_regs += Self::regs_for(kernel);
        self.used_shared += kernel.shared_mem_bytes();
        self.tb_slots[slot] = Some(TbSlot {
            tbcr,
            kernel: kernel_id,
            kernel_fn: Arc::clone(kernel),
            param_base,
            warp_slots,
            live_warps: n_warps,
            barrier_arrived: 0,
            shared: vec![0u8; kernel.shared_mem_bytes() as usize],
            regs_reserved: Self::regs_for(kernel),
            threads_reserved: threads,
        });
        Some(slot)
    }

    /// Releases a completed thread block's resources and returns its
    /// TBCR; `None` when the slot is empty or warps are still live
    /// (either is a scheduler-accounting bug, surfaced as an invariant
    /// violation by the caller).
    pub fn release_tb(&mut self, slot: usize) -> Option<Tbcr> {
        if self.tb_slots[slot].as_ref()?.live_warps != 0 {
            return None;
        }
        let mut tb = self.tb_slots[slot].take()?;
        for ws in tb.warp_slots.drain(..) {
            if let Some(w) = self.warps[ws].take() {
                // Recover the lane-major register slab (capacity intact)
                // for the next placed block.
                self.reg_pool.push(w.regs);
            }
            self.ready.block(ws);
            self.free_warp_slots.push(ws);
            if self.greedy == Some(ws) {
                self.greedy = None;
            }
        }
        let warps = &self.warps;
        self.age_order.retain(|ws| warps[*ws].is_some());
        self.slot_vec_pool.push(tb.warp_slots);
        self.free_tb_slots += 1;
        self.used_threads -= tb.threads_reserved;
        self.used_regs -= tb.regs_reserved;
        self.used_shared -= tb.shared.len() as u32;
        if self.trace.on(Category::Tb) {
            self.trace.push(EventKind::TbRetire {
                smx: self.id as u16,
                slot: slot as u16,
                kde: tb.tbcr.kdei,
            });
        }
        Some(tb.tbcr)
    }

    /// Selects up to `budget` distinct ready warps to issue this cycle,
    /// honoring the configured policy (GTO keeps the last-issued warp
    /// first while it stays ready; round-robin rotates). The picks are
    /// written into a per-SMX scratch buffer — read them back via
    /// [`picked`](Self::picked) — and the count is returned; no allocation
    /// happens in steady state and no [`Warp`] is touched.
    ///
    /// The caller must issue every pick before this SMX is next asked
    /// anything: a walk that saw every slot stores the minimum over the
    /// slots it did *not* pick as the new horizon, and each pick folds its
    /// own next cycle back in when its issue writes the table.
    pub fn select_warps(&mut self, now: u64, budget: usize, policy: WarpSchedPolicy) -> usize {
        self.pick_buf.clear();
        // The cached bound never exceeds the table minimum, so a bound
        // past `now` proves no warp can issue this cycle. The bound is
        // exact after every walk that ends below the issue budget, and
        // `Gpu` does not call an SMX whose bound is in the future.
        if self.ready.min > now || budget == 0 {
            return 0;
        }
        let at = &self.ready.at;
        let picks = &mut self.pick_buf;
        // Minimum over the slots inspected and not picked; the whole
        // table's once `complete` survives the walk (vacant slots hold
        // `NEVER` and every resident slot is in `age_order`).
        let mut rest_min = NEVER;
        let mut complete = true;
        match policy {
            WarpSchedPolicy::Gto => {
                // The greedy warp first, while it stays ready.
                let greedy = self.greedy.unwrap_or(usize::MAX);
                if self.greedy.is_some_and(|g| at[g] <= now) {
                    picks.push(greedy);
                }
                // Then oldest-first: `age_order` is kept sorted by
                // construction. Each run of 64 positions is read without
                // a data-dependent branch into a `due` bit mask (the
                // greedy slot masked out) and the least cycle among the
                // slots not due; the picks are its set bits, in order.
                let n = self.age_order.len();
                'walk: for (c, run) in self.age_order.chunks(64).enumerate() {
                    if picks.len() >= budget {
                        complete = false;
                        break;
                    }
                    let mut due = 0u64;
                    for (k, &i) in run.iter().enumerate() {
                        let a = at[i];
                        let ready = a <= now;
                        due |= u64::from(ready & (i != greedy)) << k;
                        rest_min = rest_min.min(if ready { NEVER } else { a });
                    }
                    while due != 0 {
                        let k = due.trailing_zeros() as usize;
                        due &= due - 1;
                        picks.push(run[k]);
                        if picks.len() >= budget {
                            // Complete only if no age position is left.
                            if c * 64 + k + 1 < n {
                                complete = false;
                            }
                            break 'walk;
                        }
                    }
                }
            }
            WarpSchedPolicy::RoundRobin => {
                let n = at.len();
                for k in 0..n {
                    if picks.len() >= budget {
                        complete = false;
                        break;
                    }
                    let i = (self.rr_cursor + k) % n;
                    if at[i] <= now {
                        picks.push(i);
                    } else {
                        rest_min = rest_min.min(at[i]);
                    }
                }
                if let Some(last) = picks.last() {
                    self.rr_cursor = (last + 1) % n;
                }
            }
        }
        if complete {
            self.ready.min = rest_min;
        }
        if let Some(first) = self.pick_buf.first() {
            self.greedy = Some(*first);
        }
        self.pick_buf.len()
    }

    /// The warp slots chosen by the most recent
    /// [`select_warps`](Self::select_warps) call.
    pub fn picked(&self) -> &[usize] {
        &self.pick_buf
    }

    /// Cycle from which warp slot `w` may issue, as the scheduler sees
    /// it; `u64::MAX` for a slot that is vacant, blocked or done.
    pub fn issuable_at(&self, w: usize) -> u64 {
        self.ready.at(w)
    }

    /// Delivers one memory completion to warp slot `w`; when it was the
    /// last one outstanding the warp becomes `Ready` again, issuable from
    /// `wake_at`. Returns whether the warp woke.
    pub(crate) fn mem_complete(&mut self, w: usize, wake_at: u64) -> bool {
        let Some(warp) = self.warps[w].as_mut() else {
            return false;
        };
        let WarpState::WaitingMem { outstanding } = &mut warp.state else {
            return false;
        };
        *outstanding -= 1;
        if *outstanding > 0 {
            return false;
        }
        warp.state = WarpState::Ready;
        self.ready.set(w, wake_at);
        true
    }

    /// Free thread-block slots, as [`can_fit`](Self::can_fit) counts them.
    pub(crate) fn free_tb_slots(&self) -> usize {
        self.free_tb_slots
    }

    /// True when no warps are resident.
    pub fn is_idle(&self) -> bool {
        self.live_warps == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::KernelBuilder;

    fn kernel(threads: u32, shared_words: u32) -> Arc<Kernel> {
        let mut b = KernelBuilder::new("k", Dim3::x(threads), 1);
        if shared_words > 0 {
            b.alloc_shared_words(shared_words);
        }
        let _ = b.imm(0);
        Arc::new(b.build().unwrap())
    }

    fn tbcr() -> Tbcr {
        Tbcr {
            kdei: 0,
            agei: None,
            blkid: 0,
        }
    }

    /// Retires warp slot `ws` the way an `exit` issue does.
    fn exit_warp(smx: &mut Smx, ws: usize) {
        let w = smx.warps[ws].as_mut().unwrap();
        w.state = WarpState::Done;
        let tb = w.tb_slot;
        smx.ready.block(ws);
        smx.live_warps -= 1;
        smx.tb_slots[tb].as_mut().unwrap().live_warps -= 1;
    }

    /// Retires every warp of the block in `slot`, releases it, and
    /// returns the warp slots it used.
    fn retire_tb(smx: &mut Smx, slot: usize) -> Vec<usize> {
        let used = smx.tb_slots[slot].as_ref().unwrap().warp_slots.clone();
        for &ws in &used {
            exit_warp(smx, ws);
        }
        assert!(smx.release_tb(slot).is_some());
        used
    }

    #[test]
    fn place_and_release_roundtrip() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(100, 8);
        assert!(smx.can_fit(&k, &cfg));
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 4, 0x100, 0, &mut age)
            .unwrap();
        assert_eq!(smx.used_threads, 100);
        assert_eq!(smx.live_warps, 4, "100 threads = 4 warps (last partial)");
        let tb = smx.tb_slots[slot].as_ref().unwrap();
        assert_eq!(tb.warp_slots.len(), 4);
        let last = smx.warps[tb.warp_slots[3]].as_ref().unwrap();
        assert_eq!(last.valid_mask.count_ones(), 4, "100 - 96 lanes");

        assert!(smx.release_tb(slot).is_none(), "live warps refuse release");
        retire_tb(&mut smx, slot);
        assert!(smx.release_tb(slot).is_none(), "double release refused");
        assert_eq!(smx.used_threads, 0);
        assert_eq!(smx.used_regs, 0);
        assert_eq!(smx.used_shared, 0);
        assert!(smx.is_idle());
    }

    #[test]
    fn capacity_limits_enforced() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(1024, 0);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 4, 0, 0, &mut age)
            .unwrap();
        assert!(smx.can_fit(&k, &cfg), "2048 threads total allowed");
        smx.place_tb(KernelId(0), &k, tbcr(), 4, 0, 0, &mut age)
            .unwrap();
        assert!(!smx.can_fit(&k, &cfg), "thread limit reached");
    }

    #[test]
    fn shared_memory_limit() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        // 32 KiB of shared per block: only one fits in 48 KiB.
        let k = kernel(32, 8 * 1024);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert!(!smx.can_fit(&k, &cfg));
    }

    #[test]
    fn shared_rw_and_oob_refused() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(32, 4);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let tb = smx.tb_slots[slot].as_mut().unwrap();
        tb.shared_write(8, 77).unwrap();
        assert_eq!(tb.shared_read(8), Some(77));
        assert_eq!(tb.shared_read(16), None, "OOB shared read is refused");
        assert_eq!(tb.shared_write(16, 1), None, "OOB shared write is refused");
    }

    #[test]
    fn gto_prefers_greedy_then_oldest() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(96, 0); // 3 warps, ages 0,1,2
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert_eq!(smx.select_warps(0, 1, WarpSchedPolicy::Gto), 1);
        let g = smx.picked()[0];
        // Greedy warp keeps priority while ready.
        assert_eq!(smx.select_warps(0, 2, WarpSchedPolicy::Gto), 2);
        assert_eq!(smx.picked()[0], g);
        // Stall the greedy warp: oldest other warp wins.
        smx.ready.set(g, 100);
        assert_eq!(smx.select_warps(0, 1, WarpSchedPolicy::Gto), 1);
        let next = smx.picked()[0];
        assert_ne!(next, g);
        let age_next = smx.warps[next].as_ref().unwrap().age;
        assert_eq!(age_next, if g == 0 { 1 } else { 0 });
    }

    #[test]
    fn gto_age_order_survives_release_and_replace() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0); // 2 warps per block
        let mut age = 0;
        let s0 = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        // Retire the first (older) block; its slots leave the age order.
        retire_tb(&mut smx, s0);
        // A new block reuses the freed slots with *newer* ages; GTO must
        // still pick the surviving second block's warps (ages 2,3) first.
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        smx.greedy = None;
        assert_eq!(smx.select_warps(0, 4, WarpSchedPolicy::Gto), 4);
        let ages: Vec<u64> = smx
            .picked()
            .iter()
            .map(|ws| smx.warps[*ws].as_ref().unwrap().age)
            .collect();
        assert_eq!(ages, vec![2, 3, 4, 5], "oldest-first across slot reuse");
    }

    #[test]
    fn ready_bound_tracks_wakeups_and_walks() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        assert_eq!(smx.ready.cached_min(), NEVER, "empty SMX has no horizon");
        let k = kernel(64, 0);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 50, &mut age)
            .unwrap();
        assert_eq!(smx.ready.cached_min(), 50, "placement folds ready_at");
        // Block both warps on memory: the bound stays stale-low until a
        // walk finds nothing ready and stores the exact minimum.
        for ws in 0..2 {
            smx.warps[ws].as_mut().unwrap().state = WarpState::WaitingMem { outstanding: 2 };
            smx.ready.block(ws);
        }
        assert_eq!(smx.ready.cached_min(), 50);
        assert_eq!(smx.select_warps(60, 2, WarpSchedPolicy::Gto), 0);
        assert_eq!(smx.ready.cached_min(), NEVER);
        // The last completion wakes the warp and folds its cycle back in.
        assert!(!smx.mem_complete(0, 150), "one request still outstanding");
        assert_eq!(smx.ready.cached_min(), NEVER);
        assert!(smx.mem_complete(0, 200));
        assert_eq!(smx.ready.cached_min(), 200);
        assert_eq!(smx.issuable_at(0), 200);
        assert_eq!(smx.issuable_at(1), u64::MAX, "still waiting on memory");
    }

    #[test]
    fn placed_tb_shares_the_kernel_not_a_copy() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let tb = smx.tb_slots[slot].as_ref().unwrap();
        assert!(
            Arc::ptr_eq(&tb.kernel_fn, &k),
            "block dispatch must share the kernel allocation, not deep-copy it"
        );
    }

    #[test]
    fn warp_slot_vectors_are_pooled_across_blocks() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let cap_before = smx.tb_slots[slot].as_ref().unwrap().warp_slots.capacity();
        retire_tb(&mut smx, slot);
        assert_eq!(smx.slot_vec_pool.len(), 1, "released Vec parked for reuse");
        let slot2 = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert!(smx.slot_vec_pool.is_empty(), "pooled Vec taken back out");
        assert!(smx.tb_slots[slot2].as_ref().unwrap().warp_slots.capacity() >= cap_before);
    }

    #[test]
    fn register_slabs_are_pooled_across_blocks() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(100, 0); // 4 warps, last one partial (4 lanes)
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        retire_tb(&mut smx, slot);
        assert_eq!(
            smx.reg_pool.len(),
            4,
            "all four slabs recovered, partial last warp included"
        );
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert!(smx.reg_pool.is_empty(), "pooled slabs taken back out");
    }

    #[test]
    fn reset_matches_fresh_smx_but_keeps_pools() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 4);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        smx.kernels_loaded.insert(KernelId(0));
        smx.reset(&cfg);
        // Observable state is exactly what Smx::new builds...
        let fresh = Smx::new(0, &cfg);
        assert_eq!(smx.tb_slots.len(), fresh.tb_slots.len());
        assert!(smx.tb_slots.iter().all(Option::is_none));
        assert!(smx.warps.is_empty() || smx.warps.iter().all(Option::is_none));
        assert_eq!(smx.warps.iter().flatten().count(), 0);
        assert!(smx.free_warp_slots.is_empty(), "slot numbering restarts");
        assert!(
            smx.envs.is_empty(),
            "special-register tables follow the slab"
        );
        assert_eq!(smx.used_threads, 0);
        assert_eq!(smx.used_regs, 0);
        assert_eq!(smx.used_shared, 0);
        assert_eq!(smx.live_warps, 0);
        assert!(smx.kernels_loaded.is_empty());
        assert_eq!(smx.ready.cached_min(), u64::MAX);
        assert_eq!(smx.free_tb_slots(), fresh.free_tb_slots());
        // ...but the register slabs were recovered for reuse.
        assert_eq!(smx.reg_pool.len(), 2, "leftover warps drained into pool");
        let mut age2 = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age2)
            .unwrap();
        assert!(smx.reg_pool.is_empty(), "warm slabs reused after reset");
    }

    #[test]
    fn warp_slots_are_recycled() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let used = retire_tb(&mut smx, slot);
        let slot2 = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let reused = &smx.tb_slots[slot2].as_ref().unwrap().warp_slots;
        assert!(reused.iter().all(|ws| used.contains(ws)), "slab reuse");
        assert_eq!(smx.warps.len(), 2);
        assert_eq!(smx.envs.len(), 2, "one special-register table per slot");
    }

    // ---- model-based check of the warp-ready table -------------------------

    /// What the model knows about a resident warp — kept beside, never
    /// read from, the SMX's ready table.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Model {
        Ready(u64),
        Mem(u32),
        Barrier,
        Done,
    }

    fn model_min(model: &[Option<Model>]) -> u64 {
        model
            .iter()
            .filter_map(|m| match m {
                Some(Model::Ready(at)) => Some(*at),
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// `select_warps` by brute force: scan the warp slab, sort by age,
    /// consult only the model for readiness. Returns the picks and
    /// whether the walk was complete: it reached the last position of
    /// its order before the picks filled the budget, so it saw every
    /// slot.
    fn brute_select(
        smx: &Smx,
        model: &[Option<Model>],
        now: u64,
        budget: usize,
        policy: WarpSchedPolicy,
    ) -> (Vec<usize>, bool) {
        let issuable = |i: usize| matches!(model[i], Some(Model::Ready(at)) if at <= now);
        let mut picks = Vec::new();
        let order: Vec<usize> = match policy {
            WarpSchedPolicy::Gto => {
                picks.extend(smx.greedy.filter(|&g| issuable(g)));
                let mut by_age: Vec<(u64, usize)> = smx
                    .warps
                    .iter()
                    .enumerate()
                    .filter_map(|(i, w)| w.as_ref().map(|w| (w.age, i)))
                    .collect();
                by_age.sort_unstable();
                by_age.into_iter().map(|(_, i)| i).collect()
            }
            WarpSchedPolicy::RoundRobin => {
                let n = smx.warps.len();
                (0..n).map(|k| (smx.rr_cursor + k) % n).collect()
            }
        };
        for i in order {
            if picks.len() >= budget {
                return (picks, false);
            }
            if Some(i) != smx.greedy.filter(|_| policy == WarpSchedPolicy::Gto) && issuable(i) {
                picks.push(i);
            }
        }
        (picks, true)
    }

    /// Everything the table promises, checked against the model at `now`.
    fn check_against_model(smx: &mut Smx, model: &[Option<Model>], now: u64, ctx: &str) {
        assert_eq!(smx.warps.len(), model.len(), "{ctx}");
        for (w, m) in model.iter().enumerate() {
            let want = match m {
                Some(Model::Ready(at)) => *at,
                _ => u64::MAX,
            };
            assert_eq!(smx.issuable_at(w), want, "{ctx}: slot {w} is {m:?}");
        }
        let true_min = model_min(model);
        assert!(
            smx.ready.cached_min() <= true_min,
            "{ctx}: horizon {} past the earliest ready warp {true_min}",
            smx.ready.cached_min()
        );
        // Every policy at budgets 1-4 and uncut agrees with the
        // brute-force scan, and a walk that saw every slot leaves the
        // exact horizon the machine folds: the least cycle of the warps
        // it did not pick. The probe's scheduler side effects are rolled
        // back.
        let saved = (smx.greedy, smx.rr_cursor, smx.ready.min);
        for policy in [WarpSchedPolicy::Gto, WarpSchedPolicy::RoundRobin] {
            for budget in [1, 2, 3, 4, model.len() + 1] {
                let (want, complete) = brute_select(smx, model, now, budget, policy);
                let n = smx.select_warps(now, budget, policy);
                let at = format!("{ctx}: {policy:?} budget {budget}");
                assert_eq!(n, want.len(), "{at}");
                assert_eq!(smx.picked(), want, "{at}");
                if complete && saved.2 <= now {
                    let unpicked = model
                        .iter()
                        .enumerate()
                        .filter_map(|(w, m)| match m {
                            Some(Model::Ready(t)) if !want.contains(&w) => Some(*t),
                            _ => None,
                        })
                        .min()
                        .unwrap_or(u64::MAX);
                    assert_eq!(smx.ready.cached_min(), unpicked, "{at}: complete walk");
                } else {
                    assert_eq!(smx.ready.cached_min(), saved.2, "{at}: bound kept");
                }
                (smx.greedy, smx.rr_cursor, smx.ready.min) = saved;
            }
        }
    }

    /// Arrives `ws` at its block's barrier, or retires it (`exit`), then
    /// applies the barrier-release and block-release consequences the
    /// issue paths apply, mirroring each into the model.
    fn leave_running(smx: &mut Smx, model: &mut [Option<Model>], ws: usize, exit: bool, now: u64) {
        let tb_slot = smx.warps[ws].as_ref().unwrap().tb_slot;
        if exit {
            exit_warp(smx, ws);
            model[ws] = Some(Model::Done);
        } else {
            smx.warps[ws].as_mut().unwrap().state = WarpState::AtBarrier;
            smx.ready.block(ws);
            smx.tb_slots[tb_slot].as_mut().unwrap().barrier_arrived += 1;
            model[ws] = Some(Model::Barrier);
        }
        let Smx {
            warps,
            tb_slots,
            ready,
            ..
        } = smx;
        let tb = tb_slots[tb_slot].as_mut().unwrap();
        if tb.live_warps == 0 {
            for &w in &tb.warp_slots {
                model[w] = None;
            }
            assert!(smx.release_tb(tb_slot).is_some());
        } else if tb.barrier_arrived >= tb.live_warps {
            for &w in &tb.warp_slots {
                if model[w] == Some(Model::Barrier) {
                    model[w] = Some(Model::Ready(now + 5));
                }
            }
            release_barrier(warps, ready, tb, now + 5);
        }
    }

    /// A cycle some distance past `now`: mostly a few cycles, now and then
    /// up to 200, and sometimes a launch-sized park of 20 000+ cycles.
    fn later(rng: &mut sim_rand::StdRng, now: u64) -> u64 {
        use sim_rand::Rng;
        now + match rng.gen_range(0..20u32) {
            0 => rng.gen_range(20_000..40_000u64),
            1..=4 => rng.gen_range(1..=200u64),
            _ => rng.gen_range(1..40u64),
        }
    }

    /// Random placement, issue, memory wake-up, barrier, exit and direct
    /// `set` / `block` traffic against a model: after every call the picks
    /// of both policies at budgets 1-4 and the horizon must agree with a
    /// brute-force walk. Cycle gaps run from 0 to 200 (the event engine's
    /// skips) with rare jumps past the launch parks, and blocks of 97 and
    /// 129 threads fill an SMX to over 64 slots (K20c holds up to 80).
    #[test]
    fn ready_table_matches_a_brute_force_scheduler() {
        use sim_rand::{Rng, SeedableRng, StdRng};
        let cfg = GpuConfig::test_small();
        let mut widest = 0;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
            let mut smx = Smx::new(0, &cfg);
            let mut model: Vec<Option<Model>> = Vec::new();
            let mut age = 0;
            let mut now = 0u64;
            for step in 0..2000 {
                let ctx = format!("seed {seed} step {step} cycle {now}");
                match rng.gen_range(0..12u32) {
                    // Place a block, ready a little later or parked far.
                    0..=1 => {
                        let threads = match rng.gen_range(0..3u32) {
                            0 => 97,
                            1 => 129,
                            _ => rng.gen_range(1..=128u32),
                        };
                        let k = kernel(threads, 0);
                        if smx.can_fit(&k, &cfg) {
                            let at = if rng.gen_bool(0.5) {
                                now
                            } else {
                                later(&mut rng, now)
                            };
                            let slot = smx
                                .place_tb(KernelId(0), &k, tbcr(), 1, 0, at, &mut age)
                                .unwrap();
                            model.resize(smx.warps.len(), None);
                            for &ws in &smx.tb_slots[slot].as_ref().unwrap().warp_slots {
                                model[ws] = Some(Model::Ready(at));
                            }
                        }
                    }
                    // Deliver one memory completion.
                    2..=3 => {
                        let waiting: Vec<usize> = (0..model.len())
                            .filter(|&w| matches!(model[w], Some(Model::Mem(_))))
                            .collect();
                        if !waiting.is_empty() {
                            let w = waiting[rng.gen_range(0..waiting.len())];
                            let Some(Model::Mem(n)) = model[w] else {
                                unreachable!()
                            };
                            let at = later(&mut rng, now);
                            assert_eq!(smx.mem_complete(w, at), n == 1, "{ctx}");
                            model[w] = Some(if n == 1 {
                                Model::Ready(at)
                            } else {
                                Model::Mem(n - 1)
                            });
                        }
                    }
                    // Re-time or block any ready warp, wherever it is filed.
                    4 => {
                        let ready: Vec<usize> = (0..model.len())
                            .filter(|&w| matches!(model[w], Some(Model::Ready(_))))
                            .collect();
                        if !ready.is_empty() {
                            let w = ready[rng.gen_range(0..ready.len())];
                            if rng.gen_bool(0.3) {
                                smx.warps[w].as_mut().unwrap().state =
                                    WarpState::WaitingMem { outstanding: 1 };
                                smx.ready.block(w);
                                model[w] = Some(Model::Mem(1));
                            } else {
                                let at = later(&mut rng, now);
                                smx.ready.set(w, at);
                                model[w] = Some(Model::Ready(at));
                            }
                        }
                    }
                    // One scheduler cycle: select, then issue every pick.
                    _ => {
                        let policy = if rng.gen_bool(0.5) {
                            WarpSchedPolicy::Gto
                        } else {
                            WarpSchedPolicy::RoundRobin
                        };
                        let budget = rng.gen_range(1..=4usize);
                        let walked = smx.ready.cached_min() <= now;
                        let picks = smx.select_warps(now, budget, policy);
                        if picks == 0 {
                            // Nothing issuable: the SMX must stay out of
                            // the way until its true next-ready cycle.
                            assert!(smx.ready.cached_min() > now, "{ctx}");
                            if walked {
                                assert_eq!(smx.ready.cached_min(), model_min(&model), "{ctx}");
                            }
                        }
                        for k in 0..picks {
                            let ws = smx.picked()[k];
                            match rng.gen_range(0..8u32) {
                                0 => {
                                    let n = rng.gen_range(1..=3u32);
                                    smx.warps[ws].as_mut().unwrap().state =
                                        WarpState::WaitingMem { outstanding: n };
                                    smx.ready.block(ws);
                                    model[ws] = Some(Model::Mem(n));
                                }
                                1 => leave_running(&mut smx, &mut model, ws, false, now),
                                2 => leave_running(&mut smx, &mut model, ws, true, now),
                                _ => {
                                    let at = later(&mut rng, now);
                                    smx.ready.set(ws, at);
                                    model[ws] = Some(Model::Ready(at));
                                }
                            }
                        }
                        now += match rng.gen_range(0..40u32) {
                            0 => rng.gen_range(20_000..45_000u64),
                            1..=10 => rng.gen_range(1..=200u64),
                            _ => rng.gen_range(0..3u64),
                        };
                    }
                }
                widest = widest.max(smx.warps.len());
                check_against_model(&mut smx, &model, now, &ctx);
            }
        }
        assert!(widest > 64, "the slab reached only {widest} slots");
    }
}
