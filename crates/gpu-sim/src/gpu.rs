//! The top-level GPU: host API and the cycle-level execution engine.

use crate::access_slab::AccessSlab;
use crate::config::{CancelToken, GpuConfig};
use crate::dispatch::{KdeEntry, KernelDistributor, Kmu, Origin, PendingKernel};
use crate::error::{BudgetKind, SimError};
use crate::fault::FaultPlan;
use crate::runtime::degrade::LaunchRetry;
use crate::smx::warp::WarpState;
use crate::smx::{release_barrier, Smx, Tbcr};
use crate::stats::Stats;
use dtbl_core::{FcfsController, GroupRef, SchedulingPool};
use gpu_isa::{
    apply_atomic, exec_alu, KernelId, LatClass, LaunchKind, LaunchRequest, Program, Space, UOp,
    WARP_SIZE,
};
use gpu_mem::{
    coalesce::coalesce_mask_into, AccessId, AccessKind, BackingStore, LinearAllocator, MemSubsystem,
};
use gpu_trace::{Category, EventKind, Recorder, StallReason};
use std::cmp::Reverse;
// Launch-path maps only (see the three `Gpu` fields that use it).
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Base of the heap served by [`Gpu::malloc`].
pub(crate) const HEAP_BASE: u32 = 0x1000_0000;
/// Size of the device heap.
pub(crate) const HEAP_SIZE: u32 = 0xD000_0000;
/// Global-memory bytes the runtime reserves per pending device-launched
/// kernel beyond its parameter buffer (kernel configuration record, stream
/// object, KMU bookkeeping). CDP pays this; a coalesced DTBL group's
/// descriptor lives on-chip in the AGT instead.
pub(crate) const CDP_PENDING_RECORD_BYTES: u64 = 192;
/// Bytes of a spilled aggregated-group descriptor (an AGE image plus
/// alignment) when the AGT hash probe misses.
pub(crate) const AGG_OVERFLOW_RECORD_BYTES: u64 = 32;

/// Builds an [`SimError::InvariantViolation`] — the uniform way the
/// engine reports state that breaks its own bookkeeping laws.
pub(crate) fn invariant(cycle: u64, law: String) -> SimError {
    SimError::InvariantViolation { cycle, law }
}

/// Allocates from the device heap, honoring an injected heap-byte cap.
pub(crate) fn heap_alloc(
    alloc: &mut LinearAllocator,
    fault: &FaultPlan,
    now: u64,
    stats: &mut Stats,
    bytes: u32,
) -> Option<u32> {
    if let Some(limit) = fault.heap_limit_bytes {
        if fault.active_at(now) && alloc.live_bytes() + u64::from(bytes) > limit {
            stats.heap_cap_denials += 1;
            return None;
        }
    }
    alloc.alloc(bytes)
}

/// A simulated Kepler-class GPU with CDP device-kernel launch and the DTBL
/// extension.
///
/// # Example
///
/// ```
/// use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
/// use gpu_sim::{Gpu, GpuConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // out[i] = i for 64 threads.
/// let mut prog = Program::new();
/// let mut b = KernelBuilder::new("iota", Dim3::x(32), 1);
/// let gtid = b.global_tid();
/// let base = b.ld_param(0);
/// let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
/// b.st(Space::Global, addr, 0, Op::Reg(gtid));
/// let k = prog.add(b.build()?);
///
/// let mut gpu = Gpu::new(GpuConfig::test_small(), prog);
/// let out = gpu.malloc(64 * 4)?;
/// gpu.launch(k, 2, &[out], 0)?;
/// gpu.run_to_idle()?;
/// assert_eq!(gpu.mem().read_u32(out + 4 * 63), 63);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gpu {
    pub(crate) cfg: GpuConfig,
    pub(crate) program: Program,
    pub(crate) mem: BackingStore,
    pub(crate) alloc: LinearAllocator,
    pub(crate) timing: MemSubsystem,
    pub(crate) kmu: Kmu,
    pub(crate) kd: KernelDistributor,
    pub(crate) pool: SchedulingPool,
    pub(crate) fcfs: FcfsController,
    pub(crate) smxs: Vec<Smx>,
    /// Live warps across all SMXs (Σ [`Smx::live_warps`]), kept in step
    /// at placement and warp completion so occupancy sampling, the
    /// run-loop skip and [`is_idle`](Self::is_idle) never walk the SMXs.
    pub(crate) resident_warps: u32,
    pub(crate) cycle: u64,
    pub(crate) warp_age: u64,
    pub(crate) stats: Stats,
    /// Owner map for in-flight memory accesses: a direct-mapped,
    /// generation-checked slab (ids are monotone), so the two hottest
    /// lookups in the machine never hash and never allocate.
    pub(crate) access_owner: AccessSlab,
    // Touched once per aggregated-group launch and first schedule.
    #[allow(clippy::disallowed_types)]
    pub(crate) group_record: HashMap<GroupRef, usize>,
    /// Heap bytes reserved per parameter buffer, keyed by buffer address;
    /// recorded at allocation (host launch or `cudaGetParameterBuffer`)
    /// and released into the heap accounting when the kernel that owns
    /// the buffer retires — per launch, never per cycle.
    #[allow(clippy::disallowed_types)]
    pub(crate) param_bytes: HashMap<u32, u32>,
    /// Per-KDE descriptor-walk state: a spilled (overflow) aggregated
    /// group's descriptor must be fetched from global memory before the
    /// SMX scheduler can distribute its thread blocks (§4.3); this holds
    /// `(group, ready_at)` for the fetch in progress / completed — only
    /// populated once the AGT has overflowed.
    #[allow(clippy::disallowed_types)]
    pub(crate) agt_walk: HashMap<u32, (GroupRef, u64)>,
    pub(crate) rr_smx: usize,
    pub(crate) mem_buf: Vec<AccessId>,
    /// Pooled scratch for the FCFS order walked by `distribute_tbs`
    /// (reused every cycle so the distribution path never allocates).
    pub(crate) kde_buf: Vec<u32>,
    /// Pooled scratch for the per-lane launch requests gathered by one
    /// `LaunchDevice`/`LaunchAgg` issue.
    pub(crate) launch_buf: Vec<(u32, gpu_isa::LaunchRequest)>,
    /// Pooled scratch for the coalesced memory-transaction segments of
    /// one warp memory instruction.
    pub(crate) txn_buf: Vec<u32>,
    /// Steps actually executed (cycles stepped, not skipped). Equals
    /// `cycle` under per-cycle stepping; far smaller under event-driven
    /// stepping on latency-bound workloads. Not part of [`Stats`] — the
    /// two engines must produce bit-identical stats.
    pub(crate) steps_executed: u64,
    /// Monotone counter bumped by every forward-progress signal (kernel
    /// installation, thread-block placement/retirement, memory completion,
    /// device launch); the run loop's watchdog compares it across cycles.
    pub(crate) progress_marker: u64,
    /// Structured-event recorder; off (mask 0) unless `cfg.trace` enables
    /// categories, in which case [`step`](Self::step) drains every
    /// component's staging buffer once per cycle.
    pub(crate) tracer: Recorder,
    /// Last-sample counters for interval metrics (deltas between samples).
    pub(crate) trace_win: crate::trace::TraceWindow,
    /// Host instant [`run_to_idle`](Self::run_to_idle) entered, for the
    /// wall-clock budget. Host time never influences simulation state —
    /// only *whether* the run is cut short.
    pub(crate) run_started: Option<Instant>,
    /// The degradation ladder's retry queue: KMU-saturated launches
    /// waiting out their deterministic backoff, ordered (ready_at, seq).
    pub(crate) retry_q: BinaryHeap<Reverse<LaunchRetry>>,
    /// Monotone sequence for retry-queue FIFO tie-breaking.
    pub(crate) retry_seq: u64,
    /// Host launches parked while their hardware work queue sits at an
    /// injected cap; drained FIFO as capacity frees.
    pub(crate) host_deferred: VecDeque<(u32, PendingKernel)>,
}

impl Gpu {
    /// Builds a GPU and loads `program` onto it.
    pub fn new(cfg: GpuConfig, program: Program) -> Self {
        let stats = Stats {
            max_warps_per_smx: cfg.max_warps_per_smx(),
            num_smx: cfg.num_smx as u32,
            ..Stats::default()
        };
        let mut gpu = Gpu {
            program,
            mem: BackingStore::new(),
            alloc: LinearAllocator::new(HEAP_BASE, HEAP_SIZE),
            timing: MemSubsystem::new(cfg.mem),
            kmu: Kmu::new(cfg.kde_entries),
            kd: KernelDistributor::new(cfg.kde_entries),
            pool: SchedulingPool::new(cfg.agt_entries, cfg.kde_entries),
            fcfs: FcfsController::new(cfg.kde_entries),
            smxs: (0..cfg.num_smx).map(|i| Smx::new(i, &cfg)).collect(),
            resident_warps: 0,
            cycle: 0,
            warp_age: 0,
            stats,
            access_owner: AccessSlab::new(),
            group_record: Default::default(),
            param_bytes: Default::default(),
            agt_walk: Default::default(),
            rr_smx: 0,
            mem_buf: Vec::new(),
            kde_buf: Vec::new(),
            launch_buf: Vec::new(),
            txn_buf: Vec::new(),
            steps_executed: 0,
            progress_marker: 0,
            tracer: Recorder::new(cfg.trace),
            trace_win: crate::trace::TraceWindow::default(),
            run_started: None,
            retry_q: BinaryHeap::new(),
            retry_seq: 0,
            host_deferred: VecDeque::new(),
            cfg,
        };
        gpu.apply_trace_mask();
        gpu
    }

    /// Rebinds a pooled GPU to a new `(config, program)` pair, restoring
    /// the exact state `Gpu::new(cfg, program)` would build while keeping
    /// the expensive host-side allocations warm: the backing store's
    /// 64 Ki-slot page table and every already-materialized page survive
    /// (zeroed in place), and the pooled scratch vectors keep their
    /// capacity. Everything else — timing model, dispatch structures,
    /// SMXs, stats, tracer — is rebuilt from `cfg`, so a run on a rebound
    /// GPU is bit-identical to a run on a fresh one (pinned by the
    /// equivalence tests) and a panic-abandoned instance is safe to
    /// rebind: no field escapes reinitialization.
    pub fn reset_bind(&mut self, cfg: GpuConfig, program: Program) {
        self.program = program;
        self.mem.clear();
        self.alloc = LinearAllocator::new(HEAP_BASE, HEAP_SIZE);
        self.timing = MemSubsystem::new(cfg.mem);
        self.kmu = Kmu::new(cfg.kde_entries);
        self.kd = KernelDistributor::new(cfg.kde_entries);
        self.pool = SchedulingPool::new(cfg.agt_entries, cfg.kde_entries);
        self.fcfs = FcfsController::new(cfg.kde_entries);
        // Same SMX count: reset each in place, retaining the pooled
        // register slabs and scratch capacity (`Smx::reset` restores the
        // exact observable state `Smx::new` builds). A geometry change
        // rebuilds from scratch.
        if self.smxs.len() == cfg.num_smx {
            for smx in &mut self.smxs {
                smx.reset(&cfg);
            }
        } else {
            self.smxs = (0..cfg.num_smx).map(|i| Smx::new(i, &cfg)).collect();
        }
        self.resident_warps = 0;
        self.cycle = 0;
        self.warp_age = 0;
        self.stats = Stats {
            max_warps_per_smx: cfg.max_warps_per_smx(),
            num_smx: cfg.num_smx as u32,
            ..Stats::default()
        };
        self.access_owner = AccessSlab::new();
        self.group_record.clear();
        self.param_bytes.clear();
        self.agt_walk.clear();
        self.rr_smx = 0;
        self.mem_buf.clear();
        self.kde_buf.clear();
        self.launch_buf.clear();
        self.txn_buf.clear();
        self.steps_executed = 0;
        self.progress_marker = 0;
        self.tracer = Recorder::new(cfg.trace);
        self.trace_win = crate::trace::TraceWindow::default();
        self.run_started = None;
        self.retry_q.clear();
        self.retry_seq = 0;
        self.host_deferred.clear();
        self.cfg = cfg;
        self.apply_trace_mask();
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Functional global memory (for host-side setup and validation — the
    /// analogue of `cudaMemcpy`).
    pub fn mem(&self) -> &BackingStore {
        &self.mem
    }

    /// Mutable functional global memory.
    pub fn mem_mut(&mut self) -> &mut BackingStore {
        &mut self.mem
    }

    /// Statistics accumulated so far (memory counters are refreshed by
    /// [`run_to_idle`](Self::run_to_idle)).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles actually stepped (as opposed to skipped by the event-driven
    /// engine). Per-cycle stepping makes this equal to
    /// [`cycle`](Self::cycle); event-driven stepping makes it the number
    /// of cycles on which something could happen.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Bytes currently charged against the device heap (allocations minus
    /// retired-kernel parameter buffers). Exposed for accounting tests.
    pub fn heap_live_bytes(&self) -> u64 {
        self.alloc.live_bytes()
    }

    /// Allocates device memory (the analogue of `cudaMalloc`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the heap is exhausted (or an
    /// injected heap cap denies the allocation).
    pub fn malloc(&mut self, bytes: u32) -> Result<u32, SimError> {
        heap_alloc(
            &mut self.alloc,
            &self.cfg.fault,
            self.cycle,
            &mut self.stats,
            bytes,
        )
        .ok_or(SimError::OutOfMemory { bytes })
    }

    /// Rejects a host launch when the target hardware work queue sits at
    /// an injected capacity limit.
    fn check_hwq_capacity(&mut self, stream: u32) -> Result<(), SimError> {
        if let Some(cap) = self.cfg.fault.hwq_capacity {
            if self.cfg.fault.active_at(self.cycle) {
                let depth = self.kmu.hwq_depth(stream);
                if depth >= cap {
                    self.stats.hwq_full_rejections += 1;
                    return Err(SimError::HwqFull { stream, depth });
                }
            }
        }
        Ok(())
    }

    /// Launches `kernel` with `ntb` thread blocks on `stream` (the
    /// analogue of `kernel<<<ntb, ...>>>(params)`); `params` are copied
    /// into a fresh device parameter buffer.
    ///
    /// A zero-block grid is a no-op that succeeds immediately, matching
    /// the device-launch path; it must not reach the Kernel Distributor,
    /// where an entry with no blocks would never complete and trip the
    /// hang watchdog.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown kernels, heap exhaustion, or a full
    /// hardware work queue (injected-fault runs under the strict
    /// degradation policy; the default ladder defers the launch into a
    /// software queue instead).
    pub fn launch(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        params: &[u32],
        stream: u32,
    ) -> Result<(), SimError> {
        let Some(kernel_fn) = self.program.get(kernel) else {
            return Err(SimError::UnknownKernel(kernel));
        };
        let kernel_fn = Arc::clone(kernel_fn);
        if ntb == 0 {
            return Ok(());
        }
        if !self.cfg.degrade.ladder {
            self.check_hwq_capacity(stream)?;
        }
        let param_sz = (params.len().max(1) * 4) as u32;
        let param_addr = self.malloc(param_sz)?;
        self.param_bytes.insert(param_addr, param_sz);
        self.mem.write_slice_u32(param_addr, params);
        self.stats.host_launches += 1;
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                self.cycle,
                EventKind::HostLaunch {
                    kernel: u32::from(kernel.0),
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
        if self.cfg.degrade.ladder && self.hwq_overloaded(stream).is_some() {
            self.park_host_launch(stream, pk);
        } else {
            self.kmu.push_host(stream, pk);
        }
        Ok(())
    }

    /// Launches `kernel` with a caller-managed parameter buffer at
    /// `param_addr` (the caller has already written the parameter words
    /// there). Useful for differential testing against the reference
    /// interpreter, which shares the same address map.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownKernel`] for kernels not in the program
    /// and [`SimError::HwqFull`] under an injected work-queue cap.
    pub fn launch_with_param_addr(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        param_addr: u32,
        stream: u32,
    ) -> Result<(), SimError> {
        let Some(kernel_fn) = self.program.get(kernel) else {
            return Err(SimError::UnknownKernel(kernel));
        };
        let kernel_fn = Arc::clone(kernel_fn);
        if ntb == 0 {
            return Ok(());
        }
        if !self.cfg.degrade.ladder {
            self.check_hwq_capacity(stream)?;
        }
        self.stats.host_launches += 1;
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                self.cycle,
                EventKind::HostLaunch {
                    kernel: u32::from(kernel.0),
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
            origin: Origin::Host { hwq: 0 },
        };
        if self.cfg.degrade.ladder && self.hwq_overloaded(stream).is_some() {
            self.park_host_launch(stream, pk);
        } else {
            self.kmu.push_host(stream, pk);
        }
        Ok(())
    }

    /// True when no work remains anywhere in the machine — including the
    /// degradation ladder's retry and deferral queues, whose entries are
    /// launches the machine still owes.
    pub fn is_idle(&self) -> bool {
        self.kmu.is_empty()
            && self.kd.is_empty()
            && self.resident_warps == 0
            && self.timing.quiescent()
            && self.retry_q.is_empty()
            && self.host_deferred.is_empty()
    }

    /// Runs until the machine is idle, returning the accumulated stats.
    ///
    /// Never panics on simulated-program misbehaviour: hung kernels are
    /// caught by the forward-progress watchdog (well before `max_cycles`)
    /// and reported with a structured [`HangReport`](crate::HangReport);
    /// resource exhaustion and guest memory faults come back as their own
    /// [`SimError`] variants.
    ///
    /// # Errors
    ///
    /// * [`SimError::BarrierDeadlock`] / [`SimError::Hang`] when the
    ///   watchdog window elapses with no forward progress;
    /// * [`SimError::CycleLimit`] when the configured cycle budget is
    ///   exceeded;
    /// * [`SimError::DeadlineExceeded`] / [`SimError::Cancelled`] when a
    ///   [`RunBudget`](crate::RunBudget) limit fires, carrying partial
    ///   stats;
    /// * any error bubbling out of [`step`](Self::step).
    pub fn run_to_idle(&mut self) -> Result<&Stats, SimError> {
        self.run_started = Some(Instant::now());
        self.run_loop()?;
        self.stats.cycles = self.cycle;
        self.stats.mem = self.timing.stats();
        Ok(&self.stats)
    }

    /// Steps until idle: every cycle under `force_per_cycle`, otherwise
    /// jumping over the cycles the horizons prove to be no-ops.
    fn run_loop(&mut self) -> Result<(), SimError> {
        let event_driven = !self.cfg.force_per_cycle;
        let mut last_marker = self.progress_marker;
        let mut last_progress = self.cycle;
        while !self.is_idle() {
            let quiet = self.step_core()?;
            if self.progress_marker != last_marker {
                last_marker = self.progress_marker;
                last_progress = self.cycle;
            }
            if let Some(err) = self.deadline_error(last_progress) {
                self.note_budget_stop(&err);
                return Err(err);
            }
            if event_driven && quiet && !self.is_idle() {
                // The step at `cycle - 1` found nothing to do, so every
                // cycle before the next component event is a no-op: jump
                // straight there, reconstructing what the skipped no-op
                // steps would have accumulated (occupancy integrals; the
                // DRAM model catches up its own active-cycle counter
                // lazily).
                let now = self.cycle - 1;
                let mut target = self.next_event_horizon(now).unwrap_or(u64::MAX);
                if self.cfg.watchdog_window > 0 {
                    target = target.min(last_progress + self.cfg.watchdog_window);
                }
                target = target.min(self.cfg.max_cycles);
                // The budget's cycle cap is a landing site too, so every
                // engine trips it at the identical cycle.
                if let Some(cap) = self.cfg.budget.cycle_cap {
                    target = target.min(cap);
                }
                // So is the next interval-metrics sample: the step at each
                // multiple of the interval takes it.
                target = target.min(self.next_sample_cycle());
                if target > self.cycle {
                    let delta = target - self.cycle;
                    if self.resident_warps > 0 {
                        self.stats.busy_cycles += delta;
                        self.stats.resident_warp_cycles += delta * u64::from(self.resident_warps);
                    }
                    self.cycle = target;
                    if let Some(err) = self.deadline_error(last_progress) {
                        self.note_budget_stop(&err);
                        return Err(err);
                    }
                }
            }
        }
        Ok(())
    }

    /// The first cycle at or after the current one whose step takes an
    /// interval metrics sample; `u64::MAX` when none will (tracing or
    /// sampling off).
    fn next_sample_cycle(&self) -> u64 {
        let interval = u64::from(self.tracer.metrics_interval());
        if interval == 0 || !self.tracer.enabled() {
            return u64::MAX;
        }
        self.cycle.div_ceil(interval) * interval
    }

    /// Watchdog / cycle-budget check at the current cycle, shared by the
    /// per-step path and the post-skip landing so both engines fail at
    /// the identical cycle with the identical report.
    fn deadline_error(&self, last_progress: u64) -> Option<SimError> {
        if self.cfg.watchdog_window > 0 && self.cycle - last_progress >= self.cfg.watchdog_window {
            let report = Box::new(self.hang_report(last_progress));
            return Some(if report.barrier_deadlock() {
                SimError::BarrierDeadlock { report }
            } else {
                SimError::Hang { report }
            });
        }
        if self.cycle >= self.cfg.max_cycles {
            return Some(SimError::CycleLimit {
                cycles: self.cfg.max_cycles,
            });
        }
        if !self.cfg.budget.is_inert() {
            let budget = &self.cfg.budget;
            if budget.cycle_cap.is_some_and(|cap| self.cycle >= cap) {
                return Some(SimError::DeadlineExceeded {
                    budget: BudgetKind::Cycles,
                    cycle: self.cycle,
                    stats: self.partial_stats(),
                });
            }
            if budget
                .live_heap_cap
                .is_some_and(|cap| self.alloc.live_bytes() > cap)
            {
                return Some(SimError::DeadlineExceeded {
                    budget: BudgetKind::LiveHeap,
                    cycle: self.cycle,
                    stats: self.partial_stats(),
                });
            }
            if budget
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                return Some(SimError::Cancelled {
                    cycle: self.cycle,
                    stats: self.partial_stats(),
                });
            }
            // The wall clock is host state, not simulated state: sample it
            // sparsely (every 1024 executed steps) so the budget check
            // costs no syscall on the hot path. Only the error's *shape*
            // is deterministic, never the cycle it fires at.
            if self.steps_executed.is_multiple_of(1024) {
                if let (Some(ms), Some(started)) = (budget.deadline_ms, self.run_started) {
                    if started.elapsed().as_millis() >= u128::from(ms) {
                        return Some(SimError::DeadlineExceeded {
                            budget: BudgetKind::WallClock,
                            cycle: self.cycle,
                            stats: self.partial_stats(),
                        });
                    }
                }
            }
        }
        None
    }

    /// Snapshot of the statistics accumulated so far, with the derived
    /// fields `run_to_idle` would have filled in brought up to date —
    /// what a budget stop hands back so the work done is not lost.
    fn partial_stats(&self) -> Box<Stats> {
        let mut stats = Box::new(self.stats.clone());
        stats.cycles = self.cycle;
        stats.mem = self.timing.stats();
        stats
    }

    /// Emits the `DeadlineHit` trace event for a budget or cancellation
    /// stop (code 3 = cancelled); other errors pass through silently.
    fn note_budget_stop(&mut self, err: &SimError) {
        if !self.tracer.on(Category::Launch) {
            return;
        }
        let (budget, limit) = match err {
            SimError::DeadlineExceeded { budget, .. } => {
                let limit = match budget {
                    BudgetKind::WallClock => self.cfg.budget.deadline_ms.unwrap_or(0),
                    BudgetKind::Cycles => self.cfg.budget.cycle_cap.unwrap_or(0),
                    BudgetKind::LiveHeap => self.cfg.budget.live_heap_cap.unwrap_or(0),
                };
                (budget.code(), limit)
            }
            SimError::Cancelled { .. } => (3, 0),
            _ => return,
        };
        let cycle = self.cycle;
        self.tracer
            .emit(cycle, EventKind::DeadlineHit { budget, limit });
    }

    /// Earliest future cycle on which any component can change state,
    /// given that the step just executed at `now` was quiet. `None` means
    /// no component will ever act again (the run loop then jumps to the
    /// watchdog deadline). Each component promises a *lower bound* on its
    /// next state change — waking too early costs one extra no-op step,
    /// but a bound past the true event would diverge from per-cycle
    /// stepping (see DESIGN.md, "The horizon contract").
    fn next_event_horizon(&mut self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(t) = self.kmu.next_event_at(now) {
            fold(t);
        }
        if let Some(t) = self.timing.next_event_at(now) {
            fold(t);
        }
        // O(1) per SMX whose last warp walk ended below the issue budget
        // (its horizon is exact); one pass over its dense ready table
        // otherwise.
        for smx in &mut self.smxs {
            if let Some(t) = smx.next_ready_at(now) {
                fold(t);
            }
        }
        // Pending spilled-descriptor fetches wake the distribution path.
        // A walk whose fetch has already matured (`ready <= now`) is
        // consumed on the *next* dispatch attempt — with zero fetch
        // latency it can be inserted and mature within the same quiet
        // step — so it always folds at least `now + 1`.
        for &(_, ready) in self.agt_walk.values() {
            fold(ready.max(now + 1));
        }
        // A fault plan flips behaviour (delays, caps) at its activation
        // edge; step there so no span straddles the flip.
        if !self.cfg.fault.is_nop() && now < self.cfg.fault.after_cycle {
            fold(self.cfg.fault.after_cycle);
        }
        // Ladder queues: a deferred retry matures at its backoff deadline;
        // a parked host launch re-probes its work queue every cycle (the
        // queue's drain is itself a progress event, so `now + 1` is the
        // only sound bound).
        if let Some(Reverse(head)) = self.retry_q.peek() {
            fold(head.ready_at.max(now + 1));
        }
        if !self.host_deferred.is_empty() {
            fold(now + 1);
        }
        next
    }

    /// Advances the machine by one core cycle.
    ///
    /// # Errors
    ///
    /// Propagates typed failures from the launch paths, guest memory
    /// faults, and (when enabled) the per-cycle invariant checker.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_core().map(|_quiet| ())
    }

    /// One core cycle; returns whether the step was *quiet* — no kernel
    /// installed, no thread block placed, no warp picked, no memory
    /// completion delivered — which is what lets the run loop jump
    /// straight to the next component event. Any other step may have
    /// created distribution work the horizons do not model, so it must
    /// be followed by a real step (see DESIGN.md, "The horizon
    /// contract").
    fn step_core(&mut self) -> Result<bool, SimError> {
        let now = self.cycle;
        self.steps_executed += 1;

        // 0. Degradation ladder: matured launch retries and parked host
        // launches re-attempt before the KMU ticks (see runtime::degrade).
        let mut quiet = true;
        if (!self.retry_q.is_empty() || !self.host_deferred.is_empty())
            && self.process_deferred(now)?
        {
            quiet = false;
        }

        // 1. KMU: mature device launches, advance the dispatch pipeline.
        let kd = &self.kd;
        if let Some((slot, pk)) = self
            .kmu
            .tick(now, self.cfg.latency.kernel_dispatch, |reserved| {
                kd.free_slot_excluding(reserved)
            })
        {
            self.install_kernel(slot, pk, now)?;
            quiet = false;
        }

        // 2. SMX scheduler: distribute thread blocks.
        if self.distribute_tbs(now)? > 0 {
            quiet = false;
        }

        // 3. SMXs: issue warps.
        for s in 0..self.smxs.len() {
            let picks =
                self.smxs[s].select_warps(now, self.cfg.issue_per_cycle, self.cfg.warp_sched);
            if picks > 0 {
                quiet = false;
            }
            for k in 0..picks {
                let w = self.smxs[s].picked()[k];
                if let Some(done_slot) = self.issue_warp(s, w, now)? {
                    self.on_tb_complete(s, done_slot, now)?;
                }
            }
        }

        // 4. Memory timing (an injected fault may delay the wake-ups).
        let wake_delay = if self.cfg.fault.mem_delay > 0 && self.cfg.fault.active_at(now) {
            self.cfg.fault.mem_delay
        } else {
            0
        };
        let mut buf = std::mem::take(&mut self.mem_buf);
        buf.clear();
        self.timing.tick(now, &mut buf);
        let mut delayed = 0u64;
        let mut completions = 0u64;
        for id in buf.drain(..) {
            if let Some((s, w)) = self.access_owner.remove(id) {
                completions += 1;
                if self.smxs[s].mem_complete(w, now + 1 + wake_delay) && wake_delay > 0 {
                    delayed += 1;
                }
            }
        }
        self.mem_buf = buf;
        self.stats.forced_mem_delays += delayed;
        if completions > 0 {
            self.progress_marker += 1;
            quiet = false;
        }

        // 5. Occupancy sampling.
        if self.resident_warps > 0 {
            self.stats.busy_cycles += 1;
            self.stats.resident_warp_cycles += u64::from(self.resident_warps);
        }

        // 6. Tracing: drain every component's staging buffer (stamping
        // `now`) and take an interval metrics sample. One predicted-off
        // branch when tracing is disabled.
        if self.tracer.enabled() {
            self.drain_traces(now);
            self.sample_metrics(now);
        }

        self.cycle += 1;
        if self.cfg.check_invariants {
            self.check_invariants()?;
        }
        Ok(quiet)
    }

    fn install_kernel(&mut self, slot: u32, pk: PendingKernel, now: u64) -> Result<(), SimError> {
        let (launch_record, hwq) = match pk.origin {
            Origin::Host { hwq } => (None, Some(hwq)),
            Origin::Device { record } => (Some(record), None),
        };
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
                dispatched_at: now,
                launch_record,
                hwq,
            },
        );
        if installed.is_err() {
            // The KMU reserved this slot when the dispatch began; finding
            // it occupied means the reservation bookkeeping broke.
            return Err(invariant(now, format!("KDE slot {slot} already occupied")));
        }
        self.fcfs.mark_new(slot);
        self.progress_marker += 1;
        Ok(())
    }

    // ---- thread-block distribution (§2.3 + §4.2 DTBL flow) ----------------

    /// Distributes up to `tb_dispatch_per_cycle` thread blocks in FCFS
    /// order; returns how many were placed this cycle.
    fn distribute_tbs(&mut self, now: u64) -> Result<u32, SimError> {
        let mut budget = self.cfg.tb_dispatch_per_cycle;
        if budget == 0 {
            return Ok(0);
        }
        let mut placed = 0;
        let mut kdes = std::mem::take(&mut self.kde_buf);
        kdes.clear();
        kdes.extend(self.fcfs.marked_in_order());
        'kernels: for &kde in &kdes {
            loop {
                if budget == 0 {
                    break 'kernels;
                }
                if !self.try_dispatch_one(kde, now)? {
                    continue 'kernels;
                }
                placed += 1;
                budget -= 1;
            }
        }
        self.kde_buf = kdes;
        Ok(placed)
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

    /// Attempts to distribute one thread block of kernel `kde`; returns
    /// whether a block was placed.
    fn try_dispatch_one(&mut self, kde: u32, now: u64) -> Result<bool, SimError> {
        let Some(entry) = self.kd.get(kde) else {
            return Ok(false);
        };
        let kernel_id = entry.kernel;
        let native_next = if self.fcfs.is_first_dispatch(kde) && !entry.native_fully_scheduled() {
            true
        } else if self.pool.nagei(kde).is_some() {
            false
        } else {
            // Nothing to distribute; a marked kernel with an empty pool is
            // transient (between clear-first and unmark) — re-derive its
            // mark so it leaves the FCFS order.
            self.refresh_mark(kde);
            return Ok(false);
        };

        // A spilled descriptor lives in global memory: the scheduler must
        // fetch it before it can distribute the group's thread blocks
        // (§4.3), stalling this kernel's dispatch — unlike a zero-cost
        // on-chip AGE. Checked before SMX selection so a walk-stalled
        // cycle leaves the round-robin cursor and first-load bookkeeping
        // untouched: such cycles are pure no-ops, which is what lets the
        // event-driven engine skip them wholesale.
        if !native_next {
            let Some(group) = self.pool.nagei(kde) else {
                return Err(invariant(now, format!("KDE {kde} lost its NAGEI group")));
            };
            if group.is_overflow() {
                match self.agt_walk.get(&kde) {
                    Some(&(g, ready)) if g == group => {
                        if now < ready {
                            return Ok(false);
                        }
                    }
                    _ => {
                        self.agt_walk
                            .insert(kde, (group, now + self.cfg.pipeline.agt_overflow_load));
                        return Ok(false);
                    }
                }
            }
        }

        // Refcounted handle shared with the distributor entry — never a
        // deep copy of the kernel on the block-dispatch path.
        let kernel = Arc::clone(&entry.kernel_fn);
        // Spatial sharing (optional §5.2B extension): host-launched native
        // blocks keep off the reserved SMXs; dynamic work may go anywhere.
        let dynamic = !native_next || entry.launch_record.is_some();
        let Some(smx_idx) = self.pick_smx(&kernel, dynamic) else {
            return Ok(false);
        };

        let first_load = !self.smxs[smx_idx].kernels_loaded.contains(&kernel_id);
        let ready_at = now
            + if first_load {
                self.cfg.pipeline.context_setup
            } else {
                20 // block-dispatch handshake
            };
        if first_load {
            self.smxs[smx_idx].kernels_loaded.insert(kernel_id);
        }
        let live_before = self.smxs[smx_idx].live_warps;

        if native_next {
            let Some(entry) = self.kd.get_mut(kde) else {
                return Err(invariant(now, format!("KDE {kde} vanished mid-dispatch")));
            };
            let blkid = entry.next_native_tb;
            entry.next_native_tb += 1;
            entry.native_exe += 1;
            let nctaid = entry.grid_ntb;
            let param = entry.param_addr;
            let record = entry.launch_record;
            let fully = entry.native_fully_scheduled();
            if self.smxs[smx_idx]
                .place_tb(
                    kernel_id,
                    &kernel,
                    Tbcr {
                        kdei: kde,
                        agei: None,
                        blkid,
                    },
                    nctaid,
                    param,
                    ready_at,
                    &mut self.warp_age,
                )
                .is_none()
            {
                return Err(invariant(
                    now,
                    format!("SMX {smx_idx} refused a native TB despite can_fit"),
                ));
            }
            if let Some(r) = record {
                self.mark_launch_started(r, smx_idx, now);
            }
            if fully {
                self.refresh_mark(kde);
            }
        } else {
            let Some(group) = self.pool.nagei(kde) else {
                return Err(invariant(now, format!("KDE {kde} lost its NAGEI group")));
            };
            let info = self.pool.agt().info(group);
            let blkid = self.pool.agt_mut().tb_scheduled(group);
            let Some(entry) = self.kd.get_mut(kde) else {
                return Err(invariant(now, format!("KDE {kde} vanished mid-dispatch")));
            };
            entry.agg_exe += 1;
            if self.smxs[smx_idx]
                .place_tb(
                    kernel_id,
                    &kernel,
                    Tbcr {
                        kdei: kde,
                        agei: Some(group),
                        blkid,
                    },
                    info.ntb,
                    info.param_addr,
                    ready_at,
                    &mut self.warp_age,
                )
                .is_none()
            {
                return Err(invariant(
                    now,
                    format!("SMX {smx_idx} refused an aggregated TB despite can_fit"),
                ));
            }
            if let Some(r) = self.group_record.remove(&group) {
                self.mark_launch_started(r, smx_idx, now);
            }
            if self.pool.agt().fully_scheduled(group) && self.pool.advance_nagei(kde).is_none() {
                // Pool drained: the kernel leaves the FCFS queue once its
                // native blocks are also all distributed.
                self.refresh_mark(kde);
            }
        }
        self.resident_warps += self.smxs[smx_idx].live_warps - live_before;
        self.progress_marker += 1;
        Ok(true)
    }

    fn mark_launch_started(&mut self, record: usize, smx: usize, now: u64) {
        let rec = &mut self.stats.launches[record];
        if rec.first_tb_at.is_none() {
            rec.first_tb_at = Some(now);
            let bytes = rec.reserved_bytes;
            self.stats.remove_pending(bytes);
            if self.tracer.on(Category::Launch) {
                self.tracer.emit(
                    now,
                    EventKind::LaunchSched {
                        record: record as u32,
                        smx: smx as u32,
                    },
                );
            }
        }
    }

    /// Round-robin SMX selection among those with room for one block of
    /// `kernel`. With spatial sharing enabled, non-dynamic blocks are
    /// confined to the first `num_smx - dyn_reserved_smx` SMXs.
    fn pick_smx(&mut self, kernel: &gpu_isa::Kernel, dynamic: bool) -> Option<usize> {
        let n = self.smxs.len();
        let limit = if dynamic {
            n
        } else {
            n.saturating_sub(self.cfg.dyn_reserved_smx).max(1)
        };
        for k in 0..limit {
            let s = (self.rr_smx + k) % limit;
            if self.smxs[s].can_fit(kernel, &self.cfg) {
                self.rr_smx = (s + 1) % limit;
                return Some(s);
            }
        }
        None
    }

    // ---- warp issue --------------------------------------------------------

    /// Issues one instruction for warp `w` on SMX `s`. Returns the TB slot
    /// index when this issue completed the warp's entire thread block.
    fn issue_warp(&mut self, s: usize, w: usize, now: u64) -> Result<Option<usize>, SimError> {
        let smx = &mut self.smxs[s];
        let Smx {
            warps,
            tb_slots,
            ready,
            ..
        } = smx;
        let Some(warp) = warps[w].as_mut() else {
            return Ok(None);
        };
        if ready.at(w) > now {
            return Ok(None);
        }
        warp.sync_reconvergence();
        // Borrow the warp's thread block exactly once for the whole issue.
        // The completion paths below mutate the slot's liveness, so a
        // second lookup later in the cycle could observe (and unwrap) a
        // slot already vacated by this very issue — borrow up front and
        // report an empty slot as a typed invariant violation instead.
        let tb_slot = warp.tb_slot;
        let Some(tb) = tb_slots[tb_slot].as_mut() else {
            return Err(invariant(
                now,
                format!("warp {w} on SMX {s} names empty TB slot {tb_slot}"),
            ));
        };
        if warp.is_done() {
            warp.state = WarpState::Done;
            ready.block(w);
            smx.live_warps -= 1;
            self.resident_warps -= 1;
            tb.live_warps -= 1;
            let released = tb.live_warps == 0;
            // A disappearing warp can satisfy a barrier.
            if !released && tb.live_warps > 0 && tb.barrier_arrived >= tb.live_warps {
                release_barrier(warps, ready, tb, now + 20);
            }
            return Ok(released.then_some(tb_slot));
        }

        let Some((pc, mask)) = warp.current() else {
            return Err(invariant(
                now,
                format!("warp {w} on SMX {s} has no current execution path"),
            ));
        };
        let m = *tb.kernel_fn.uop(pc);

        self.stats.warp_issues += 1;
        self.stats.active_lanes += u64::from(mask.count_ones());
        if self.tracer.on(Category::Warp) {
            self.tracer.emit(
                now,
                EventKind::WarpIssue {
                    smx: s as u32,
                    warp: w as u32,
                    lanes: mask.count_ones(),
                },
            );
        }

        let pipe = self.cfg.pipeline;
        let lat = self.cfg.latency;
        let fault = self.cfg.fault;

        let param_base = tb.param_base;
        let shared_fault = |addr: u32, size: usize| SimError::SharedMemFault {
            smx: s,
            tb_slot,
            addr,
            size: size as u32,
        };

        match m.op {
            UOp::Bra {
                pred,
                target,
                reconv,
            } => {
                // Predicates live in warp-wide lane masks, so the taken
                // set is two bitwise ops.
                let taken = match pred {
                    None => mask,
                    Some((p, negate)) => {
                        let pm = warp.regs.pred_mask(p);
                        (if negate { !pm } else { pm }) & mask
                    }
                };
                warp.branch(taken, target, reconv);
                ready.set(w, now + pipe.alu);
            }
            UOp::Exit => {
                warp.exit_lanes(mask);
                if warp.is_done() {
                    ready.block(w);
                    smx.live_warps -= 1;
                    self.resident_warps -= 1;
                    tb.live_warps -= 1;
                    let released = tb.live_warps == 0;
                    if !released && tb.barrier_arrived >= tb.live_warps {
                        release_barrier(warps, ready, tb, now + pipe.alu);
                    }
                    return Ok(released.then_some(tb_slot));
                }
                ready.set(w, now + pipe.alu);
            }
            UOp::Bar => {
                warp.advance_pc();
                warp.state = WarpState::AtBarrier;
                ready.block(w);
                tb.barrier_arrived += 1;
                self.stats.barrier_waits += 1;
                if self.tracer.on(Category::Warp) {
                    self.tracer.emit(
                        now,
                        EventKind::WarpStall {
                            smx: s as u32,
                            warp: w as u32,
                            reason: StallReason::Barrier.code(),
                        },
                    );
                    self.tracer.emit(
                        now,
                        EventKind::BarrierWait {
                            smx: s as u32,
                            tb_slot: tb_slot as u32,
                            arrived: tb.barrier_arrived,
                            expected: tb.live_warps,
                        },
                    );
                }
                if tb.barrier_arrived >= tb.live_warps {
                    release_barrier(warps, ready, tb, now + pipe.shared_mem);
                }
            }
            UOp::GetParamBuf { dst, words } => {
                warp.advance_pc();
                let x = u64::from(mask.count_ones());
                let bytes = u32::from(words.max(1)) * 4;
                for lane in 0..WARP_SIZE as u32 {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let Some(addr) =
                        heap_alloc(&mut self.alloc, &fault, now, &mut self.stats, bytes)
                    else {
                        return Err(SimError::OutOfMemory { bytes });
                    };
                    self.param_bytes.insert(addr, bytes);
                    self.stats.add_pending(u64::from(bytes));
                    warp.regs.write_lane(dst, lane as usize, addr);
                }
                ready.set(w, now + lat.get_param_buf(x));
            }
            UOp::Launch {
                kind,
                kernel,
                ntb,
                param,
            } => {
                warp.advance_pc();
                let hw_base = warp.hw_slot as u32 * WARP_SIZE as u32;
                // Pooled on `self` (disjoint field from the SMX borrow):
                // the per-issue request list never allocates steady-state.
                self.launch_buf.clear();
                let mut ntbs = [0u32; WARP_SIZE];
                warp.regs.src_sweep(ntb, mask, &mut ntbs);
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros();
                    rest &= rest - 1;
                    self.launch_buf.push((
                        hw_base + lane,
                        LaunchRequest {
                            kind,
                            kernel,
                            ntb: ntbs[lane as usize],
                            param_addr: warp.regs.lane(param, lane as usize),
                        },
                    ));
                }
                let x = self.launch_buf.len() as u64;
                let is_agg = kind == LaunchKind::Agg;
                if x > 0 && self.tracer.on(Category::Warp) {
                    self.tracer.emit(
                        now,
                        EventKind::WarpStall {
                            smx: s as u32,
                            warp: w as u32,
                            reason: StallReason::LaunchApi.code(),
                        },
                    );
                }
                let visible_at = now
                    + if is_agg {
                        lat.agg_launch
                    } else {
                        lat.launch_device(x)
                    };
                ready.set(w, visible_at);
                for i in 0..self.launch_buf.len() {
                    let (hw_tid, req) = self.launch_buf[i];
                    self.handle_launch(hw_tid, req, now, visible_at)?;
                }
            }
            UOp::Ld { .. } | UOp::St { .. } | UOp::LdParam { .. } | UOp::Atom { .. } => {
                warp.advance_pc();
                // One address per lane and the lanes whose access is global:
                // the image the coalescer reads.
                let mut addrs = [0u32; WARP_SIZE];
                let mut global_mask = 0u32;
                let mut any_shared = false;
                let mut is_load_or_atomic = false;
                let mut is_atomic = false;
                // Space is static per instruction, so each shape branches
                // once, sweeps addresses/operands across the active lanes,
                // and applies side effects in lane order — the order that
                // defines intra-warp aliasing and atomic sequencing.
                match m.op {
                    UOp::Ld {
                        dst,
                        space,
                        addr,
                        offset,
                    } => {
                        is_load_or_atomic = true;
                        warp.regs.addr_sweep(addr, offset, mask, &mut addrs);
                        let mut vals = [0u32; WARP_SIZE];
                        let mut rest = mask;
                        match space {
                            Space::Shared => {
                                any_shared = true;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    vals[lane] = tb.shared_read(addrs[lane]).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                }
                            }
                            Space::Global => {
                                global_mask = mask;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    vals[lane] = self.mem.read_u32(addrs[lane]);
                                }
                            }
                        }
                        warp.regs.store_masked(dst, &vals, mask);
                    }
                    UOp::LdParam { dst, word } => {
                        is_load_or_atomic = true;
                        let addr = param_base.wrapping_add(u32::from(word) * 4);
                        // One functional read suffices — the backing
                        // store is pure and every lane loads the same
                        // word — but coalescing still sees the full
                        // per-lane address image.
                        let v = self.mem.read_u32(addr);
                        warp.regs.broadcast(dst, v, mask);
                        addrs = [addr; WARP_SIZE];
                        global_mask = mask;
                    }
                    UOp::St {
                        space,
                        addr,
                        offset,
                        src,
                    } => {
                        warp.regs.addr_sweep(addr, offset, mask, &mut addrs);
                        let mut vals = [0u32; WARP_SIZE];
                        warp.regs.src_sweep(src, mask, &mut vals);
                        let mut rest = mask;
                        match space {
                            Space::Shared => {
                                any_shared = true;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    tb.shared_write(addrs[lane], vals[lane]).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                }
                            }
                            Space::Global => {
                                global_mask = mask;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    self.mem.write_u32(addrs[lane], vals[lane]);
                                }
                            }
                        }
                    }
                    UOp::Atom {
                        dst,
                        op,
                        space,
                        addr,
                        offset,
                        src,
                        extra,
                    } => {
                        is_load_or_atomic = true;
                        is_atomic = true;
                        warp.regs.addr_sweep(addr, offset, mask, &mut addrs);
                        let mut opers = [0u32; WARP_SIZE];
                        warp.regs.src_sweep(src, mask, &mut opers);
                        // Address and operand registers are lane-disjoint
                        // from earlier lanes' destination writebacks, so
                        // the up-front sweeps observe the same values a
                        // lane-by-lane execution would.
                        let mut rest = mask;
                        while rest != 0 {
                            let lane = rest.trailing_zeros() as usize;
                            rest &= rest - 1;
                            let comparand = extra.map(|r| warp.regs.lane(r, lane));
                            let old = match space {
                                Space::Shared => tb
                                    .shared_read(addrs[lane])
                                    .ok_or_else(|| shared_fault(addrs[lane], tb.shared.len()))?,
                                Space::Global => self.mem.read_u32(addrs[lane]),
                            };
                            let new = apply_atomic(op, old, opers[lane], comparand);
                            match space {
                                Space::Shared => {
                                    any_shared = true;
                                    tb.shared_write(addrs[lane], new).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                }
                                Space::Global => {
                                    self.mem.write_u32(addrs[lane], new);
                                    global_mask |= 1 << lane;
                                }
                            }
                            if let Some(d) = dst {
                                warp.regs.write_lane(d, lane, old);
                            }
                        }
                    }
                    _ => unreachable!("arm is gated on memory micro-ops"),
                }
                // Pooled on `self` (disjoint field from the SMX borrow):
                // one scratch segment list reused across every memory
                // instruction instead of a fresh `Vec` per access.
                let mut txns = std::mem::take(&mut self.txn_buf);
                coalesce_mask_into(&addrs, global_mask, &mut txns);
                if txns.is_empty() {
                    // Shared-memory only.
                    let busy = if any_shared {
                        pipe.shared_mem
                    } else {
                        pipe.alu
                    };
                    ready.set(w, now + busy);
                } else if is_load_or_atomic {
                    let kind = if is_atomic {
                        AccessKind::Atomic
                    } else {
                        AccessKind::Load
                    };
                    let mut outstanding = 0u32;
                    for &t in &txns {
                        if let Some(id) = self.timing.access(s, t, kind, now) {
                            self.access_owner.insert(id, (s, w));
                            outstanding += 1;
                        }
                    }
                    warp.state = WarpState::WaitingMem { outstanding };
                    ready.block(w);
                    if self.tracer.on(Category::Warp) {
                        self.tracer.emit(
                            now,
                            EventKind::WarpStall {
                                smx: s as u32,
                                warp: w as u32,
                                reason: StallReason::Memory.code(),
                            },
                        );
                    }
                } else {
                    // Posted stores.
                    for &t in &txns {
                        let _ = self.timing.access(s, t, AccessKind::Store, now);
                    }
                    ready.set(w, now + pipe.store_issue);
                }
                self.txn_buf = txns;
            }
            UOp::MemFence => {
                warp.advance_pc();
                ready.set(w, now + pipe.memfence);
            }
            UOp::Nop => {
                warp.advance_pc();
                ready.set(w, now + 1);
            }
            ref alu => {
                warp.advance_pc();
                exec_alu(alu, &mut warp.regs, &warp.env, mask);
                ready.set(w, now + class_latency(m.lat, &pipe));
            }
        }
        Ok(None)
    }

    // ---- thread-block / kernel completion ----------------------------------------

    /// Releases a completed thread block's slot and does the bookkeeping
    /// that follows: KD/AGT counters, kernel retirement,
    /// FCFS/pool/KMU/heap cleanup.
    fn on_tb_complete(&mut self, s: usize, slot: usize, now: u64) -> Result<(), SimError> {
        let Some(tbcr) = self.smxs[s].release_tb(slot) else {
            return Err(invariant(
                now,
                format!("releasing TB slot {slot} on SMX {s}: empty or warps still live"),
            ));
        };
        self.stats.tb_completed += 1;
        self.progress_marker += 1;
        let kde = tbcr.kdei;
        {
            let Some(entry) = self.kd.get_mut(kde) else {
                return Err(invariant(
                    now,
                    format!("TB completed for non-resident KDE {kde}"),
                ));
            };
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
        }
        let Some(entry) = self.kd.get(kde) else {
            return Err(invariant(
                now,
                format!("KDE {kde} vanished during completion"),
            ));
        };
        let done = entry.native_fully_scheduled()
            && entry.native_all_done()
            && entry.agg_exe == 0
            && self.pool.nagei(kde).is_none();
        if done {
            let Some(entry) = self.kd.release(kde) else {
                return Err(invariant(now, format!("KDE {kde} vanished at release")));
            };
            if self.tracer.on(Category::Launch) {
                self.tracer.emit(
                    now,
                    EventKind::KernelRetire {
                        kde,
                        kernel: u32::from(entry.kernel.0),
                    },
                );
            }
            self.pool.reset_kde(kde);
            self.agt_walk.remove(&kde);
            self.fcfs.unmark(kde);
            if let Some(hwq) = entry.hwq {
                self.kmu.unblock_hwq(hwq);
            }
            // The retired kernel's parameter buffer no longer pins heap
            // accounting (bump allocator: bytes only, no address reuse).
            // Free exactly the bytes recorded at allocation; a kernel
            // launched via a caller-managed buffer recorded nothing.
            if let Some(bytes) = self.param_bytes.remove(&entry.param_addr) {
                self.alloc.free_accounting(bytes);
            }
        }
        Ok(())
    }
}

/// When a panic unwinds through a live `Gpu` — a supervised sweep cell
/// crashing mid-run — stash the machine's position and its recorder's
/// recent-event ring on the thread, so the sweep's `CrashReport` can say
/// *where* the simulation was, not just what the panic said. A normal
/// drop does nothing.
impl Drop for Gpu {
    fn drop(&mut self) {
        if std::thread::panicking() {
            crate::sweep::stash_crash_context(self.cycle, self.tracer.recent());
        }
    }
}

/// Dependent-issue latency for a pre-classified ALU micro-op. The decode
/// step computed the class once per instruction; this replaces the old
/// per-issue `alu_latency` match over the full instruction enum.
pub(crate) fn class_latency(lat: LatClass, pipe: &crate::config::PipelineLatencies) -> u64 {
    match lat {
        LatClass::Alu => pipe.alu,
        LatClass::IMul => pipe.imul,
        LatClass::IDiv => pipe.idiv,
        LatClass::FDiv => pipe.fdiv,
    }
}
