//! The top-level GPU: host API and the cycle-level execution engine.

use crate::access_slab::AccessSlab;
use crate::config::{CancelToken, GpuConfig, ISSUE_PER_CYCLE, TB_DISPATCH_PER_CYCLE};
use crate::error::{BudgetKind, SimError};
use crate::launch::{Grant, HostParams, LaunchCtx, LaunchUnit};
use crate::smx::warp::WarpState;
use crate::smx::{release_barrier, Smx};
use crate::stats::Stats;
use gpu_isa::{
    apply_atomic, exec_alu, Kernel, KernelId, LatClass, LaunchKind, LaunchRequest, Program, Space,
    UOp, WARP_SIZE,
};
use gpu_mem::{
    coalesce::coalesce_mask_into, AccessId, AccessKind, BackingStore, LinearAllocator, MemSubsystem,
};
use gpu_trace::{Category, EventKind, Recorder, StallReason};
use std::time::Instant;

/// Base of the heap served by [`Gpu::malloc`].
pub(crate) const HEAP_BASE: u32 = 0x1000_0000;
/// Size of the device heap.
pub(crate) const HEAP_SIZE: u32 = 0xD000_0000;

/// Builds an [`SimError::InvariantViolation`] — the uniform way the
/// engine reports state that breaks its own bookkeeping laws.
pub(crate) fn invariant(cycle: u64, law: String) -> SimError {
    SimError::InvariantViolation { cycle, law }
}

/// The launch unit's [`LaunchCtx`], borrowed from a `Gpu`'s other fields
/// (so the call site may hold its launch unit and SMXs at the same time).
macro_rules! launch_ctx {
    ($gpu:expr) => {
        &mut LaunchCtx {
            cfg: &$gpu.cfg,
            program: &$gpu.program,
            mem: &mut $gpu.mem,
            alloc: &mut $gpu.alloc,
            stats: &mut $gpu.stats,
            tracer: &mut $gpu.tracer,
            progress: &mut $gpu.progress_marker,
        }
    };
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
    /// The launch mechanism: KMU, Kernel Distributor, FCFS controller,
    /// AGT pool and the degradation ladder.
    pub(crate) launch_unit: LaunchUnit,
    pub(crate) smxs: Vec<Smx>,
    /// Per SMX, a lower bound on the cycle its next warp may issue (its
    /// ready table's [`cached_min`](crate::smx::ReadyTable::cached_min)
    /// when last read, folded down by every wake-up since): the issue
    /// stage skips an SMX whose bound is in the future, and the event
    /// horizon reads the array instead of asking each SMX.
    pub(crate) ready_bound: Vec<u64>,
    /// Never above the least `ready_bound`: a step before it asks no SMX
    /// and reads no bound.
    pub(crate) ready_min: u64,
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
    pub(crate) rr_smx: usize,
    pub(crate) mem_buf: Vec<AccessId>,
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
}

/// Panics unless every machine-shape count fits in `u16`: trace events
/// store SMX, thread-block-slot, warp-slot and L2-partition indices at
/// that width (`gpu_trace::EventKind`), so a wider machine would alias
/// them.
fn assert_shape_fits_trace(cfg: &GpuConfig) {
    let shape = [
        cfg.num_smx,
        cfg.mem.num_smx,
        cfg.max_tb_per_smx,
        cfg.max_warps_per_smx() as usize,
        cfg.mem.num_partitions,
    ];
    let [smx, mem_smx, tbs, warps, partitions] = shape;
    assert!(
        shape.iter().all(|&n| n <= usize::from(u16::MAX)),
        "GpuConfig: SMXs ({smx}, memory side {mem_smx}), thread-block slots ({tbs}) and \
         warp slots ({warps}) per SMX and L2 partitions ({partitions}) must each fit in u16",
    );
}

impl Gpu {
    /// Builds a GPU and loads `program` onto it.
    ///
    /// # Panics
    /// If a machine-shape count (SMXs, thread-block or warp slots per SMX,
    /// L2 partitions) does not fit in `u16`.
    pub fn new(cfg: GpuConfig, program: Program) -> Self {
        assert_shape_fits_trace(&cfg);
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
            launch_unit: LaunchUnit::new(&cfg),
            smxs: (0..cfg.num_smx).map(|i| Smx::new(i, &cfg)).collect(),
            ready_bound: vec![u64::MAX; cfg.num_smx],
            ready_min: u64::MAX,
            resident_warps: 0,
            cycle: 0,
            warp_age: 0,
            stats,
            access_owner: AccessSlab::new(),
            rr_smx: 0,
            mem_buf: Vec::new(),
            launch_buf: Vec::new(),
            txn_buf: Vec::new(),
            steps_executed: 0,
            progress_marker: 0,
            tracer: Recorder::new(cfg.trace),
            trace_win: crate::trace::TraceWindow::default(),
            run_started: None,
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
        assert_shape_fits_trace(&cfg);
        self.program = program;
        self.mem.clear();
        self.alloc = LinearAllocator::new(HEAP_BASE, HEAP_SIZE);
        self.timing = MemSubsystem::new(cfg.mem);
        self.launch_unit = LaunchUnit::new(&cfg);
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
        self.ready_bound.clear();
        self.ready_bound.resize(cfg.num_smx, u64::MAX);
        self.ready_min = u64::MAX;
        self.resident_warps = 0;
        self.cycle = 0;
        self.warp_age = 0;
        self.stats = Stats {
            max_warps_per_smx: cfg.max_warps_per_smx(),
            num_smx: cfg.num_smx as u32,
            ..Stats::default()
        };
        self.access_owner = AccessSlab::new();
        self.rr_smx = 0;
        self.mem_buf.clear();
        self.launch_buf.clear();
        self.txn_buf.clear();
        self.steps_executed = 0;
        self.progress_marker = 0;
        self.tracer = Recorder::new(cfg.trace);
        self.trace_win = crate::trace::TraceWindow::default();
        self.run_started = None;
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
        let now = self.cycle;
        (launch_ctx!(self).heap_alloc(now, bytes)).ok_or(SimError::OutOfMemory { bytes })
    }

    /// Launches `kernel` with `ntb` thread blocks on `stream` (the
    /// analogue of `kernel<<<ntb, ...>>>(params)`); `params` are copied
    /// into a fresh device parameter buffer.
    ///
    /// A zero-block grid is a no-op that succeeds immediately, matching
    /// the device-launch path; it must not reach the Kernel Distributor,
    /// where an entry with no blocks would never complete and trip the
    /// hang watchdog. A launch whose hardware work queue sits at an
    /// injected cap parks in a software queue until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown kernels and heap exhaustion.
    pub fn launch(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        params: &[u32],
        stream: u32,
    ) -> Result<(), SimError> {
        let (now, params) = (self.cycle, HostParams::Words(params));
        (self.launch_unit).submit_host(kernel, ntb, stream, params, now, launch_ctx!(self))
    }

    /// Launches `kernel` with a caller-managed parameter buffer at
    /// `param_addr` (the caller has already written the parameter words
    /// there). Useful for differential testing against the reference
    /// interpreter, which shares the same address map.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownKernel`] for kernels not in the program.
    pub fn launch_with_param_addr(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        param_addr: u32,
        stream: u32,
    ) -> Result<(), SimError> {
        let (now, params) = (self.cycle, HostParams::At(param_addr));
        (self.launch_unit).submit_host(kernel, ntb, stream, params, now, launch_ctx!(self))
    }

    /// True when no work remains anywhere in the machine — including the
    /// degradation ladder's retry and deferral queues, whose entries are
    /// launches the machine still owes.
    pub fn is_idle(&self) -> bool {
        self.launch_unit.is_idle() && self.resident_warps == 0 && self.timing.quiescent()
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
            let exceeded = |kind| SimError::DeadlineExceeded {
                budget: kind,
                cycle: self.cycle,
                stats: self.partial_stats(),
            };
            if budget.cycle_cap.is_some_and(|cap| self.cycle >= cap) {
                return Some(exceeded(BudgetKind::Cycles));
            }
            if (budget.live_heap_cap).is_some_and(|cap| self.alloc.live_bytes() > cap) {
                return Some(exceeded(BudgetKind::LiveHeap));
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
                        return Some(exceeded(BudgetKind::WallClock));
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
    fn next_event_horizon(&self, now: u64) -> Option<u64> {
        let mut next = self.launch_unit.next_event_at(now);
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(t) = self.timing.next_wake() {
            fold(t.max(now + 1));
        }
        // After a quiet step every SMX's bound is in the future: the
        // issue stage re-read each one it called into, whose walk found
        // nothing due and so stored its exact minimum, and every wake-up
        // since folded in a cycle past `now`.
        if self.ready_min != u64::MAX {
            fold(self.ready_min.max(now + 1));
        }
        // A fault plan flips behaviour (delays, caps) at its activation
        // edge; step there so no span straddles the flip.
        if !self.cfg.fault.is_nop() && now < self.cfg.fault.after_cycle {
            fold(self.cfg.fault.after_cycle);
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

        // 1. Launch unit: the degradation ladder's matured retries and
        // parked host launches re-attempt, then the KMU matures device
        // launches and advances its dispatch pipeline.
        let mut quiet = !self.launch_unit.tick(now, launch_ctx!(self))?;

        // 2. SMX scheduler: distribute thread blocks.
        if self.distribute_tbs(now)? > 0 {
            quiet = false;
        }

        // 3. SMXs: issue warps. An SMX whose ready bound is in the future
        // has nothing to issue and is not asked.
        if self.ready_min <= now {
            let mut least = u64::MAX;
            for s in 0..self.smxs.len() {
                if self.ready_bound[s] <= now {
                    let picks =
                        self.smxs[s].select_warps(now, ISSUE_PER_CYCLE, self.cfg.warp_sched);
                    if picks > 0 {
                        quiet = false;
                    }
                    for k in 0..picks {
                        let w = self.smxs[s].picked()[k];
                        if let Some(done_slot) = self.issue_warp(s, w, now)? {
                            self.on_tb_complete(s, done_slot, now)?;
                        }
                    }
                    // Issue and barrier release wrote warps of this SMX
                    // only.
                    self.ready_bound[s] = self.smxs[s].ready.cached_min();
                }
                least = least.min(self.ready_bound[s]);
            }
            self.ready_min = least;
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
        let wake_at = now + 1 + wake_delay;
        for id in buf.drain(..) {
            if let Some((s, w)) = self.access_owner.remove(id) {
                completions += 1;
                if self.smxs[s].mem_complete(w, wake_at) {
                    self.fold_ready(s, wake_at);
                    if wake_delay > 0 {
                        delayed += 1;
                    }
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

    /// A warp on SMX `s` may issue from cycle `at`: fold it into the
    /// ready bounds.
    fn fold_ready(&mut self, s: usize, at: u64) {
        self.ready_bound[s] = self.ready_bound[s].min(at);
        self.ready_min = self.ready_min.min(at);
    }

    // ---- thread-block distribution (§2.3 + §4.2 DTBL flow) ----------------

    /// Distributes up to [`TB_DISPATCH_PER_CYCLE`] thread blocks in FCFS
    /// order; returns how many were placed this cycle.
    fn distribute_tbs(&mut self, now: u64) -> Result<u32, SimError> {
        let mut placed = 0;
        let mut at = 0;
        while placed < TB_DISPATCH_PER_CYCLE {
            // Round-robin over the SMXs with room for one block; with
            // spatial sharing, non-dynamic blocks keep to the first
            // `num_smx - dyn_reserved_smx`.
            let (smxs, rr_smx, cfg) = (&self.smxs, &mut self.rr_smx, &self.cfg);
            let fits = |kernel: &Kernel, dynamic| {
                let limit = smx_limit(smxs.len(), cfg, dynamic);
                let s = (0..limit)
                    .map(|k| (*rr_smx + k) % limit)
                    .find(|&s| smxs[s].can_fit(kernel, cfg))?;
                *rr_smx = (s + 1) % limit;
                Some(s)
            };
            let ctx = launch_ctx!(self);
            let Some(grant) = self.launch_unit.next_block(now, &mut at, ctx, fits)? else {
                break;
            };
            self.place_block(grant, now)?;
            placed += 1;
        }
        Ok(placed)
    }

    /// Places a block the launch unit granted on the SMX it chose: a
    /// kernel's first block on an SMX pays the context setup, any later
    /// one the block-dispatch handshake.
    fn place_block(&mut self, g: Grant, now: u64) -> Result<(), SimError> {
        let smx = &mut self.smxs[g.smx];
        let first_load = smx.kernels_loaded.insert(g.kernel);
        let ready_at = now
            + if first_load {
                self.cfg.pipeline.context_setup
            } else {
                20 // block-dispatch handshake
            };
        let live_before = smx.live_warps;
        let (nctaid, param, age) = (g.nctaid, g.param_addr, &mut self.warp_age);
        if (smx.place_tb(g.kernel, &g.kernel_fn, g.tbcr, nctaid, param, ready_at, age)).is_none() {
            let law = format!("SMX {} refused {:?} despite can_fit", g.smx, g.tbcr);
            return Err(invariant(now, law));
        }
        self.resident_warps += smx.live_warps - live_before;
        self.fold_ready(g.smx, ready_at);
        self.progress_marker += 1;
        Ok(())
    }

    // ---- warp issue --------------------------------------------------------

    /// Issues one instruction for warp `w` on SMX `s`. Returns the TB slot
    /// index when this issue completed the warp's entire thread block.
    fn issue_warp(&mut self, s: usize, w: usize, now: u64) -> Result<Option<usize>, SimError> {
        let smx = &mut self.smxs[s];
        let Smx {
            warps,
            envs,
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
                    smx: s as u16,
                    warp: w as u16,
                    lanes: mask.count_ones() as u8,
                },
            );
        }

        let pipe = self.cfg.pipeline;
        let lat = self.cfg.latency;

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
                            smx: s as u16,
                            warp: w as u16,
                            reason: StallReason::Barrier.code(),
                        },
                    );
                    self.tracer.emit(
                        now,
                        EventKind::BarrierWait {
                            smx: s as u16,
                            tb_slot: tb_slot as u16,
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
                    let addr = (self.launch_unit).alloc_param(bytes, now, launch_ctx!(self))?;
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
                            smx: s as u16,
                            warp: w as u16,
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
                    let ctx = launch_ctx!(self);
                    (self.launch_unit).handle_launch(hw_tid, req, now, visible_at, ctx)?;
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
                                smx: s as u16,
                                warp: w as u16,
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
                exec_alu(alu, &mut warp.regs, &envs[w], mask);
                ready.set(w, now + class_latency(m.lat, &pipe));
            }
        }
        Ok(None)
    }

    // ---- thread-block / kernel completion ----------------------------------------

    /// Releases a completed thread block's slot and hands the block to
    /// the launch unit's bookkeeping.
    fn on_tb_complete(&mut self, s: usize, slot: usize, now: u64) -> Result<(), SimError> {
        let Some(tbcr) = self.smxs[s].release_tb(slot) else {
            return Err(invariant(
                now,
                format!("releasing TB slot {slot} on SMX {s}: empty or warps still live"),
            ));
        };
        self.stats.tb_completed += 1;
        self.progress_marker += 1;
        (self.launch_unit).block_finished(tbcr, now, launch_ctx!(self))
    }
}

/// How many of the `n` SMXs, from the first, a block may be placed on.
pub(crate) fn smx_limit(n: usize, cfg: &GpuConfig, dynamic: bool) -> usize {
    if dynamic {
        n
    } else {
        n.saturating_sub(cfg.dyn_reserved_smx).max(1)
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

/// Dependent-issue latency for an ALU micro-op, from the latency class the
/// kernel builder attached to it.
pub(crate) fn class_latency(lat: LatClass, pipe: &crate::config::PipelineLatencies) -> u64 {
    match lat {
        LatClass::Alu => pipe.alu,
        LatClass::IMul => pipe.imul,
        LatClass::IDiv => pipe.idiv,
        LatClass::FDiv => pipe.fdiv,
    }
}
