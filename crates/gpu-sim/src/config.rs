//! Simulator configuration: Table 2 (GPU geometry) and Table 3 (launch
//! latencies) of the paper, plus the experiment and robustness knobs.

use crate::fault::FaultPlan;
use crate::launch::{BACKOFF_BASE, BACKOFF_CAP, MAX_RETRIES};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cooperative-cancellation token. Clone it, hand one copy to the
/// run (via [`RunBudget::cancel`]) and keep the other; calling
/// [`cancel`](CancelToken::cancel) from any thread makes the run stop at
/// its next budget checkpoint with [`SimError::Cancelled`](crate::SimError)
/// and a partial-stats snapshot.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Token identity, not state: two clones of the same token compare equal.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// Resource budget for one run, checked at the engine's event-horizon
/// boundaries. All limits default to off; an inert budget costs one
/// branch per check. The *cycle* and *heap* caps are deterministic (they
/// trip at the identical cycle on every engine); the wall-clock deadline
/// and cancellation are host-dependent by nature and only their typed
/// error shape is stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Host wall-clock deadline in milliseconds from `run_to_idle` entry.
    pub deadline_ms: Option<u64>,
    /// Simulated-cycle cap for this run (independent of `max_cycles`,
    /// which models the *machine*; the cap models the *caller's patience*
    /// and returns partial stats instead of a plain error).
    pub cycle_cap: Option<u64>,
    /// Cap on live device-heap bytes; exceeding it stops the run.
    pub live_heap_cap: Option<u64>,
    /// Cooperative cancellation token (see [`CancelToken`]).
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// A budget with every limit off.
    pub fn none() -> Self {
        RunBudget::default()
    }

    /// True when no limit is set — the fast path skips all bookkeeping.
    pub fn is_inert(&self) -> bool {
        self.deadline_ms.is_none()
            && self.cycle_cap.is_none()
            && self.live_heap_cap.is_none()
            && self.cancel.is_none()
    }
}

/// Device-runtime API latency model measured on a Tesla K20c (Table 3).
///
/// `cudaGetParameterBuffer` and `cudaLaunchDevice` follow the per-warp
/// linear model `A·x + b`, where `b` is the per-warp initialization
/// latency, `A` the per-calling-thread latency, and `x` the number of
/// threads in the warp making the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyTable {
    /// `cudaStreamCreateWithFlags` (CDP only), per warp.
    pub stream_create: u64,
    /// `cudaGetParameterBuffer` per-warp base latency `b`.
    pub get_param_buf_b: u64,
    /// `cudaGetParameterBuffer` per-thread latency `A`.
    pub get_param_buf_a: u64,
    /// `cudaLaunchDevice` (CDP only) per-warp base latency `b`.
    pub launch_device_b: u64,
    /// `cudaLaunchDevice` per-thread latency `A`.
    pub launch_device_a: u64,
    /// Kernel dispatch latency from the KMU to the Kernel Distributor.
    pub kernel_dispatch: u64,
    /// `cudaLaunchAggGroup` launch cost per warp (DTBL only): the
    /// pipelined Kernel-Distributor eligibility search (≤32 cycles, one
    /// per entry) plus the single-cycle AGT hash probe (§4.3). Parameter
    /// allocation overlaps it and is charged by `cudaGetParameterBuffer`.
    pub agg_launch: u64,
}

impl LatencyTable {
    /// The values measured on the K20c (Table 3 of the paper).
    pub fn k20c() -> Self {
        LatencyTable {
            stream_create: 7165,
            get_param_buf_b: 8023,
            get_param_buf_a: 129,
            launch_device_b: 12187,
            launch_device_a: 1592,
            kernel_dispatch: 283,
            agg_launch: 33,
        }
    }

    /// All-zero latencies: the CDPI/DTBLI "ideal" configurations of §5.2,
    /// which isolate scheduling effects from launch overhead.
    pub fn ideal() -> Self {
        LatencyTable {
            stream_create: 0,
            get_param_buf_b: 0,
            get_param_buf_a: 0,
            launch_device_b: 0,
            launch_device_a: 0,
            kernel_dispatch: 0,
            agg_launch: 0,
        }
    }

    /// Latency of a warp's `cudaGetParameterBuffer` with `x` calling lanes.
    pub fn get_param_buf(&self, x: u64) -> u64 {
        if x == 0 {
            0
        } else {
            self.get_param_buf_b + self.get_param_buf_a * x
        }
    }

    /// Latency of a warp's `cudaLaunchDevice` with `x` calling lanes,
    /// including the per-launch stream creation the CDP pattern requires
    /// (Figure 3a of the paper).
    pub fn launch_device(&self, x: u64) -> u64 {
        if x == 0 {
            0
        } else {
            self.stream_create + self.launch_device_b + self.launch_device_a * x
        }
    }
}

/// Warp-issue slots per SMX per cycle (GK110's four warp schedulers).
pub(crate) const ISSUE_PER_CYCLE: usize = 4;

/// Thread blocks the SMX scheduler distributes per cycle.
pub(crate) const TB_DISPATCH_PER_CYCLE: u32 = 2;

/// Core pipeline latencies (in core cycles), loosely calibrated to Kepler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineLatencies {
    /// Simple integer/float ALU dependent-issue latency.
    pub alu: u64,
    /// Integer multiply / multiply-add.
    pub imul: u64,
    /// Integer divide / remainder (emulated on hardware; expensive).
    pub idiv: u64,
    /// Float divide / square root.
    pub fdiv: u64,
    /// Shared-memory access.
    pub shared_mem: u64,
    /// Store issue (posted; the warp only pays pipeline occupancy).
    pub store_issue: u64,
    /// Memory fence bubble.
    pub memfence: u64,
    /// Context-setup cost the first time a kernel's thread block lands on
    /// a given SMX (function loading + resource partitioning, §4.3).
    pub context_setup: u64,
    /// Cost of fetching a *spilled* aggregated-group descriptor from
    /// global memory when the SMX scheduler walks to it (§4.3: a free AGT
    /// entry is zero-cost, "otherwise the SMX scheduler will have to load
    /// the information from the global memory"). The default of 0 models
    /// a scheduler that prefetches chain descriptors while earlier thread
    /// blocks distribute (the same pipelining §4.3 assumes for the KDE
    /// search); the Figure 12 sweep raises it to expose the spill cost.
    pub agt_overflow_load: u64,
}

impl Default for PipelineLatencies {
    fn default() -> Self {
        PipelineLatencies {
            alu: 10,
            imul: 12,
            idiv: 36,
            fdiv: 30,
            shared_mem: 30,
            store_issue: 8,
            memfence: 20,
            context_setup: 300,
            agt_overflow_load: 0,
        }
    }
}

/// Full simulator configuration. Defaults model the Tesla K20c baseline of
/// Table 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of SMXs.
    pub num_smx: usize,
    /// Maximum resident thread blocks per SMX.
    pub max_tb_per_smx: usize,
    /// Maximum resident threads per SMX.
    pub max_threads_per_smx: u32,
    /// 32-bit registers per SMX.
    pub regs_per_smx: u32,
    /// Shared memory per SMX in bytes.
    pub shared_mem_per_smx: u32,
    /// Kernel Distributor entries == hardware work queues (Hyper-Q).
    pub kde_entries: usize,
    /// AGT entries (power of two). Figure 12 sweeps this.
    pub agt_entries: usize,
    /// Launch-path latencies (Table 3); use [`LatencyTable::ideal`] for
    /// CDPI/DTBLI.
    pub latency: LatencyTable,
    /// Core pipeline latencies.
    pub pipeline: PipelineLatencies,
    /// Memory hierarchy configuration.
    pub mem: gpu_mem::MemConfig,
    /// Warp scheduling policy.
    pub warp_sched: WarpSchedPolicy,
    /// Force every `cudaLaunchAggGroup` down the device-kernel fallback
    /// path (the "more KDE entries instead of an AGT" alternative of §4.3;
    /// ablation knob).
    pub dtbl_disable_coalescing: bool,
    /// Spatial sharing (§5.2B's proposed fix for benchmarks like
    /// `clr_graph500` whose dynamic launches starve behind long-running
    /// kernels): reserve this many SMXs for *dynamically launched* work —
    /// host-launched native thread blocks avoid them, while device-kernel
    /// and aggregated thread blocks may use every SMX. 0 disables the
    /// extension (the paper's baseline).
    pub dyn_reserved_smx: usize,
    /// Hard cycle limit; exceeding it aborts the run with an error.
    pub max_cycles: u64,
    /// Forward-progress watchdog window: if no thread block retires, no
    /// kernel installs, no memory transaction completes and no launch is
    /// observed for this many cycles, the run aborts with a structured
    /// [`HangReport`](crate::HangReport) (`BarrierDeadlock` when every
    /// stuck warp is parked at a barrier, `Hang` otherwise) — long before
    /// `max_cycles` burns. 0 disables the watchdog.
    pub watchdog_window: u64,
    /// Run the per-cycle invariant checker
    /// ([`Gpu::check_invariants`](crate::Gpu::check_invariants)): resource
    /// accounting, leak freedom, chain well-formedness and memory-request
    /// conservation, failing fast with the first broken law. Defaults to
    /// on in debug/test builds and off in release.
    pub check_invariants: bool,
    /// Disable the event-driven engine and step every cycle. The
    /// event-driven engine skips spans of cycles that are provably
    /// uneventful (see `Gpu::next_event_horizon`) and produces bit-identical
    /// [`Stats`](crate::Stats); this escape hatch keeps the per-cycle path
    /// alive for differential testing and debugging. Tracing does not
    /// switch the engine off: with a metrics-sampling interval, each
    /// sample cycle is one more landing site of the skip.
    pub force_per_cycle: bool,
    /// Deterministic fault-injection plan (default: inject nothing).
    pub fault: FaultPlan,
    /// Run budget: wall-clock deadline, cycle cap, live-heap cap and
    /// cooperative cancellation. Defaults to fully off (inert).
    pub budget: RunBudget,
    /// Structured event tracing ([`gpu_trace`]): category mask, ring size,
    /// event cap and metrics-sampling interval. Defaults to fully off — a
    /// disabled trace costs one predictable branch per staged event and
    /// changes no simulation outcome.
    pub trace: gpu_trace::TraceConfig,
}

/// Warp scheduler policy (§5.1 uses greedy-then-oldest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarpSchedPolicy {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls,
    /// then fall back to the oldest ready warp.
    Gto,
    /// Loose round-robin.
    RoundRobin,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_smx: 13,
            max_tb_per_smx: 16,
            max_threads_per_smx: 2048,
            regs_per_smx: 65536,
            shared_mem_per_smx: 48 * 1024,
            kde_entries: 32,
            agt_entries: 1024,
            latency: LatencyTable::k20c(),
            pipeline: PipelineLatencies::default(),
            mem: gpu_mem::MemConfig::default(),
            warp_sched: WarpSchedPolicy::Gto,
            dtbl_disable_coalescing: false,
            dyn_reserved_smx: 0,
            max_cycles: 2_000_000_000,
            watchdog_window: 2_000_000,
            check_invariants: cfg!(debug_assertions),
            force_per_cycle: false,
            fault: FaultPlan::default(),
            budget: RunBudget::default(),
            trace: gpu_trace::TraceConfig::off(),
        }
    }
}

impl GpuConfig {
    /// The K20c baseline used throughout the paper's evaluation.
    pub fn k20c() -> Self {
        GpuConfig::default()
    }

    /// Same geometry with zeroed launch latencies (CDPI/DTBLI runs).
    pub fn k20c_ideal() -> Self {
        GpuConfig {
            latency: LatencyTable::ideal(),
            ..GpuConfig::default()
        }
    }

    /// A deliberately small configuration for fast unit tests: 2 SMXs and
    /// a small AGT, with the same behavioural model.
    pub fn test_small() -> Self {
        GpuConfig {
            num_smx: 2,
            agt_entries: 64,
            mem: gpu_mem::MemConfig {
                num_smx: 2,
                num_partitions: 2,
                ..gpu_mem::MemConfig::default()
            },
            max_cycles: 80_000_000,
            watchdog_window: 500_000,
            ..GpuConfig::default()
        }
    }

    /// Maximum resident warps per SMX.
    pub fn max_warps_per_smx(&self) -> u32 {
        self.max_threads_per_smx / gpu_isa::WARP_SIZE as u32
    }

    /// Stable content hash over every field that can change the *artifact*
    /// a successful run produces — `Stats`, final memory, and traces. This
    /// is the `config_hash` component of the result cache's
    /// [`CellKey`](crate::server::CellKey), so the field list is a
    /// contract (documented in DESIGN.md):
    ///
    /// * **Included**: the machine (geometry, launch and pipeline
    ///   latencies, memory hierarchy, warp scheduler, coalescing/reserved-
    ///   SMX knobs), the fault plan, the degradation ladder's constants
    ///   (they shape results under faults), and the trace configuration
    ///   (mask/ring/limit/interval shape the exported trace, and a
    ///   non-zero metrics interval changes sample timestamps).
    /// * **Excluded**: the fields the destructuring below binds to `_`,
    ///   each with its reason beside it.
    ///
    /// The destructuring is exhaustive on purpose: a new `GpuConfig`
    /// field does not compile until it is classified here and in
    /// [`budget_hash`](Self::budget_hash).
    ///
    /// Two configs with equal hashes are interchangeable for caching; a
    /// collision across *different* artifact-relevant fields is a 64-bit
    /// FNV-1a accident we accept for an in-process cache.
    pub fn content_hash(&self) -> u64 {
        let GpuConfig {
            num_smx,
            max_tb_per_smx,
            max_threads_per_smx,
            regs_per_smx,
            shared_mem_per_smx,
            kde_entries,
            agt_entries,
            latency,
            pipeline,
            mem,
            warp_sched,
            dtbl_disable_coalescing,
            dyn_reserved_smx,
            max_cycles: _,       // cuts a run short with an `Err`: budget_hash
            watchdog_window: _,  // cuts a run short with an `Err`: budget_hash
            check_invariants: _, // observes the machine, never changes it
            force_per_cycle: _,  // bit-identical engines (engine_equivalence.rs)
            fault: f,
            budget: _, // cuts a run short with an `Err`: budget_hash
            trace: t,
        } = self;
        Fnv::new()
            .u(*num_smx as u64)
            .u(*max_tb_per_smx as u64)
            .u(u64::from(*max_threads_per_smx))
            .u(u64::from(*regs_per_smx))
            .u(u64::from(*shared_mem_per_smx))
            .u(*kde_entries as u64)
            // The two issue widths, in the slots they held as fields.
            .u(ISSUE_PER_CYCLE as u64)
            .u(u64::from(TB_DISPATCH_PER_CYCLE))
            .u(*agt_entries as u64)
            .u(latency.stream_create)
            .u(latency.get_param_buf_b)
            .u(latency.get_param_buf_a)
            .u(latency.launch_device_b)
            .u(latency.launch_device_a)
            .u(latency.kernel_dispatch)
            .u(latency.agg_launch)
            .u(pipeline.alu)
            .u(pipeline.imul)
            .u(pipeline.idiv)
            .u(pipeline.fdiv)
            .u(pipeline.shared_mem)
            .u(pipeline.store_issue)
            .u(pipeline.memfence)
            .u(pipeline.context_setup)
            .u(pipeline.agt_overflow_load)
            .u(mem.num_smx as u64)
            .u(mem.num_partitions as u64)
            .cache(&mem.l1)
            .cache(&mem.l2_slice)
            .u(mem.l1_hit_latency)
            .u(mem.icnt_fwd)
            .u(mem.icnt_back)
            .u(mem.l2_latency)
            .u(u64::from(mem.dram.banks))
            .u(u64::from(mem.dram.row_bytes))
            .u(mem.dram.t_burst)
            .u(mem.dram.t_row_miss)
            .u(mem.dram.t_cas)
            .u(mem.dram.sched_window as u64)
            .u(mem.dram.queue_capacity as u64)
            .u(u64::from(mem.partition_interleave))
            .u(mem.l2_ports as u64)
            .u(match warp_sched {
                WarpSchedPolicy::Gto => 0,
                WarpSchedPolicy::RoundRobin => 1,
            })
            .u(u64::from(*dtbl_disable_coalescing))
            .u(*dyn_reserved_smx as u64)
            .u(f.after_cycle)
            .u(u64::from(f.force_agt_overflow))
            .opt(f.agt_overflow_capacity.map(|v| v as u64))
            .opt(f.heap_limit_bytes)
            .opt(f.hwq_capacity.map(|v| v as u64))
            .opt(f.kmu_device_capacity.map(|v| v as u64))
            .u(f.mem_delay)
            // The ladder, as a 1 and its three constants: the values its
            // slots held when the persisted cache keys were computed.
            .u(1)
            .u(u64::from(MAX_RETRIES))
            .u(BACKOFF_BASE)
            .u(BACKOFF_CAP)
            .u(u64::from(t.mask))
            .u(u64::from(t.ring))
            .u(u64::from(t.limit))
            .u(u64::from(t.metrics_interval))
            .finish()
    }

    /// Stable content hash over the *deterministic* cut-short knobs:
    /// `max_cycles`, `watchdog_window`, and the budget's `cycle_cap` /
    /// `live_heap_cap`. These trip at the identical simulated cycle on
    /// every engine, so the typed error they produce is as much a pure
    /// function of the cell as an `Ok` artifact is — which is what lets
    /// the result cache memoize deterministic errors (see
    /// [`SimError::is_deterministic`](crate::SimError::is_deterministic)).
    ///
    /// The host-dependent knobs — `deadline_ms` and the cancellation
    /// token — are deliberately excluded: their outcomes depend on wall
    /// clock and operator action, never on cell content, and they are
    /// never cached.
    ///
    /// Everything else is bound to `_`: it either shapes the artifact
    /// ([`content_hash`](Self::content_hash) keys it) or changes nothing
    /// a run returns (`check_invariants`, `force_per_cycle`).
    pub fn budget_hash(&self) -> u64 {
        let GpuConfig {
            num_smx: _,
            max_tb_per_smx: _,
            max_threads_per_smx: _,
            regs_per_smx: _,
            shared_mem_per_smx: _,
            kde_entries: _,
            agt_entries: _,
            latency: _,
            pipeline: _,
            mem: _,
            warp_sched: _,
            dtbl_disable_coalescing: _,
            dyn_reserved_smx: _,
            max_cycles,
            watchdog_window,
            check_invariants: _,
            force_per_cycle: _,
            fault: _,
            budget,
            trace: _,
        } = self;
        Fnv::new()
            .u(*max_cycles)
            .u(*watchdog_window)
            .opt(budget.cycle_cap)
            .opt(budget.live_heap_cap)
            .finish()
    }
}

/// Chainable 64-bit FNV-1a used by [`GpuConfig::content_hash`]. Every
/// value is folded as 8 little-endian bytes so field boundaries cannot
/// alias (two adjacent small fields never merge into one stream).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn u(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// `None` and `Some(v)` hash differently for every `v`, including 0.
    fn opt(self, v: Option<u64>) -> Self {
        match v {
            None => self.u(0),
            Some(v) => self.u(1).u(v),
        }
    }

    fn cache(self, c: &gpu_mem::CacheConfig) -> Self {
        self.u(u64::from(c.size_bytes))
            .u(u64::from(c.line_bytes))
            .u(u64::from(c.ways))
            .u(u64::from(c.write_back))
    }

    fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let t = LatencyTable::k20c();
        assert_eq!(t.stream_create, 7165);
        assert_eq!(t.get_param_buf(1), 8023 + 129);
        assert_eq!(t.get_param_buf(32), 8023 + 129 * 32);
        assert_eq!(t.launch_device(1), 7165 + 12187 + 1592);
        assert_eq!(t.kernel_dispatch, 283);
        assert_eq!(t.agg_launch, 33, "32-entry KDE search + 1-cycle AGT probe");
        assert_eq!(t.get_param_buf(0), 0);
    }

    #[test]
    fn ideal_zeroes_everything() {
        let t = LatencyTable::ideal();
        assert_eq!(t.get_param_buf(32), 0);
        assert_eq!(t.launch_device(32), 0);
        assert_eq!(t.kernel_dispatch, 0);
    }

    #[test]
    fn table2_geometry() {
        let c = GpuConfig::k20c();
        assert_eq!(c.num_smx, 13);
        assert_eq!(c.max_tb_per_smx, 16);
        assert_eq!(c.max_threads_per_smx, 2048);
        assert_eq!(c.regs_per_smx, 65536);
        assert_eq!(c.kde_entries, 32);
        assert_eq!(c.max_warps_per_smx(), 64);
    }

    #[test]
    fn small_config_is_consistent() {
        let c = GpuConfig::test_small();
        assert_eq!(c.num_smx, c.mem.num_smx);
        assert!(c.agt_entries.is_power_of_two());
    }

    #[test]
    fn inert_budget_and_token_identity() {
        assert!(RunBudget::none().is_inert());
        assert!(!RunBudget {
            cycle_cap: Some(10),
            ..RunBudget::none()
        }
        .is_inert());
        let t = CancelToken::new();
        let clone = t.clone();
        assert_eq!(t, clone, "clones share identity");
        assert_ne!(t, CancelToken::new());
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled(), "cancel is visible through every clone");
    }

    #[test]
    fn content_hash_is_stable_and_field_sensitive() {
        let base = GpuConfig::k20c();
        assert_eq!(base.content_hash(), base.clone().content_hash());
        let small = GpuConfig::test_small();
        assert_eq!(
            (base.content_hash(), base.budget_hash()),
            (0xccd2_ac4d_f34c_1ee0, 0x15c1_4d60_fed9_c343),
            "persisted cache entries are keyed by these values"
        );
        assert_eq!(
            (small.content_hash(), small.budget_hash()),
            (0x0666_c7f6_9daf_fa03, 0x53e4_5c32_50db_0c89),
            "persisted cache entries are keyed by these values"
        );
        assert_ne!(base.content_hash(), small.content_hash());
        assert_ne!(
            base.content_hash(),
            GpuConfig::k20c_ideal().content_hash(),
            "ideal latencies produce different stats, so a different key"
        );

        let mut coalesce_off = base.clone();
        coalesce_off.dtbl_disable_coalescing = true;
        assert_ne!(base.content_hash(), coalesce_off.content_hash());

        let mut faulty = base.clone();
        faulty.fault.hwq_capacity = Some(0);
        assert_ne!(
            base.content_hash(),
            faulty.content_hash(),
            "Some(0) must not alias None"
        );

        let mut traced = base.clone();
        traced.trace.mask = 0xffff_ffff;
        assert_ne!(base.content_hash(), traced.content_hash());
    }

    #[test]
    fn content_hash_ignores_budget_and_engine_knobs() {
        let base = GpuConfig::k20c();
        let mut budgeted = base.clone();
        budgeted.budget.cycle_cap = Some(10);
        budgeted.budget.deadline_ms = Some(1);
        budgeted.budget.cancel = Some(CancelToken::new());
        budgeted.max_cycles = 7;
        budgeted.watchdog_window = 3;
        budgeted.check_invariants = !base.check_invariants;
        budgeted.force_per_cycle = !base.force_per_cycle;
        assert_eq!(
            base.content_hash(),
            budgeted.content_hash(),
            "budget/engine knobs never change the artifact of an Ok run"
        );
    }

    #[test]
    fn budget_hash_covers_deterministic_knobs_only() {
        let base = GpuConfig::k20c();
        assert_eq!(base.budget_hash(), base.clone().budget_hash());

        // Deterministic cut-short knobs change the hash.
        let mut capped = base.clone();
        capped.budget.cycle_cap = Some(10);
        assert_ne!(base.budget_hash(), capped.budget_hash());
        let mut zero_cap = base.clone();
        zero_cap.budget.cycle_cap = Some(0);
        assert_ne!(
            base.budget_hash(),
            zero_cap.budget_hash(),
            "Some(0) must not alias None"
        );
        let mut heap = base.clone();
        heap.budget.live_heap_cap = Some(4096);
        assert_ne!(base.budget_hash(), heap.budget_hash());
        let mut limits = base.clone();
        limits.max_cycles = 7;
        assert_ne!(base.budget_hash(), limits.budget_hash());
        limits.max_cycles = base.max_cycles;
        limits.watchdog_window = 3;
        assert_ne!(base.budget_hash(), limits.budget_hash());

        // Host-dependent knobs do not.
        let mut hosty = base.clone();
        hosty.budget.deadline_ms = Some(1);
        hosty.budget.cancel = Some(CancelToken::new());
        assert_eq!(base.budget_hash(), hosty.budget_hash());
    }
}
