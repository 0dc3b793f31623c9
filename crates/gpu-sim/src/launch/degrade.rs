//! The graceful-degradation ladder for the launch path: the simulator's
//! one behaviour when a launch-path structure is exhausted.
//!
//! DTBL's launch is best-effort (§4.3): an aggregated group with no
//! eligible kernel becomes a device kernel, and one with no free AGT entry
//! spills its descriptor to global memory. The launch mechanisms share
//! fixed hardware structures — the AGT's overflow spill storage, the
//! KMU's device-kernel pool, the hardware work queues — so a launch that
//! cannot take its preferred path walks down a ladder instead of failing
//! the run:
//!
//! 1. **DTBL aggregated group** — the preferred path. When its spilled
//!    descriptor finds no storage (no heap space, or an injected spill
//!    cap), the launch demotes to rung 2 (`degraded_to_device_kernel`, a
//!    `LaunchDegraded` trace event).
//! 2. **Plain device kernel** — when the KMU's pending pool is saturated,
//!    the launch enters a deterministic retry queue with exponential
//!    backoff *in cycles* ([`backoff_cycles`]: `launch_backoffs`,
//!    `LaunchBackoff` events); after [`MAX_RETRIES`] failed attempts it
//!    falls to rung 3.
//! 3. **Host-serialized execution** — the child grid runs functionally on
//!    the reference interpreter against the simulator's own device
//!    memory and heap, immediately and off the timing model
//!    (`degraded_to_host_serial`), and so does every grid it launches, at
//!    any depth. Each grid is recorded as
//!    [`DynLaunchKind::HostSerialized`]. The rung never fails on its own
//!    account: a guest fault in a serialized grid surfaces as the typed
//!    error the timed path gives for it (see `guest_fault`).
//!
//! Host launches whose hardware work queue sits at an injected cap take a
//! parallel (single-rung) path: they park in a software deferral queue
//! (`host_launches_deferred`) drained as soon as the queue has room.
//!
//! Every decision here depends only on simulated state, so the ladder is
//! bit-identical across the per-cycle and event-driven engines.

use super::{record_launch, LaunchCtx, LaunchUnit};
use crate::config::GpuConfig;
use crate::error::{HangReport, SimError};
use crate::stats::{DynLaunchKind, LaunchRecord};
use gpu_isa::interp::{self, InterpError, WordMem};
use gpu_isa::KernelId;
use gpu_trace::{Category, EventKind, LaunchPath};

/// Retry attempts at a saturated KMU before a launch falls to the
/// host-serialized rung.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Backoff before the first retry, in cycles; each later retry doubles it.
pub(crate) const BACKOFF_BASE: u64 = 64;

/// Upper bound on a single backoff wait, in cycles.
pub(crate) const BACKOFF_CAP: u64 = 4096;

/// Deterministic backoff (in cycles) before retry `attempt` (1-based):
/// `BACKOFF_BASE << (attempt - 1)`, capped at [`BACKOFF_CAP`].
fn backoff_cycles(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(63);
    BACKOFF_BASE.saturating_mul(1u64 << shift).min(BACKOFF_CAP)
}

/// One launch waiting out its backoff in the ladder's retry queue, keyed
/// there by the cycle it matures.
#[derive(Clone, Debug)]
pub(crate) struct LaunchRetry {
    /// The deferred request, verbatim.
    req: gpu_isa::LaunchRequest,
    /// Launch mechanism the request was classified as when first deferred.
    kind: DynLaunchKind,
    /// 1-based attempt number this entry represents.
    attempt: u32,
}

/// The machine as rung 3's interpreter sees it: the simulator's device
/// memory, parameter buffers from its heap (so an injected heap cap
/// holds), and one host-serialized launch record per grid that runs.
struct HostSerial<'u, 'c, 'm> {
    unit: &'u mut LaunchUnit,
    ctx: &'c mut LaunchCtx<'m>,
    now: u64,
}

impl WordMem for HostSerial<'_, '_, '_> {
    fn read_u32(&self, addr: u32) -> u32 {
        self.ctx.mem.read_u32(addr)
    }

    fn write_u32(&mut self, addr: u32, v: u32) {
        self.ctx.mem.write_u32(addr, v)
    }

    /// Charged as the timed `GetParamBuf` charges it: heap bytes recorded
    /// against the buffer, plus pending bytes.
    fn alloc(&mut self, bytes: u32) -> Option<u32> {
        let addr = self.unit.alloc_param(bytes, self.now, self.ctx).ok()?;
        self.ctx.stats.add_pending(u64::from(bytes));
        Some(addr)
    }

    fn grid_finished(&mut self, kernel: KernelId, ntb: u32, param_addr: u32) {
        let ctx = &mut *self.ctx;
        let threads_per_tb = (ctx.program.get(kernel)).map_or(0, |k| k.threads_per_block());
        let record = LaunchRecord {
            kind: DynLaunchKind::HostSerialized,
            launched_at: self.now,
            first_tb_at: Some(self.now),
            ntb,
            threads_per_tb,
            reserved_bytes: 0,
        };
        record_launch(kernel, record, ctx);
        // The grid has run: its parameter buffer no longer pins heap
        // accounting, and the pending-bytes share `GetParamBuf` charged
        // is released exactly as a first-TB start would have.
        if let Some(bytes) = self.unit.param_bytes.remove(&param_addr) {
            ctx.alloc.free_accounting(bytes);
            ctx.stats.remove_pending(u64::from(bytes));
        }
        *ctx.progress += 1;
    }
}

impl LaunchUnit {
    /// Parks a KMU-saturated launch for retry `attempt` (1-based) after
    /// its deterministic backoff, or — once [`MAX_RETRIES`] are spent —
    /// drops it to the host-serialized rung.
    ///
    /// # Errors
    ///
    /// Only from the final rung: a guest fault in a grid it runs.
    pub(super) fn defer_launch(
        &mut self,
        req: gpu_isa::LaunchRequest,
        kind: DynLaunchKind,
        now: u64,
        attempt: u32,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        if attempt > MAX_RETRIES {
            return self.host_serialize_launch(req, kind, now, attempt.saturating_sub(1), ctx);
        }
        let ready_at = now + backoff_cycles(attempt);
        ctx.stats.launch_backoffs += 1;
        if ctx.tracer.on(Category::Launch) {
            ctx.tracer.emit(
                now,
                EventKind::LaunchBackoff {
                    kernel: req.kernel.0,
                    attempt,
                    retry_at: ready_at,
                },
            );
        }
        self.retries
            .push(ready_at, LaunchRetry { req, kind, attempt });
        Ok(())
    }

    /// The ladder's last rung: runs the child grid, and every grid it
    /// launches, functionally on the reference interpreter against the
    /// simulator's device memory. Memory effects land immediately
    /// (host-serialized execution is off the timing model by definition);
    /// each grid is recorded as [`DynLaunchKind::HostSerialized`] with a
    /// zero waiting time.
    ///
    /// # Errors
    ///
    /// A guest fault in a serialized grid, mapped by [`Self::guest_fault`].
    fn host_serialize_launch(
        &mut self,
        req: gpu_isa::LaunchRequest,
        from_kind: DynLaunchKind,
        now: u64,
        attempts: u32,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimError> {
        ctx.stats.degraded_to_host_serial += 1;
        if ctx.tracer.on(Category::Launch) {
            ctx.tracer.emit(
                now,
                EventKind::LaunchDegraded {
                    kernel: req.kernel.0,
                    from_path: from_kind.path().code(),
                    to_path: LaunchPath::HostSerial.code(),
                    attempts,
                },
            );
        }
        let program = ctx.program;
        let mut mem = HostSerial {
            unit: self,
            ctx,
            now,
        };
        interp::run_kernel(program, req.kernel, req.ntb, req.param_addr, &mut mem)
            .map_err(|e| self.guest_fault(e, now))
    }

    /// The [`SimError`] the timed path gives for a guest fault in a
    /// host-serialized grid. Such a grid has no SMX, so a shared-memory
    /// overrun names SMX 0, block slot 0. The interpreter's two liveness
    /// failures map to the watchdog's two errors, each carrying the launch
    /// path's half of a hang report stamped `now`: barrier divergence is a
    /// [`SimError::BarrierDeadlock`], and a spent step budget (a loop or a
    /// chain of launches without end) a [`SimError::Hang`].
    fn guest_fault(&self, e: InterpError, now: u64) -> SimError {
        let report = || {
            Box::new(HangReport {
                cycle: now,
                last_progress_cycle: now,
                ..self.hang_report()
            })
        };
        match e {
            InterpError::UnknownKernel(k) => SimError::UnknownKernel(k),
            InterpError::OutOfMemory { bytes } => SimError::OutOfMemory { bytes },
            InterpError::SharedOutOfBounds { addr, size } => SimError::SharedMemFault {
                smx: 0,
                tb_slot: 0,
                addr,
                size,
            },
            InterpError::BarrierDivergence => SimError::BarrierDeadlock { report: report() },
            InterpError::StepLimit => SimError::Hang { report: report() },
        }
    }

    /// Drains the ladder's queues at the top of a step: matured retries
    /// re-attempt their KMU enqueue in (ready_at, defer order), and parked
    /// host launches re-enter their hardware work queue as capacity
    /// frees. Returns whether any state changed (the step is not quiet).
    ///
    /// # Errors
    ///
    /// Whatever the re-attempted enqueue or the final serialization rung
    /// reports.
    pub(super) fn process_deferred(
        &mut self,
        now: u64,
        ctx: &mut LaunchCtx,
    ) -> Result<bool, SimError> {
        let mut changed = false;
        while let Some(entry) = self.retries.pop_due(now) {
            changed = true;
            let LaunchRetry { req, kind, attempt } = entry;
            self.enqueue_device_kernel(req, kind, now, now, attempt, ctx)?;
        }
        // One full rotation of the deferral queue: admissible launches
        // enter their queue, blocked ones keep their relative order.
        for _ in 0..self.host_deferred.len() {
            let Some((stream, pk)) = self.host_deferred.pop_front() else {
                break;
            };
            if self.hwq_overloaded(stream, now, ctx.cfg) {
                self.host_deferred.push_back((stream, pk));
            } else {
                changed = true;
                self.kmu.push_host(stream, pk);
                *ctx.progress += 1;
            }
        }
        Ok(changed)
    }

    /// True when `stream`'s hardware work queue sits at an injected
    /// capacity limit, so a host launch must wait in the deferral queue.
    pub(super) fn hwq_overloaded(&self, stream: u32, now: u64, cfg: &GpuConfig) -> bool {
        cfg.fault
            .hwq_capacity
            .is_some_and(|cap| cfg.fault.active_at(now) && self.kmu.hwq_depth(stream) >= cap)
    }
}

/// Counts (and traces) an aggregated launch the ladder demoted from the
/// DTBL rung to a plain device kernel.
pub(super) fn note_agg_degraded(kernel: gpu_isa::KernelId, now: u64, ctx: &mut LaunchCtx) {
    ctx.stats.degraded_to_device_kernel += 1;
    if ctx.tracer.on(Category::Launch) {
        ctx.tracer.emit(
            now,
            EventKind::LaunchDegraded {
                kernel: kernel.0,
                from_path: LaunchPath::AggGroup.code(),
                to_path: LaunchPath::AggFallback.code(),
                attempts: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{backoff_cycles, BACKOFF_CAP};
    use crate::launch::tests::Machine;
    use crate::launch::{HostParams, LaunchUnit};
    use crate::GpuConfig;
    use gpu_isa::{Dim3, KernelBuilder, Program};

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_cycles(1), 64);
        assert_eq!(backoff_cycles(2), 128);
        assert_eq!(backoff_cycles(3), 256);
        assert_eq!(backoff_cycles(20), BACKOFF_CAP);
        assert_eq!(backoff_cycles(u32::MAX), BACKOFF_CAP);
    }

    /// A launch unit whose hardware work queues sit at an injected
    /// capacity cap, plus three host launches tagged 1, 2, 3 via
    /// `param_addr` that a cap of 0 parked, and the machine it borrows.
    fn unit_with_parked_launches(hwq_capacity: Option<usize>) -> (LaunchUnit, Machine) {
        let mut prog = Program::new();
        let mut b = KernelBuilder::new("noop", Dim3::x(32), 1);
        let _ = b.imm(0);
        let k = prog.add(b.build().expect("valid kernel"));
        let mut cfg = GpuConfig::test_small();
        cfg.fault.hwq_capacity = Some(0);
        let mut m = Machine::new(cfg, prog);
        let mut unit = LaunchUnit::new(&m.cfg);
        for tag in 1..=3u32 {
            let params = HostParams::At(tag);
            unit.submit_host(k, 1, 0, params, 0, &mut m.ctx())
                .expect("parked");
        }
        m.cfg.fault.hwq_capacity = hwq_capacity;
        (unit, m)
    }

    fn parked_tags(unit: &LaunchUnit) -> Vec<u32> {
        unit.host_deferred
            .iter()
            .map(|(_, pk)| pk.param_addr)
            .collect()
    }

    #[test]
    fn blocked_drain_pass_is_bounded_and_keeps_fifo_order() {
        // Capacity 0 blocks every entry: the pass must terminate after
        // exactly one attempt per entry (a full rotation), report no
        // progress, and leave the deque in its original FIFO order so
        // the next cycle re-attempts the oldest launch first.
        let (mut unit, mut m) = unit_with_parked_launches(Some(0));
        assert_eq!(parked_tags(&unit), vec![1, 2, 3]);
        let changed = unit.process_deferred(0, &mut m.ctx()).expect("no error");
        assert!(!changed, "nothing admitted, nothing changed");
        assert_eq!(
            parked_tags(&unit),
            vec![1, 2, 3],
            "a fully-blocked rotation preserves FIFO re-attempt order"
        );
        assert_eq!(m.stats.host_launches_deferred, 3);
        // Repeat passes stay bounded and stable — no starvation rotation.
        for _ in 0..5 {
            assert!(!unit.process_deferred(0, &mut m.ctx()).expect("no error"));
        }
        assert_eq!(parked_tags(&unit), vec![1, 2, 3]);
    }

    #[test]
    fn partial_capacity_admits_the_head_first() {
        // Capacity 1 with an empty queue: exactly the oldest entry (tag 1)
        // is admitted this cycle; the blocked tail keeps its order.
        let (mut unit, mut m) = unit_with_parked_launches(Some(1));
        let changed = unit.process_deferred(0, &mut m.ctx()).expect("no error");
        assert!(changed);
        assert_eq!(unit.kmu.hwq_depth(0), 1, "head entered its work queue");
        assert_eq!(
            parked_tags(&unit),
            vec![2, 3],
            "FIFO: oldest admitted first"
        );
    }

    #[test]
    fn lifted_cap_drains_everything_in_order() {
        let (mut unit, mut m) = unit_with_parked_launches(Some(0));
        assert!(!unit.process_deferred(0, &mut m.ctx()).expect("no error"));
        // The injected fault clears (cap removed): one pass drains all
        // three in FIFO order.
        m.cfg.fault.hwq_capacity = None;
        let changed = unit.process_deferred(1, &mut m.ctx()).expect("no error");
        assert!(changed);
        assert_eq!(parked_tags(&unit), Vec::<u32>::new());
        assert_eq!(unit.kmu.hwq_depth(0), 3);
    }

    #[test]
    fn a_blocked_stream_does_not_hold_back_another() {
        // Tags 1-3 parked on stream 0; tag 4 parks on stream 1 too. With
        // a cap of 1 and stream 0's queue already holding a kernel, the
        // pass admits tag 4 past the three blocked ones, which keep their
        // order at the front.
        let (mut unit, mut m) = unit_with_parked_launches(Some(0));
        let k = gpu_isa::KernelId(0);
        unit.submit_host(k, 1, 1, HostParams::At(4), 0, &mut m.ctx())
            .expect("parked");
        m.cfg.fault.hwq_capacity = None;
        unit.submit_host(k, 1, 0, HostParams::At(5), 0, &mut m.ctx())
            .expect("queued");
        m.cfg.fault.hwq_capacity = Some(1);
        assert!(unit.process_deferred(0, &mut m.ctx()).expect("no error"));
        assert_eq!(parked_tags(&unit), vec![1, 2, 3]);
        assert_eq!((unit.kmu.hwq_depth(0), unit.kmu.hwq_depth(1)), (1, 1));
    }
}
