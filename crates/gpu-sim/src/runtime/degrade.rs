//! The graceful-degradation ladder for the launch path.
//!
//! DTBL's launch mechanisms share fixed hardware structures — the AGT's
//! overflow spill storage, the KMU's device-kernel pool, the hardware
//! work queues — and an exhausted structure used to abort the whole run
//! with a typed error. Under the default [`DegradePolicy`](crate::DegradePolicy)
//! a launch that cannot take its preferred path instead walks down a
//! ladder:
//!
//! 1. **DTBL aggregated group** — the preferred path. When its spilled
//!    descriptor finds no heap space, the launch demotes to rung 2
//!    (`degraded_to_device_kernel`, a `LaunchDegraded` trace event).
//! 2. **Plain device kernel** — when the KMU's pending pool is saturated,
//!    the launch enters a deterministic retry queue with exponential
//!    backoff *in cycles* (`launch_backoffs`, `LaunchBackoff` events);
//!    after `max_retries` failed attempts it falls to rung 3.
//! 3. **Host-serialized execution** — the child grid runs functionally on
//!    the reference interpreter against the simulator's own device
//!    memory, immediately and off the timing model
//!    (`degraded_to_host_serial`, recorded as
//!    [`DynLaunchKind::HostSerialized`]). A child that itself launches
//!    cannot be serialized; the original saturation error surfaces then —
//!    the ladder is best-effort, never wrong.
//!
//! Host launches whose hardware work queue sits at an injected cap take a
//! parallel (single-rung) path: they park in a software deferral queue
//! (`host_launches_deferred`) drained as soon as the queue has room.
//!
//! Every decision here depends only on simulated state, so the ladder is
//! bit-identical across the per-cycle and event-driven engines.

use crate::dispatch::PendingKernel;
use crate::error::SimError;
use crate::gpu::Gpu;
use crate::stats::{DynLaunchKind, LaunchRecord};
use gpu_isa::interp::{self, WordMem};
use gpu_mem::BackingStore;
use gpu_trace::{Category, EventKind, LaunchPath};
use std::cmp::{Ordering, Reverse};
use std::sync::Arc;

/// One launch waiting out its backoff in the ladder's retry queue.
#[derive(Clone, Debug)]
pub(crate) struct LaunchRetry {
    /// Cycle the retry matures.
    pub ready_at: u64,
    /// Tie-breaker: retries maturing on the same cycle re-attempt in the
    /// order they were deferred.
    pub seq: u64,
    /// The deferred request, verbatim.
    pub req: gpu_isa::LaunchRequest,
    /// Launch mechanism the request was classified as when first deferred.
    pub kind: DynLaunchKind,
    /// 1-based attempt number this entry represents.
    pub attempt: u32,
}

// Heap order is (ready_at, seq) only — the request payload never
// participates, so the queue pops in deterministic defer order.
impl Ord for LaunchRetry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.ready_at, self.seq).cmp(&(other.ready_at, other.seq))
    }
}

impl PartialOrd for LaunchRetry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for LaunchRetry {
    fn eq(&self, other: &Self) -> bool {
        (self.ready_at, self.seq) == (other.ready_at, other.seq)
    }
}

impl Eq for LaunchRetry {}

/// The simulator's functional device memory viewed through the reference
/// interpreter's word-memory trait (rung 3 executes child grids directly
/// against it).
struct SimWordMem<'a>(&'a mut BackingStore);

impl WordMem for SimWordMem<'_> {
    fn read_u32(&self, addr: u32) -> u32 {
        self.0.read_u32(addr)
    }

    fn write_u32(&mut self, addr: u32, v: u32) {
        self.0.write_u32(addr, v)
    }
}

impl Gpu {
    /// Maps a launch mechanism to its trace-path code.
    fn path_of(kind: DynLaunchKind) -> LaunchPath {
        match kind {
            DynLaunchKind::DeviceKernel => LaunchPath::DeviceKernel,
            DynLaunchKind::AggGroup => LaunchPath::AggGroup,
            DynLaunchKind::AggFallback => LaunchPath::AggFallback,
            DynLaunchKind::HostSerialized => LaunchPath::HostSerial,
        }
    }

    /// Parks a KMU-saturated launch for retry `attempt` (1-based) after
    /// its deterministic backoff, or — once the policy's retries are
    /// exhausted — drops it to the host-serialized rung.
    ///
    /// # Errors
    ///
    /// Only from the final rung: a child that cannot be serialized
    /// surfaces the original [`SimError::KmuSaturated`].
    pub(crate) fn defer_launch(
        &mut self,
        req: gpu_isa::LaunchRequest,
        kind: DynLaunchKind,
        now: u64,
        attempt: u32,
    ) -> Result<(), SimError> {
        let policy = self.cfg.degrade;
        if attempt > policy.max_retries {
            return self.host_serialize_launch(req, kind, now, attempt.saturating_sub(1));
        }
        let ready_at = now + policy.backoff_cycles(attempt);
        self.stats.launch_backoffs += 1;
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                now,
                EventKind::LaunchBackoff {
                    kernel: u32::from(req.kernel.0),
                    attempt,
                    retry_at: ready_at,
                },
            );
        }
        self.retry_seq += 1;
        self.retry_q.push(Reverse(LaunchRetry {
            ready_at,
            seq: self.retry_seq,
            req,
            kind,
            attempt,
        }));
        Ok(())
    }

    /// The ladder's last rung: runs the child grid functionally on the
    /// reference interpreter against the simulator's device memory. The
    /// grid's memory effects land immediately (host-serialized execution
    /// is off the timing model by definition); the launch is recorded as
    /// [`DynLaunchKind::HostSerialized`] with a zero waiting time.
    ///
    /// # Errors
    ///
    /// [`SimError::KmuSaturated`] when the child cannot be serialized
    /// (it contains device-side launches, or trips the interpreter) —
    /// the error the ladder was absorbing surfaces after all.
    fn host_serialize_launch(
        &mut self,
        req: gpu_isa::LaunchRequest,
        from_kind: DynLaunchKind,
        now: u64,
        attempts: u32,
    ) -> Result<(), SimError> {
        let pending = self.kmu.pending_device_kernels();
        let Some(kernel_fn) = self.program.get(req.kernel) else {
            return Err(SimError::UnknownKernel(req.kernel));
        };
        let kernel_fn = Arc::clone(kernel_fn);
        {
            let mut mem = SimWordMem(&mut self.mem);
            if interp::run_kernel(&kernel_fn, req.ntb, req.param_addr, &mut mem).is_err() {
                return Err(SimError::KmuSaturated { pending });
            }
        }
        self.stats.degraded_to_host_serial += 1;
        let record = self.stats.launches.len();
        self.stats.launches.push(LaunchRecord {
            kind: DynLaunchKind::HostSerialized,
            launched_at: now,
            first_tb_at: Some(now),
            ntb: req.ntb,
            threads_per_tb: kernel_fn.threads_per_block(),
            reserved_bytes: 0,
        });
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                now,
                EventKind::LaunchDegraded {
                    kernel: u32::from(req.kernel.0),
                    from_path: Self::path_of(from_kind).code(),
                    to_path: LaunchPath::HostSerial.code(),
                    attempts,
                },
            );
            self.tracer.emit(
                now,
                EventKind::DynLaunch {
                    record: record as u32,
                    path: LaunchPath::HostSerial.code(),
                    kernel: u32::from(req.kernel.0),
                    ntb: req.ntb,
                },
            );
        }
        // The grid has run: its parameter buffer no longer pins heap
        // accounting, and the pending-bytes share `GetParamBuf` charged
        // is released exactly as a first-TB start would have.
        if let Some(bytes) = self.param_bytes.remove(&req.param_addr) {
            self.alloc.free_accounting(bytes);
            self.stats.remove_pending(u64::from(bytes));
        }
        self.progress_marker += 1;
        Ok(())
    }

    /// Drains the ladder's queues at the top of a step: matured retries
    /// re-attempt their KMU enqueue in (ready_at, seq) order, and parked
    /// host launches re-enter their hardware work queue as capacity
    /// frees. Returns whether any state changed (the step is not quiet).
    ///
    /// # Errors
    ///
    /// Whatever the re-attempted enqueue or the final serialization rung
    /// reports.
    pub(crate) fn process_deferred(&mut self, now: u64) -> Result<bool, SimError> {
        let mut changed = false;
        while let Some(Reverse(head)) = self.retry_q.peek() {
            if head.ready_at > now {
                break;
            }
            let Some(Reverse(entry)) = self.retry_q.pop() else {
                break;
            };
            changed = true;
            let Some(kernel_fn) = self.program.get(entry.req.kernel) else {
                return Err(SimError::UnknownKernel(entry.req.kernel));
            };
            let threads_per_tb = kernel_fn.threads_per_block();
            let param_sz = u64::from(
                self.param_bytes
                    .get(&entry.req.param_addr)
                    .copied()
                    .unwrap_or(0),
            );
            self.enqueue_device_kernel_attempt(
                entry.req,
                threads_per_tb,
                param_sz,
                entry.kind,
                now,
                now,
                entry.attempt,
            )?;
        }
        // One full rotation of the deferral queue: admissible launches
        // enter their queue, blocked ones keep their relative order.
        for _ in 0..self.host_deferred.len() {
            let Some((stream, pk)) = self.host_deferred.pop_front() else {
                break;
            };
            if self.hwq_overloaded(stream).is_some() {
                self.host_deferred.push_back((stream, pk));
            } else {
                changed = true;
                self.kmu.push_host(stream, pk);
                self.progress_marker += 1;
            }
        }
        Ok(changed)
    }

    /// Depth of `stream`'s hardware work queue when it sits at an injected
    /// capacity limit, `None` when the launch may enqueue.
    pub(crate) fn hwq_overloaded(&self, stream: u32) -> Option<usize> {
        let cap = self.cfg.fault.hwq_capacity?;
        if !self.cfg.fault.active_at(self.cycle) {
            return None;
        }
        let depth = self.kmu.hwq_depth(stream);
        (depth >= cap).then_some(depth)
    }

    /// Parks a host launch whose hardware work queue is at capacity in
    /// the software deferral queue; [`process_deferred`](Self::process_deferred)
    /// re-admits it once the queue drains.
    pub(crate) fn park_host_launch(&mut self, stream: u32, pk: PendingKernel) {
        self.stats.host_launches_deferred += 1;
        self.host_deferred.push_back((stream, pk));
    }

    /// Counts (and traces) an aggregated launch the ladder demoted from
    /// the DTBL rung to a plain device kernel.
    pub(crate) fn note_agg_degraded(&mut self, kernel: gpu_isa::KernelId, now: u64) {
        self.stats.degraded_to_device_kernel += 1;
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                now,
                EventKind::LaunchDegraded {
                    kernel: u32::from(kernel.0),
                    from_path: LaunchPath::AggGroup.code(),
                    to_path: LaunchPath::AggFallback.code(),
                    attempts: 0,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dispatch::{Origin, PendingKernel};
    use crate::{Gpu, GpuConfig};
    use gpu_isa::{Dim3, KernelBuilder, Program};
    use std::sync::Arc;

    /// A Gpu whose hardware work queues sit at an injected capacity cap,
    /// plus three parked host launches tagged 1, 2, 3 via `param_addr`.
    fn gpu_with_parked_launches(hwq_capacity: Option<usize>) -> Gpu {
        let mut prog = Program::new();
        let mut b = KernelBuilder::new("noop", Dim3::x(32), 1);
        let _ = b.imm(0);
        let k = prog.add(b.build().expect("valid kernel"));
        let mut cfg = GpuConfig::test_small();
        cfg.fault.hwq_capacity = hwq_capacity;
        let mut gpu = Gpu::new(cfg, prog);
        for tag in 1..=3u32 {
            let kernel_fn = Arc::clone(gpu.program.kernel(k));
            gpu.park_host_launch(
                0,
                PendingKernel {
                    kernel: k,
                    kernel_fn,
                    ntb: 1,
                    param_addr: tag,
                    origin: Origin::Host { hwq: 0 },
                },
            );
        }
        gpu
    }

    fn parked_tags(gpu: &Gpu) -> Vec<u32> {
        gpu.host_deferred
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
        let mut gpu = gpu_with_parked_launches(Some(0));
        assert_eq!(parked_tags(&gpu), vec![1, 2, 3]);
        let changed = gpu.process_deferred(0).expect("no error");
        assert!(!changed, "nothing admitted, nothing changed");
        assert_eq!(
            parked_tags(&gpu),
            vec![1, 2, 3],
            "a fully-blocked rotation preserves FIFO re-attempt order"
        );
        assert_eq!(gpu.stats.host_launches_deferred, 3);
        // Repeat passes stay bounded and stable — no starvation rotation.
        for _ in 0..5 {
            assert!(!gpu.process_deferred(0).expect("no error"));
        }
        assert_eq!(parked_tags(&gpu), vec![1, 2, 3]);
    }

    #[test]
    fn partial_capacity_admits_the_head_first() {
        // Capacity 1 with an empty queue: exactly the oldest entry (tag 1)
        // is admitted this cycle; the blocked tail keeps its order.
        let mut gpu = gpu_with_parked_launches(Some(1));
        let changed = gpu.process_deferred(0).expect("no error");
        assert!(changed);
        assert_eq!(gpu.kmu.hwq_depth(0), 1, "head entered its work queue");
        assert_eq!(parked_tags(&gpu), vec![2, 3], "FIFO: oldest admitted first");
    }

    #[test]
    fn lifted_cap_drains_everything_in_order() {
        let mut gpu = gpu_with_parked_launches(Some(0));
        assert!(!gpu.process_deferred(0).expect("no error"));
        // The injected fault clears (cap removed): one pass drains all
        // three in FIFO order.
        gpu.cfg.fault.hwq_capacity = None;
        let changed = gpu.process_deferred(1).expect("no error");
        assert!(changed);
        assert_eq!(parked_tags(&gpu), Vec::<u32>::new());
        assert_eq!(gpu.kmu.hwq_depth(0), 3);
    }
}
