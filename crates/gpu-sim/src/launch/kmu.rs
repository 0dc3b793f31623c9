//! The Kernel Management Unit: hardware work queues for host streams plus
//! the device-launched kernel pool (§2.2, §2.4).

use super::TimedQueue;
use gpu_isa::{Kernel, KernelId};
use gpu_trace::{Category, EventKind, TraceBuffer};
use std::collections::VecDeque;
use std::sync::Arc;

/// Where a pending kernel came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Host launch through a CUDA stream mapped to a hardware work queue.
    Host {
        /// The hardware work queue index.
        hwq: usize,
    },
    /// Device-side launch (CDP `cudaLaunchDevice` or a DTBL fallback);
    /// carries the index of its launch record for waiting-time accounting.
    Device {
        /// Index into [`Stats::launches`](crate::Stats::launches).
        record: usize,
    },
}

impl Origin {
    /// The launch record of a device launch; `None` for a host launch.
    pub fn record(self) -> Option<usize> {
        match self {
            Origin::Host { .. } => None,
            Origin::Device { record } => Some(record),
        }
    }
}

/// A kernel waiting in the KMU.
///
/// Carries the resolved kernel handle so the rest of the dispatch path
/// (distributor entry, SMX thread-block placement) never touches the
/// program table again: launch resolves the id once, and everything
/// downstream shares the same `Arc` (a refcount bump per hop, never a
/// deep copy of the kernel).
#[derive(Clone, Debug)]
pub struct PendingKernel {
    /// Kernel function id (for eligibility matching and diagnostics).
    pub kernel: KernelId,
    /// The resolved kernel function.
    pub kernel_fn: Arc<Kernel>,
    /// Grid size (thread blocks, x extent).
    pub ntb: u32,
    /// Parameter-buffer address.
    pub param_addr: u32,
    /// Provenance.
    pub origin: Origin,
}

/// Where [`Kmu::tick`] takes its next dispatch from.
#[derive(Clone, Copy)]
enum Source {
    /// The head of the device-kernel queue.
    Device,
    /// The head of this hardware work queue.
    Host(usize),
}

/// The KMU: inspects the head of each unblocked hardware work queue and
/// the device-kernel pool, dispatching to the Kernel Distributor with the
/// measured 283-cycle dispatch latency. Once a queue's head kernel is
/// dispatched, the queue "stops being inspected by the KMU until the head
/// kernel completes" (§2.2), which serializes same-stream kernels.
#[derive(Clone, Debug)]
pub struct Kmu {
    hwqs: Vec<VecDeque<PendingKernel>>,
    /// Kernels queued across all of `hwqs`. Zero for most of a run (the
    /// host kernels dispatch early), which lets [`tick`](Self::tick),
    /// [`next_event_at`](Self::next_event_at) and
    /// [`is_empty`](Self::is_empty) skip walking the queues.
    host_queued: usize,
    blocked: Vec<bool>,
    device_q: VecDeque<PendingKernel>,
    /// Device launches not yet visible, keyed by the cycle they mature.
    arrivals: TimedQueue<PendingKernel>,
    /// Kernels mid-dispatch: the dispatch path is pipelined (one new
    /// dispatch may start per cycle) with the measured 283-cycle latency;
    /// each entry is `(ready_at, reserved_slot, kernel)`.
    in_dispatch: VecDeque<(u64, u32, PendingKernel)>,
    /// Scratch for the slots `in_dispatch` has reserved, handed to the
    /// `free_slot` probe; reused so a retried dispatch never allocates.
    reserved: Vec<u32>,
    rr_hwq: usize,
    trace: TraceBuffer,
}

impl Kmu {
    /// Creates a KMU with `num_hwqs` hardware work queues.
    pub fn new(num_hwqs: usize) -> Self {
        Kmu {
            hwqs: (0..num_hwqs).map(|_| VecDeque::new()).collect(),
            host_queued: 0,
            blocked: vec![false; num_hwqs],
            device_q: VecDeque::new(),
            arrivals: TimedQueue::new(),
            in_dispatch: VecDeque::new(),
            reserved: Vec::new(),
            rr_hwq: 0,
            trace: TraceBuffer::default(),
        }
    }

    /// Staging buffer for enqueue/dispatch events. The simulator sets the
    /// category mask and drains it once per cycle.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Maps a software stream to its hardware work queue. Streams beyond
    /// the queue count share queues and thus serialize, as with Hyper-Q.
    pub fn hwq_of_stream(&self, stream: u32) -> usize {
        stream as usize % self.hwqs.len()
    }

    /// Enqueues a host-launched kernel on `stream`.
    pub fn push_host(&mut self, stream: u32, mut pk: PendingKernel) {
        let hwq = self.hwq_of_stream(stream);
        pk.origin = Origin::Host { hwq };
        if self.trace.on(Category::Launch) {
            self.trace.push(EventKind::HwqEnqueue {
                hwq: hwq as u32,
                kernel: pk.kernel.0,
            });
        }
        self.hwqs[hwq].push_back(pk);
        self.host_queued += 1;
    }

    /// Enqueues a device-launched kernel, visible to dispatch at cycle
    /// `at` (after its launch-API latency has elapsed).
    pub fn push_device(&mut self, at: u64, pk: PendingKernel) {
        self.arrivals.push(at, pk);
    }

    /// Called when a host-launched kernel completes so its work queue
    /// resumes being inspected.
    pub fn unblock_hwq(&mut self, hwq: usize) {
        self.blocked[hwq] = false;
    }

    /// One KMU cycle: matures device arrivals and, when the distributor
    /// has a slot, starts dispatching the next kernel. The dispatch path
    /// is *pipelined*: one dispatch may start per cycle, each taking
    /// `dispatch_latency` cycles to land in its (pre-reserved) slot.
    ///
    /// `free_slot` must return a free Kernel Distributor slot that is not
    /// in the provided exclusion list (slots already reserved by
    /// in-flight dispatches). Returns a `(slot, entry)` pair when a
    /// dispatch *completes* this cycle; the caller installs it and marks
    /// the FCFS controller.
    pub fn tick(
        &mut self,
        now: u64,
        dispatch_latency: u64,
        free_slot: impl Fn(&[u32]) -> Option<u32>,
    ) -> Option<(u32, PendingKernel)> {
        while let Some(pk) = self.arrivals.pop_due(now) {
            self.device_q.push_back(pk);
        }

        // Start a new dispatch: device kernels first (they are already
        // late), then host work queues round-robin. The candidate is
        // found, a slot asked for, and only then is it popped: a kernel
        // waiting for a free slot stays where it is.
        let source = if !self.device_q.is_empty() {
            Some(Source::Device)
        } else if self.host_queued == 0 {
            // Nothing to find, and a fruitless walk leaves `rr_hwq` where
            // it was: skipping it is exact.
            None
        } else {
            let n = self.hwqs.len();
            let q = (0..n)
                .map(|k| (self.rr_hwq + k) % n)
                .find(|&q| !self.blocked[q] && !self.hwqs[q].is_empty());
            if let Some(q) = q {
                // The queue's head is inspected whether or not a slot is
                // free: the round-robin pointer moves past it either way.
                self.rr_hwq = (q + 1) % n;
            }
            q.map(Source::Host)
        };
        if let Some(source) = source {
            self.reserved.clear();
            self.reserved
                .extend(self.in_dispatch.iter().map(|(_, s, _)| *s));
            if let Some(slot) = free_slot(&self.reserved) {
                let pk = match source {
                    Source::Device => self.device_q.pop_front(),
                    Source::Host(q) => {
                        self.host_queued -= 1;
                        self.blocked[q] = true;
                        self.hwqs[q].pop_front()
                    }
                };
                if let Some(pk) = pk {
                    self.in_dispatch
                        .push_back((now + dispatch_latency, slot, pk));
                }
            }
        }

        // Complete the oldest in-flight dispatch (starts are 1/cycle, so
        // at most one matures per cycle).
        if self
            .in_dispatch
            .front()
            .is_some_and(|(ready, _, _)| *ready <= now)
        {
            let (_, slot, pk) = self.in_dispatch.pop_front()?;
            if self.trace.on(Category::Launch) {
                self.trace.push(EventKind::KmuDispatch {
                    kde: slot,
                    kernel: pk.kernel.0,
                });
            }
            return Some((slot, pk));
        }
        None
    }

    /// Earliest future cycle at which a [`tick`](Self::tick) can observe or
    /// mutate state: a device arrival maturing, the oldest in-flight
    /// dispatch landing, or — whenever startable work is queued — the very
    /// next cycle (a per-cycle tick probes the distributor and rotates
    /// `rr_hwq` even when no slot is free, so skipping over such
    /// cycles would diverge from per-cycle stepping). `None` when no KMU
    /// activity can happen before external state changes (a blocked queue
    /// unblocks only at a kernel retirement, which is never skipped).
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(at) = self.arrivals.next_at() {
            fold(at.max(now + 1));
        }
        if let Some((ready, _, _)) = self.in_dispatch.front() {
            fold((*ready).max(now + 1));
        }
        let startable = !self.device_q.is_empty()
            || (self.host_queued > 0
                && self
                    .hwqs
                    .iter()
                    .zip(&self.blocked)
                    .any(|(q, b)| !b && !q.is_empty()));
        if startable {
            fold(now + 1);
        }
        next
    }

    /// True when nothing is queued, arriving, or mid-dispatch.
    pub fn is_empty(&self) -> bool {
        self.in_dispatch.is_empty()
            && self.device_q.is_empty()
            && self.arrivals.is_empty()
            && self.host_queued == 0
    }

    /// Host kernels queued across all hardware work queues (the cached
    /// count [`hwq_total`](Self::hwq_total) walks for).
    pub fn host_queued(&self) -> usize {
        self.host_queued
    }

    /// Pending device-launched kernels (matured + yet to mature).
    pub fn pending_device_kernels(&self) -> usize {
        self.device_q.len() + self.arrivals.len()
    }

    /// Kernels queued in the hardware work queue serving `stream`
    /// (excluding the head once it has been dispatched).
    pub fn hwq_depth(&self, stream: u32) -> usize {
        self.hwqs[self.hwq_of_stream(stream)].len()
    }

    /// Kernels in all hardware work queues, counted by walking them, with
    /// no allocation: the reference `host_queued` is checked against.
    pub fn hwq_total(&self) -> usize {
        self.hwqs.iter().map(VecDeque::len).sum()
    }

    /// Queue depth of every hardware work queue, in index order — part of
    /// the diagnostics attached to a hang report.
    pub fn hwq_depths(&self) -> Vec<usize> {
        self.hwqs.iter().map(VecDeque::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(k: u16) -> PendingKernel {
        let mut b = gpu_isa::KernelBuilder::new("kmu_test", gpu_isa::Dim3::x(32), 0);
        let _ = b.imm(0);
        PendingKernel {
            kernel: KernelId(k),
            kernel_fn: Arc::new(b.build().unwrap()),
            ntb: 1,
            param_addr: 0,
            origin: Origin::Device { record: 0 },
        }
    }

    #[test]
    fn same_stream_serializes() {
        let mut kmu = Kmu::new(4);
        kmu.push_host(1, pk(0));
        kmu.push_host(1, pk(1));
        let d = kmu.tick(0, 0, |_| Some(0)).expect("dispatch k0");
        assert_eq!(d.1.kernel, KernelId(0));
        // Head dispatched: the queue is blocked until completion.
        assert!(kmu.tick(1, 0, |_| Some(1)).is_none());
        kmu.unblock_hwq(kmu.hwq_of_stream(1));
        let d = kmu.tick(2, 0, |_| Some(1)).expect("dispatch k1");
        assert_eq!(d.1.kernel, KernelId(1));
    }

    #[test]
    fn different_streams_dispatch_concurrently() {
        let mut kmu = Kmu::new(4);
        kmu.push_host(0, pk(0));
        kmu.push_host(1, pk(1));
        assert!(kmu.tick(0, 0, |_| Some(0)).is_some());
        assert!(
            kmu.tick(1, 0, |_| Some(1)).is_some(),
            "no blocking across queues"
        );
    }

    #[test]
    fn stream_aliasing_beyond_queue_count() {
        let kmu = Kmu::new(4);
        assert_eq!(kmu.hwq_of_stream(0), kmu.hwq_of_stream(4));
        assert_ne!(kmu.hwq_of_stream(0), kmu.hwq_of_stream(1));
    }

    #[test]
    fn dispatch_latency_delays_installation() {
        let mut kmu = Kmu::new(1);
        kmu.push_host(0, pk(0));
        assert!(
            kmu.tick(0, 283, |_| Some(0)).is_none(),
            "dispatch in flight"
        );
        for t in 1..283 {
            assert!(kmu.tick(t, 283, |_| Some(0)).is_none());
        }
        assert!(kmu.tick(283, 283, |_| Some(0)).is_some());
    }

    #[test]
    fn device_arrivals_mature_at_their_cycle() {
        let mut kmu = Kmu::new(1);
        kmu.push_device(100, pk(5));
        assert!(kmu.tick(0, 0, |_| Some(0)).is_none());
        assert_eq!(kmu.pending_device_kernels(), 1);
        let d = kmu.tick(100, 0, |_| Some(0)).expect("matured");
        assert_eq!(d.1.kernel, KernelId(5));
        assert!(kmu.is_empty());
    }

    #[test]
    fn device_kernels_have_priority_over_host() {
        let mut kmu = Kmu::new(1);
        kmu.push_host(0, pk(1));
        kmu.push_device(0, pk(2));
        let d = kmu.tick(0, 0, |_| Some(0)).unwrap();
        assert_eq!(d.1.kernel, KernelId(2));
    }

    #[test]
    fn no_free_slot_requeues_in_order() {
        let mut kmu = Kmu::new(1);
        kmu.push_host(0, pk(1));
        kmu.push_host(0, pk(2));
        assert!(kmu.tick(0, 0, |_| None).is_none());
        // Order preserved and the queue not left blocked.
        let d = kmu.tick(1, 0, |_| Some(0)).unwrap();
        assert_eq!(d.1.kernel, KernelId(1));
    }

    #[test]
    fn next_event_horizon_tracks_arrivals_and_dispatch() {
        let mut kmu = Kmu::new(1);
        assert_eq!(kmu.next_event_at(0), None, "empty KMU has no events");
        kmu.push_device(100, pk(1));
        assert_eq!(kmu.next_event_at(0), Some(100), "arrival maturing");
        assert!(kmu.tick(100, 283, |_| Some(0)).is_none());
        assert_eq!(kmu.next_event_at(100), Some(383), "in-flight dispatch");
        // Startable queued work pins the horizon to the next cycle even
        // while a dispatch is in flight.
        kmu.push_host(0, pk(2));
        assert_eq!(kmu.next_event_at(100), Some(101));
    }

    #[test]
    fn device_arrivals_fifo_within_cycle() {
        let mut kmu = Kmu::new(1);
        kmu.push_device(5, pk(1));
        kmu.push_device(5, pk(2));
        let a = kmu.tick(5, 0, |_| Some(0)).unwrap();
        assert_eq!(a.1.kernel, KernelId(1));
        let b = kmu.tick(6, 0, |_| Some(1)).unwrap();
        assert_eq!(b.1.kernel, KernelId(2));
    }

    /// The KMU as first written: every question answered by walking all
    /// the queues, no cached count. Kernels are their ids.
    #[derive(Default)]
    struct RefKmu {
        hwqs: Vec<VecDeque<u16>>,
        blocked: Vec<bool>,
        device_q: VecDeque<u16>,
        /// `(at, seq, kernel)`.
        arrivals: Vec<(u64, u64, u16)>,
        /// `(ready_at, slot, kernel, source hwq)`.
        in_dispatch: VecDeque<(u64, u32, u16, Option<usize>)>,
        rr_hwq: usize,
    }

    impl RefKmu {
        fn tick(&mut self, now: u64, latency: u64, free: bool) -> Option<(u32, u16)> {
            self.arrivals.sort_unstable();
            while self.arrivals.first().is_some_and(|a| a.0 <= now) {
                self.device_q.push_back(self.arrivals.remove(0).2);
            }
            let n = self.hwqs.len();
            let next = match self.device_q.pop_front() {
                Some(k) => Some((k, None)),
                None => (0..n)
                    .map(|i| (self.rr_hwq + i) % n)
                    .find(|&q| !self.blocked[q] && !self.hwqs[q].is_empty())
                    .map(|q| {
                        self.blocked[q] = true;
                        self.rr_hwq = (q + 1) % n;
                        (self.hwqs[q].pop_front().unwrap(), Some(q))
                    }),
            };
            if let Some((k, from)) = next {
                if free {
                    let slot = lowest_unreserved(&self.reserved());
                    self.in_dispatch.push_back((now + latency, slot, k, from));
                } else if let Some(q) = from {
                    self.blocked[q] = false;
                    self.hwqs[q].push_front(k);
                } else {
                    self.device_q.push_front(k);
                }
            }
            if self.in_dispatch.front().is_some_and(|d| d.0 <= now) {
                return self.in_dispatch.pop_front().map(|d| (d.1, d.2));
            }
            None
        }

        fn reserved(&self) -> Vec<u32> {
            self.in_dispatch.iter().map(|d| d.1).collect()
        }

        fn next_event_at(&self, now: u64) -> Option<u64> {
            let startable = !self.device_q.is_empty()
                || (0..self.hwqs.len()).any(|q| !self.blocked[q] && !self.hwqs[q].is_empty());
            self.arrivals
                .iter()
                .map(|a| a.0.max(now + 1))
                .chain(self.in_dispatch.front().map(|d| d.0.max(now + 1)))
                .chain(startable.then_some(now + 1))
                .min()
        }

        fn is_empty(&self) -> bool {
            self.in_dispatch.is_empty()
                && self.device_q.is_empty()
                && self.arrivals.is_empty()
                && self.hwqs.iter().all(VecDeque::is_empty)
        }
    }

    fn lowest_unreserved(reserved: &[u32]) -> u32 {
        (0..).find(|s| !reserved.contains(s)).unwrap()
    }

    #[test]
    fn cached_queue_count_matches_a_queue_walking_reference() {
        use sim_rand::{Rng, SeedableRng, StdRng};
        const HWQS: usize = 4;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x4b4d_5500 + seed);
            let mut kmu = Kmu::new(HWQS);
            let mut model = RefKmu {
                hwqs: vec![VecDeque::new(); HWQS],
                blocked: vec![false; HWQS],
                ..RefKmu::default()
            };
            let mut now = 0u64;
            let mut next_kernel = 0u16;
            let mut seq = 0u64;
            for step in 0..3000 {
                let ctx = format!("seed {seed} step {step} cycle {now}");
                match rng.gen_range(0..10u32) {
                    0 => {
                        let stream = rng.gen_range(0..6u32);
                        kmu.push_host(stream, pk(next_kernel));
                        model.hwqs[stream as usize % HWQS].push_back(next_kernel);
                        next_kernel += 1;
                    }
                    1 => {
                        let at = now + rng.gen_range(0..20u64);
                        kmu.push_device(at, pk(next_kernel));
                        model.arrivals.push((at, seq, next_kernel));
                        seq += 1;
                        next_kernel += 1;
                    }
                    2 => {
                        let q = rng.gen_range(0..HWQS);
                        kmu.unblock_hwq(q);
                        model.blocked[q] = false;
                    }
                    _ => {
                        let free = rng.gen_bool(0.7);
                        let latency = rng.gen_range(0..6u64);
                        let reserved = model.reserved();
                        let got = kmu.tick(now, latency, |r| {
                            assert_eq!(r, reserved, "{ctx}: reserved slots handed to the probe");
                            free.then(|| lowest_unreserved(r))
                        });
                        let want = model.tick(now, latency, free);
                        assert_eq!(got.map(|(slot, pk)| (slot, pk.kernel.0)), want, "{ctx}");
                        now += rng.gen_range(0..3u64);
                    }
                }
                assert_eq!(kmu.next_event_at(now), model.next_event_at(now), "{ctx}");
                assert_eq!(kmu.is_empty(), model.is_empty(), "{ctx}");
                let depths: Vec<usize> = model.hwqs.iter().map(VecDeque::len).collect();
                assert_eq!(kmu.hwq_depths(), depths, "{ctx}");
                assert_eq!(kmu.host_queued(), depths.iter().sum::<usize>(), "{ctx}");
            }
        }
    }
}
