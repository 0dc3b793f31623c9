//! Deterministic fault injection.
//!
//! A [`FaultPlan`] lives on [`GpuConfig`](crate::GpuConfig) and perturbs
//! the machine at precisely chosen points: it forces AGT hash-probe
//! misses, caps the device heap, saturates the hardware work queues or
//! the KMU's device-kernel pool, and delays memory completions. Because
//! the simulator is deterministic, a plan reproduces the exact same fault
//! sequence on every run — the integration suite uses this to assert that
//! each benchmark either degrades gracefully (spill, fallback) or fails
//! with a clean typed [`SimError`](crate::SimError), never a panic.

/// A deterministic fault-injection plan. `FaultPlan::default()` injects
/// nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults activate only once the simulation reaches this cycle
    /// (0 = from the start). Lets a plan hit steady state rather than the
    /// launch ramp.
    pub after_cycle: u64,
    /// Treat every AGT hash probe as a conflict, forcing each aggregated
    /// group's descriptor through the overflow-spill path.
    pub force_agt_overflow: bool,
    /// Cap on simultaneously live spilled descriptors; further spills
    /// find no overflow storage and the launch falls back to a device
    /// kernel (graceful degradation).
    pub agt_overflow_capacity: Option<usize>,
    /// Cap on live device-heap bytes; allocations that would exceed it
    /// fail as if the heap were exhausted.
    pub heap_limit_bytes: Option<u64>,
    /// Cap on kernels queued per hardware work queue; host launches
    /// beyond it wait in a software deferral queue until it drains.
    pub hwq_capacity: Option<usize>,
    /// Cap on pending device-launched kernels in the KMU; device launches
    /// beyond it retry with backoff, then run host-serialized.
    pub kmu_device_capacity: Option<usize>,
    /// Extra cycles added to every memory completion's wake-up, modelling
    /// a degraded memory path.
    pub mem_delay: u64,
}

impl FaultPlan {
    /// True when the plan is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        cycle >= self.after_cycle
    }

    /// True when the plan can never inject anything.
    pub fn is_nop(&self) -> bool {
        !self.force_agt_overflow
            && self.agt_overflow_capacity.is_none()
            && self.heap_limit_bytes.is_none()
            && self.hwq_capacity.is_none()
            && self.kmu_device_capacity.is_none()
            && self.mem_delay == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let p = FaultPlan::default();
        assert!(p.is_nop());
        assert!(p.active_at(0), "an inert plan being active is harmless");
    }

    #[test]
    fn activation_cycle_gates_the_plan() {
        let p = FaultPlan {
            after_cycle: 100,
            mem_delay: 5,
            ..FaultPlan::default()
        };
        assert!(!p.is_nop());
        assert!(!p.active_at(99));
        assert!(p.active_at(100));
    }
}
