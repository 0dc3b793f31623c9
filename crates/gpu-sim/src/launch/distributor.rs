//! The Kernel Distributor: the table of active kernels (Figure 1).

use super::Origin;
use gpu_isa::{Kernel, KernelId};
use gpu_trace::{Category, EventKind, TraceBuffer};
use std::sync::Arc;

/// One Kernel Distributor entry: the paper's `PC, Dim, Param, ExeBL`
/// registers plus scheduling cursors. The DTBL extension registers
/// (`NAGEI`/`LAGEI`) live in [`dtbl_core::SchedulingPool`], indexed by the
/// same entry number.
#[derive(Clone, Debug)]
pub struct KdeEntry {
    /// Kernel function id (stands in for the entry-PC register; in this
    /// model a kernel id implies both the code and the thread-block shape,
    /// which is exactly the eligibility criterion of §4.2).
    pub kernel: KernelId,
    /// The resolved kernel function, shared with the KMU entry that
    /// installed it and every thread block dispatched from it.
    pub kernel_fn: Arc<Kernel>,
    /// Native grid size (thread blocks, x extent).
    pub grid_ntb: u32,
    /// Parameter-buffer address.
    pub param_addr: u32,
    /// Next native thread block to distribute (`NextBL`).
    pub next_native_tb: u32,
    /// Native thread blocks currently executing.
    pub native_exe: u32,
    /// Native thread blocks that finished.
    pub native_done: u32,
    /// Aggregated thread blocks currently executing for this kernel.
    pub agg_exe: u32,
    /// Where the kernel came from: the hardware work queue to unblock on
    /// completion, or the launch record of a device launch.
    pub origin: Origin,
}

impl KdeEntry {
    /// True when every native thread block has been distributed.
    pub fn native_fully_scheduled(&self) -> bool {
        self.next_native_tb >= self.grid_ntb
    }

    /// True when every native thread block has completed.
    pub fn native_all_done(&self) -> bool {
        self.native_done >= self.grid_ntb
    }
}

/// The fixed-size table of active kernels (32 entries on GK110 — the same
/// as the number of hardware work queues, §2.2).
#[derive(Clone, Debug)]
pub struct KernelDistributor {
    slots: Vec<Option<KdeEntry>>,
    /// Occupied slots, so [`is_empty`](Self::is_empty) — read by every
    /// run-loop idle check — never scans them.
    resident: usize,
    trace: TraceBuffer,
}

impl KernelDistributor {
    /// Creates an empty distributor with `entries` slots.
    pub fn new(entries: usize) -> Self {
        KernelDistributor {
            slots: vec![None; entries],
            resident: 0,
            trace: TraceBuffer::default(),
        }
    }

    /// Staging buffer for entry alloc/free events. The simulator sets the
    /// category mask and drains it once per cycle.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Index of a free slot that is not in `excluded` (slots reserved by
    /// in-flight KMU dispatches), if any.
    pub fn free_slot_excluding(&self, excluded: &[u32]) -> Option<u32> {
        if self.resident == self.slots.len() {
            return None;
        }
        self.slots
            .iter()
            .enumerate()
            .position(|(i, s)| s.is_none() && !excluded.contains(&(i as u32)))
            .map(|i| i as u32)
    }

    /// Installs a kernel into `slot`.
    ///
    /// # Errors
    ///
    /// An occupied slot rejects the install, handing the entry back so
    /// the caller can report a typed bookkeeping violation instead of
    /// panicking the simulator.
    pub fn install(&mut self, slot: u32, entry: KdeEntry) -> Result<(), KdeEntry> {
        let s = &mut self.slots[slot as usize];
        if s.is_some() {
            return Err(entry);
        }
        if self.trace.on(Category::Launch) {
            self.trace.push(EventKind::KdeAlloc {
                kde: slot,
                kernel: entry.kernel.0,
                ntb: entry.grid_ntb,
            });
        }
        *s = Some(entry);
        self.resident += 1;
        Ok(())
    }

    /// Releases `slot`, returning its entry, or `None` if the slot was
    /// already empty (a bookkeeping violation the caller reports as a
    /// typed invariant error rather than a panic).
    pub fn release(&mut self, slot: u32) -> Option<KdeEntry> {
        let entry = self.slots[slot as usize].take()?;
        self.resident -= 1;
        if self.trace.on(Category::Launch) {
            self.trace.push(EventKind::KdeFree {
                kde: slot,
                kernel: entry.kernel.0,
            });
        }
        Some(entry)
    }

    /// Shared view of a slot.
    pub fn get(&self, slot: u32) -> Option<&KdeEntry> {
        self.slots[slot as usize].as_ref()
    }

    /// Mutable view of a slot.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut KdeEntry> {
        self.slots[slot as usize].as_mut()
    }

    /// Finds an entry running `kernel` — the §4.2 eligibility search
    /// (same entry PC and thread-block configuration). The hardware
    /// pipelines this over the 32 entries; the timing cost is charged by
    /// the launch path.
    pub fn find_eligible(&self, kernel: KernelId) -> Option<u32> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|e| e.kernel == kernel))
            .map(|i| i as u32)
    }

    /// True when no kernel is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Occupied slot indices.
    pub fn occupied(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: u16) -> KdeEntry {
        let mut b = gpu_isa::KernelBuilder::new("kd_test", gpu_isa::Dim3::x(32), 0);
        let _ = b.imm(0);
        KdeEntry {
            kernel: KernelId(k),
            kernel_fn: Arc::new(b.build().unwrap()),
            grid_ntb: 4,
            param_addr: 0,
            next_native_tb: 0,
            native_exe: 0,
            native_done: 0,
            agg_exe: 0,
            origin: Origin::Host { hwq: 0 },
        }
    }

    #[test]
    fn install_release_cycle() {
        let mut kd = KernelDistributor::new(4);
        assert!(kd.is_empty());
        let s = kd.free_slot_excluding(&[]).unwrap();
        kd.install(s, entry(1)).unwrap();
        assert!(!kd.is_empty());
        assert_eq!(kd.get(s).unwrap().kernel, KernelId(1));
        assert!(kd.release(s).is_some());
        assert!(kd.is_empty());
        assert!(kd.release(s).is_none(), "double release reports None");
        assert!(kd.is_empty(), "a refused release leaves the count alone");
    }

    #[test]
    fn fills_all_slots_then_none_free() {
        let mut kd = KernelDistributor::new(3);
        for i in 0..3 {
            let s = kd.free_slot_excluding(&[]).unwrap();
            kd.install(s, entry(i)).unwrap();
        }
        assert_eq!(kd.free_slot_excluding(&[]), None);
        assert_eq!(kd.occupied().count(), 3);
    }

    #[test]
    fn eligibility_matches_kernel_id() {
        let mut kd = KernelDistributor::new(4);
        kd.install(0, entry(7)).unwrap();
        kd.install(1, entry(9)).unwrap();
        assert_eq!(kd.find_eligible(KernelId(9)), Some(1));
        assert_eq!(kd.find_eligible(KernelId(3)), None);
    }

    #[test]
    fn native_scheduling_predicates() {
        let mut e = entry(0);
        assert!(!e.native_fully_scheduled());
        e.next_native_tb = 4;
        assert!(e.native_fully_scheduled());
        e.native_done = 4;
        assert!(e.native_all_done());
    }

    #[test]
    fn double_install_rejected_not_panicking() {
        let mut kd = KernelDistributor::new(2);
        kd.install(0, entry(0)).unwrap();
        let rejected = kd.install(0, entry(1)).unwrap_err();
        assert_eq!(rejected.kernel, KernelId(1), "the entry comes back");
        assert_eq!(
            kd.get(0).unwrap().kernel,
            KernelId(0),
            "the occupant is untouched"
        );
    }
}
