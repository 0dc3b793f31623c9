//! The FCFS controller with DTBL's extra first-dispatch bit.
//!
//! The baseline FCFS controller marks every Kernel Distributor entry with a
//! single bit when the kernel is queued for scheduling and unmarks it once
//! all its thread blocks have been distributed. DTBL extends it with one
//! more bit per entry indicating whether this is the *first* time the
//! kernel is marked: on a first dispatch the SMX scheduler distributes the
//! native thread blocks before the aggregated groups; on a re-mark (a
//! group arrived after the kernel had gone quiet) it starts directly from
//! `NAGEI` (§4.2).

use std::collections::VecDeque;

use gpu_trace::{Category, EventKind, TraceBuffer};

/// FCFS controller over the Kernel Distributor entries.
///
/// # Example
///
/// ```
/// use dtbl_core::FcfsController;
///
/// let mut fcfs = FcfsController::new(32);
/// fcfs.mark_new(3);
/// fcfs.mark_new(1);
/// assert_eq!(fcfs.marked_in_order().collect::<Vec<_>>(), vec![3, 1]);
/// assert!(fcfs.is_first_dispatch(3));
/// fcfs.unmark(3);
/// fcfs.remark(3); // new aggregated group arrived for a quiet kernel
/// assert!(!fcfs.is_first_dispatch(3));
/// assert_eq!(fcfs.marked_in_order().collect::<Vec<_>>(), vec![1, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct FcfsController {
    order: VecDeque<u32>,
    marked: Vec<bool>,
    first: Vec<bool>,
    trace: TraceBuffer,
}

impl FcfsController {
    /// Creates a controller for `entries` Kernel Distributor entries.
    pub fn new(entries: usize) -> Self {
        FcfsController {
            order: VecDeque::new(),
            marked: vec![false; entries],
            first: vec![false; entries],
            trace: TraceBuffer::default(),
        }
    }

    /// Staging buffer for mark/unmark events. The simulator sets the
    /// category mask and drains it once per cycle.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Marks a freshly dispatched kernel (first dispatch: native thread
    /// blocks still need distributing).
    ///
    /// # Panics
    ///
    /// Panics if the entry is already marked — the Kernel Distributor must
    /// not dispatch into an occupied entry.
    pub fn mark_new(&mut self, kde: u32) {
        assert!(!self.marked[kde as usize], "KDE entry {kde} double-marked");
        self.marked[kde as usize] = true;
        self.first[kde as usize] = true;
        self.order.push_back(kde);
        if self.trace.on(Category::Fcfs) {
            self.trace.push(EventKind::FcfsMark { kde, first: 1 });
        }
    }

    /// Re-marks a kernel that had finished scheduling but received a new
    /// aggregated group (§4.2 scenario 1). It re-enters the FCFS queue at
    /// the back with the first-dispatch bit clear.
    pub fn remark(&mut self, kde: u32) {
        if self.marked[kde as usize] {
            return;
        }
        self.marked[kde as usize] = true;
        self.first[kde as usize] = false;
        self.order.push_back(kde);
        if self.trace.on(Category::Fcfs) {
            self.trace.push(EventKind::FcfsMark { kde, first: 0 });
        }
    }

    /// Unmarks a kernel whose thread blocks (native and all currently
    /// linked aggregated groups) have all been distributed.
    pub fn unmark(&mut self, kde: u32) {
        if !self.marked[kde as usize] {
            return;
        }
        self.marked[kde as usize] = false;
        self.order.retain(|&k| k != kde);
        if self.trace.on(Category::Fcfs) {
            self.trace.push(EventKind::FcfsUnmark { kde });
        }
    }

    /// True while the kernel is queued for scheduling.
    pub fn is_marked(&self, kde: u32) -> bool {
        self.marked[kde as usize]
    }

    /// True when the kernel has never been scheduled before (native TBs
    /// pending).
    pub fn is_first_dispatch(&self, kde: u32) -> bool {
        self.first[kde as usize]
    }

    /// Clears the first-dispatch bit once the native thread blocks have
    /// been distributed.
    pub fn clear_first_dispatch(&mut self, kde: u32) {
        self.first[kde as usize] = false;
    }

    /// Marked kernels in FCFS order. The SMX scheduler walks this to fill
    /// spare SMX resources with thread blocks of later kernels (§2.3
    /// concurrent kernel execution).
    pub fn marked_in_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied()
    }

    /// The marked kernel at position `i` of the FCFS order (0 is oldest).
    pub fn marked_at(&self, i: usize) -> Option<u32> {
        self.order.get(i).copied()
    }

    /// Number of marked kernels.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no kernel is marked.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_order_preserved() {
        let mut f = FcfsController::new(8);
        f.mark_new(5);
        f.mark_new(2);
        f.mark_new(7);
        assert_eq!(f.marked_at(0), Some(5));
        f.unmark(2);
        assert_eq!(f.marked_in_order().collect::<Vec<_>>(), vec![5, 7]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn remark_goes_to_back_without_first_bit() {
        let mut f = FcfsController::new(8);
        f.mark_new(0);
        f.mark_new(1);
        f.unmark(0);
        f.remark(0);
        assert_eq!(f.marked_in_order().collect::<Vec<_>>(), vec![1, 0]);
        assert!(!f.is_first_dispatch(0));
        assert!(f.is_first_dispatch(1));
    }

    #[test]
    fn remark_while_marked_is_noop() {
        let mut f = FcfsController::new(8);
        f.mark_new(3);
        f.remark(3);
        assert_eq!(f.len(), 1);
        assert!(
            f.is_first_dispatch(3),
            "remark must not clobber the first bit"
        );
    }

    #[test]
    #[should_panic(expected = "double-marked")]
    fn double_mark_new_panics() {
        let mut f = FcfsController::new(8);
        f.mark_new(3);
        f.mark_new(3);
    }

    #[test]
    fn clear_first_dispatch() {
        let mut f = FcfsController::new(8);
        f.mark_new(4);
        f.clear_first_dispatch(4);
        assert!(!f.is_first_dispatch(4));
        assert!(f.is_marked(4), "clearing first bit keeps the kernel marked");
    }

    #[test]
    fn unmark_twice_is_safe() {
        let mut f = FcfsController::new(8);
        f.mark_new(1);
        f.unmark(1);
        f.unmark(1);
        assert!(f.is_empty());
    }
}
