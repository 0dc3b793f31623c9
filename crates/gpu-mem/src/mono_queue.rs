//! A completion queue for deadlines that arrive in order.
//!
//! Every completion in the timing model matures at `now + constant` on a
//! clock that never runs backwards: L1 hits at `now + l1_hit_latency`, L2
//! hits and fills at `now + l2_latency + icnt_back`, DRAM reads at
//! `burst_end + t_cas` with `burst_end` non-decreasing. Pushed in that
//! order, a plain FIFO *is* the priority queue — no sift. The only
//! disorder is among entries sharing one deadline (the id tie-break), so
//! [`MonoQueue::push`] settles a late arrival with an insertion step from
//! the back: O(1) on the monotone stream, and still exactly the
//! `(at, id)` order of a binary heap on any other.

use std::collections::VecDeque;

#[derive(Clone, Copy, Debug)]
struct Entry<T> {
    at: u64,
    id: u64,
    payload: T,
}

/// Entries kept sorted by `(at, id)`; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct MonoQueue<T> {
    q: VecDeque<Entry<T>>,
}

impl<T: Copy> MonoQueue<T> {
    pub(crate) fn new() -> Self {
        MonoQueue { q: VecDeque::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Schedules `id` to mature at cycle `at`.
    pub(crate) fn push(&mut self, at: u64, id: u64, payload: T) {
        self.q.push_back(Entry { at, id, payload });
        let mut i = self.q.len() - 1;
        while i > 0 && (self.q[i - 1].at, self.q[i - 1].id) > (at, id) {
            self.q.swap(i - 1, i);
            i -= 1;
        }
    }

    /// The `(at, id)` key of the next entry to mature.
    pub(crate) fn front(&self) -> Option<(u64, u64)> {
        self.q.front().map(|e| (e.at, e.id))
    }

    /// Pops the front entry if it has matured by `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        if self.q.front()?.at > now {
            return None;
        }
        self.q.pop_front().map(|e| (e.id, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rand::{Rng, SeedableRng, StdRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Pops equal a min-heap on `(at, id)` for monotone streams with
    /// ties, and for streams that break the monotone contract outright.
    #[test]
    fn pops_in_heap_order() {
        let mut rng = StdRng::seed_from_u64(0x303);
        for monotone in [true, false] {
            let mut q = MonoQueue::new();
            let mut heap = BinaryHeap::new();
            let mut now = 0u64;
            for step in 0..4000u64 {
                now += rng.gen_range(0u64..3);
                for _ in 0..rng.gen_range(0usize..4) {
                    let at = if monotone {
                        now + 10
                    } else {
                        now + rng.gen_range(0u64..20)
                    };
                    let id = rng.gen_range(0u64..1 << 20);
                    q.push(at, id, step);
                    heap.push(Reverse((at, id, step)));
                }
                assert_eq!(
                    q.front(),
                    heap.peek().map(|Reverse((at, id, _))| (*at, *id))
                );
                while let Some((id, payload)) = q.pop_due(now) {
                    let Reverse((at, want_id, want_payload)) = heap.pop().expect("same length");
                    assert!(at <= now);
                    assert_eq!((id, payload), (want_id, want_payload));
                }
                assert!(heap.peek().is_none_or(|Reverse((at, ..))| *at > now));
                assert_eq!(q.len(), heap.len());
            }
        }
    }
}
