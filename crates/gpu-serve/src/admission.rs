//! Fair batched admission: the submission queue between connection
//! threads and the warm-pool workers.
//!
//! In fair mode the queue keeps one lane per client id and drains them
//! in interleaved round-robin, so a client that dumps 100 cells cannot
//! starve a client that submits one. Weighted fairness is a knob on the
//! same machinery: a lane with weight `w` gets `w` consecutive pops per
//! round-robin turn before the rotation moves on. FCFS mode (the
//! `--fair` flag off) is a single global queue.
//!
//! The contract the daemon documents and the crate's loopback tests
//! enforce: under symmetric load with equal weights, no client's p95
//! admission latency exceeds 3× another's.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One queued job: who submitted it, which job id it resolves, and when
/// it entered the queue (for admission-latency metrics).
#[derive(Debug)]
pub struct Ticket {
    /// Client id the fair queue interleaves over.
    pub client: String,
    /// Job id handed back to the submitter.
    pub job: u64,
    /// Enqueue instant; workers observe `now - enqueued` as the
    /// admission wait.
    pub enqueued: Instant,
}

/// A lane's pending jobs plus its weighted-fair bookkeeping.
#[derive(Debug, Default)]
struct Lane {
    q: VecDeque<Ticket>,
    /// Consecutive pops this lane gets per rotation turn.
    weight: u64,
    /// Pops remaining in the current turn.
    credit: u64,
}

#[derive(Debug)]
struct Inner {
    /// Fair mode: lanes keyed by client, drained in `order` rotation.
    lanes: HashMap<String, Lane>,
    /// Rotation of client ids with non-empty lanes (fair mode).
    order: VecDeque<String>,
    /// FCFS mode: the single global queue.
    fifo: VecDeque<Ticket>,
    closed: bool,
    depth: usize,
}

/// The admission queue. `fair` selects interleaved round-robin over
/// client ids; otherwise strict FCFS.
#[derive(Debug)]
pub struct AdmissionQueue {
    fair: bool,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// An empty queue in the given mode.
    pub fn new(fair: bool) -> Self {
        AdmissionQueue {
            fair,
            inner: Mutex::new(Inner {
                lanes: HashMap::new(),
                order: VecDeque::new(),
                fifo: VecDeque::new(),
                closed: false,
                depth: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Whether this queue interleaves fairly over clients.
    pub fn is_fair(&self) -> bool {
        self.fair
    }

    /// Enqueues a ticket. `weight` updates the client's fair share (the
    /// latest submitted weight wins; clamped to ≥ 1). Returns `false`
    /// if the queue is closed and the ticket was refused.
    pub fn push(&self, ticket: Ticket, weight: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return false;
        }
        inner.depth += 1;
        if self.fair {
            let client = ticket.client.clone();
            let lane = inner.lanes.entry(client.clone()).or_default();
            let was_empty = lane.q.is_empty();
            lane.weight = weight.max(1);
            // A lowered weight takes effect immediately; a zero credit is
            // left for `take` to replenish at the lane's next turn.
            lane.credit = lane.credit.min(lane.weight);
            lane.q.push_back(ticket);
            if was_empty && !inner.order.contains(&client) {
                inner.order.push_back(client);
            }
        } else {
            inner.fifo.push_back(ticket);
        }
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Blocks until a ticket is available or the queue closes; `None`
    /// means closed *and* drained — workers should exit.
    pub fn pop(&self) -> Option<Ticket> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(t) = Self::take(self.fair, &mut inner) {
                inner.depth -= 1;
                return Some(t);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    fn take(fair: bool, inner: &mut Inner) -> Option<Ticket> {
        if !fair {
            return inner.fifo.pop_front();
        }
        // Round-robin over the client rotation. The lane at the head of
        // `order` pops one ticket and spends one credit; when its credit
        // or queue runs out, the turn ends and the lane moves to the back
        // (with a fresh credit of `weight`, so a weight-3 lane gets three
        // consecutive pops per visit).
        while let Some(client) = inner.order.front().cloned() {
            let lane = inner.lanes.get_mut(&client)?;
            if lane.q.is_empty() {
                inner.order.pop_front();
                lane.credit = 0;
                continue;
            }
            if lane.credit == 0 {
                lane.credit = lane.weight.max(1);
            }
            let t = lane.q.pop_front();
            lane.credit -= 1;
            let exhausted = lane.credit == 0 || lane.q.is_empty();
            if exhausted {
                lane.credit = 0;
                inner.order.pop_front();
                if !lane.q.is_empty() {
                    inner.order.push_back(client);
                }
            }
            return t;
        }
        None
    }

    /// Current number of queued tickets (for the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().depth
    }

    /// Closes the queue: future pushes are refused, blocked workers wake,
    /// and every still-queued ticket is returned so the caller can fail
    /// the corresponding jobs instead of leaving waiters hanging.
    pub fn close(&self) -> Vec<Ticket> {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        let mut drained: Vec<Ticket> = inner.fifo.drain(..).collect();
        let clients: Vec<String> = inner.order.drain(..).collect();
        for client in clients {
            if let Some(lane) = inner.lanes.get_mut(&client) {
                drained.extend(lane.q.drain(..));
            }
        }
        inner.depth = 0;
        drop(inner);
        self.ready.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(client: &str, job: u64) -> Ticket {
        Ticket {
            client: client.to_string(),
            job,
            enqueued: Instant::now(),
        }
    }

    fn drain_order(q: &AdmissionQueue, n: usize) -> Vec<u64> {
        (0..n).map(|_| q.pop().unwrap().job).collect()
    }

    #[test]
    fn fcfs_preserves_submission_order() {
        let q = AdmissionQueue::new(false);
        for (i, c) in ["a", "a", "b", "a"].iter().enumerate() {
            assert!(q.push(t(c, i as u64), 1));
        }
        assert_eq!(drain_order(&q, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fair_mode_interleaves_clients() {
        let q = AdmissionQueue::new(true);
        // Client a floods first; b submits afterwards.
        for i in 0..4 {
            q.push(t("a", i), 1);
        }
        for i in 0..2 {
            q.push(t("b", 100 + i), 1);
        }
        // Round-robin: a, b, a, b, a, a.
        assert_eq!(drain_order(&q, 6), vec![0, 100, 1, 101, 2, 3]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn weights_grant_consecutive_pops() {
        let q = AdmissionQueue::new(true);
        for i in 0..4 {
            q.push(t("heavy", i), 2);
        }
        for i in 0..2 {
            q.push(t("light", 100 + i), 1);
        }
        // heavy ×2, light ×1, heavy ×2, light ×1.
        assert_eq!(drain_order(&q, 6), vec![0, 1, 100, 2, 3, 101]);
    }

    #[test]
    fn close_drains_and_refuses() {
        let q = AdmissionQueue::new(true);
        q.push(t("a", 1), 1);
        q.push(t("b", 2), 1);
        let drained = q.close();
        assert_eq!(drained.len(), 2);
        assert!(!q.push(t("a", 3), 1), "closed queue must refuse");
        assert!(q.pop().is_none(), "closed+drained pops None");
    }

    #[test]
    fn pop_blocks_until_push() {
        use std::sync::Arc;
        let q = Arc::new(AdmissionQueue::new(true));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().map(|t| t.job));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(t("a", 42), 1);
        assert_eq!(h.join().unwrap(), Some(42));
    }
}
