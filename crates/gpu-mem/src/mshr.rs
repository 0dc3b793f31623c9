//! Miss-status holding registers: the lines currently being fetched from
//! DRAM and the transactions waiting on each.
//!
//! Every L2 load or atomic asks "is this line already on its way?", every
//! L2 miss opens an entry and every DRAM fill closes one, so the table is
//! on the per-transaction path. It is an open-addressed, linear-probed
//! table keyed by `(partition, line)` with a multiplicative hash, and the
//! waiter lists are chains through one pooled node arena: once the table
//! and the arena have grown to the run's peak of outstanding misses and
//! waiters, opening, merging into and closing an entry allocate nothing
//! and hash nothing with SipHash.

use crate::subsystem::AccessId;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    /// First and last waiter node; `NIL` for a miss nobody waits on (a
    /// request without an id).
    head: u32,
    tail: u32,
    live: bool,
}

const VACANT: Slot = Slot {
    key: 0,
    head: NIL,
    tail: NIL,
    live: false,
};

#[derive(Clone, Copy, Debug)]
struct Node {
    id: AccessId,
    next: u32,
}

/// Outstanding L2-miss lines → their waiters, in arrival order.
#[derive(Debug)]
pub(crate) struct MshrTable {
    /// Power-of-two sized, at most half full.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    lines: usize,
    nodes: Vec<Node>,
    free: u32,
    waiters: usize,
}

impl MshrTable {
    const INITIAL_SLOTS: usize = 64;

    pub(crate) fn new() -> Self {
        MshrTable {
            slots: vec![VACANT; Self::INITIAL_SLOTS],
            shift: 64 - Self::INITIAL_SLOTS.trailing_zeros(),
            lines: 0,
            nodes: Vec::new(),
            free: NIL,
            waiters: 0,
        }
    }

    /// The table key of `line` (partition-local) in partition `p`.
    pub(crate) fn key(p: usize, line: u32) -> u64 {
        (p as u64) << 32 | u64::from(line)
    }

    /// True when no line is outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Transactions waiting on an outstanding line.
    pub(crate) fn waiters(&self) -> usize {
        self.waiters
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the vacant slot where it would go.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].live && self.slots[i].key != key {
            i = (i + 1) & mask;
        }
        i
    }

    fn append(&mut self, slot: usize, id: AccessId) {
        let node = Node { id, next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let s = &mut self.slots[slot];
        if s.tail == NIL {
            s.head = n;
        } else {
            self.nodes[s.tail as usize].next = n;
        }
        s.tail = n;
        self.waiters += 1;
    }

    /// MSHR merge: if `key` is outstanding, queues `id` behind it and
    /// returns true; otherwise leaves the table untouched.
    pub(crate) fn merge(&mut self, key: u64, id: Option<AccessId>) -> bool {
        let i = self.probe(key);
        if !self.slots[i].live {
            return false;
        }
        if let Some(id) = id {
            self.append(i, id);
        }
        true
    }

    /// Opens an entry for `key` (which must not be outstanding) with the
    /// missing transaction as its first waiter.
    pub(crate) fn open(&mut self, key: u64, id: Option<AccessId>) {
        if (self.lines + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.probe(key);
        debug_assert!(!self.slots[i].live, "line already outstanding");
        self.slots[i] = Slot {
            key,
            live: true,
            ..VACANT
        };
        self.lines += 1;
        if let Some(id) = id {
            self.append(i, id);
        }
    }

    /// Closes the entry for `key`, appending its waiters to `out` in
    /// arrival order. A key that is not outstanding is a no-op.
    pub(crate) fn close(&mut self, key: u64, out: &mut Vec<AccessId>) {
        let mut hole = self.probe(key);
        if !self.slots[hole].live {
            return;
        }
        let mut n = self.slots[hole].head;
        while n != NIL {
            let node = self.nodes[n as usize];
            out.push(node.id);
            self.nodes[n as usize].next = self.free;
            self.free = n;
            self.waiters -= 1;
            n = node.next;
        }
        self.lines -= 1;
        // Backward-shift deletion: pull each follower of the probe run
        // into the hole unless its home lies after the hole, so no
        // tombstones accumulate and probes stay short.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            if !self.slots[j].live {
                break;
            }
            let home = self.home(self.slots[j].key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = VACANT;
    }

    fn grow(&mut self) {
        let doubled = vec![VACANT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for s in old.into_iter().filter(|s| s.live) {
            let i = self.probe(s.key);
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rand::{Rng, SeedableRng, StdRng};
    // The model the open-addressed table is checked against.
    #[allow(clippy::disallowed_types)]
    use std::collections::HashMap;

    /// Random open/merge/close traffic over a small, colliding key space
    /// agrees with a `HashMap<key, Vec<id>>` at every step, through
    /// growth and backward-shift deletions.
    #[test]
    #[allow(clippy::disallowed_types)]
    fn agrees_with_a_hash_map_of_vecs() {
        let mut rng = StdRng::seed_from_u64(0x3547);
        let mut table = MshrTable::new();
        let mut model: HashMap<u64, Vec<AccessId>> = HashMap::new();
        let mut next_id = 0u64;
        for step in 0..60_000 {
            // The live set swells past several doublings, then drains.
            let p_open = if (step / 10_000) % 2 == 0 { 0.6 } else { 0.3 };
            let key = MshrTable::key(rng.gen_range(0usize..7), rng.gen_range(0u32..400) * 128);
            let id = rng.gen_bool(0.8).then(|| {
                next_id += 1;
                AccessId(next_id)
            });
            match model.get_mut(&key) {
                Some(waiters) if rng.gen_bool(p_open) => {
                    assert!(table.merge(key, id));
                    waiters.extend(id);
                }
                Some(_) => {
                    let mut got = Vec::new();
                    table.close(key, &mut got);
                    assert_eq!(Some(got), model.remove(&key), "step {step}");
                }
                None => {
                    assert!(!table.merge(key, id), "step {step}");
                    let mut got = Vec::new();
                    table.close(key, &mut got);
                    assert!(got.is_empty(), "closing an absent line is a no-op");
                    if rng.gen_bool(p_open) {
                        table.open(key, id);
                        model.insert(key, id.into_iter().collect());
                    }
                }
            }
            assert_eq!(table.is_empty(), model.is_empty());
            assert_eq!(table.waiters(), model.values().map(Vec::len).sum::<usize>());
        }
        assert!(
            table.slots.len() > MshrTable::INITIAL_SLOTS,
            "growth was exercised"
        );
    }
}
