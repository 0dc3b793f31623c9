//! Warp-level memory access coalescing.
//!
//! As on Kepler-class hardware (§2.2 of the paper): the 32 addresses of a
//! warp's active lanes are mapped to the 128-byte segments they touch, and
//! one memory transaction is generated per distinct segment. A fully
//! coalesced access (32 consecutive words) produces exactly one
//! transaction; a fully scattered access produces up to 32 — this is the
//! "memory divergence" that the paper's CDP/DTBL implementations reduce by
//! giving each dynamically-launched block consecutive addresses to work on.

use crate::SEGMENT_BYTES;

/// Lanes of a warp (the width of an active mask).
const WARP_LANES: usize = 32;

/// Computes the distinct 128-byte segment base addresses touched by the
/// active lanes of a warp.
///
/// `addrs[i] = Some(a)` for an active lane accessing byte address `a`,
/// `None` for inactive lanes. The result is sorted and deduplicated; its
/// length is the number of memory transactions the access costs.
///
/// Accesses in this ISA are 32-bit and may straddle a segment boundary
/// when unaligned; both touched segments are counted in that case.
///
/// # Example
///
/// ```
/// use gpu_mem::coalesce::coalesce;
///
/// // 32 consecutive words: one transaction.
/// let addrs: Vec<Option<u32>> = (0..32).map(|i| Some(0x1000 + i * 4)).collect();
/// assert_eq!(coalesce(&addrs).len(), 1);
///
/// // Stride-128 words: one transaction per lane.
/// let addrs: Vec<Option<u32>> = (0..32).map(|i| Some(0x1000 + i * 128)).collect();
/// assert_eq!(coalesce(&addrs).len(), 32);
/// ```
pub fn coalesce(addrs: &[Option<u32>]) -> Vec<u32> {
    // One segment per lane is the common worst case; sized once so a
    // scattered warp does not regrow the buffer five times.
    let mut segs: Vec<u32> = Vec::with_capacity(addrs.len());
    collect_segments(addrs.iter().flatten().copied(), &mut segs);
    segs
}

/// [`coalesce`] for the form the executor holds — one address per lane
/// and the mask of lanes that access global memory (`addrs[lane]` is
/// ignored where the mask bit is clear) — into a caller-provided buffer
/// (cleared first), so the per-memory-instruction hot path reuses one
/// scratch vector instead of allocating a `Vec` for every warp access.
pub fn coalesce_mask_into(addrs: &[u32; WARP_LANES], active: u32, segs: &mut Vec<u32>) {
    let mut rest = active;
    let lanes = std::iter::from_fn(|| {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            addrs[lane]
        })
    });
    collect_segments(lanes, segs);
}

/// Replaces `segs` with the distinct segments the 32-bit words at `lanes`
/// touch, sorted.
///
/// Linear in the lanes for the access shapes that matter: a segment equal
/// to the one just pushed is dropped on the spot (a coalesced warp pushes
/// once), and the list is sorted and deduplicated only if some lane broke
/// ascending order — lane-ordered addresses, the usual case even when
/// scattered, never reach the sort.
fn collect_segments(lanes: impl Iterator<Item = u32>, segs: &mut Vec<u32>) {
    segs.clear();
    let mut ascending = true;
    let mut push = |seg: u32, segs: &mut Vec<u32>| match segs.last() {
        Some(&last) if last == seg => {}
        Some(&last) => {
            ascending &= last < seg;
            segs.push(seg);
        }
        None => segs.push(seg),
    };
    for a in lanes {
        push(a & !(SEGMENT_BYTES - 1), segs);
        // An unaligned word's last byte may lie in the next segment.
        push(a.wrapping_add(3) & !(SEGMENT_BYTES - 1), segs);
    }
    if !ascending {
        segs.sort_unstable();
        segs.dedup();
    }
}

/// Convenience wrapper: number of transactions for an access pattern.
pub fn transaction_count(addrs: &[Option<u32>]) -> usize {
    coalesce(addrs).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(it: impl IntoIterator<Item = u32>) -> Vec<Option<u32>> {
        it.into_iter().map(Some).collect()
    }

    #[test]
    fn fully_coalesced_is_one_transaction() {
        let a = lanes((0..32).map(|i| 0x4000 + i * 4));
        assert_eq!(coalesce(&a), vec![0x4000]);
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let mut a = lanes((0..32).map(|i| 0x4000 + i * 4));
        for lane in a.iter_mut().skip(8) {
            *lane = None;
        }
        assert_eq!(coalesce(&a).len(), 1);
        let none: Vec<Option<u32>> = vec![None; 32];
        assert!(coalesce(&none).is_empty());
    }

    #[test]
    fn broadcast_same_address_is_one_transaction() {
        let a = vec![Some(0x123_400u32); 32];
        assert_eq!(coalesce(&a).len(), 1);
    }

    #[test]
    fn two_segment_split() {
        // First 16 lanes in one segment, next 16 in the following one.
        let a = lanes((0..32).map(|i| 0x8000 + i * 8));
        assert_eq!(coalesce(&a).len(), 2);
    }

    #[test]
    fn scattered_access_costs_one_per_lane() {
        let a = lanes((0..32).map(|i| i * 4096));
        assert_eq!(coalesce(&a).len(), 32);
    }

    #[test]
    fn unaligned_word_straddles_two_segments() {
        let a = vec![Some(126u32)]; // bytes 126..130 cross the 128 boundary
        let segs = coalesce(&a);
        assert_eq!(segs, vec![0, 128]);
    }

    #[test]
    fn results_are_sorted_segment_bases() {
        let a = vec![Some(600u32), Some(10), Some(300)];
        let segs = coalesce(&a);
        assert_eq!(segs, vec![0, 256, 512]);
        assert!(segs.iter().all(|s| s % SEGMENT_BYTES == 0));
    }
}
