//! String/packet corpora for the regular-expression benchmark.

use sim_rand::{Rng, SeedableRng, StdRng};

/// Alphabet size for the synthetic corpora (small so DFA tables stay
/// compact on the device).
pub const ALPHABET: u32 = 8;

/// A batch of "packets", each containing a variable number of segments;
/// segments are flat symbol sequences. The per-packet segment count is
/// the dynamically-formed parallelism the REGX kernels exploit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketSet {
    /// Symbols of all segments, concatenated (values `< ALPHABET`).
    pub symbols: Vec<u32>,
    /// Per-segment `(offset, len)` into `symbols`.
    pub segments: Vec<(u32, u32)>,
    /// Per-packet `(first_segment, segment_count)`.
    pub packets: Vec<(u32, u32)>,
}

impl PacketSet {
    /// Number of packets.
    pub fn num_packets(&self) -> u32 {
        self.packets.len() as u32
    }

    /// Number of segments across all packets.
    pub fn num_segments(&self) -> u32 {
        self.segments.len() as u32
    }
}

/// DARPA-like traffic: most packets carry few segments, a minority carry
/// many (sessions); segment contents embed the pattern `0 1 2` with low
/// probability, like rare intrusion signatures.
pub fn darpa_like(n_packets: u32, seed: u64) -> PacketSet {
    gen_packets(n_packets, seed, true)
}

/// Random string collection: many segments per packet, uniform symbols —
/// the launch-dense `regx_string` configuration (highest DFP occurrence
/// in the paper, §5.2B).
pub fn random_strings(n_packets: u32, seed: u64) -> PacketSet {
    gen_packets(n_packets, seed, false)
}

fn gen_packets(n_packets: u32, seed: u64, darpa: bool) -> PacketSet {
    let mut rng = StdRng::seed_from_u64(seed);
    // Reserve a tenth more than the draws below yield on average, so an
    // Eval-scale corpus is allocated once. Grown by doubling it copies
    // megabytes and frees a hole of every size on the way, and whether the
    // next set-up's 8 MiB step fits one of them or extends the heap is
    // allocator luck: the repo benchmark's `peak_rss_mb` on the regx cells
    // read 28 or 38 MiB from run to run.
    let (segs_per_packet, syms_per_seg) = if darpa {
        (0.85 * 3.0 + 0.15 * 39.5, 23.5)
    } else {
        (59.5, 10.5)
    };
    let segs = 1.1 * f64::from(n_packets) * segs_per_packet;
    let mut symbols = Vec::with_capacity((segs * syms_per_seg) as usize);
    let mut segments = Vec::with_capacity(segs as usize);
    let mut packets = Vec::with_capacity(n_packets as usize);
    for _ in 0..n_packets {
        let nseg = if darpa {
            // Mostly small, occasionally large sessions.
            if rng.gen_bool(0.85) {
                rng.gen_range(1..6)
            } else {
                rng.gen_range(16..64)
            }
        } else {
            rng.gen_range(24..96)
        };
        let first = segments.len() as u32;
        for _ in 0..nseg {
            // Random strings are short (launch-dense, little work per
            // launch); DARPA payload segments are longer.
            let len = if darpa {
                rng.gen_range(8..40u32)
            } else {
                rng.gen_range(6..16u32)
            };
            let off = symbols.len() as u32;
            for _ in 0..len {
                symbols.push(rng.gen_range(0..ALPHABET));
            }
            if darpa && rng.gen_bool(0.05) {
                // Implant the signature somewhere in the segment.
                let pos = rng.gen_range(0..len.saturating_sub(3).max(1));
                let base = (off + pos) as usize;
                symbols[base] = 0;
                symbols[base + 1] = 1;
                symbols[base + 2] = 2;
            }
            segments.push((off, len));
        }
        packets.push((first, nseg));
    }
    PacketSet {
        symbols,
        segments,
        packets,
    }
}

/// A DFA over the synthetic alphabet matching the signature `0 1 2`
/// anywhere in a segment (the classic `.*abc.*` pattern). Row-major
/// `table[state * ALPHABET + symbol]`; state 3 is accepting/absorbing.
pub fn signature_dfa() -> (Vec<u32>, u32, u32) {
    let states = 4u32;
    let mut table = vec![0u32; (states * ALPHABET) as usize];
    for sym in 0..ALPHABET {
        // From state 0: '0' advances, everything else stays.
        table[sym as usize] = u32::from(sym == 0);
        // State 1: '1' advances, '0' keeps the prefix, else reset.
        table[(ALPHABET + sym) as usize] = match sym {
            1 => 2,
            0 => 1,
            _ => 0,
        };
        // State 2: '2' accepts, '0' restarts the prefix, else reset.
        table[(2 * ALPHABET + sym) as usize] = match sym {
            2 => 3,
            0 => 1,
            _ => 0,
        };
        // State 3: absorbing accept.
        table[(3 * ALPHABET + sym) as usize] = 3;
    }
    (table, states, 3)
}

/// Host reference: does the DFA accept (reach the accepting state on) the
/// segment?
pub fn host_match(table: &[u32], accept: u32, symbols: &[u32]) -> bool {
    let mut s = 0u32;
    for &sym in symbols {
        s = table[(s * ALPHABET + sym) as usize];
        if s == accept {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_scale_corpora_are_allocated_once() {
        // The sizes `build_data` asks for; outgrowing the reservation
        // would have doubled the capacity.
        for p in [darpa_like(4_000, 18), random_strings(2_500, 19)] {
            assert!(p.symbols.capacity() < p.symbols.len() * 5 / 4);
            assert!(p.segments.capacity() < p.segments.len() * 5 / 4);
        }
    }

    #[test]
    fn dfa_matches_signature() {
        let (t, _, acc) = signature_dfa();
        assert!(host_match(&t, acc, &[5, 0, 1, 2, 7]));
        assert!(host_match(&t, acc, &[0, 0, 1, 2]));
        assert!(!host_match(&t, acc, &[0, 1, 0, 2]));
        assert!(!host_match(&t, acc, &[2, 1, 0]));
        assert!(host_match(&t, acc, &[0, 1, 2]));
        assert!(!host_match(&t, acc, &[]));
    }

    #[test]
    fn packets_are_consistent() {
        for p in [darpa_like(200, 3), random_strings(50, 3)] {
            let mut seg_total = 0;
            for &(first, count) in &p.packets {
                assert_eq!(first, seg_total, "segments are packet-contiguous");
                seg_total += count;
            }
            assert_eq!(seg_total, p.num_segments());
            for &(off, len) in &p.segments {
                assert!((off + len) as usize <= p.symbols.len());
            }
            assert!(p.symbols.iter().all(|&s| s < ALPHABET));
        }
    }

    #[test]
    fn random_strings_have_more_segments_per_packet() {
        let d = darpa_like(300, 1);
        let r = random_strings(300, 1);
        let avg_d = d.num_segments() as f64 / d.num_packets() as f64;
        let avg_r = r.num_segments() as f64 / r.num_packets() as f64;
        assert!(avg_r > 2.0 * avg_d, "random: {avg_r:.1}, darpa: {avg_d:.1}");
    }

    #[test]
    fn darpa_contains_some_signatures() {
        let (t, _, acc) = signature_dfa();
        let p = darpa_like(300, 5);
        let hits = p
            .segments
            .iter()
            .filter(|&&(off, len)| {
                host_match(&t, acc, &p.symbols[off as usize..(off + len) as usize])
            })
            .count();
        assert!(hits > 0, "implanted signatures must be findable");
        assert!(hits < p.segments.len() / 2, "signatures must stay rare");
    }
}
