//! Synthetic graph generators shaped like the paper's inputs (Table 4).
//!
//! DTBL's behaviour depends on the *degree distribution* of the input —
//! how many dynamically-formed pockets of parallelism appear and how big
//! they are — not on the specific edges. Each generator below reproduces
//! the qualitative property the paper calls out for its real counterpart:
//!
//! * [`citation`] — skewed, power-law-ish degrees (DIMACS citation
//!   network): many launches, varied sizes; CDP/DTBL help.
//! * [`usa_road`] — grid with degree ≤ 4 (USA road network): DFP "rarely
//!   occurs", so dynamic launching barely triggers (§5.2C).
//! * [`cage15_like`] — banded matrix with moderate, uniform degrees and
//!   *distributed* neighbour lists (cage15): memory irregularity
//!   dominates; dynamic launches restore coalescing (§5.2A).
//! * [`graph500_logn`] — near-uniform degree ("relatively small variance
//!   in vertex degree", §5.2A): flat is already balanced; CDP/DTBL can
//!   slightly hurt.
//! * [`flight`] — hub-and-spoke (global flight network): almost all
//!   vertices have tiny degree, a few hubs are huge.

use sim_rand::{Rng, SeedableRng, StdRng};

/// A directed graph in Compressed Sparse Row form with optional edge
/// weights, the layout all graph benchmarks operate on (and the one that
/// makes child-kernel neighbour loops coalesce, §3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `row_offsets[v]..row_offsets[v+1]` indexes `col_indices`.
    pub row_offsets: Vec<u32>,
    /// Neighbour ids.
    pub col_indices: Vec<u32>,
    /// Per-edge weights (same length as `col_indices`); 1 when absent.
    pub weights: Option<Vec<u32>>,
}

impl CsrGraph {
    /// Builds a CSR graph over `n` vertices from the arcs `emit` sends to
    /// its sink, sorting and deduplicating each neighbour list.
    ///
    /// `emit` runs twice and must send the same arcs both times: the
    /// first run counts each source's arcs, the second places them. So
    /// `row_offsets` and `col_indices` are each allocated once, at their
    /// final size, and no per-vertex list is ever built. Duplicate arcs
    /// are dropped in place and leave their slots as spare capacity
    /// (about 1 % on the Table 4 generators): handing that tail back
    /// leaves a hole in the heap that costs more resident memory than it
    /// frees.
    pub fn from_arc_replay(n: u32, mut emit: impl FnMut(&mut dyn FnMut(u32, u32))) -> Self {
        let n = n as usize;
        // Count: `row_offsets[s]` tallies s's arcs, then becomes s's end.
        let mut row_offsets = vec![0u32; n + 1];
        emit(&mut |s, _| row_offsets[s as usize] += 1);
        let mut arcs = 0;
        for o in &mut row_offsets {
            arcs += *o;
            *o = arcs;
        }
        // Place: each row fills from its end down, leaving `row_offsets[s]`
        // at s's start.
        let mut col_indices = vec![0u32; arcs as usize];
        emit(&mut |s, t| {
            let o = &mut row_offsets[s as usize];
            *o -= 1;
            col_indices[*o as usize] = t;
        });
        // Sort each row and compact it leftwards without its duplicates.
        let mut kept = 0;
        for v in 0..n {
            let (start, end) = (row_offsets[v] as usize, row_offsets[v + 1] as usize);
            row_offsets[v] = kept as u32;
            col_indices[start..end].sort_unstable();
            let first = kept;
            for i in start..end {
                let t = col_indices[i];
                if kept == first || col_indices[kept - 1] != t {
                    col_indices[kept] = t;
                    kept += 1;
                }
            }
        }
        row_offsets[n] = kept as u32;
        col_indices.truncate(kept);
        CsrGraph {
            row_offsets,
            col_indices,
            weights: None,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.row_offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u32 {
        self.col_indices.len() as u32
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.row_offsets[v as usize] as usize;
        let e = self.row_offsets[v as usize + 1] as usize;
        &self.col_indices[s..e]
    }

    /// Weight of edge index `e` (1 if unweighted).
    pub fn weight_at(&self, e: usize) -> u32 {
        self.weights.as_ref().map_or(1, |w| w[e])
    }

    /// Attaches deterministic pseudo-random weights in `[1, max_w]`.
    pub fn with_random_weights(mut self, max_w: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        self.weights = Some(
            (0..self.col_indices.len())
                .map(|_| rng.gen_range(1..=max_w))
                .collect(),
        );
        self
    }

    /// Population variance of the degree distribution (used by tests to
    /// check each generator has the shape the paper relies on).
    pub fn degree_variance(&self) -> f64 {
        let n = self.num_vertices() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = self.num_edges() as f64 / n;
        let ss: f64 = (0..self.num_vertices())
            .map(|v| {
                let d = self.degree(v) as f64 - mean;
                d * d
            })
            .sum();
        ss / n
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

/// Power-law citation-style network: vertex `v` cites earlier vertices
/// with preferential attachment, giving a skewed in/out-degree mix.
///
/// Degrees are capped at `16 × mean_refs`: the paper's flat BFS baseline
/// uses Merrill-style block/warp-level expansion that tolerates extreme
/// hubs, while this reproduction's flat variants serialize the neighbour
/// loop per thread. Capping the tail keeps the flat baseline comparable
/// without changing the skew that drives dynamic launching (documented in
/// DESIGN.md).
pub fn citation(n: u32, mean_refs: u32, seed: u64) -> CsrGraph {
    let cap = 16 * mean_refs;
    // Arcs pushed per vertex so far (duplicates included, as the cap
    // counts them) and the endpoint pool for preferential attachment;
    // both restart with the generator on each replay.
    let mut pushed = vec![0u32; n as usize];
    let mut pool: Vec<u32> = Vec::new();
    CsrGraph::from_arc_replay(n, |arc| {
        let mut rng = StdRng::seed_from_u64(seed);
        pushed.fill(0);
        pool.clear();
        pool.push(0);
        for v in 1..n {
            // Sample a skewed number of references.
            let r: f64 = rng.gen::<f64>();
            let refs = ((mean_refs as f64) * (1.0 / (1.0 - 0.75 * r) - 0.9)).round() as u32;
            let refs = refs.clamp(1, 4 * mean_refs).min(v);
            for _ in 0..refs {
                let t = pool[rng.gen_range(0..pool.len())];
                if t != v && pushed[t as usize] < cap && pushed[v as usize] < cap {
                    arc(v, t);
                    // Cited vertices become more likely to be cited again
                    // and also link back occasionally (undirected-ish
                    // traversal).
                    arc(t, v);
                    pushed[v as usize] += 1;
                    pushed[t as usize] += 1;
                    pool.push(t);
                }
            }
            pool.push(v);
        }
    })
}

/// Grid road network of `w × h` intersections; degree ≤ 4.
pub fn usa_road(w: u32, h: u32) -> CsrGraph {
    let idx = |x: u32, y: u32| y * w + x;
    CsrGraph::from_arc_replay(w * h, |arc| {
        for y in 0..h {
            for x in 0..w {
                let v = idx(x, y);
                if x + 1 < w {
                    arc(v, idx(x + 1, y));
                    arc(idx(x + 1, y), v);
                }
                if y + 1 < h {
                    arc(v, idx(x, y + 1));
                    arc(idx(x, y + 1), v);
                }
            }
        }
    })
}

/// Banded sparse-matrix graph like cage15: every vertex connects to a
/// moderate, near-uniform number of neighbours spread across a wide band,
/// so neighbour lists of *consecutive vertices* are far apart in memory.
/// Structurally symmetric (like the cage DNA-electrophoresis matrices),
/// which the coloring benchmark requires; `deg` counts generated arcs per
/// vertex, so the symmetric degree is roughly `2 * deg`.
pub fn cage15_like(n: u32, band: u32, deg: u32, seed: u64) -> CsrGraph {
    let span = band.min(n - 1).max(1);
    let n64 = i64::from(n);
    CsrGraph::from_arc_replay(n, |arc| {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in 0..n {
            let d = deg + rng.gen_range(0..=2u32);
            for _ in 0..d {
                let off = rng.gen_range(0..=2 * span) as i64 - i64::from(span);
                // `|off| ≤ span < n`, so one wrap lands in `0..n`.
                let t = i64::from(v) + off;
                let t = if t < 0 {
                    t + n64
                } else if t >= n64 {
                    t - n64
                } else {
                    t
                } as u32;
                if t != v {
                    arc(v, t);
                    arc(t, v);
                }
            }
        }
    })
}

/// Graph500-logn20-like graph with near-uniform degree (small degree
/// variance — the property §5.2A attributes to it).
pub fn graph500_logn(n: u32, deg: u32, seed: u64) -> CsrGraph {
    CsrGraph::from_arc_replay(n, |arc| {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in 0..n {
            for _ in 0..deg {
                let t = rng.gen_range(0..n);
                if t != v {
                    arc(v, t);
                    arc(t, v);
                }
            }
        }
    })
}

/// Hub-and-spoke flight network: `hubs` airports with high degree, the
/// remaining `n - hubs` with 1–3 connections (almost all to hubs).
pub fn flight(n: u32, hubs: u32, seed: u64) -> CsrGraph {
    let hubs = hubs.max(1).min(n);
    // Hubs form a clique-ish core: one coin flip per hub pair `a < b`,
    // drawn once into row `a` of a bit matrix, so both replay passes walk
    // the set bits instead of drawing the flips again. Each pass resumes
    // the spokes from the generator as it stands after the clique.
    let mut rng = StdRng::seed_from_u64(seed);
    let words = (hubs as usize).div_ceil(64).max(1);
    let mut linked = vec![0u64; hubs as usize * words];
    for a in 0..hubs as usize {
        for b in (a + 1)..hubs as usize {
            if rng.gen_bool(0.5) {
                linked[a * words + b / 64] |= 1 << (b % 64);
            }
        }
    }
    CsrGraph::from_arc_replay(n, |arc| {
        for (a, row) in (0..hubs).zip(linked.chunks_exact(words)) {
            for (w, &word) in (0..).zip(row) {
                let mut bits = word;
                while bits != 0 {
                    let b = 64 * w + bits.trailing_zeros();
                    arc(a, b);
                    arc(b, a);
                    bits &= bits - 1;
                }
            }
        }
        let mut rng = rng.clone();
        for v in hubs..n {
            let links = rng.gen_range(1..=3);
            for _ in 0..links {
                let h = rng.gen_range(0..hubs);
                arc(v, h);
                arc(h, v);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_construction_sorts_and_dedups() {
        let g = CsrGraph::from_arc_replay(4, |arc| {
            for (s, t) in [(0, 2), (3, 1), (0, 1), (0, 2), (1, 0), (3, 1), (3, 0)] {
                arc(s, t);
            }
        });
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 0);
        // Row 3 compacts past row 0's dropped duplicate.
        assert_eq!(g.neighbors(3), &[0, 1]);
        assert_eq!(g.row_offsets, [0, 2, 3, 3, 5]);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.col_indices.capacity(), 7, "allocated once, for every arc");
    }

    #[test]
    fn citation_is_skewed() {
        let g = citation(2000, 4, 1);
        assert!(g.mean_degree() > 1.0);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        assert!(
            f64::from(max_deg) > 8.0 * g.mean_degree(),
            "power law needs heavy hubs: max {max_deg} vs mean {}",
            g.mean_degree()
        );
    }

    #[test]
    fn road_grid_has_degree_at_most_four() {
        let g = usa_road(20, 15);
        assert_eq!(g.num_vertices(), 300);
        assert!((0..300).all(|v| g.degree(v) <= 4));
        // Corner has exactly 2.
        assert_eq!(g.degree(0), 2);
        // Interior has 4.
        assert_eq!(g.degree(21), 4);
    }

    #[test]
    fn graph500_degree_variance_is_smaller_than_citation() {
        let c = citation(2000, 4, 7);
        let g = graph500_logn(2000, 8, 7);
        // Normalize by mean² (coefficient of variation squared).
        let cv_c = c.degree_variance() / (c.mean_degree() * c.mean_degree());
        let cv_g = g.degree_variance() / (g.mean_degree() * g.mean_degree());
        assert!(
            cv_g < cv_c / 2.0,
            "graph500 must be far more uniform: {cv_g:.3} vs citation {cv_c:.3}"
        );
    }

    #[test]
    fn flight_is_mostly_low_degree() {
        let g = flight(3000, 20, 3);
        let low = (20..3000).filter(|v| g.degree(*v) <= 4).count();
        assert!(low as f64 > 0.9 * 2980.0, "spokes must have tiny degree");
        let hub_max = (0..20).map(|v| g.degree(v)).max().unwrap();
        assert!(hub_max > 100, "hubs must be huge, got {hub_max}");
    }

    #[test]
    fn cage15_band_is_respected_and_uniform() {
        let n = 4000;
        let band = 500;
        let g = cage15_like(n, band, 8, 5);
        for v in (0..n).step_by(97) {
            for &t in g.neighbors(v) {
                let d = (i64::from(v) - i64::from(t)).rem_euclid(i64::from(n));
                let dist = d.min(i64::from(n) - d);
                assert!(dist <= i64::from(band), "edge {v}->{t} outside band");
            }
        }
        let cv = g.degree_variance() / (g.mean_degree() * g.mean_degree());
        assert!(cv < 0.2, "cage-like degrees are near-uniform, cv² = {cv}");
    }

    #[test]
    fn weights_are_deterministic_and_in_range() {
        let a = citation(500, 3, 2).with_random_weights(10, 9);
        let b = citation(500, 3, 2).with_random_weights(10, 9);
        assert_eq!(a, b, "same seed, same graph");
        let w = a.weights.as_ref().unwrap();
        assert!(w.iter().all(|&x| (1..=10).contains(&x)));
        assert_eq!(a.weight_at(0), w[0]);
    }
}
