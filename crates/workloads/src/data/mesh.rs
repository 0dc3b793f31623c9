//! Scalar fields driving adaptive mesh refinement.
//!
//! The paper's AMR input is a combustion simulation ("Thermodynamic
//! states in explosion fields"): a mostly-smooth field with sharp,
//! localized fronts — exactly the shape that makes refinement deep in a
//! few places and absent elsewhere (severe per-thread imbalance, the
//! largest warp-activity gain in Figure 6: +45.3%).

use sim_rand::{Rng, SeedableRng, StdRng};

/// A square scalar field sampled on a `size × size` grid of u32 values
/// (fixed point, 0..=1000).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalarField {
    /// Grid side length.
    pub size: u32,
    /// Row-major samples, `size * size` entries, each in `0..=1000`.
    pub values: Vec<u32>,
}

impl ScalarField {
    /// Sample at `(x, y)`, clamped to the grid.
    pub fn at(&self, x: u32, y: u32) -> u32 {
        let x = x.min(self.size - 1);
        let y = y.min(self.size - 1);
        self.values[(y * self.size + x) as usize]
    }
}

/// Combustion-like field: smooth background plus a handful of sharp
/// circular fronts (flame kernels).
///
/// Each sample is the max of the quiescent background (50) and, over the
/// fronts, a ring profile: high at the front radius `r`, falling to 100
/// at distance `3 × band` from it. A front is rasterised only over the
/// rows and column spans its ring can reach, so the cost follows the
/// rings' area rather than `size² × fronts`.
pub fn combustion_field(size: u32, fronts: u32, seed: u64) -> ScalarField {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<(i64, i64, i64)> = (0..fronts.max(1))
        .map(|_| {
            (
                rng.gen_range(0..size) as i64,
                rng.gen_range(0..size) as i64,
                rng.gen_range((size / 10).max(2)..(size / 3).max(3)) as i64,
            )
        })
        .collect();
    let n = i64::from(size);
    let mut values = vec![50u32; (size * size) as usize];
    for &(cx, cy, r) in &centers {
        let band = (r / 6).max(1);
        // `|d - r| < 3·band` with `d = ⌊√d2⌋` holds exactly when
        // `inner² ≤ d2 < outer²`.
        let outer = r + 3 * band;
        let inner = (r - 3 * band + 1).max(0);
        for y in (cy - outer + 1).max(0)..(cy + outer).min(n) {
            let dy2 = (y - cy) * (y - cy);
            // Columns with `dx² < outer² - dy²`, minus those with
            // `dx² < inner² - dy²` (the ring's hole).
            let reach = (outer * outer - dy2 - 1).isqrt();
            let hole = if inner * inner > dy2 {
                (inner * inner - dy2 - 1).isqrt() + 1
            } else {
                0
            };
            let row = (y * n) as usize;
            let left = (cx - reach).max(0)..(cx - hole + 1).min(n).max(0);
            let right = (cx + hole).max(0).max(left.end)..(cx + reach + 1).min(n);
            for x in left.chain(right) {
                let d2 = (x - cx) * (x - cx) + dy2;
                let d = (d2 as f64).sqrt() as i64;
                let dist_to_front = (d - r).abs();
                if dist_to_front < 3 * band {
                    let peak = 1000 - 900 * dist_to_front / (3 * band);
                    let v = &mut values[row + x as usize];
                    *v = (*v).max(peak as u32);
                }
            }
        }
    }
    ScalarField { size, values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_has_sharp_fronts_and_quiet_background() {
        let f = combustion_field(128, 3, 1);
        let hot = f.values.iter().filter(|&&v| v > 700).count();
        let quiet = f.values.iter().filter(|&&v| v <= 100).count();
        let total = f.values.len();
        assert!(hot > 0, "fronts must exist");
        assert!(
            hot < total / 4,
            "fronts must be localized: {hot}/{total} hot"
        );
        assert!(quiet > total / 4, "background must dominate");
    }

    /// The field evaluated the direct way: every front at every pixel.
    fn per_pixel(size: u32, fronts: u32, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<(i64, i64, i64)> = (0..fronts.max(1))
            .map(|_| {
                (
                    rng.gen_range(0..size) as i64,
                    rng.gen_range(0..size) as i64,
                    rng.gen_range((size / 10).max(2)..(size / 3).max(3)) as i64,
                )
            })
            .collect();
        let mut values = Vec::new();
        for y in 0..i64::from(size) {
            for x in 0..i64::from(size) {
                let mut v = 50;
                for &(cx, cy, r) in &centers {
                    let d = (((x - cx).pow(2) + (y - cy).pow(2)) as f64).sqrt() as i64;
                    let band = (r / 6).max(1);
                    if (d - r).abs() < 3 * band {
                        v = v.max(1000 - 900 * (d - r).abs() / (3 * band));
                    }
                }
                values.push(v as u32);
            }
        }
        values
    }

    #[test]
    fn ring_spans_cover_exactly_the_pixels_each_front_reaches() {
        // Fronts clipped by every edge, rings with and without a hole,
        // and overlapping fronts.
        for (size, fronts, seed) in [(7, 3, 1), (20, 4, 2), (33, 6, 3), (64, 9, 4), (97, 5, 5)] {
            assert_eq!(
                combustion_field(size, fronts, seed).values,
                per_pixel(size, fronts, seed),
                "size {size}, {fronts} fronts, seed {seed}"
            );
        }
    }

    #[test]
    fn values_bounded_and_deterministic() {
        let a = combustion_field(64, 2, 5);
        assert!(a.values.iter().all(|&v| v <= 1000));
        assert_eq!(a, combustion_field(64, 2, 5));
        assert_eq!(a.at(1000, 1000), a.at(63, 63), "clamped sampling");
    }
}
