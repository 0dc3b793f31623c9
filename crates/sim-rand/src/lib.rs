//! Minimal deterministic PRNG with a `rand`-compatible surface.
//!
//! The workspace must build with no network access, so instead of the
//! `rand` crate the data generators use this self-contained implementation:
//! xoshiro256** (Blackman & Vigna) seeded through splitmix64, exposed via
//! `Rng` / `SeedableRng` traits mirroring the subset of `rand`'s API the
//! repo uses (`seed_from_u64`, `gen`, `gen_range` over half-open and
//! inclusive integer ranges, `gen_bool`). Streams are stable across
//! platforms and releases: changing them invalidates every recorded
//! benchmark figure, so treat the output as a fixed contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Raw 64-bit generator core.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Constructing a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly over their whole domain (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges samplable uniformly (`rng.gen_range(lo..hi)`).
pub trait SampleRange<T> {
    /// Draws one value in the range from `rng`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty, matching `rand`'s contract.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// High-level sampling helpers, blanket-implemented over [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value over the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform value in `range` (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// The workspace's standard generator: xoshiro256** with splitmix64
/// seed expansion. Not cryptographic; statistical quality is ample for
/// synthetic workload data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Alias kept so call sites can name a cheap generator like `rand`'s
/// `SmallRng`; identical to [`StdRng`] here.
pub type SmallRng = StdRng;

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Uniform draw in `[0, span)` via 128-bit multiply-shift (unbiased
/// enough for synthetic data; avoids modulo's low-bit artifacts).
fn bounded(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return (lo as i128 + rng.next_u64() as i128) as $t;
                }
                (lo as i128 + bounded(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Re-exports mirroring `rand`'s module layout so imports port 1:1.
pub mod rngs {
    pub use super::{SmallRng, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(10u32..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(1u32..=5);
            assert!((1..=5).contains(&y));
            let z = rng.gen_range(0usize..3);
            assert!(z < 3);
            let w = rng.gen_range(-4i64..=4);
            assert!((-4..=4).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn f64_samples_lie_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.85)).count();
        assert!((8_300..8_700).contains(&hits), "{hits} of 10000");
        assert!((0..1_000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1_000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(5u32..5);
    }
}
