//! Address geometry, derived once at construction.
//!
//! Every address split in the timing model — cache line / set / tag,
//! DRAM row / bank, partition interleave — is a quotient and remainder by
//! a divisor the configuration fixes for the lifetime of the structure.
//! [`Divisor`] resolves that divisor once: a shift and mask when it is a
//! power of two (every K20c cache and DRAM dimension), an exact
//! multiply-high by the precomputed reciprocal otherwise (the 5-partition
//! interleave). Both are the same function of the same inputs as `/` and
//! `%`; neither executes a `div` per access.

/// A non-zero 32-bit divisor with its quotient/remainder strategy chosen
/// up front.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Divisor {
    /// `d == 1 << shift`.
    Shift(u32),
    /// Any other `d`, with `m = ceil(2^64 / d)`: `n / d == (m * n) >> 64`
    /// for every 32-bit `n` (Lemire, Kaser & Kurz, "Faster remainder by
    /// direct computation", 2019 — 64 fractional bits are exact for
    /// 32-bit operands).
    Recip { m: u64, d: u32 },
}

impl Divisor {
    /// Resolves the strategy for dividing by `d`.
    ///
    /// # Panics
    ///
    /// Panics, naming `field`, when `d` is zero: a zero dimension would
    /// otherwise surface as a divide-by-zero at the first access.
    pub(crate) fn new(d: u32, field: &str) -> Self {
        assert!(d != 0, "{field} must be non-zero");
        if d.is_power_of_two() {
            Divisor::Shift(d.trailing_zeros())
        } else {
            // `d` does not divide 2^64, so floor((2^64 - 1) / d) + 1 is
            // the ceiling, and `d >= 3` keeps it inside a u64.
            Divisor::Recip {
                m: u64::MAX / u64::from(d) + 1,
                d,
            }
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub(crate) fn div_rem(self, n: u32) -> (u32, u32) {
        match self {
            Divisor::Shift(s) => (n >> s, n & ((1u32 << s) - 1)),
            Divisor::Recip { m, d } => {
                let q = ((u128::from(m) * u128::from(n)) >> 64) as u32;
                (q, n - q * d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rand::{Rng, SeedableRng, StdRng};

    #[test]
    fn div_rem_equals_division_for_any_divisor() {
        let mut rng = StdRng::seed_from_u64(0xD171);
        let mut divisors: Vec<u32> = vec![1, 2, 3, 5, 7, 12, 128, 192, 1536, 2048, u32::MAX];
        divisors.extend((0..32).map(|s| 1u32 << s));
        divisors.extend((0..200).map(|_| rng.gen_range(1u32..=u32::MAX)));
        divisors.extend((0..200).map(|_| rng.gen_range(1u32..4096)));
        for d in divisors {
            let div = Divisor::new(d, "d");
            // Multiples of `d` and their neighbours are where a rounded
            // reciprocal would first go wrong.
            let mut cases = vec![0, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX];
            for _ in 0..64 {
                let k = rng.gen_range(0..=u32::MAX / d);
                cases.extend([(k * d).wrapping_sub(1), k * d, (k * d).wrapping_add(1)]);
            }
            cases.extend((0..256).map(|_| rng.gen::<u32>()));
            for n in cases {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row_bytes must be non-zero")]
    fn zero_divisor_names_the_field() {
        let _ = Divisor::new(0, "row_bytes");
    }
}
