//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace ships a
//! minimal, API-compatible subset of `rand` 0.8: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`] and [`Rng::gen_range`] over the primitive
//! ranges the benchsuite uses. The generator is splitmix64 — deterministic
//! across platforms, which the benchmark suite relies on for seeded,
//! reproducible input data. It is **not** the real StdRng stream and is not
//! cryptographically secure.
//!
//! One addition goes beyond rand 0.8's API: [`StdRng::skip`], which moves
//! the generator past a number of draws without making them (splitmix64's
//! state is a counter), so a caller can hand a clone of the stream to code
//! that draws later and carry on from where that code will stop.

pub mod rngs {
    /// Deterministic splitmix64 generator (stand-in for rand's `StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

/// Splitmix64's increment: each draw adds it to the state once.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl StdRng {
    /// Advance past `draws` calls of [`Rng::next_u64`] without making
    /// them — every value this crate samples is one such call. Not part
    /// of rand 0.8's API.
    pub fn skip(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }
}

/// Seedable generators (subset of rand's trait).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        StdRng {
            state: seed ^ GAMMA,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random number generation (subset of rand's `Rng`).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample(self, range)
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }
}

/// Types uniformly samplable from a `Range` by [`Rng::gen_range`].
pub trait SampleUniform: Sized {
    fn sample<R: Rng>(rng: &mut R, range: std::ops::Range<Self>) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: Rng>(rng: &mut R, range: std::ops::Range<$t>) -> $t {
                assert!(range.start < range.end, "gen_range: empty range");
                // Below 2^64 for every half-open range of a type of at
                // most 64 bits, so the remainder needs no 128-bit division.
                let span = (range.end as i128 - range.start as i128) as u64;
                (range.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_sample_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: Rng>(rng: &mut R, range: std::ops::Range<$t>) -> $t {
                assert!(range.start < range.end, "gen_range: empty range");
                // 53 high bits -> uniform in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                range.start + (range.end - range.start) * unit as $t
            }
        }
    )*};
}

impl_sample_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = a.gen_range(-1.0_f32..1.0);
            assert_eq!(x, b.gen_range(-1.0_f32..1.0));
            assert!((-1.0..1.0).contains(&x));
            let i = a.gen_range(-100_i32..100);
            assert_eq!(i, b.gen_range(-100_i32..100));
            assert!((-100..100).contains(&i));
        }
    }

    #[test]
    fn skip_lands_where_the_draws_would() {
        for draws in [0_u64, 1, 2, 7, 1000, 12_345] {
            let mut drawn = StdRng::seed_from_u64(draws ^ 3);
            let mut skipped = drawn.clone();
            for _ in 0..draws {
                drawn.next_u64();
            }
            skipped.skip(draws);
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "{draws} draws");
        }
    }

    /// The 128-bit reduction `gen_range` used before it reduced in u64.
    fn wide<T: Copy + Into<i128>>(x: u64, start: T, end: T) -> i128 {
        let (start, end) = (start.into(), end.into());
        start + (x as u128 % (end - start) as u128) as i128
    }

    #[test]
    fn integer_ranges_reduce_as_in_128_bits() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut same = rng.clone();
        for _ in 0..2000 {
            for (s, e) in [(-100_i32, 100), (0, 7), (i32::MIN, i32::MAX), (-1, 0)] {
                assert_eq!(rng.gen_range(s..e) as i128, wide(same.next_u64(), s, e));
            }
            for (s, e) in [(-100_i64, 100), (i64::MIN, i64::MAX), (i64::MIN, 0), (5, 6)] {
                assert_eq!(rng.gen_range(s..e) as i128, wide(same.next_u64(), s, e));
            }
            for (s, e) in [
                (0_u64, u64::MAX),
                (1, u64::MAX),
                (0, 3),
                (u64::MAX - 1, u64::MAX),
            ] {
                assert_eq!(rng.gen_range(s..e) as i128, wide(same.next_u64(), s, e));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
