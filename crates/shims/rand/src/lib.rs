//! Offline drop-in subset of the `rand` 0.9 API.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the small slice of `rand` it actually uses: a seedable
//! generator (`rngs::StdRng`), the [`Rng`] extension methods
//! `random`/`random_range`, and [`SeedableRng::seed_from_u64`].
//!
//! The generator is xoshiro256** seeded through SplitMix64 — a
//! different stream than upstream `StdRng` (ChaCha12), but everything
//! in this workspace only requires *deterministic, well-mixed* bits,
//! never a specific stream. All simulated results remain functions of
//! the seed alone.

use std::ops::{Range, RangeInclusive};

/// Core source of randomness: 64 fresh bits per call.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire stream is a function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable from raw bits (the `StandardUniform` distribution).
pub trait Standard: Sized {
    /// Draw one value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges that can produce a uniform sample.
pub trait SampleRange<T> {
    /// Draw one value inside the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing extension methods, blanket-implemented for every
/// [`RngCore`] (including unsized ones, so `R: Rng + ?Sized` bounds
/// from upstream-style code keep compiling).
pub trait Rng: RngCore {
    /// Sample from the standard distribution of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform sample from `range` (half-open or inclusive).
    fn random_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

macro_rules! impl_uint_sampling {
    ($($t:ty),+) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }

        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )+};
}

impl_uint_sampling!(u8, u16, u32, u64, usize);

macro_rules! impl_int_sampling {
    ($($t:ty),+) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }

        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )+};
}

impl_int_sampling!(i32, i64);

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256**.
    #[derive(Clone, Debug)]
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
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
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
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xa: Vec<u64> = (0..16).map(|_| a.random()).collect();
        let xb: Vec<u64> = (0..16).map(|_| b.random()).collect();
        let xc: Vec<u64> = (0..16).map(|_| c.random()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: u64 = r.random_range(10..20);
            assert!((10..20).contains(&x));
            let y: u32 = r.random_range(0..=5);
            assert!(y <= 5);
            let z: usize = r.random_range(1..2);
            assert_eq!(z, 1);
        }
    }

    #[test]
    fn f64_is_unit_interval_and_mixed() {
        let mut r = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 4096.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} not ~0.5");
    }

    #[test]
    fn unsized_rng_bound_compiles() {
        fn take<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>()
        }
        let mut r = StdRng::seed_from_u64(3);
        assert!(take(&mut r) < 1.0);
    }
}
