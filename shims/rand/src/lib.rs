//! Minimal `rand` facade for offline builds.
//!
//! Implements the subset the workspace uses: [`rngs::SmallRng`] (a
//! xoshiro256++ generator, seedable from a `u64` via splitmix64),
//! [`Rng::random`] for `f64`/`u64`/`u32`/`bool`, and [`Rng::random_range`]
//! over half-open integer ranges. Streams are deterministic per seed, which
//! is all the simulator's noise model requires — they do not depend on
//! matching the upstream crate's bit streams.

/// Types samplable uniformly from an RNG ("standard" distribution).
pub trait FromRng: Sized {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types usable as the bound of [`Rng::random_range`].
pub trait SampleUniform: Copy {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! int_uniform {
    ($($ty:ty),*) => {
        $(
            impl SampleUniform for $ty {
                fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "random_range requires a non-empty range");
                    let span = (hi as i128 - lo as i128) as u128;
                    // Modulo bias is irrelevant at the spans this repo uses.
                    lo + (rng.next_u64() as u128 % span) as $ty
                }
            }
        )*
    };
}

int_uniform!(u8, u16, u32, u64, usize);

macro_rules! signed_uniform {
    ($($ty:ty),*) => {
        $(
            impl SampleUniform for $ty {
                fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "random_range requires a non-empty range");
                    let span = (hi as i128 - lo as i128) as u128;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $ty
                }
            }
        )*
    };
}

signed_uniform!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "random_range requires a non-empty range");
        lo + f64::from_rng(rng) * (hi - lo)
    }
}

/// The random-generator trait: a `u64` source plus derived samplers.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Sample from the standard distribution of `T`.
    fn random<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Sample uniformly from a half-open range.
    fn random_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }
}

/// RNGs constructible from seed material.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    /// A small, fast, non-cryptographic RNG (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl crate::SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    impl crate::Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(8);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval_and_well_spread() {
        let mut r = SmallRng::seed_from_u64(42);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_sampling_in_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.random_range(0usize..5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bins hit: {seen:?}");
        for _ in 0..200 {
            let v = r.random_range(-3i64..4);
            assert!((-3..4).contains(&v));
        }
    }
}
