//! Seeded PRNG for the workspace, replacing the `rand` crate.
//!
//! [`Rng64`] is xoshiro256++ (Blackman & Vigna, 2019) seeded through
//! splitmix64, which is the same construction `rand_xoshiro` uses. The
//! API mirrors the subset of `rand` the workspace needs — `seed_from_u64`,
//! `gen`, `gen_range`, `gen_bool`, and slice `shuffle` — so call sites
//! keep their shape. Streams are fully determined by the seed; nothing
//! here reads OS entropy, which keeps datagen and the algorithms
//! reproducible in tests and benchmarks.
//!
//! Note the streams are *not* the same as `rand::StdRng`'s (different
//! algorithm), so seeded outputs changed once when the workspace switched.
//! All workspace tests assert properties, not literal draws, so this is
//! invisible outside the commit that introduced it.

/// Splitmix64 step — used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256++ generator with a rand-compatible method surface.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Deterministically seeds the generator from a single `u64`
    /// (splitmix64 expansion, matching `rand_xoshiro`'s convention).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper bits of [`Rng64::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform sample of type `T` (see [`Sample`] for the types provided).
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample from `range` (see [`SampleRange`] implementations).
    /// Panics on an empty range, matching `rand`.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`. Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range: {p}");
        self.gen::<f64>() < p
    }

    /// Uniform integer in `[0, bound)` by Lemire's multiply-shift with
    /// rejection — unbiased for every bound.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // threshold = 2^64 mod bound, computed without u128 division by zero
        // concerns: (0 - bound) % bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types [`Rng64::gen`] can sample uniformly.
pub trait Sample {
    /// Draws one uniform value.
    fn sample(rng: &mut Rng64) -> Self;
}

impl Sample for u64 {
    fn sample(rng: &mut Rng64) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample(rng: &mut Rng64) -> u32 {
        rng.next_u32()
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut Rng64) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample(rng: &mut Rng64) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Sample for bool {
    fn sample(rng: &mut Rng64) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng64::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_from(self, rng: &mut Rng64) -> T;
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from(self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from(self, rng: &mut Rng64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

int_range_impl!(usize, u64, u32, u16, u8);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from(self, rng: &mut Rng64) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        let u: f64 = rng.gen();
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample_from(self, rng: &mut Rng64) -> f32 {
        assert!(self.start < self.end, "gen_range on empty range");
        let u: f32 = rng.gen();
        self.start + u * (self.end - self.start)
    }
}

/// Fisher–Yates shuffle, available on slices as `data.shuffle(&mut rng)`
/// (mirrors `rand::seq::SliceRandom`).
pub trait Shuffle {
    /// Uniformly permutes the elements in place.
    fn shuffle(&mut self, rng: &mut Rng64);
}

impl<T> Shuffle for [T] {
    fn shuffle(&mut self, rng: &mut Rng64) {
        for i in (1..self.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_xoshiro256pp_vector() {
        // Reference: xoshiro256++ from state [1, 2, 3, 4] (Vigna's C code).
        let mut rng = Rng64 { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng64::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng64::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0u32..=5);
            assert!(y <= 5);
            let f = rng.gen_range(-2.5f64..1.5);
            assert!((-2.5..1.5).contains(&f));
        }
    }

    #[test]
    fn unit_float_is_half_open() {
        let mut rng = Rng64::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of Uniform[0,1) over 10k draws is ~0.5 ± 0.01 w.h.p.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng64::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
        let mut rng = Rng64::seed_from_u64(11);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let mut rng = Rng64::seed_from_u64(11);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::seed_from_u64(5);
        let mut data: Vec<usize> = (0..100).collect();
        data.shuffle(&mut rng);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With 100 elements an identity shuffle is astronomically unlikely.
        assert_ne!(data, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_is_unbiased_enough() {
        // Coarse chi-square-ish sanity check over 10 buckets.
        let mut rng = Rng64::seed_from_u64(13);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "bucket count {c}");
        }
    }
}
