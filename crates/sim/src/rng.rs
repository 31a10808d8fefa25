//! Seeded random number generation for reproducible campaigns.
//!
//! The generator is self-contained (no external `rand` dependency): a
//! SplitMix64 state update feeding an xorshift-style finalizer, which is
//! plenty for workload parameter draws and latency jitter — this is a
//! simulation, not cryptography.

/// A deterministic random source.
///
/// Every experiment derives all of its randomness (workload parameters,
/// data generation, latency jitter) from one `SimRng` so a campaign replays
/// bit-identically for a given seed. Sub-streams created with
/// [`SimRng::fork`] are independent of later draws from the parent, which
/// keeps component randomness decoupled (e.g. adding a draw to the TPC-C
/// loader does not perturb the fault-trigger jitter).
///
/// ```
/// use recobench_sim::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.gen_range(0..100), b.gen_range(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Scramble the seed once so small consecutive seeds (0, 1, 2 …)
        // don't produce correlated early draws.
        let mut rng = SimRng { state: seed ^ 0x5851_F42D_4C95_7F2D };
        rng.next_u64();
        rng
    }

    /// Derives an independent sub-stream labelled by `stream`.
    ///
    /// Forking consumes one draw from the parent; two forks with different
    /// labels are statistically independent.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform draw from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits → uniform on the unit interval.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool called with p = {p}");
        if p == 1.0 {
            // gen_f64 never returns 1.0, so compare exclusively below and
            // special-case certainty.
            self.next_u64();
            return true;
        }
        self.gen_f64() < p
    }

    /// A raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea & Flood): one additive state step plus a
        // finalizer; passes BigCrush and is trivially seekable.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)` without modulo bias worth worrying about
    /// at simulation scales.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Numeric types [`SimRng::gen_range`] can sample.
pub trait SampleUniform: Copy {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open(rng: &mut SimRng, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive(rng: &mut SimRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range on empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                (lo as u64).wrapping_add(rng.below(span)) as $t
            }
            fn sample_inclusive(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as u64).wrapping_add(rng.below(span + 1)) as $t
            }
        }
    )*};
}
impl_sample_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range on empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                (lo as i64).wrapping_add(rng.below(span) as i64) as $t
            }
            fn sample_inclusive(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i64).wrapping_add(rng.below(span + 1) as i64) as $t
            }
        }
    )*};
}
impl_sample_int!(i8, i16, i32, i64, isize);

/// Range shapes [`SimRng::gen_range`] accepts.
pub trait SampleRange<T: SampleUniform> {
    /// Draws a value uniformly from `self`.
    fn sample(self, rng: &mut SimRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn forks_differ_by_label() {
        let mut root = SimRng::seed_from(1);
        // Forks must come from identically-positioned parents to compare
        // labels alone.
        let mut root2 = SimRng::seed_from(1);
        let mut f1 = root.fork(1);
        let mut f2 = root2.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1000 {
            assert!((10..20u64).contains(&rng.gen_range(10..20u64)));
            assert!((0..=5i64).contains(&rng.gen_range(0..=5i64)));
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(rng.gen_range(7..8usize), 7);
        assert_eq!(rng.gen_range(3..=3u32), 3);
    }

    #[test]
    fn nearby_seeds_are_uncorrelated() {
        let mut a = SimRng::seed_from(0);
        let mut b = SimRng::seed_from(1);
        let matches = (0..64).filter(|_| (a.next_u64() ^ b.next_u64()).count_ones() < 8).count();
        assert_eq!(matches, 0);
    }
}
