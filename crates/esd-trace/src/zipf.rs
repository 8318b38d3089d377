//! A Zipfian sampler over `0..n`, used to model content locality: a few
//! cache-line contents are referenced enormously often (the paper's Fig. 3
//! shows 0.08% of unique lines absorbing 42.7% of all writes).

use rand::Rng;

/// Samples indices `0..n` with probability proportional to `1/(i+1)^s`.
///
/// # Examples
///
/// ```
/// use esd_trace::Zipf;
/// use rand::SeedableRng;
/// let zipf = Zipf::new(1000, 1.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[k]` is the first index whose CDF value is `≥ k/m`, for
    /// `m = ⌈n/4⌉` buckets (see [`Zipf::sample`]).
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s`: the running
    /// sums of [`ZipfSums::new`], normalised in place.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        Zipf::normalised(ZipfSums::new(n, s).sums)
    }

    /// Turns unnormalised running sums into the CDF, dividing each by the
    /// last, and fills the guide table.
    fn normalised(mut cdf: Vec<f64>) -> Self {
        let total = *cdf.last().expect("Zipf needs at least one item");
        let buckets = cdf.len().div_ceil(4);
        let mut guide = Vec::with_capacity(buckets);
        let mut edge = 0.0f64;
        for (i, p) in cdf.iter_mut().enumerate() {
            *p /= total;
            // The last value is exactly 1.0, above every edge k/m with
            // k < m, so all m entries are filled by the end of the loop.
            while guide.len() < buckets && *p >= edge {
                guide.push(i);
                edge = guide.len() as f64 / buckets as f64;
            }
        }
        Zipf { cdf, guide }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over zero items (never true by
    /// construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one index: for a uniform draw `u` in `[0, 1)`, the first index
    /// whose CDF value is `≥ u`, clamped to `n − 1`. That is the index a
    /// binary search over the CDF returns, found in expected O(1) steps. (A
    /// binary search could differ only on a draw exactly equal to a value
    /// the CDF repeats, and the CDF repeats none until a term falls below
    /// the rounding of the running sum, far past any profile's working set.)
    ///
    /// The unit interval is cut into `m = ⌈n/4⌉` equal buckets, and the
    /// guide table holds, for each bucket `k`, the first index whose CDF
    /// value is `≥ k/m`. The search starts at the guide entry of `u`'s
    /// bucket, `⌊u·m⌋`. It steps back while the previous CDF value is still
    /// `≥ u`, which covers a bucket index that float rounding put one too
    /// high, then walks forward to the first CDF value `≥ u`. Every bucket
    /// is drawn with probability `1/m` and the buckets hold `n` items
    /// between them, so the walk averages about `n/(2m) = 2` steps.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let last = self.cdf.len() - 1;
        let bucket = ((u * self.guide.len() as f64) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket];
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// The unnormalised running sums `Σ_{j ≤ i} 1/(j+1)^s` of a Zipf
/// distribution, from which [`ZipfSums::zipf`] cuts the distribution over
/// any prefix `0..n`.
///
/// The sums over `0..n` are a prefix of the sums over any longer range, so
/// many distributions of one exponent (one per workload of a sweep, say)
/// pay the `powf` per item once, for the largest of them. Each cut is
/// bit-identical to [`Zipf::new`]`(n, s)`.
///
/// ```
/// use esd_trace::{Zipf, ZipfSums};
/// use rand::SeedableRng;
/// let sums = ZipfSums::new(1000, 1.1);
/// let (cut, fresh) = (sums.zipf(300), Zipf::new(300, 1.1));
/// let mut a = rand::rngs::StdRng::seed_from_u64(5);
/// let mut b = rand::rngs::StdRng::seed_from_u64(5);
/// assert!((0..100).all(|_| cut.sample(&mut a) == fresh.sample(&mut b)));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSums {
    sums: Vec<f64>,
    exponent: f64,
}

impl ZipfSums {
    /// The running sums over `n` items with exponent `s` (none when `n`
    /// is zero).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        // Filled in place: the same loop pushing onto an empty `Vec` took
        // about 10 % longer in a release build.
        let mut sums = vec![0.0f64; n];
        let mut acc = 0.0f64;
        for (i, sum) in sums.iter_mut().enumerate() {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            *sum = acc;
        }
        ZipfSums { sums, exponent: s }
    }

    /// Number of items the sums cover.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether the sums cover no item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// The exponent the sums were built with.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The distribution over the first `n` items, identical to
    /// [`Zipf::new`]`(n, self.exponent())`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`ZipfSums::len`].
    #[must_use]
    pub fn zipf(&self, n: usize) -> Zipf {
        assert!(
            n <= self.sums.len(),
            "Zipf over {n} items cut from sums over {}",
            self.sums.len()
        );
        Zipf::normalised(self.sums[..n].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn skew_concentrates_mass_on_low_indices() {
        let zipf = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1.2 over 1000 items the top-10 carry well over a third.
        assert!(
            head as f64 / N as f64 > 0.35,
            "head fraction {}",
            head as f64 / N as f64
        );
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        const N: usize = 40_000;
        for _ in 0..N {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / N as f64;
            assert!((frac - 0.25).abs() < 0.02, "uniform fraction off: {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "Zipf needs at least one item")]
    fn empty_distribution_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    /// An [`RngCore`] that always yields the same 64-bit word, letting a
    /// test pin `rng.gen::<f64>()` to an exact unit-interval value.
    struct FixedBits(u64);

    impl rand::RngCore for FixedBits {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The raw word for which the vendored rand's `Standard` impl for
    /// `f64` — `(bits >> 11) as f64 / 2^53` — produces exactly `u`.
    fn bits_for_unit_f64(u: f64) -> u64 {
        assert!((0.0..1.0).contains(&u));
        let mantissa = (u * (1u64 << 53) as f64) as u64;
        mantissa << 11
    }

    #[test]
    fn single_item_distribution_always_returns_zero() {
        let zipf = Zipf::new(1, 1.3);
        assert_eq!(zipf.len(), 1);
        assert!(!zipf.is_empty());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
        // Including the extreme draws u = 0 and u = max-representable.
        assert_eq!(zipf.sample(&mut FixedBits(0)), 0);
        assert_eq!(zipf.sample(&mut FixedBits(u64::MAX)), 0);
    }

    #[test]
    fn draw_exactly_on_cdf_boundary_selects_that_item() {
        // s = 0 over two items: CDF is [0.5, 1.0].
        let zipf = Zipf::new(2, 0.0);
        let mut on_boundary = FixedBits(bits_for_unit_f64(0.5));
        assert_eq!(
            zipf.sample(&mut on_boundary),
            0,
            "u == cdf[0] belongs to item 0"
        );
        let mut below = FixedBits(bits_for_unit_f64(0.5) - (1 << 11));
        assert_eq!(zipf.sample(&mut below), 0);
        let mut above = FixedBits(bits_for_unit_f64(0.5) + (1 << 11));
        assert_eq!(zipf.sample(&mut above), 1);
    }

    #[test]
    fn final_cdf_entry_is_exactly_one_and_max_draw_stays_in_range() {
        for (n, s) in [(1usize, 1.0), (7, 0.8), (1000, 1.2), (12_345, 0.0)] {
            let zipf = Zipf::new(n, s);
            // Normalization divides the accumulated total by itself, so the
            // last entry is exactly 1.0 with no accumulated-rounding slack
            // for a draw to escape past.
            assert_eq!(*zipf.cdf.last().expect("non-empty"), 1.0, "n={n} s={s}");
            // The largest representable draw, (2^53 - 1) / 2^53, must map
            // to the last item, not index out of bounds.
            let mut max_draw = FixedBits(u64::MAX);
            assert_eq!(zipf.sample(&mut max_draw), n - 1, "n={n} s={s}");
        }
    }

    /// The sampler before the guide table, kept as the reference: a binary
    /// search over the CDF.
    fn bisect(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite CDF")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    const EXPONENTS: [f64; 4] = [0.0, 0.5, 1.1, 2.0];

    /// Largest draw mantissa: `(2^53 − 1) / 2^53` is the largest `u`.
    const MAX_MANTISSA: u64 = (1 << 53) - 1;

    /// Draws `u = mantissa / 2^53` and checks it against the reference.
    fn agrees_at(zipf: &Zipf, mantissa: u64) {
        let bits = mantissa.min(MAX_MANTISSA) << 11;
        let u: f64 = FixedBits(bits).gen();
        let (n, m) = (zipf.len(), zipf.guide.len());
        assert_eq!(
            zipf.sample(&mut FixedBits(bits)),
            bisect(&zipf.cdf, u),
            "n={n} m={m} u={u:e}"
        );
    }

    /// Checks the guide invariant, then the sampler against the reference at
    /// 0, at the largest draw, on and one draw either side of every bucket
    /// edge k/m, at random draws, and on and beside the CDF values of
    /// random samples.
    fn agrees_everywhere(zipf: &Zipf, rng: &mut StdRng, draws: usize) {
        let (cdf, guide) = (&zipf.cdf, &zipf.guide);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(guide.len(), cdf.len().div_ceil(4));
        let m = guide.len();
        for (k, &first) in guide.iter().enumerate() {
            let edge = k as f64 / m as f64;
            assert!(cdf[first] >= edge && (first == 0 || cdf[first - 1] < edge));
            let mantissa = (edge * (1u64 << 53) as f64) as u64;
            for draw in [mantissa.saturating_sub(1), mantissa, mantissa + 1] {
                agrees_at(zipf, draw);
            }
        }
        agrees_at(zipf, 0);
        agrees_at(zipf, MAX_MANTISSA);
        for _ in 0..draws {
            agrees_at(zipf, rng.gen::<u64>() >> 11);
            let on_cdf = (cdf[zipf.sample(rng)] * (1u64 << 53) as f64) as u64;
            for draw in [on_cdf.saturating_sub(1), on_cdf, on_cdf + 1] {
                agrees_at(zipf, draw);
            }
        }
    }

    #[test]
    fn guide_table_matches_binary_search_on_every_profile_working_set() {
        let mut sizes: Vec<usize> = crate::AppProfile::all()
            .iter()
            .chain([&crate::AppProfile::demo()])
            .map(|p| p.working_set_lines)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        let mut rng = StdRng::seed_from_u64(31);
        for n in sizes {
            for s in EXPONENTS {
                agrees_everywhere(&Zipf::new(n, s), &mut rng, 2_000);
            }
        }
    }

    #[test]
    fn draw_rounded_into_the_next_bucket_steps_back() {
        // 24 items, so m = 6. The largest draw below the edge 5/6 times 6
        // rounds to exactly 5.0: bucket 5, whose guide entry is the first
        // index at or above 5/6. Placing that draw itself in the CDF, one
        // index earlier, makes the guide entry one past the answer.
        let u = 5.0 / 6.0 - f64::EPSILON / 2.0;
        assert_eq!(((u * 6.0) as usize, u < 5.0 / 6.0), (5, true));
        let mut cdf: Vec<f64> = (1..=24).map(|i| f64::from(i) / 24.0).collect();
        cdf[19] = u;
        let m = cdf.len().div_ceil(4);
        let guide = (0..m)
            .map(|k| cdf.partition_point(|&p| p < k as f64 / m as f64))
            .collect();
        let zipf = Zipf { cdf, guide };
        assert_eq!(zipf.guide[5], 20);
        let mantissa = (u * (1u64 << 53) as f64) as u64;
        assert_eq!(zipf.sample(&mut FixedBits(mantissa << 11)), 19);
        agrees_everywhere(&zipf, &mut StdRng::seed_from_u64(5), 100);
    }

    #[test]
    fn a_cut_of_longer_sums_is_the_fresh_table_bit_for_bit() {
        let bits = |zipf: &Zipf| zipf.cdf.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for s in EXPONENTS {
            let sums = ZipfSums::new(5_000, s);
            for n in [1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 4_999, 5_000] {
                let (cut, fresh) = (sums.zipf(n), Zipf::new(n, s));
                assert_eq!(bits(&cut), bits(&fresh), "n={n} s={s}");
                assert_eq!(cut.guide, fresh.guide, "n={n} s={s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Zipf over 11 items cut from sums over 10")]
    fn a_cut_longer_than_the_sums_panics() {
        let _ = ZipfSums::new(10, 1.1).zipf(11);
    }

    proptest::proptest! {
        #[test]
        fn guide_table_matches_binary_search_on_small_tables(
            n in 1usize..5000,
            s in 0usize..EXPONENTS.len(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let zipf = Zipf::new(n, EXPONENTS[s]);
            agrees_everywhere(&zipf, &mut StdRng::seed_from_u64(seed), 500);
        }
    }
}
