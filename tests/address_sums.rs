//! One set of running sums serves every workload's address distribution: a
//! trace whose Zipf table was cut from sums built for the largest working
//! set is the trace `generate_trace` builds from scratch, and a cut
//! distribution draws exactly what `Zipf::new` draws.

use esd_trace::{generate_trace, AppProfile, TraceGenerator, Zipf, ZipfSums};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Every profile a sweep or a figure can replay.
fn profiles() -> Vec<AppProfile> {
    let mut all = AppProfile::all();
    all.push(AppProfile::demo());
    all
}

/// An [`RngCore`] that always yields one 64-bit word, so a draw
/// `rng.gen::<f64>()` is `(word >> 11) / 2^53` exactly.
struct FixedBits(u64);

impl RngCore for FixedBits {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The word whose draw is `mantissa / 2^53`.
fn word(mantissa: u64) -> u64 {
    mantissa.min((1 << 53) - 1) << 11
}

/// The mantissa of the largest draw at or below `u`.
fn mantissa_of(u: f64) -> u64 {
    (u * (1u64 << 53) as f64) as u64
}

#[test]
fn a_trace_from_the_shared_sums_is_the_trace_generated_from_scratch() {
    let profiles = profiles();
    let sums = TraceGenerator::address_sums(&profiles);
    let largest = profiles.iter().map(|p| p.working_set_lines).max();
    assert_eq!(Some(sums.len()), largest);
    for profile in &profiles {
        for seed in [1, 42, u64::MAX] {
            let shared = TraceGenerator::with_sums(profile.clone(), seed, &sums).generate(20_000);
            assert_eq!(
                shared,
                generate_trace(profile, seed, 20_000),
                "{} seed {seed}",
                profile.name
            );
        }
    }
}

#[test]
fn a_cut_distribution_draws_what_a_fresh_one_draws() {
    let profiles = profiles();
    let mut sizes: Vec<usize> = vec![1, 2, 3, 5];
    sizes.extend((0..16).map(|k| 7usize << k));
    sizes.extend(profiles.iter().map(|p| p.working_set_lines));
    let largest = sizes.iter().copied().max().expect("sizes");
    let sums = ZipfSums::new(largest, 1.1);
    assert_eq!((sums.len(), sums.exponent()), (largest, 1.1));
    // The running sums, summed here in the same order, give every CDF
    // value a draw can land on: `cdf[i] = running[i] / running[n - 1]`.
    let running: Vec<f64> = (1..=largest)
        .scan(0.0f64, |acc, i| {
            *acc += 1.0 / (i as f64).powf(1.1);
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(17);
    for n in sizes {
        let (cut, fresh) = (sums.zipf(n), Zipf::new(n, 1.1));
        assert_eq!(cut.len(), n);
        let draws_agree = |mantissa: u64| {
            let (a, b) = (
                cut.sample(&mut FixedBits(word(mantissa))),
                fresh.sample(&mut FixedBits(word(mantissa))),
            );
            assert_eq!(a, b, "n={n} mantissa={mantissa}");
            a
        };
        // u = 0 takes the first item and the largest draw the last.
        assert_eq!(draws_agree(0), 0);
        assert_eq!(draws_agree(u64::MAX), n - 1);
        for _ in 0..2_000 {
            let i = draws_agree(rng.gen::<u64>() >> 11);
            // On the drawn item's CDF value and one draw either side.
            let on = mantissa_of(running[i] / running[n - 1]);
            for m in [on.saturating_sub(1), on, on + 1] {
                draws_agree(m);
            }
        }
        // A draw exactly on a CDF value takes that item. Values at or
        // above 1/2 are multiples of 2^-53, so a draw can hit them.
        for i in (0..n)
            .filter(|&i| running[i] / running[n - 1] >= 0.5)
            .take(64)
        {
            assert_eq!(draws_agree(mantissa_of(running[i] / running[n - 1])), i);
        }
    }
}

#[test]
#[should_panic(expected = "address sums need exponent")]
fn sums_of_another_exponent_are_refused() {
    let sums = ZipfSums::new(AppProfile::demo().working_set_lines, 1.2);
    let _ = TraceGenerator::with_sums(AppProfile::demo(), 1, &sums);
}

#[test]
#[should_panic(expected = "short of")]
fn sums_shorter_than_the_working_set_are_refused() {
    let demo = AppProfile::demo();
    let sums = ZipfSums::new(demo.working_set_lines - 1, 1.1);
    let _ = TraceGenerator::with_sums(demo, 1, &sums);
}
