//! The hardware kernels' bit-exactness contract: the `Scalar` and `Auto`
//! backends must produce byte-identical [`RunReport`]s for every scheme,
//! and every block-granular kernel (SHA-1 keys of a block of lines, 4-lane
//! MD5, batched ECC encode, the 4-lane AES that builds every pad) must
//! agree with its one-line shape at every ragged tail length under both. On hosts without the relevant
//! instruction sets `Auto` runs the scalar kernels too and the comparisons
//! hold trivially.

use std::sync::Mutex;

use esd::core::{run_trace, RunOptions, RunReport, Scheme, SchemeKind};
use esd::kernels::{self, KernelBackend};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};
use proptest::prelude::*;

/// Backend selection is process-global, so every test that forces it
/// serializes here (and restores `Auto` before releasing the lock).
static BACKEND: Mutex<()> = Mutex::new(());

fn stress_config() -> SystemConfig {
    let mut config = SystemConfig::default();
    // Nonzero raw bit-error rate so the ECC decode/correct path runs
    // during the comparison.
    config.pcm.rber_per_tbit = 200_000;
    config.pcm.rber_seed = 0xE5D;
    config
}

fn run(kind: SchemeKind, kernels: KernelBackend) -> RunReport {
    let config = stress_config();
    let mut app = AppProfile::demo();
    app.working_set_lines = 2_048;
    let trace = generate_trace(&app, 31, 8_000);
    let options = RunOptions {
        verify: true,
        scrub_interval: Some(1_500),
        scrub_lines_per_tick: 64,
        epoch_interval: Some(2_048),
        kernels,
        ..RunOptions::default()
    };
    run_trace(Scheme::new(kind, &config), &trace, &config, &options).expect("verified run")
}

#[test]
fn report_is_byte_identical_between_scalar_and_auto_backends() {
    let _guard = BACKEND.lock().unwrap();
    for kind in SchemeKind::EXTENDED {
        let scalar = run(kind, KernelBackend::Scalar);
        let auto = run(kind, KernelBackend::Auto);
        assert_eq!(
            scalar, auto,
            "{kind} diverged between scalar and auto kernels"
        );
    }
    kernels::set_backend(KernelBackend::Auto);
}

/// Runs `op` under the forced scalar backend, then the default `Auto`
/// backend, and returns both results for comparison.
fn under_both_backends<T>(mut op: impl FnMut() -> T) -> (T, T) {
    kernels::set_backend(KernelBackend::Scalar);
    let scalar = op();
    kernels::set_backend(KernelBackend::Auto);
    let auto = op();
    (scalar, auto)
}

/// Deterministic pseudo-random lines from one seed.
fn lcg_lines(seed: u64, n: usize) -> Vec<[u8; 64]> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every batch-lane kernel agrees between the two backends — and with
    /// the one-line shape — at the ragged tail lengths that leave
    /// 4-lane groups partially filled (1, 3) or spill one element past a
    /// full block (63, 65).
    #[test]
    fn lane_kernels_are_bit_exact_at_ragged_tails(
        seed in any::<u64>(),
        tail in any::<prop::sample::Index>(),
    ) {
        let _guard = BACKEND.lock().unwrap();
        let n = [1usize, 3, 63, 65][tail.index(4)];
        let lines = lcg_lines(seed, n);

        // SHA-1 keys: the block call, the per-line call and the full line
        // digest behind them.
        let sha1 = esd::hash::FingerprintKind::Sha1;
        let (sha_scalar, sha_auto) = under_both_backends(|| {
            let mut keys = Vec::new();
            sha1.compute_keys(&lines, &mut keys);
            let per_line: Vec<Option<u64>> = lines.iter().map(|l| sha1.compute_key(l)).collect();
            let digests: Vec<_> = lines.iter().map(esd::hash::sha1_line).collect();
            (keys, per_line, digests)
        });
        prop_assert_eq!(&sha_scalar, &sha_auto, "sha1 keys n={}", n);
        let (keys, per_line, digests) = sha_scalar;
        prop_assert_eq!(keys.len(), n);
        for (i, line) in lines.iter().enumerate() {
            let streamed = esd::hash::sha1(line);
            prop_assert_eq!(digests[i], streamed);
            prop_assert_eq!(keys[i], streamed.to_u64());
            prop_assert_eq!(per_line[i], Some(keys[i]));
        }

        let (md5_scalar, md5_auto) = under_both_backends(|| {
            let mut out = Vec::new();
            esd::hash::md5_batch(&lines, &mut out);
            out
        });
        prop_assert_eq!(&md5_scalar, &md5_auto, "md5_batch n={}", n);
        for (line, digest) in lines.iter().zip(&md5_scalar) {
            prop_assert_eq!(&esd::hash::md5(line), digest);
        }

        let (ecc_scalar, ecc_auto) = under_both_backends(|| {
            let mut out = Vec::new();
            esd::ecc::encode_lines(&lines, &mut out);
            out
        });
        prop_assert_eq!(&ecc_scalar, &ecc_auto, "encode_lines n={}", n);
        for (line, ecc) in lines.iter().zip(&ecc_scalar) {
            prop_assert_eq!(&esd::ecc::encode_line(line), ecc);
        }

        // Every pad is one `encrypt4` over the line's four counter blocks.
        let aes = esd::crypto::Aes128::new(&[0x2B; 16]);
        let blocks: Vec<[[u8; 16]; 4]> = lines
            .iter()
            .map(|line| std::array::from_fn(|b| line[16 * b..16 * (b + 1)].try_into().unwrap()))
            .collect();
        let (aes_scalar, aes_auto) = under_both_backends(|| {
            blocks.iter().map(|&four| aes.encrypt4(four)).collect::<Vec<_>>()
        });
        prop_assert_eq!(&aes_scalar, &aes_auto, "encrypt4 n={}", n);
    }

    /// Single-block AES agrees between backends on arbitrary keys/blocks.
    #[test]
    fn aes_block_is_bit_exact_between_backends(
        key in prop::array::uniform16(any::<u8>()),
        block in prop::array::uniform16(any::<u8>()),
    ) {
        let _guard = BACKEND.lock().unwrap();
        let aes = esd::crypto::Aes128::new(&key);
        let (scalar, auto) = under_both_backends(|| aes.encrypt_block(block));
        prop_assert_eq!(scalar, auto);
    }
}
