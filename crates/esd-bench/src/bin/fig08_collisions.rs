//! Figure 8: collision probability of the fingerprint families, normalized
//! to the CRC-based method.
//!
//! Two distinct lines "collide" when their fingerprints match. A colliding
//! filter forces an extra verify read (ESD, DeWrite) or silently corrupts
//! data (hash-trusting schemes). Three corpora are measured:
//!
//! * `random`   — independent random lines (the birthday-bound regime);
//! * `bit-flip` — 1–2 single-bit mutations of existing lines (SEC-DED's
//!   minimum distance of 4 makes ECC *provably* collision-free here);
//! * `byte-mut` — 1–2 random byte rewrites (adversarial for per-word ECC:
//!   a localized >=4-bit XOR pattern can be a valid Hamming codeword).
//!
//! The last corpus is where our from-scratch reproduction *diverges* from
//! the paper's Figure 8: a real per-word Hamming(72,64) fingerprint collides
//! more often than CRC-32 under small byte-granularity edits. ESD remains
//! correct regardless (collisions only cost a verify read), but the measured
//! nuance is reported honestly here and discussed in EXPERIMENTS.md.

use std::collections::HashMap;

use esd_bench::format_row;
use esd_ecc::EccFingerprint;
use esd_hash::FingerprintKind;
use esd_trace::CacheLine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 200_000;

#[derive(Clone, Copy)]
enum Mutation {
    None,
    BitFlips,
    ByteRewrites,
}

fn corpus(mutation: Mutation, seed: u64) -> Vec<[u8; 64]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(N);
    let base_count = match mutation {
        Mutation::None => N,
        _ => N / 2,
    };
    for i in 0..base_count {
        lines.push(CacheLine::from_seed(seed.wrapping_add(i as u64)).into_bytes());
    }
    while lines.len() < N {
        let mut m = lines[rng.gen_range(0..base_count)];
        let edits = rng.gen_range(1..=2);
        for _ in 0..edits {
            match mutation {
                Mutation::None => unreachable!("random corpus needs no mutations"),
                Mutation::BitFlips => m[rng.gen_range(0..64)] ^= 1 << rng.gen_range(0..8),
                Mutation::ByteRewrites => m[rng.gen_range(0..64)] ^= rng.gen_range(1..=255u8),
            }
        }
        lines.push(m);
    }
    lines
}

/// Counts colliding pairs: distinct contents sharing a fingerprint.
fn collisions(lines: &[[u8; 64]], fp: impl Fn(&[u8; 64]) -> u64) -> u64 {
    let mut groups: HashMap<u64, Vec<&[u8; 64]>> = HashMap::new();
    for line in lines {
        groups.entry(fp(line)).or_default().push(line);
    }
    let mut collisions = 0u64;
    for group in groups.values() {
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                if a != b {
                    collisions += 1;
                }
            }
        }
    }
    collisions
}

fn fingerprint_of(name: &str) -> impl Fn(&[u8; 64]) -> u64 + '_ {
    move |line| match name {
        "ECC" => EccFingerprint::of_line(line).to_u64(),
        "ECC-Hsiao" => esd_ecc::hsiao::encode_line(line),
        "CRC32" => FingerprintKind::Crc32.compute_key(line).expect("key"),
        "CRC64" => FingerprintKind::Crc64.compute_key(line).expect("key"),
        "MD5" => FingerprintKind::Md5.compute_key(line).expect("key"),
        "SHA1" => FingerprintKind::Sha1.compute_key(line).expect("key"),
        other => unreachable!("unknown fingerprint {other}"),
    }
}

fn main() {
    println!("=== Figure 8: fingerprint collision rates (normalized to CRC32) ===");
    println!("    (corpus: {N} lines per variant)");
    println!();

    let families = ["ECC", "ECC-Hsiao", "CRC32", "CRC64", "MD5", "SHA1"];
    let corpora = [
        ("random", Mutation::None),
        ("bit-flip", Mutation::BitFlips),
        ("byte-mut", Mutation::ByteRewrites),
    ];

    println!(
        "{}",
        format_row(
            "fingerprint",
            &corpora
                .iter()
                .map(|(n, _)| (*n).to_owned())
                .collect::<Vec<_>>()
        )
    );

    let mut table: Vec<Vec<u64>> = Vec::new();
    for &family in &families {
        let mut row = Vec::new();
        for &(_, mutation) in &corpora {
            let lines = corpus(mutation, 7);
            row.push(collisions(&lines, fingerprint_of(family)));
        }
        table.push(row);
    }

    for (family, row) in families.iter().zip(&table) {
        println!(
            "{}",
            format_row(family, &row.iter().map(u64::to_string).collect::<Vec<_>>())
        );
    }

    println!();
    println!("colliding pairs, absolute. SEC-DED distance 4 makes ECC immune to");
    println!("1-2 bit flips; localized byte rewrites can land on Hamming codewords,");
    println!("where ECC collides more than CRC32 — a divergence from the paper's");
    println!("idealized Figure 8 that ESD's verify read absorbs without data loss.");
}
