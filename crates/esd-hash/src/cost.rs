//! Latency/energy cost model for fingerprint computation.
//!
//! The constants follow the ESD paper: 321 ns per cache line for SHA-1 and
//! 312 ns for MD5 (Section III-C), a lightweight tens-of-nanoseconds CRC
//! (DeWrite's fingerprint computation contributes roughly 10% of a 150 ns
//! write, Section IV-F), and *zero* for ECC, which the memory controller has
//! already computed for reliability. Energy constants follow the SHA-3
//! candidate measurement study the paper cites ([56], Westermann et al.),
//! scaled to one 64-byte cache line.

/// The cost of computing one fingerprint over a 64-byte cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FingerprintCost {
    /// Latency in nanoseconds.
    pub latency_ns: u64,
    /// Energy in picojoules.
    pub energy_pj: u64,
    /// Width of the fingerprint in bits (drives metadata sizing).
    pub bits: u32,
}

/// The fingerprint families compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FingerprintKind {
    /// The ECC value the memory controller already computed — free.
    Ecc,
    /// SHA-1, used by the `Dedup_SHA1` full-deduplication baseline.
    Sha1,
    /// MD5, the other traditional hash fingerprint.
    Md5,
    /// CRC-32, the lightweight fingerprint used by DeWrite.
    Crc32,
    /// CRC-64, a wider CRC variant.
    Crc64,
}

impl FingerprintKind {
    /// All fingerprint kinds, in presentation order.
    pub const ALL: [FingerprintKind; 5] = [
        FingerprintKind::Ecc,
        FingerprintKind::Sha1,
        FingerprintKind::Md5,
        FingerprintKind::Crc32,
        FingerprintKind::Crc64,
    ];

    /// The paper's per-cache-line cost model for this fingerprint.
    #[must_use]
    pub fn cost(self) -> FingerprintCost {
        match self {
            // The ECC is produced by existing memory-controller logic for
            // reliability; intercepting it costs nothing extra.
            FingerprintKind::Ecc => FingerprintCost {
                latency_ns: 0,
                energy_pj: 0,
                bits: 64,
            },
            FingerprintKind::Sha1 => FingerprintCost {
                latency_ns: 321,
                energy_pj: 4800,
                bits: 160,
            },
            FingerprintKind::Md5 => FingerprintCost {
                latency_ns: 312,
                energy_pj: 4500,
                bits: 128,
            },
            FingerprintKind::Crc32 => FingerprintCost {
                latency_ns: 15,
                energy_pj: 450,
                bits: 32,
            },
            FingerprintKind::Crc64 => FingerprintCost {
                latency_ns: 18,
                energy_pj: 520,
                bits: 64,
            },
        }
    }

    /// Short display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FingerprintKind::Ecc => "ECC",
            FingerprintKind::Sha1 => "SHA1",
            FingerprintKind::Md5 => "MD5",
            FingerprintKind::Crc32 => "CRC32",
            FingerprintKind::Crc64 => "CRC64",
        }
    }

    /// Computes this fingerprint over a 64-byte cache line, compressed to a
    /// comparable 64-bit key (full-width digests are truncated, which only
    /// *raises* their modeled collision rate — conservative for baselines).
    ///
    /// The `Ecc` variant is computed in [`esd-ecc`] and not available here;
    /// this method covers the hash/CRC families. See
    /// [`FingerprintKind::compute_key`]'s `None` return.
    ///
    /// [`esd-ecc`]: https://docs.rs/esd-ecc
    #[must_use]
    pub fn compute_key(self, line: &[u8; 64]) -> Option<u64> {
        match self {
            FingerprintKind::Ecc => None,
            FingerprintKind::Sha1 => Some(crate::sha1_line(line).to_u64()),
            FingerprintKind::Md5 => Some(crate::md5(line).to_u64()),
            FingerprintKind::Crc32 => Some(u64::from(crate::crc32(line))),
            FingerprintKind::Crc64 => Some(crate::crc64(line)),
        }
    }

    /// Computes this fingerprint's 64-bit key over a whole block of lines,
    /// appending one key per line to `out` in order, each equal to
    /// [`FingerprintKind::compute_key`]'s. SHA-1 hashes line by line with
    /// [`crate::sha1_line`]; MD5 routes through the 4-lane kernel
    /// (lane-tail batches included); the CRC families stay per-line table
    /// folds.
    ///
    /// The `Ecc` variant appends nothing, mirroring `compute_key`'s `None`.
    pub fn compute_keys(self, lines: &[[u8; 64]], out: &mut Vec<u64>) {
        match self {
            FingerprintKind::Ecc => {}
            FingerprintKind::Sha1 => {
                out.extend(lines.iter().map(|l| crate::sha1_line(l).to_u64()));
            }
            FingerprintKind::Md5 => {
                let mut digests = Vec::new();
                crate::md5_batch(lines, &mut digests);
                out.extend(digests.iter().map(|d| d.to_u64()));
            }
            FingerprintKind::Crc32 => {
                out.extend(lines.iter().map(|l| u64::from(crate::crc32(l))));
            }
            FingerprintKind::Crc64 => {
                out.extend(lines.iter().map(|l| crate::crc64(l)));
            }
        }
    }
}

impl std::fmt::Display for FingerprintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_is_free_and_hashes_are_not() {
        assert_eq!(FingerprintKind::Ecc.cost().latency_ns, 0);
        assert_eq!(FingerprintKind::Ecc.cost().energy_pj, 0);
        for kind in [
            FingerprintKind::Sha1,
            FingerprintKind::Md5,
            FingerprintKind::Crc32,
        ] {
            assert!(kind.cost().latency_ns > 0, "{kind} should cost time");
            assert!(kind.cost().energy_pj > 0, "{kind} should cost energy");
        }
    }

    #[test]
    fn sha1_is_slower_than_crc() {
        assert!(FingerprintKind::Sha1.cost().latency_ns > FingerprintKind::Crc32.cost().latency_ns);
    }

    #[test]
    fn compute_key_is_deterministic_and_content_sensitive() {
        let a = [1u8; 64];
        let mut b = a;
        b[10] = 2;
        for kind in [
            FingerprintKind::Sha1,
            FingerprintKind::Md5,
            FingerprintKind::Crc32,
            FingerprintKind::Crc64,
        ] {
            let ka = kind.compute_key(&a).unwrap();
            assert_eq!(ka, kind.compute_key(&a).unwrap());
            assert_ne!(ka, kind.compute_key(&b).unwrap(), "{kind}");
        }
        assert!(FingerprintKind::Ecc.compute_key(&a).is_none());
    }

    #[test]
    fn compute_keys_matches_per_line_compute_key() {
        let lines: Vec<[u8; 64]> = (0..7)
            .map(|s: usize| std::array::from_fn(|i| (s * 31 + i) as u8))
            .collect();
        for kind in FingerprintKind::ALL {
            let mut batch = Vec::new();
            kind.compute_keys(&lines, &mut batch);
            let scalar: Vec<u64> = lines.iter().filter_map(|l| kind.compute_key(l)).collect();
            assert_eq!(batch, scalar, "{kind}");
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            FingerprintKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FingerprintKind::ALL.len());
    }
}
