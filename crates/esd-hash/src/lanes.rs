//! Batch drivers over the 4-lane hash kernels.
//!
//! The replay engine hands a whole struct-of-arrays block of cache
//! lines to the fingerprint stage at once. These helpers split such a block
//! into full 4-line groups for the 4-lane kernels and finish the lane-tail
//! (the final 1–3 lines) with the one-shot functions, so every block length
//! produces exactly the per-line digests.

use crate::{md5, md5_lines4, sha1, sha1_lines4, Md5Digest, Sha1Digest};

/// Hashes a block of 64-byte lines with the 4-lane SHA-1 kernel, appending
/// one digest per line to `out` in order. The tail lines that do not fill a
/// lane group go through [`sha1`].
pub fn sha1_batch(lines: &[[u8; 64]], out: &mut Vec<Sha1Digest>) {
    out.reserve(lines.len());
    let mut groups = lines.chunks_exact(4);
    for group in groups.by_ref() {
        let group: &[[u8; 64]; 4] = group.try_into().expect("4 lines");
        out.extend(sha1_lines4(group));
    }
    for line in groups.remainder() {
        out.push(sha1(line));
    }
}

/// Hashes a block of 64-byte lines with the 4-lane MD5 kernel, appending one
/// digest per line to `out` in order; lane-tail handled by [`md5`].
pub fn md5_batch(lines: &[[u8; 64]], out: &mut Vec<Md5Digest>) {
    out.reserve(lines.len());
    let mut groups = lines.chunks_exact(4);
    for group in groups.by_ref() {
        let group: &[[u8; 64]; 4] = group.try_into().expect("4 lines");
        out.extend(md5_lines4(group));
    }
    for line in groups.remainder() {
        out.push(md5(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seed: usize) -> [u8; 64] {
        std::array::from_fn(|i| (seed * 67 + i * 13) as u8)
    }

    #[test]
    fn batches_match_scalar_at_every_tail_size() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 63, 64, 65] {
            let lines: Vec<[u8; 64]> = (0..len).map(line).collect();
            let mut sha = Vec::new();
            let mut md = Vec::new();
            sha1_batch(&lines, &mut sha);
            md5_batch(&lines, &mut md);
            assert_eq!(sha.len(), len);
            assert_eq!(md.len(), len);
            for (i, l) in lines.iter().enumerate() {
                assert_eq!(sha[i], sha1(l), "sha1 lane mismatch at {i}/{len}");
                assert_eq!(md[i], md5(l), "md5 lane mismatch at {i}/{len}");
            }
        }
    }

    #[test]
    fn batch_appends_to_existing_output() {
        let lines = [line(1), line(2)];
        let mut out = vec![sha1(b"sentinel")];
        sha1_batch(&lines, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], sha1(b"sentinel"));
        assert_eq!(out[1], sha1(&lines[0]));
    }
}
