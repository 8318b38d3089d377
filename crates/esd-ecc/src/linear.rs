//! The one line kernel under both SEC-DED codes.
//!
//! Hamming(72,64) and Hsiao(72,64) are both GF(2)-linear: a word's 8-bit
//! code is the XOR of the columns of its set data bits. Such a code is
//! fully described by its 64 data-bit columns, and byte `j` of a word
//! contributes `M_j · byte` for an 8×8 bit matrix `M_j`. Two kernels
//! compute the eight word codes of a line from that description:
//!
//! * the table fold — `table[j][v] = M_j · v`, eight lookups per word —
//!   which every host runs;
//! * the GFNI kernel (`gfni.rs`): one `vpermb` gathers byte `j` of every
//!   word into qword `j`, one `vgf2p8affineqb` applies `M_j` to qword `j`,
//!   and a three-step XOR fold of the eight qwords leaves the packed code.
//!
//! Both produce the packed little-endian layout of [`crate::LineEcc::to_u64`]
//! (byte `w` is word `w`'s code) and are bit-exact with each other.

use crate::line::LINE_BYTES;

/// A GF(2)-linear map from a 64-bit word to an 8-bit code, in the two
/// forms the kernels take.
pub(crate) struct LinearCode {
    /// `table[j][v]` is the code of a word whose byte `j` is `v` and whose
    /// other bytes are zero.
    table: [[u8; 256]; 8],
    /// `affine[j]` is `M_j` as `vgf2p8affineqb` takes it: the row of
    /// output bit `b` (the input bits that feed it) sits in byte `7 - b`.
    affine: [u64; 8],
}

impl LinearCode {
    /// The code whose data bit `i` has parity-check column `columns[i]`.
    pub(crate) const fn from_columns(columns: &[u8; 64]) -> Self {
        let mut table = [[0u8; 256]; 8];
        let mut affine = [0u64; 8];
        let mut j = 0;
        while j < 8 {
            let mut v = 0;
            while v < 256 {
                let mut code = 0u8;
                let mut k = 0;
                while k < 8 {
                    if v & (1 << k) != 0 {
                        code ^= columns[8 * j + k];
                    }
                    k += 1;
                }
                table[j][v] = code;
                v += 1;
            }
            let mut b = 0;
            while b < 8 {
                let mut row = 0u64;
                let mut k = 0;
                while k < 8 {
                    row |= (((columns[8 * j + k] >> b) & 1) as u64) << k;
                    k += 1;
                }
                affine[j] |= row << (8 * (7 - b));
                b += 1;
            }
            j += 1;
        }
        LinearCode { table, affine }
    }

    /// The code of one 64-bit word: eight lookups XOR-folded.
    #[inline]
    pub(crate) fn word(&self, data: u64) -> u8 {
        let b = data.to_le_bytes();
        self.table[0][b[0] as usize]
            ^ self.table[1][b[1] as usize]
            ^ self.table[2][b[2] as usize]
            ^ self.table[3][b[3] as usize]
            ^ self.table[4][b[4] as usize]
            ^ self.table[5][b[5] as usize]
            ^ self.table[6][b[6] as usize]
            ^ self.table[7][b[7] as usize]
    }

    /// The packed code of a line (byte `w` is word `w`'s code), on the
    /// GFNI kernel where the host and the kernel backend allow it, the
    /// table fold otherwise.
    #[inline]
    pub(crate) fn line(&self, line: &[u8; LINE_BYTES]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(code) = crate::gfni::line_code(line, &self.affine) {
            return code;
        }
        self.line_fold(line)
    }

    /// The packed code of a line through the table fold alone.
    fn line_fold(&self, line: &[u8; LINE_BYTES]) -> u64 {
        let mut codes = [0u8; 8];
        for (code, chunk) in codes.iter_mut().zip(line.chunks_exact(8)) {
            *code = self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        u64::from_le_bytes(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A code with pseudo-random columns: the matrices of any linear code,
    /// not only the two shipped ones, must come out right.
    fn scrambled() -> LinearCode {
        let mut columns = [0u8; 64];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for c in &mut columns {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *c = x as u8;
        }
        LinearCode::from_columns(&columns)
    }

    #[test]
    fn dispatched_line_matches_the_fold_under_both_backends() {
        let code = scrambled();
        let mut lines = vec![[0u8; LINE_BYTES], [0xFF; LINE_BYTES]];
        for bit in 0..LINE_BYTES * 8 {
            let mut line = [0u8; LINE_BYTES];
            line[bit / 8] = 1 << (bit % 8);
            lines.push(line);
        }
        let mut x = 0x5EEDu64;
        for _ in 0..256 {
            let mut line = [0u8; LINE_BYTES];
            for b in &mut line {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                *b = (x >> 56) as u8;
            }
            lines.push(line);
        }
        for line in &lines {
            let fold = code.line_fold(line);
            assert_eq!(code.line(line), fold);
            esd_kernels::set_backend(esd_kernels::KernelBackend::Scalar);
            assert_eq!(code.line(line), fold);
            esd_kernels::set_backend(esd_kernels::KernelBackend::Auto);
        }
    }
}
