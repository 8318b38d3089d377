//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! Only the forward cipher exists: counter-mode memory encryption makes
//! its pads with it and never runs the inverse cipher. The portable path,
//! [`Aes128::encrypt_block_scalar`], is a T-table implementation (four
//! 1 KiB lookup tables folding SubBytes, ShiftRows and MixColumns into one
//! 32-bit lookup per state byte per round); [`Aes128::encrypt_block`] runs
//! AES-NI instead where the host has it. The unit tests check both
//! bit-for-bit against a table-free byte-wise round transformation and
//! against the FIPS-197 and NIST SP 800-38A vectors.
//! (Being a simulator, *modelled* encryption latency comes from the latency
//! model, not from this code's wall-clock speed — but wall-clock speed is
//! what bounds how fast figure sweeps replay.)

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// T-table for round column 0: `TE0[x]` packs `[2·S(x), S(x), S(x), 3·S(x)]`
/// big-endian — SubBytes and the first MixColumns matrix column in one load.
/// `TE1..TE3` are byte rotations of the same table (matrix columns 1..3).
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s) as u32;
        let s1 = s as u32;
        let s3 = s2 ^ s1;
        t[i] = (s2 << 24) | (s1 << 16) | (s1 << 8) | s3;
        i += 1;
    }
    t
};

const TE1: [u32; 256] = rotate_table(&TE0, 8);
const TE2: [u32; 256] = rotate_table(&TE0, 16);
const TE3: [u32; 256] = rotate_table(&TE0, 24);

const fn rotate_table(src: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(bits);
        i += 1;
    }
    t
}

/// An expanded AES-128 key (11 round keys).
///
/// # Examples
///
/// ```
/// use esd_crypto::Aes128;
/// let key = Aes128::new(&[0u8; 16]);
/// let block = key.encrypt_block([0u8; 16]);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    /// The same schedule as big-endian column words, pre-packed for the
    /// T-table path (one XOR per column per round instead of sixteen).
    round_key_words: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands a 128-bit key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        let mut round_key_words = [[0u32; 4]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                round_key_words[r][c] = u32::from_be_bytes(w[4 * r + c]);
            }
        }
        Aes128 {
            round_keys,
            round_key_words,
        }
    }

    /// Encrypts one 16-byte block, dispatched to the fastest available
    /// backend.
    ///
    /// Runs the AES-NI rounds when the kernel backend allows SIMD and the
    /// host has the `aes` feature ([`esd_kernels`]), otherwise the scalar
    /// T-table path — the two are bit-exact, so dispatch never changes
    /// ciphertext.
    #[must_use]
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let scalar = |block| self.encrypt_block_scalar(block);
        #[cfg(target_arch = "x86_64")]
        return crate::aes_ni::encrypt_block(&self.round_keys, block, scalar);
        #[cfg(not(target_arch = "x86_64"))]
        scalar(block)
    }

    /// Encrypts four independent 16-byte blocks, dispatched like
    /// [`Aes128::encrypt_block`] — the AES-NI backend keeps four `aesenc`
    /// chains in flight over a single walk of the key schedule; the scalar
    /// path is four [`Aes128::encrypt_block_scalar`] calls. Counter mode
    /// fills a whole cache line's pad (exactly four counter blocks) with
    /// one call.
    #[must_use]
    pub fn encrypt4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        let scalar = |blocks: [[u8; 16]; 4]| blocks.map(|block| self.encrypt_block_scalar(block));
        #[cfg(target_arch = "x86_64")]
        return crate::aes_ni::encrypt4(&self.round_keys, blocks, scalar);
        #[cfg(not(target_arch = "x86_64"))]
        scalar(blocks)
    }

    /// Encrypts one 16-byte block (scalar T-table fast path).
    ///
    /// The state lives in four big-endian column words and each round is
    /// 16 table lookups plus the round-key XOR. Kept public as the portable
    /// kernel the AES-NI backend is benchmarked and property-tested
    /// against.
    #[must_use]
    pub fn encrypt_block_scalar(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.round_key_words;
        // Column c's word holds rows 0..3 top-to-bottom (big-endian), so
        // the byte-wise column-major layout maps straight onto BE loads.
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().expect("4 bytes")) ^ rk[0][0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().expect("4 bytes")) ^ rk[0][1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().expect("4 bytes")) ^ rk[0][2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes")) ^ rk[0][3];

        for round in rk.iter().take(10).skip(1) {
            // ShiftRows is folded into which column each row byte is read
            // from: output column j takes row r from input column (j+r)%4.
            let t0 = TE0[(s0 >> 24) as usize]
                ^ TE1[((s1 >> 16) & 0xff) as usize]
                ^ TE2[((s2 >> 8) & 0xff) as usize]
                ^ TE3[(s3 & 0xff) as usize]
                ^ round[0];
            let t1 = TE0[(s1 >> 24) as usize]
                ^ TE1[((s2 >> 16) & 0xff) as usize]
                ^ TE2[((s3 >> 8) & 0xff) as usize]
                ^ TE3[(s0 & 0xff) as usize]
                ^ round[1];
            let t2 = TE0[(s2 >> 24) as usize]
                ^ TE1[((s3 >> 16) & 0xff) as usize]
                ^ TE2[((s0 >> 8) & 0xff) as usize]
                ^ TE3[(s1 & 0xff) as usize]
                ^ round[2];
            let t3 = TE0[(s3 >> 24) as usize]
                ^ TE1[((s0 >> 16) & 0xff) as usize]
                ^ TE2[((s1 >> 8) & 0xff) as usize]
                ^ TE3[(s2 & 0xff) as usize]
                ^ round[3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }

        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let o0 = (u32::from(SBOX[(s0 >> 24) as usize]) << 24)
            | (u32::from(SBOX[((s1 >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((s2 >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(s3 & 0xff) as usize]);
        let o1 = (u32::from(SBOX[(s1 >> 24) as usize]) << 24)
            | (u32::from(SBOX[((s2 >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((s3 >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(s0 & 0xff) as usize]);
        let o2 = (u32::from(SBOX[(s2 >> 24) as usize]) << 24)
            | (u32::from(SBOX[((s3 >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((s0 >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(s1 & 0xff) as usize]);
        let o3 = (u32::from(SBOX[(s3 >> 24) as usize]) << 24)
            | (u32::from(SBOX[((s0 >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((s1 >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(s2 & 0xff) as usize]);

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&(o0 ^ rk[10][0]).to_be_bytes());
        out[4..8].copy_from_slice(&(o1 ^ rk[10][1]).to_be_bytes());
        out[8..12].copy_from_slice(&(o2 ^ rk[10][2]).to_be_bytes());
        out[12..16].copy_from_slice(&(o3 ^ rk[10][3]).to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encrypts one 16-byte block with the table-free byte-wise round
    /// transformations of FIPS-197 §5.1 — the reference the T-table and
    /// AES-NI paths are checked against.
    fn encrypt_block_ref(aes: &Aes128, block: [u8; 16]) -> [u8; 16] {
        let mut state = block;
        add_round_key(&mut state, &aes.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &aes.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &aes.round_keys[10]);
        state
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State layout is column-major: byte `state[4*c + r]` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            let orig0 = col[0];
            state[4 * c] ^= t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] ^= t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] ^= t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] ^= t ^ xtime(col[3] ^ orig0);
        }
    }

    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plaintext = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(plaintext), expected);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().unwrap();
        let plaintext = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(plaintext), expected);
    }

    #[test]
    fn sp800_38a_ecb_aes128_block_1() {
        // NIST SP 800-38A, F.1.1 (ECB-AES128.Encrypt), block #1.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plaintext = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(plaintext), expected);
        assert_eq!(aes.encrypt_block_scalar(plaintext), expected);
    }

    #[test]
    fn table_path_matches_reference_path() {
        // Walk a deterministic pseudo-random sequence of keys and blocks;
        // the property below covers fully random inputs on top of this.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut step = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x.to_le_bytes()
        };
        for _ in 0..256 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            key[..8].copy_from_slice(&step());
            key[8..].copy_from_slice(&step());
            block[..8].copy_from_slice(&step());
            block[8..].copy_from_slice(&step());
            let aes = Aes128::new(&key);
            assert_eq!(aes.encrypt_block(block), encrypt_block_ref(&aes, block));
        }
    }

    proptest::proptest! {
        /// The dispatched path is bit-exact with the byte-wise reference
        /// round function for any key/block pair.
        #[test]
        fn table_path_matches_reference(
            key in proptest::array::uniform16(proptest::prelude::any::<u8>()),
            block in proptest::array::uniform16(proptest::prelude::any::<u8>()),
        ) {
            let aes = Aes128::new(&key);
            proptest::prop_assert_eq!(aes.encrypt_block(block), encrypt_block_ref(&aes, block));
        }
    }

    #[test]
    fn four_lane_matches_scalar() {
        let aes = Aes128::new(&[0x3D; 16]);
        let blocks: [[u8; 16]; 4] =
            std::array::from_fn(|l| std::array::from_fn(|i| (l * 16 + i) as u8 ^ 0xC3));
        let out = aes.encrypt4(blocks);
        for (lane, block) in blocks.iter().enumerate() {
            assert_eq!(out[lane], aes.encrypt_block(*block), "lane {lane}");
        }
    }

    #[test]
    fn dispatched_backend_matches_scalar_tables() {
        // `encrypt_block`/`encrypt4` route through AES-NI wherever the host
        // supports it; both must agree byte-for-byte with one-block scalar
        // T-table calls (and transitively the byte-wise reference) on every
        // input, or dispatch would change ciphertext.
        let mut x = 0xDEAD_BEEF_0BAD_CAFEu64;
        let mut step = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x.to_le_bytes()
        };
        for _ in 0..128 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&step());
            key[8..].copy_from_slice(&step());
            let aes = Aes128::new(&key);
            let blocks: [[u8; 16]; 4] = std::array::from_fn(|_| {
                let mut b = [0u8; 16];
                b[..8].copy_from_slice(&step());
                b[8..].copy_from_slice(&step());
                b
            });
            for block in blocks {
                assert_eq!(aes.encrypt_block(block), aes.encrypt_block_scalar(block));
            }
            assert_eq!(
                aes.encrypt4(blocks),
                blocks.map(|b| aes.encrypt_block_scalar(b))
            );
        }
    }

    #[test]
    fn encryption_is_deterministic_and_key_sensitive() {
        let a = Aes128::new(&[1u8; 16]);
        let b = Aes128::new(&[2u8; 16]);
        let block = [0x5Au8; 16];
        assert_eq!(a.encrypt_block(block), a.encrypt_block(block));
        assert_ne!(a.encrypt_block(block), b.encrypt_block(block));
    }
}
