//! MD5 (RFC 1321), implemented from scratch.

use std::fmt;

/// Per-round shift amounts, shared with the AVX2 4-lane kernel.
pub(crate) const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Per-round additive constants (`floor(2^32 * abs(sin(i+1)))`), shared
/// with the AVX2 4-lane kernel.
pub(crate) const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// A 128-bit MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Md5Digest(pub [u8; 16]);

impl Md5Digest {
    /// Formats the digest as 32 lowercase hex characters.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The first 8 bytes of the digest as a little-endian `u64`.
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Display for Md5Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Md5Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Streaming MD5 hasher.
///
/// # Examples
///
/// ```
/// use esd_hash::Md5;
/// let mut h = Md5::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize().to_hex(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// Creates a hasher in the standard initial state.
    #[must_use]
    pub fn new() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                compress(&mut self.state, &block);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let block: [u8; 64] = input[..64].try_into().expect("64-byte block");
            compress(&mut self.state, &block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Completes the hash and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> Md5Digest {
        let length_bits = self.length_bits;
        self.push_byte(0x80);
        while self.buffered != 56 {
            self.push_byte(0);
        }
        let start = self.buffered;
        self.buffer[start..start + 8].copy_from_slice(&length_bits.to_le_bytes());
        let block = self.buffer;
        compress(&mut self.state, &block);
        digest(self.state)
    }

    fn push_byte(&mut self, byte: u8) {
        self.buffer[self.buffered] = byte;
        self.buffered += 1;
        if self.buffered == 64 {
            let block = self.buffer;
            compress(&mut self.state, &block);
            self.buffered = 0;
        }
    }
}

/// One block compression: the 64-round loop is split into its four phases,
/// removing the per-round `(f, g)` dispatch and letting each phase's
/// message-word index progression be computed directly. Bit-exact with the
/// reference formulation the unit tests hold it to. (Single-block MD5 has
/// no hardware path: each round depends on the previous, so only the
/// 4-lane shape vectorizes.)
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
    }

    let [mut a, mut b, mut c, mut d] = *state;

    macro_rules! round {
        ($f:expr, $g:expr, $i:expr) => {{
            let f = $f.wrapping_add(a).wrapping_add(K[$i]).wrapping_add(m[$g]);
            a = d;
            d = c;
            c = b;
            b = b.wrapping_add(f.rotate_left(S[$i]));
        }};
    }

    for i in 0..16 {
        round!((b & c) | ((!b) & d), i, i);
    }
    for i in 16..32 {
        round!((d & b) | ((!d) & c), (5 * i + 1) % 16, i);
    }
    for i in 32..48 {
        round!(b ^ c ^ d, (3 * i + 5) % 16, i);
    }
    for i in 48..64 {
        round!(c ^ (b | !d), (7 * i) % 16, i);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// The digest a final chaining value spells, little-endian word by word.
fn digest(state: [u32; 4]) -> Md5Digest {
    let mut out = [0u8; 16];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    Md5Digest(out)
}

/// Computes the MD5 digest of `data` in one shot.
#[must_use]
pub fn md5(data: &[u8]) -> Md5Digest {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// The standard MD5 initial state, shared with the 4-lane kernel.
const MD5_INIT: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

/// The second compression block of every one-shot 64-byte message is a
/// constant: the `0x80` terminator, zeros, then the 512-bit message length
/// little-endian in the last eight bytes.
const MD5_LINE_PAD: [u8; 64] = {
    let mut block = [0u8; 64];
    block[0] = 0x80;
    block[57] = 0x02; // 512 = 0x0200, little-endian
    block
};

/// One MD5 compression over four independent states: the AVX2 vertical
/// kernel where the kernel backend allows it and the host has it, otherwise
/// four calls of the one scalar compression — bit-exact either way.
fn compress4(states: &mut [[u32; 4]; 4], blocks: [&[u8; 64]; 4]) {
    let scalar = |states: &mut [[u32; 4]; 4], blocks: [&[u8; 64]; 4]| {
        for (state, block) in states.iter_mut().zip(blocks) {
            compress(state, block);
        }
    };
    #[cfg(target_arch = "x86_64")]
    crate::simd::md5_compress4(states, blocks, scalar);
    #[cfg(not(target_arch = "x86_64"))]
    scalar(states, blocks);
}

/// Hashes four independent 64-byte lines in lockstep — two 4-lane
/// compressions (the data blocks, then the shared constant padding block) —
/// and returns the four digests. Bit-exact with [`md5`] on each line.
#[must_use]
pub fn md5_lines4(lines: &[[u8; 64]; 4]) -> [Md5Digest; 4] {
    let mut states = [MD5_INIT; 4];
    compress4(&mut states, [&lines[0], &lines[1], &lines[2], &lines[3]]);
    compress4(&mut states, [&MD5_LINE_PAD; 4]);
    states.map(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1321_vectors() {
        assert_eq!(md5(b"").to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5(b"a").to_hex(), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(md5(b"abc").to_hex(), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            md5(b"message digest").to_hex(),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            md5(b"abcdefghijklmnopqrstuvwxyz").to_hex(),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            md5(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789").to_hex(),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )
            .to_hex(),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..257).map(|i| (i * 3 % 256) as u8).collect();
        for split in [0usize, 1, 55, 63, 64, 65, 128, 257] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), md5(&data), "split {split}");
        }
    }

    #[test]
    fn digest_helpers() {
        let d = md5(b"x");
        assert_eq!(d.to_hex().len(), 32);
        assert_eq!(d.as_ref().len(), 16);
        assert_eq!(d.to_string(), d.to_hex());
        let _ = d.to_u64();
    }
}
