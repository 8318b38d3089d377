//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but the dedup baselines in the ESD paper use it purely as a content
//! fingerprint, where accidental collisions are what matters.

use std::fmt;

/// A 160-bit SHA-1 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sha1Digest(pub [u8; 20]);

impl Sha1Digest {
    /// Formats the digest as 40 lowercase hex characters.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The first 8 bytes of the digest as a little-endian `u64`, convenient
    /// as a compact fingerprint key.
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Display for Sha1Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Sha1Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Streaming SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use esd_hash::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"a");
/// h.update(b"bc");
/// assert_eq!(h.finalize(), esd_hash::sha1(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the standard initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha1 {
            state: SHA1_INIT,
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
    pub fn finalize(mut self) -> Sha1Digest {
        let length_bits = self.length_bits;
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        self.update_padding_byte();
        while self.buffered != 56 {
            self.update_zero_byte();
        }
        let block_start = self.buffered;
        self.buffer[block_start..block_start + 8].copy_from_slice(&length_bits.to_be_bytes());
        let block = self.buffer;
        compress(&mut self.state, &block);
        digest(self.state)
    }

    fn update_padding_byte(&mut self) {
        self.buffer[self.buffered] = 0x80;
        self.buffered += 1;
        if self.buffered == 64 {
            let block = self.buffer;
            compress(&mut self.state, &block);
            self.buffered = 0;
        }
    }

    fn update_zero_byte(&mut self) {
        self.buffer[self.buffered] = 0;
        self.buffered += 1;
        if self.buffered == 64 {
            let block = self.buffer;
            compress(&mut self.state, &block);
            self.buffered = 0;
        }
    }
}

/// One block compression, dispatched to the fastest available backend: the
/// SHA-NI rounds when the kernel backend allows hardware kernels and the
/// host has the `sha` feature, otherwise `compress_scalar` — both
/// bit-exact with the reference formulation the unit tests hold them to.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::sha_ni_available() {
        // SAFETY: `sha_ni_available` confirmed the `sha`+`ssse3`+`sse2`
        // CPU features at runtime before taking this path.
        unsafe { crate::simd::sha1_compress_ni(state, block) };
        return;
    }
    compress_scalar(state, block);
}

/// The scalar block compression: the 80-round loop is split into its four
/// phases (removing the per-round `(f, k)` dispatch) and the message
/// schedule lives in a 16-word circular buffer computed on the fly (instead
/// of a pre-expanded 80-word array).
fn compress_scalar(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // w[i] for i >= 16 is (w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]) <<< 1;
    // modulo 16 those taps are (i+13), (i+8), (i+2) and i itself.
    macro_rules! schedule {
        ($i:expr) => {{
            let next = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                .rotate_left(1);
            w[$i & 15] = next;
            next
        }};
    }
    macro_rules! round {
        ($f:expr, $k:expr, $wi:expr) => {{
            let temp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($k)
                .wrapping_add($wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }};
    }

    for &wi in &w {
        round!((b & c) | ((!b) & d), 0x5A82_7999, wi);
    }
    for i in 16..20 {
        let wi = schedule!(i);
        round!((b & c) | ((!b) & d), 0x5A82_7999, wi);
    }
    for i in 20..40 {
        let wi = schedule!(i);
        round!(b ^ c ^ d, 0x6ED9_EBA1, wi);
    }
    for i in 40..60 {
        let wi = schedule!(i);
        round!((b & c) | (b & d) | (c & d), 0x8F1B_BCDC, wi);
    }
    for i in 60..80 {
        let wi = schedule!(i);
        round!(b ^ c ^ d, 0xCA62_C1D6, wi);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// The digest a final chaining value spells, big-endian word by word.
fn digest(state: [u32; 5]) -> Sha1Digest {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Sha1Digest(out)
}

/// Computes the SHA-1 digest of `data` in one shot.
#[must_use]
pub fn sha1(data: &[u8]) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// The standard SHA-1 initial state.
const SHA1_INIT: [u32; 5] =
    [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// The second compression block of every one-shot 64-byte message is a
/// constant: the `0x80` terminator, zeros, then the 512-bit message length
/// big-endian in the last eight bytes.
const SHA1_LINE_PAD: [u8; 64] = {
    let mut block = [0u8; 64];
    block[0] = 0x80;
    block[62] = 0x02; // 512 = 0x0200, big-endian
    block
};

/// Hashes four independent 64-byte lines — per line the data block, then
/// the shared constant padding block, through the one dispatched
/// compression — and returns the four digests. Bit-exact with [`sha1`] on
/// each line.
#[must_use]
pub fn sha1_lines4(lines: &[[u8; 64]; 4]) -> [Sha1Digest; 4] {
    lines.each_ref().map(|line| {
        let mut state = SHA1_INIT;
        compress(&mut state, line);
        compress(&mut state, &SHA1_LINE_PAD);
        digest(state)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        assert_eq!(sha1(b"").to_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(sha1(b"abc").to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finalize().to_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_matches_one_shot_at_odd_boundaries() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split {split}");
        }
    }

    #[test]
    fn four_lane_matches_scalar() {
        let lines: [[u8; 64]; 4] = std::array::from_fn(|l| {
            std::array::from_fn(|i| (l * 64 + i) as u8 ^ 0xA5)
        });
        let digests = sha1_lines4(&lines);
        for (line, digest) in lines.iter().zip(digests) {
            assert_eq!(digest, sha1(line));
        }
    }

    #[test]
    fn digest_helpers() {
        let d = sha1(b"abc");
        assert_eq!(d.to_hex().len(), 40);
        assert_eq!(d.as_ref().len(), 20);
        assert_eq!(d.to_u64(), u64::from_le_bytes(d.0[..8].try_into().unwrap()));
        assert_eq!(d.to_string(), d.to_hex());
    }
}
