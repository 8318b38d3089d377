//! Table-driven CRC-32 (IEEE 802.3) and CRC-64 (XZ/ECMA-182 reflected),
//! the lightweight fingerprints used by the DeWrite baseline.

use std::fmt;

/// Reflected CRC-32 polynomial (IEEE 802.3): `0x04C11DB7` reversed.
const CRC32_POLY: u32 = 0xEDB8_8320;
/// Reflected CRC-64 polynomial (ECMA-182, as used by XZ): reversed.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `CRC32_TABLES[0][b]` is the CRC register after
/// byte `b` (the byte-at-a-time table), and `CRC32_TABLES[k][b]` the register
/// after `b` followed by `k` zero bytes, so an 8-byte word folds in with
/// eight independent lookups instead of eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();
/// The byte-at-a-time CRC-64 table.
const CRC64_TABLE: [u64; 256] = crc64_table();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Streaming CRC-32 (IEEE) checksummer.
///
/// # Examples
///
/// ```
/// use esd_hash::Crc32;
/// let mut c = Crc32::new();
/// c.update(b"123456789");
/// assert_eq!(c.finalize(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Creates a checksummer in the initial (all-ones) state.
    #[must_use]
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorbs `data`, eight bytes per step and the tail byte by byte.
    pub fn update(&mut self, data: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t0[((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// Returns the final checksum.
    #[must_use]
    pub fn finalize(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl fmt::LowerHex for Crc32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Streaming CRC-64 (XZ) checksummer.
///
/// # Examples
///
/// ```
/// use esd_hash::Crc64;
/// let mut c = Crc64::new();
/// c.update(b"123456789");
/// assert_eq!(c.finalize(), 0x995D_C9BB_DF19_39FA);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Crc64(u64);

impl Default for Crc64 {
    fn default() -> Self {
        Crc64::new()
    }
}

impl Crc64 {
    /// Creates a checksummer in the initial (all-ones) state.
    #[must_use]
    pub fn new() -> Self {
        Crc64(u64::MAX)
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.0 = (self.0 >> 8) ^ CRC64_TABLE[((self.0 ^ u64::from(byte)) & 0xFF) as usize];
        }
    }

    /// Returns the final checksum.
    #[must_use]
    pub fn finalize(self) -> u64 {
        self.0 ^ u64::MAX
    }
}

impl fmt::LowerHex for Crc64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Computes the CRC-32 (IEEE) of `data` in one shot.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Computes the CRC-64 (XZ) of `data` in one shot.
#[must_use]
pub fn crc64(data: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The canonical "check" input for CRC catalogs.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc64_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        for split in [0usize, 1, 7, 150, 299, 300] {
            let mut c32 = Crc32::new();
            c32.update(&data[..split]);
            c32.update(&data[split..]);
            assert_eq!(c32.finalize(), crc32(&data));

            let mut c64 = Crc64::new();
            c64.update(&data[..split]);
            c64.update(&data[split..]);
            assert_eq!(c64.finalize(), crc64(&data));
        }
    }

    #[test]
    fn crc_detects_single_bit_changes() {
        let base = [0x42u8; 64];
        let base32 = crc32(&base);
        let base64 = crc64(&base);
        for byte in 0..64 {
            let mut m = base;
            m[byte] ^= 1;
            assert_ne!(crc32(&m), base32);
            assert_ne!(crc64(&m), base64);
        }
    }
}
