//! ECC inspector: the mechanics under ESD, shown end to end —
//! Hamming(72,64) fingerprints, the filter property, collision verify,
//! counter-mode diffusion, and fault recovery through the simulated medium.
//!
//! ```sh
//! cargo run --release --example ecc_inspector
//! ```

use esd::core::{Scheme, SchemeKind};
use esd::crypto::CmeEngine;
use esd::ecc::{decode_line, encode_line, encode_word, EccFingerprint};
use esd::sim::{Ps, SystemConfig};
use esd::trace::CacheLine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Per-word SEC-DED: correct a single-bit error.
    let word = 0xDEAD_BEEF_CAFE_F00Du64;
    let ecc = encode_word(word);
    let corrupted = word ^ (1 << 42);
    let decoded = esd::ecc::decode_word(corrupted, ecc)?;
    println!(
        "1. SEC-DED: {word:#018x} corrupted at bit 42 -> corrected {:#018x} ({})",
        decoded.data,
        decoded
            .corrected
            .map_or("clean".to_owned(), |c| c.to_string()),
    );

    // 2. The filter property: different fingerprints prove different lines.
    let a = CacheLine::from_seed(1);
    let mut bytes = *a.as_bytes();
    bytes[17] ^= 0x01;
    let b = CacheLine::new(bytes);
    let fa = EccFingerprint::of_line(a.as_bytes());
    let fb = EccFingerprint::of_line(b.as_bytes());
    println!(
        "2. filter property: fp(a)={fa} fp(b)={fb} -> lines provably differ: {}",
        fa != fb
    );

    // 3. Counter-mode diffusion: identical plaintext, distinct ciphertext.
    let mut cme = CmeEngine::new([9u8; 16]);
    let c1 = cme.encrypt_line(0x40, a.as_bytes());
    let c2 = cme.encrypt_line(0x40, a.as_bytes());
    println!(
        "3. CME diffusion: two encryptions of one line share {} of 64 bytes \
         (why dedup must run before encryption)",
        c1.iter().zip(c2.iter()).filter(|(x, y)| x == y).count()
    );

    // 4. Line-level ECC protects stored (encrypted) data.
    let line_ecc = encode_line(&c1);
    let mut stored = c1;
    stored[5] ^= 0x10; // a cell error on the medium
    let recovered = decode_line(&stored, line_ecc)?;
    println!(
        "4. medium fault: 1 flipped bit in stored ciphertext -> corrected {} word(s)",
        recovered.corrected_words
    );

    // 5. End to end through the ESD scheme: inject a fault into the
    //    simulated PCM and read back the correct data anyway.
    let config = SystemConfig::default();
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    let data = CacheLine::from_fill(0x77);
    esd.write(Ps::ZERO, 0x1000, data);
    // ESD allocates physical lines from 0 upward; flip a bit there.
    assert!(esd.nvmm_mut().medium_mut().inject_bit_flip(0, 3, 6));
    let read = esd.read(Ps::from_us(1), 0x1000);
    println!(
        "5. end-to-end: bit flipped on PCM, read back {} (ECC corrected: {})",
        if read.data == data {
            "correct data"
        } else {
            "WRONG DATA"
        },
        read.data == data,
    );
    Ok(())
}
