#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Counter-mode encryption (CME) for encrypted non-volatile main memory.
//!
//! Data leaving the processor chip for NVMM must be encrypted: NVMM retains
//! its content when powered off, so a stolen DIMM or a bus probe reveals
//! everything. The ESD paper (HPCA 2023) assumes counter-mode encryption in
//! the memory controller, with per-line write counters; this crate implements
//! that engine end to end:
//!
//! * [`Aes128`] — a from-scratch FIPS-197 AES-128 block cipher.
//! * [`CmeEngine`] — per-line counter-mode encryption/decryption with a
//!   [`CmeCostModel`] carrying the simulator's latency/energy constants.
//!
//! Counter-mode's *diffusion* is the reason deduplication must run **before**
//! encryption: the same plaintext encrypts to a different ciphertext on every
//! write (see `CmeEngine` tests), so ciphertext-side dedup finds nothing.
//!
//! # Examples
//!
//! ```
//! use esd_crypto::CmeEngine;
//!
//! let mut cme = CmeEngine::new([0x42; 16]);
//! let plain = *b"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
//! let cipher = cme.encrypt_line(0x80, &plain);
//! assert_eq!(cme.decrypt_line(0x80, &cipher)?, plain);
//! # Ok::<(), esd_crypto::UnknownCounterError>(())
//! ```

mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aes_ni;
mod ctr;
mod kdf;

pub use aes::Aes128;
pub use ctr::{CmeCostModel, CmeEngine, UnknownCounterError, LINE_BYTES};
pub use kdf::derive_tenant_key;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Aes128>();
        assert_send_sync::<super::CmeEngine>();
        assert_send_sync::<super::UnknownCounterError>();
    }
}
