//! Per-tenant key derivation for the multi-tenant service mode.
//!
//! One shared encrypted-NVMM instance serves many tenants, but counter-mode
//! pads must never be shared across trust domains: if two tenants encrypted
//! under the same key, a tenant XOR-ing its own plaintext against its
//! ciphertext would recover keystream that also protects its neighbours.
//! Each tenant therefore gets its own CME key, derived from a single master
//! key the controller holds.
//!
//! The derivation is the textbook block-cipher PRF: `AES-128(master,
//! encode(tenant))`. AES under a secret key is a pseudorandom permutation,
//! so distinct tenant ids yield computationally independent keys, and the
//! controller never needs to store more than the master key — tenant keys
//! are re-derivable on demand (e.g. after a crash, or when a tenant's queue
//! is first admitted).
//!
//! Deduplication is unaffected: fingerprints are computed over *plaintext*
//! before encryption (the reason dedup precedes CME in every scheme here),
//! so identical content written by two tenants still collapses to one
//! stored line even though their keystreams differ.

use crate::Aes128;

/// Domain-separation tag for tenant key derivation, so a derived key can
/// never collide with a pad the same master key might generate (pads encode
/// `(addr, counter, block-index)` tweaks; this block shape is disjoint).
const TENANT_KDF_TAG: u8 = 0x7E; // '~', unused by the pad tweak layout

/// Derives the counter-mode key for `tenant` from the controller's
/// `master` key: one AES-128 encryption of a domain-separated block that
/// encodes the tenant id.
///
/// Deterministic (the same `(master, tenant)` pair always yields the same
/// key) and collision-free across tenants (AES is a permutation, and each
/// tenant id encodes to a distinct input block).
///
/// # Examples
///
/// ```
/// use esd_crypto::derive_tenant_key;
///
/// let master = [0x42; 16];
/// let a = derive_tenant_key(&master, 1);
/// let b = derive_tenant_key(&master, 2);
/// assert_ne!(a, b, "tenants must not share keystream");
/// assert_eq!(a, derive_tenant_key(&master, 1), "derivation is stable");
/// ```
#[must_use]
pub fn derive_tenant_key(master: &[u8; 16], tenant: u32) -> [u8; 16] {
    let cipher = Aes128::new(master);
    let mut block = [TENANT_KDF_TAG; 16];
    block[0..4].copy_from_slice(&tenant.to_le_bytes());
    cipher.encrypt_block(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_tenants_get_distinct_keys() {
        let master = [0xA5; 16];
        let keys: Vec<[u8; 16]> = (0..64).map(|t| derive_tenant_key(&master, t)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "tenant keys collided");
            }
        }
    }

    #[test]
    fn distinct_masters_get_distinct_keys() {
        let a = derive_tenant_key(&[0x01; 16], 7);
        let b = derive_tenant_key(&[0x02; 16], 7);
        assert_ne!(a, b);
    }

    #[test]
    fn derived_key_differs_from_master() {
        let master = [0x33; 16];
        assert_ne!(derive_tenant_key(&master, 0), master);
    }

    #[test]
    fn derivation_is_deterministic() {
        let master = [0x5C; 16];
        assert_eq!(derive_tenant_key(&master, 9), derive_tenant_key(&master, 9));
    }

    #[test]
    fn derived_keys_give_independent_keystreams() {
        // Two tenants encrypting the same plaintext at the same address and
        // counter must produce different ciphertext — the whole point of
        // per-tenant keys.
        use crate::CmeEngine;
        let master = [0x11; 16];
        let mut cme_a = CmeEngine::new(derive_tenant_key(&master, 1));
        let mut cme_b = CmeEngine::new(derive_tenant_key(&master, 2));
        let plain = [0xDB; crate::LINE_BYTES];
        assert_ne!(
            cme_a.encrypt_line(0x40, &plain),
            cme_b.encrypt_line(0x40, &plain)
        );
    }
}
