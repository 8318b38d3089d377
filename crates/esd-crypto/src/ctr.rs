//! Counter-mode encryption (CME) for cache lines, with per-line write
//! counters — the memory encryption style the ESD paper assumes.
//!
//! Each 64-byte line is encrypted by XOR with a one-time pad derived from
//! AES-128 over `(line address, write counter, block index)`. The counter
//! increments on every write so pads never repeat; on reads the pad can be
//! generated concurrently with the (slower) NVMM read, hiding decryption
//! latency, which is why encrypted-NVMM papers charge encryption mainly on
//! the write path.
//!
//! # Keystream pad cache
//!
//! The pad for a given `(address, counter)` pair is deterministic, and the
//! simulator regenerates it constantly: every demand read, and every
//! verify read-back on ESD's dedup path, decrypts a line whose counter has
//! not moved since the last write. The engine therefore keeps a small
//! direct-mapped cache of expanded pads. A counter bump (i.e. a write)
//! *invalidates* the stale pad by overwriting the line's slot with the new
//! counter's pad, so a cached pad can never decrypt against the wrong
//! counter. The cache is a pure memoization: outputs are bit-identical
//! with and without it (see the `pad_cache_is_transparent` test).

use std::fmt;

use esd_collections::{fx::hash_u64, U64Map};

use crate::aes::Aes128;

/// Size of a cache line in bytes.
pub const LINE_BYTES: usize = 64;

/// Default number of expanded keystream pads the engine memoizes
/// (direct-mapped; ~80 B per slot).
pub const DEFAULT_PAD_CACHE_LINES: usize = 4096;

/// Latency/energy cost model for counter-mode encryption of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CmeCostModel {
    /// Latency charged on the write path per encrypted line, in nanoseconds.
    /// A pipelined AES engine processes the four 16-byte blocks of a line in
    /// parallel, so this is roughly one AES traversal.
    pub encrypt_latency_ns: u64,
    /// Latency charged on the read path, in nanoseconds. Pad generation
    /// overlaps the NVMM read, leaving only the final XOR exposed.
    pub decrypt_exposed_latency_ns: u64,
    /// Energy per encrypted or decrypted line, in picojoules.
    pub crypt_energy_pj: u64,
}

impl Default for CmeCostModel {
    fn default() -> Self {
        CmeCostModel {
            encrypt_latency_ns: 40,
            decrypt_exposed_latency_ns: 5,
            crypt_energy_pj: 2700,
        }
    }
}

/// Error returned when decrypting a line that was never written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnknownCounterError {
    /// The line address whose counter is missing.
    pub addr: u64,
}

impl fmt::Display for UnknownCounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no encryption counter recorded for line address {:#x}", self.addr)
    }
}

impl std::error::Error for UnknownCounterError {}

/// One memoized keystream pad. `counter == 0` marks an empty slot: write
/// counters start at 1, so no live pad ever carries counter zero.
#[derive(Debug, Clone, Copy)]
struct PadSlot {
    addr: u64,
    counter: u64,
    pad: [u8; LINE_BYTES],
}

impl PadSlot {
    const EMPTY: PadSlot = PadSlot {
        addr: 0,
        counter: 0,
        pad: [0; LINE_BYTES],
    };
}

/// Multi-tenant key state for a [`CmeEngine`] serving several trust
/// domains from one shared store.
///
/// Each tenant encrypts under its own key derived from `master` (see
/// [`crate::derive_tenant_key`]); `owners` remembers which tenant's key
/// protected each line address so reads — including cross-tenant reads of
/// a deduplicated physical line — regenerate the right pad.
#[derive(Debug, Clone)]
struct Tenancy {
    master: [u8; 16],
    /// Tenant whose key encrypts subsequent writes; `None` until the first
    /// [`CmeEngine::set_active_tenant`] call.
    active: Option<u32>,
    /// Tenant id → derived cipher, filled at registration.
    ciphers: U64Map<Aes128>,
    /// Line address → tenant whose key encrypted it last.
    owners: U64Map<u64>,
}

/// Counter-mode encryption engine with a per-line counter store.
///
/// # Examples
///
/// ```
/// use esd_crypto::CmeEngine;
///
/// let mut cme = CmeEngine::new([7u8; 16]);
/// let plain = [0xABu8; 64];
/// let cipher = cme.encrypt_line(0x1000, &plain);
/// assert_ne!(cipher, plain);
/// assert_eq!(cme.decrypt_line(0x1000, &cipher).unwrap(), plain);
/// let (hits, _misses) = cme.pad_cache_stats();
/// assert_eq!(hits, 1, "the decrypt reused the pad expanded by the write");
/// ```
#[derive(Debug, Clone)]
pub struct CmeEngine {
    cipher: Aes128,
    counters: U64Map<u64>,
    /// Direct-mapped pad memoization; empty when disabled.
    pads: Vec<PadSlot>,
    pad_mask: usize,
    pad_hits: u64,
    pad_misses: u64,
    cost: CmeCostModel,
    lines_encrypted: u64,
    lines_decrypted: u64,
    /// Per-tenant key state; `None` outside the multi-tenant service mode.
    tenancy: Option<Tenancy>,
}

impl CmeEngine {
    /// Creates an engine with the given AES-128 key and the default cost
    /// model.
    #[must_use]
    pub fn new(key: [u8; 16]) -> Self {
        CmeEngine::with_cost_model(key, CmeCostModel::default())
    }

    /// Creates an engine with an explicit cost model.
    #[must_use]
    pub fn with_cost_model(key: [u8; 16], cost: CmeCostModel) -> Self {
        let mut engine = CmeEngine {
            cipher: Aes128::new(&key),
            counters: U64Map::new(),
            pads: Vec::new(),
            pad_mask: 0,
            pad_hits: 0,
            pad_misses: 0,
            cost,
            lines_encrypted: 0,
            lines_decrypted: 0,
            tenancy: None,
        };
        engine.set_pad_cache_lines(DEFAULT_PAD_CACHE_LINES);
        engine
    }

    /// Resizes the keystream pad cache to `lines` slots (rounded up to a
    /// power of two); `0` disables memoization entirely. Existing pads are
    /// dropped; ciphertexts are unaffected either way.
    pub fn set_pad_cache_lines(&mut self, lines: usize) {
        if lines == 0 {
            self.pads = Vec::new();
            self.pad_mask = 0;
        } else {
            let lines = lines.next_power_of_two();
            self.pads = vec![PadSlot::EMPTY; lines];
            self.pad_mask = lines - 1;
        }
    }

    /// Keystream pad-cache `(hits, misses)` — hits are decrypts that
    /// skipped the four AES block encryptions.
    #[must_use]
    pub fn pad_cache_stats(&self) -> (u64, u64) {
        (self.pad_hits, self.pad_misses)
    }

    /// The cost model used by this engine.
    #[must_use]
    pub fn cost_model(&self) -> CmeCostModel {
        self.cost
    }

    /// Number of lines encrypted so far.
    #[must_use]
    pub fn lines_encrypted(&self) -> u64 {
        self.lines_encrypted
    }

    /// Number of lines decrypted so far.
    #[must_use]
    pub fn lines_decrypted(&self) -> u64 {
        self.lines_decrypted
    }

    /// Current write counter for a line, if it was ever encrypted.
    #[must_use]
    pub fn counter(&self, addr: u64) -> Option<u64> {
        self.counters.get(addr).copied()
    }

    /// Switches the engine into multi-tenant mode: subsequent tenants
    /// registered via [`CmeEngine::set_active_tenant`] encrypt under keys
    /// derived from `master` (one key per tenant, see
    /// [`crate::derive_tenant_key`]). Lines encrypted before a tenant was
    /// activated — and any line written with no active tenant — stay under
    /// the engine's base key.
    ///
    /// Idempotent; re-enabling with the same master keeps registered
    /// tenants and line ownership intact.
    pub fn enable_tenancy(&mut self, master: [u8; 16]) {
        match &self.tenancy {
            Some(t) if t.master == master => {}
            _ => {
                self.tenancy = Some(Tenancy {
                    master,
                    active: None,
                    ciphers: U64Map::new(),
                    owners: U64Map::new(),
                });
            }
        }
    }

    /// Selects the tenant whose derived key encrypts subsequent
    /// [`CmeEngine::encrypt_line`] calls, deriving and caching the key on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if tenancy was never enabled — activating a tenant on a
    /// single-key engine would silently encrypt under the wrong key.
    pub fn set_active_tenant(&mut self, tenant: u32) {
        let tenancy = self
            .tenancy
            .as_mut()
            .expect("enable_tenancy before set_active_tenant");
        tenancy.active = Some(tenant);
        let master = tenancy.master;
        tenancy
            .ciphers
            .get_or_insert_with(u64::from(tenant), || {
                Aes128::new(&crate::derive_tenant_key(&master, tenant))
            });
    }

    /// The tenant currently selected for encryption, if tenancy is enabled
    /// and a tenant was activated.
    #[must_use]
    pub fn active_tenant(&self) -> Option<u32> {
        self.tenancy.as_ref().and_then(|t| t.active)
    }

    /// The tenant whose key encrypted `addr` last, if tenancy is enabled
    /// and the line was written under an active tenant.
    #[must_use]
    pub fn line_owner(&self, addr: u64) -> Option<u32> {
        let tenancy = self.tenancy.as_ref()?;
        tenancy.owners.get(addr).map(|&t| t as u32)
    }

    /// The cipher that protects (or will protect) `addr`: the owning
    /// tenant's derived key when one is recorded, the base key otherwise.
    fn cipher_for_addr(&self, addr: u64) -> &Aes128 {
        if let Some(tenancy) = &self.tenancy {
            if let Some(&owner) = tenancy.owners.get(addr) {
                return tenancy
                    .ciphers
                    .get(owner)
                    .expect("line owners are always registered tenants");
            }
        }
        &self.cipher
    }

    /// Encrypts a line for the given address, bumping its write counter.
    ///
    /// The freshly expanded pad replaces any cached pad for this address —
    /// the explicit invalidation-on-bump that keeps the cache coherent.
    pub fn encrypt_line(&mut self, addr: u64, plain: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
        let counter = self.counters.get_or_insert_with(addr, || 0);
        *counter += 1;
        let ctr = *counter;
        self.lines_encrypted += 1;
        // Under tenancy the active tenant takes (or keeps) ownership of the
        // line, so the pad below — and every future decrypt — uses its key.
        if let Some(tenancy) = &mut self.tenancy {
            match tenancy.active {
                Some(tenant) => {
                    tenancy.owners.insert(addr, u64::from(tenant));
                }
                None => {
                    tenancy.owners.remove(addr);
                }
            }
        }
        let pad = self.generate_pad(addr, ctr);
        self.store_pad(addr, ctr, &pad);
        xor_line(&pad, plain)
    }

    /// Decrypts a line previously produced by [`CmeEngine::encrypt_line`],
    /// reusing the memoized pad when the line's counter has not moved.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCounterError`] if the address has never been
    /// encrypted (no counter exists to regenerate the pad).
    pub fn decrypt_line(
        &mut self,
        addr: u64,
        cipher: &[u8; LINE_BYTES],
    ) -> Result<[u8; LINE_BYTES], UnknownCounterError> {
        let ctr = *self
            .counters
            .get(addr)
            .ok_or(UnknownCounterError { addr })?;
        self.lines_decrypted += 1;
        if !self.pads.is_empty() {
            let slot = &self.pads[hash_u64(addr) as usize & self.pad_mask];
            if slot.counter == ctr && slot.addr == addr {
                self.pad_hits += 1;
                return Ok(xor_line(&slot.pad, cipher));
            }
            self.pad_misses += 1;
        }
        let pad = self.generate_pad(addr, ctr);
        self.store_pad(addr, ctr, &pad);
        Ok(xor_line(&pad, cipher))
    }

    /// Expands the keystream pad for `(addr, counter)`: four AES blocks
    /// whose tweaks differ only in byte 15 (the block index), generated by
    /// one [`Aes128::encrypt4`] call.
    /// Under tenancy the owning tenant's derived key is used.
    fn generate_pad(&self, addr: u64, counter: u64) -> [u8; LINE_BYTES] {
        let mut tweak = [0u8; 16];
        tweak[..8].copy_from_slice(&addr.to_le_bytes());
        tweak[8..15].copy_from_slice(&counter.to_le_bytes()[..7]);
        let tweaks: [[u8; 16]; 4] = std::array::from_fn(|block| {
            let mut t = tweak;
            t[15] = block as u8;
            t
        });
        let blocks = self.cipher_for_addr(addr).encrypt4(tweaks);
        let mut pad = [0u8; LINE_BYTES];
        for (pad16, block) in pad.chunks_exact_mut(16).zip(&blocks) {
            pad16.copy_from_slice(block);
        }
        pad
    }

    fn store_pad(&mut self, addr: u64, counter: u64, pad: &[u8; LINE_BYTES]) {
        if !self.pads.is_empty() {
            self.pads[hash_u64(addr) as usize & self.pad_mask] = PadSlot {
                addr,
                counter,
                pad: *pad,
            };
        }
    }
}

/// XORs a line with a pad (the only work left on a pad-cache hit).
#[inline]
fn xor_line(pad: &[u8; LINE_BYTES], input: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    for ((o, i), p) in out.iter_mut().zip(input).zip(pad) {
        *o = i ^ p;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_many_addresses() {
        let mut cme = CmeEngine::new([3u8; 16]);
        for addr in (0u64..64).map(|i| i * 64) {
            let plain = [(addr % 251) as u8; LINE_BYTES];
            let cipher = cme.encrypt_line(addr, &plain);
            assert_eq!(cme.decrypt_line(addr, &cipher).unwrap(), plain);
        }
        assert_eq!(cme.lines_encrypted(), 64);
        assert_eq!(cme.lines_decrypted(), 64);
    }

    #[test]
    fn rewrites_change_ciphertext() {
        // The diffusion that makes deduplication-after-encryption useless:
        // identical plaintext encrypts differently on every write.
        let mut cme = CmeEngine::new([9u8; 16]);
        let plain = [0x11u8; LINE_BYTES];
        let c1 = cme.encrypt_line(0x40, &plain);
        let c2 = cme.encrypt_line(0x40, &plain);
        assert_ne!(c1, c2);
        assert_eq!(cme.counter(0x40), Some(2));
    }

    #[test]
    fn same_plaintext_different_addresses_differ() {
        let mut cme = CmeEngine::new([9u8; 16]);
        let plain = [0x22u8; LINE_BYTES];
        let c1 = cme.encrypt_line(0x00, &plain);
        let c2 = cme.encrypt_line(0x40, &plain);
        assert_ne!(c1, c2);
    }

    #[test]
    fn decrypt_without_counter_errors() {
        let mut cme = CmeEngine::new([1u8; 16]);
        let err = cme.decrypt_line(0x1234, &[0u8; LINE_BYTES]).unwrap_err();
        assert_eq!(err.addr, 0x1234);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn default_cost_model_is_cheap_relative_to_hashing() {
        let cost = CmeCostModel::default();
        assert!(cost.encrypt_latency_ns < 321, "CME must undercut SHA-1");
        assert!(cost.decrypt_exposed_latency_ns < cost.encrypt_latency_ns);
    }

    #[test]
    fn pad_cache_is_transparent() {
        // A cached engine and an uncached engine must produce identical
        // ciphertexts and plaintexts under an arbitrary interleaving of
        // writes and (repeated) reads.
        let mut cached = CmeEngine::new([5u8; 16]);
        let mut uncached = CmeEngine::new([5u8; 16]);
        uncached.set_pad_cache_lines(0);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 32) * 64; // small space: plenty of counter bumps
            let plain = [(x >> 8) as u8; LINE_BYTES];
            if step % 3 == 0 {
                assert_eq!(
                    cached.encrypt_line(addr, &plain),
                    uncached.encrypt_line(addr, &plain),
                );
            } else if cached.counter(addr).is_some() {
                let cipher = [(x >> 16) as u8; LINE_BYTES];
                assert_eq!(
                    cached.decrypt_line(addr, &cipher).unwrap(),
                    uncached.decrypt_line(addr, &cipher).unwrap(),
                );
            }
        }
        let (hits, _) = cached.pad_cache_stats();
        assert!(hits > 0, "the workload must actually exercise the cache");
        assert_eq!(uncached.pad_cache_stats(), (0, 0));
    }

    #[test]
    fn tenant_keys_round_trip_and_survive_active_switches() {
        let mut cme = CmeEngine::new([7u8; 16]);
        cme.enable_tenancy([0x99; 16]);
        cme.set_active_tenant(1);
        let plain_a = [0xA1u8; LINE_BYTES];
        let c_a = cme.encrypt_line(0x40, &plain_a);
        cme.set_active_tenant(2);
        let plain_b = [0xB2u8; LINE_BYTES];
        let c_b = cme.encrypt_line(0x80, &plain_b);
        // Decrypts select the *owner's* key, not the active tenant's: a
        // cross-tenant read of a deduplicated line must still round-trip.
        assert_eq!(cme.decrypt_line(0x40, &c_a).unwrap(), plain_a);
        assert_eq!(cme.decrypt_line(0x80, &c_b).unwrap(), plain_b);
        assert_eq!(cme.line_owner(0x40), Some(1));
        assert_eq!(cme.line_owner(0x80), Some(2));
        assert_eq!(cme.active_tenant(), Some(2));
    }

    #[test]
    fn tenants_never_share_keystream() {
        // Encrypting all-zeros exposes the raw pad; the same (addr,
        // counter) under two tenants must produce unrelated pads, and both
        // must differ from the base key's pad.
        let zero = [0u8; LINE_BYTES];
        let pad_for = |tenant: Option<u32>| {
            let mut cme = CmeEngine::new([7u8; 16]);
            cme.enable_tenancy([0x99; 16]);
            if let Some(t) = tenant {
                cme.set_active_tenant(t);
            }
            cme.encrypt_line(0x40, &zero)
        };
        let base = pad_for(None);
        let one = pad_for(Some(1));
        let two = pad_for(Some(2));
        assert_ne!(one, two);
        assert_ne!(base, one);
        assert_ne!(base, two);
    }

    #[test]
    fn lines_written_before_tenancy_stay_readable() {
        let mut cme = CmeEngine::new([7u8; 16]);
        let plain = [0xC3u8; LINE_BYTES];
        let cipher = cme.encrypt_line(0x40, &plain);
        cme.enable_tenancy([0x99; 16]);
        cme.set_active_tenant(5);
        assert_eq!(cme.decrypt_line(0x40, &cipher).unwrap(), plain);
        assert_eq!(cme.line_owner(0x40), None, "base-key line has no owner");
        // A rewrite under the active tenant takes ownership.
        let c2 = cme.encrypt_line(0x40, &plain);
        assert_eq!(cme.line_owner(0x40), Some(5));
        assert_eq!(cme.decrypt_line(0x40, &c2).unwrap(), plain);
    }

    #[test]
    #[should_panic(expected = "enable_tenancy")]
    fn activating_a_tenant_without_tenancy_panics() {
        let mut cme = CmeEngine::new([7u8; 16]);
        cme.set_active_tenant(1);
    }

    #[test]
    fn counter_bump_invalidates_stale_pad() {
        let mut cme = CmeEngine::new([2u8; 16]);
        let plain_a = [0xAAu8; LINE_BYTES];
        let plain_b = [0xBBu8; LINE_BYTES];
        let c1 = cme.encrypt_line(0x40, &plain_a);
        assert_eq!(cme.decrypt_line(0x40, &c1).unwrap(), plain_a);
        // The rewrite bumps the counter; the old pad must not be reused.
        let c2 = cme.encrypt_line(0x40, &plain_b);
        assert_eq!(cme.decrypt_line(0x40, &c2).unwrap(), plain_b);
        assert_ne!(cme.decrypt_line(0x40, &c1).unwrap(), plain_a);
    }

    #[test]
    fn resizing_the_pad_cache_preserves_behavior() {
        let mut cme = CmeEngine::new([8u8; 16]);
        let plain = [0x5Cu8; LINE_BYTES];
        let cipher = cme.encrypt_line(0x80, &plain);
        cme.set_pad_cache_lines(16); // drops the memoized pad
        assert_eq!(cme.decrypt_line(0x80, &cipher).unwrap(), plain);
        let (_, misses) = cme.pad_cache_stats();
        assert_eq!(misses, 1, "pad had to be re-expanded after the resize");
        assert_eq!(cme.decrypt_line(0x80, &cipher).unwrap(), plain);
        assert_eq!(cme.pad_cache_stats().0, 1, "second decrypt hits");
    }
}
