//! Tenant-namespaced logical addressing for the multi-tenant service mode.
//!
//! One shared scheme instance serves many tenants. Each tenant addresses a
//! private logical namespace; the service maps a tenant's local line
//! address into the shared logical space by packing the tenant id into the
//! high bits. The address-mapping table then keeps per-tenant mappings
//! disjoint by construction — no tenant can alias another's logical line —
//! while the *physical* store stays shared, which is what lets identical
//! plaintext written by different tenants deduplicate onto one stored
//! line.
//!
//! Key isolation rides on top (see `esd_crypto::derive_tenant_key`): each
//! tenant's unique writes are encrypted under its own derived key, keyed
//! off this module's namespacing via the scheme's active-tenant plumbing.

/// Bit position where the tenant id starts in a namespaced logical
/// address: the low 48 bits are the tenant-local line address (256 TiB of
/// per-tenant logical space), the high 16 bits the tenant id.
pub const TENANT_SHIFT: u32 = 48;

/// Highest representable tenant id (16 tenant bits).
pub const MAX_TENANT: u32 = (1 << (64 - TENANT_SHIFT)) - 1;

/// Mask selecting the tenant-local part of a namespaced address.
pub const LOCAL_MASK: u64 = (1u64 << TENANT_SHIFT) - 1;

/// Maps a tenant-local line address into the shared logical space.
///
/// # Panics
///
/// Panics (in debug builds) if `local` overflows its 48-bit field or
/// `tenant` exceeds [`MAX_TENANT`] — either would silently alias another
/// tenant's namespace.
///
/// # Examples
///
/// ```
/// use esd_core::tenant;
///
/// let a = tenant::namespaced(1, 0x40);
/// let b = tenant::namespaced(2, 0x40);
/// assert_ne!(a, b, "same local address, disjoint namespaces");
/// assert_eq!(tenant::tenant_of(a), 1);
/// assert_eq!(tenant::local_of(b), 0x40);
/// ```
#[must_use]
pub fn namespaced(tenant: u32, local: u64) -> u64 {
    debug_assert!(local <= LOCAL_MASK, "local address {local:#x} overflows its namespace");
    debug_assert!(tenant <= MAX_TENANT, "tenant id {tenant} exceeds the 16-bit field");
    (u64::from(tenant) << TENANT_SHIFT) | (local & LOCAL_MASK)
}

/// The tenant id packed into a namespaced logical address.
#[must_use]
pub fn tenant_of(logical: u64) -> u32 {
    (logical >> TENANT_SHIFT) as u32
}

/// The tenant-local line address of a namespaced logical address.
#[must_use]
pub fn local_of(logical: u64) -> u64 {
    logical & LOCAL_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespacing_round_trips() {
        for tenant in [0u32, 1, 7, MAX_TENANT] {
            for local in [0u64, 0x40, LOCAL_MASK - 63] {
                let logical = namespaced(tenant, local);
                assert_eq!(tenant_of(logical), tenant);
                assert_eq!(local_of(logical), local);
            }
        }
    }

    #[test]
    fn distinct_tenants_never_alias() {
        let a = namespaced(3, 0x1000);
        let b = namespaced(4, 0x1000);
        assert_ne!(a, b);
    }

    #[test]
    fn tenant_zero_is_the_legacy_flat_space() {
        // Single-tenant callers keep using raw addresses untouched.
        assert_eq!(namespaced(0, 0x00BE_EFC0), 0x00BE_EFC0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn overflowing_local_address_panics_in_debug() {
        let _ = namespaced(1, LOCAL_MASK + 1);
    }
}
