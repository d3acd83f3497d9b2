//! FNV-1a, the workspace's one fixed-key hash.
//!
//! Everything that must hash the same across runs, processes and Rust
//! versions uses it: sub-plan fingerprints, manifest plan hashes and
//! snapshot checksums (all persisted), the executor's partitioning hash
//! (which decides spill partitions and exchange buckets, so simulated
//! cost depends on it), and the FM distinct-count sketch. `std`'s
//! default hasher is randomly keyed and unspecified, so none of these
//! may use it.

use std::hash::Hasher;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a as a [`Hasher`], for hashing structured keys through their
/// [`std::hash::Hash`] impls. Only [`Hasher::write`] is implemented, so
/// every integer write hashes its native-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher starting from `basis` instead of [`FNV_OFFSET`] (salted
    /// variants, e.g. per-recursion-level partitioning).
    pub fn with_basis(basis: u64) -> Fnv1a {
        Fnv1a(basis)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 test vectors. Fingerprints, plan hashes and
    /// snapshot checksums on disk depend on these exact digests.
    #[test]
    fn known_digests_are_pinned() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"feedback"), {
            let mut h = Fnv1a::default();
            h.write(b"feed");
            h.write(b"back");
            h.finish()
        });
    }

    #[test]
    fn structured_writes_hash_native_bytes() {
        let mut a = Fnv1a::default();
        a.write_u64(42);
        assert_eq!(a.finish(), fnv1a(&42u64.to_ne_bytes()));
        let mut b = Fnv1a::with_basis(FNV_OFFSET ^ 7);
        b.write(b"x");
        assert_ne!(b.finish(), fnv1a(b"x"));
    }
}
