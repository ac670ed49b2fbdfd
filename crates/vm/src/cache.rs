//! FNV-1a, the workspace's standard content hash. The bytecode program
//! cache it feeds is `f90d_core::vm_cache()`, where the hash is one
//! field of a typed key compared by equality — never the key itself.

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
