//! A reproducible hash.

use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a, as a [`Hasher`] so any `Hash` value can feed it.
/// Unlike the std `DefaultHasher` it has no per-process random keys, so
/// what it derives (metric label suffixes, for one) is the same in every
/// run.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Deterministic 64-bit hash of a value (FNV-1a over its `Hash` feed).
pub fn value_hash<T: Hash>(v: &T) -> u64 {
    let mut h = Fnv1a::new();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pin the hash of a known value: reproducibility across runs is
        // the reason FNV is used over the keyed std hasher. Hashing one
        // zero byte is one XOR-with-0 then one multiply from the basis.
        let want = 0xcbf2_9ce4_8422_2325_u64.wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(value_hash(&0u8), want);
    }
}
