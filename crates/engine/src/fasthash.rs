//! A fast, fixed-seed hasher for the engine's internal maps.
//!
//! The standard library's default hasher (SipHash behind a per-process
//! random seed) is built to resist hash-flooding from untrusted keys.
//! Every map in the engine is keyed by internal identifiers — block
//! addresses, object ids, transaction ids — so that defence buys nothing
//! here, while its cost lands on the hottest path in the simulator (the
//! buffer-cache probe under every block access). This multiply-rotate
//! hasher (the Fx/rustc scheme) probes several times faster, and its
//! fixed seed also removes the one source of cross-process iteration
//! nondeterminism the engine had.
//!
//! Not for untrusted input; keep external-facing maps on the default
//! hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
#[allow(clippy::disallowed_types)] // the fixed seed is the determinism rule's sanctioned hash map
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// Creates an empty [`FastMap`] with at least `capacity` slots.
pub fn map_with_capacity<K, V>(capacity: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(capacity, FastBuildHasher::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over 64-bit lanes.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut it = bytes.chunks_exact(8);
        for chunk in &mut it {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = it.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&(7u32, 42u32)), hash_of(&(7u32, 42u32)));
        assert_eq!(hash_of(&"order_line"), hash_of(&"order_line"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let a = hash_of(&(1u32, 0u32));
        let b = hash_of(&(0u32, 1u32));
        let c = hash_of(&(1u32, 1u32));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn map_behaves_like_hashmap() {
        let mut m: FastMap<(u32, u32), u32> = map_with_capacity(4);
        for i in 0..100 {
            m.insert((i, i * 2), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7, 14)), Some(&7));
        assert_eq!(m.remove(&(7, 14)), Some(7));
        assert_eq!(m.get(&(7, 14)), None);
    }
}
