//! A minimal multiply-xor hasher for the simulator's host-side lookup
//! structures (software page-walk cache, TLB set masks, kernel tables).
//!
//! These maps are keyed by small fixed-width ids and probed on hot
//! paths, so SipHash's DoS resistance buys nothing
//! and costs a measurable fraction of the whole figure suite. The mix
//! function is the classic rotate-xor-multiply used by many fast
//! non-cryptographic hashers, with the 64-bit golden-ratio constant.
//! Host-side only: hash quality can affect wall-clock, never a
//! simulated number.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fast non-cryptographic hasher for small fixed-width keys.
#[derive(Default)]
pub struct FastHasher {
    h: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashMap` with [`FastHasher`] — for hot, trusted, fixed-width keys.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`] — same trust model as [`FastMap`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip_and_distinct_keys() {
        let mut m: FastMap<(u16, u64, u8), u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i as u16, i * 7, (i % 3) as u8), i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i as u16, i * 7, (i % 3) as u8)), Some(&(i as u32)));
        }
        assert_eq!(m.get(&(0, 7, 2)), None);
    }

    #[test]
    fn hasher_separates_field_order() {
        use std::hash::BuildHasher;
        let b = BuildHasherDefault::<FastHasher>::default();
        assert_ne!(b.hash_one((1u64, 2u64)), b.hash_one((2u64, 1u64)));
    }
}
