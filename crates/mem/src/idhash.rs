//! A multiplicative hasher for keys the simulator computes itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd multiplier: multiplying by it permutes the low bits a hash table
/// indexes buckets by, and carries every input bit into the top bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Hasher for the keys of the KSM trees and their per-wake overlays:
/// [`Fingerprint`](crate::Fingerprint) digests and dense
/// [`FrameId`](crate::FrameId) indices.
///
/// Both are already well spread, so one multiply replaces the default
/// SipHash-1-3 rounds. A `Fingerprint` hashes as the XOR of its two
/// 64-bit halves times an odd constant; a `FrameId` as its index times
/// the same constant, which gives dense ids distinct low bits. A key
/// written as several words folds each in FxHash-style
/// (rotate, XOR, multiply).
///
/// The default hasher's random keys protect a map against inputs crafted
/// to collide; this one has none. That is sound only because none of
/// these keys is decoded from outside input: fingerprints are digests the
/// simulator computes and frame ids are indices its frame pool hands out.
/// Keep the default hasher for any key that can come from outside.
///
/// # Example
///
/// ```
/// use mem::{Fingerprint, IdMap};
///
/// let mut m: IdMap<Fingerprint, u32> = IdMap::default();
/// m.insert(Fingerprint::of(&[1]), 7);
/// assert_eq!(m.get(&Fingerprint::of(&[1])), Some(&7));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add((n as u64) ^ ((n >> 64) as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fingerprint, FrameId};
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(key: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Largest bucket when `hashes` are indexed by their low 16 bits, as
    /// a table of 2^16 buckets indexes them.
    fn max_low16_bucket(hashes: impl Iterator<Item = u64>) -> usize {
        let mut buckets = vec![0usize; 1 << 16];
        for h in hashes {
            buckets[(h & 0xffff) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn dense_frame_ids_fill_every_low_bucket_once() {
        let max = max_low16_bucket((0..1usize << 16).map(|i| hash(&FrameId::from_index(i))));
        assert_eq!(max, 1);
    }

    #[test]
    fn fingerprints_spread_over_low_buckets() {
        for salt in [0u64, 1, 0xdead_beef] {
            let max = max_low16_bucket((0..1u64 << 16).map(|i| hash(&Fingerprint::of(&[salt, i]))));
            // 2^16 keys over 2^16 buckets: a uniform hash puts at most
            // about 8 in the fullest one.
            assert!(max <= 12, "salt {salt}: a bucket holds {max} keys");
        }
    }

    #[test]
    fn either_fingerprint_half_changes_the_hash() {
        let base = Fingerprint::of(&[42]);
        // Bits 0-63 are the low half, 64-127 the high half.
        for bit in [0u32, 17, 63, 64, 100, 127] {
            let other = Fingerprint::from_u128(base.as_u128() ^ (1u128 << bit));
            assert_ne!(hash(&base), hash(&other), "bit {bit}");
        }
    }
}
