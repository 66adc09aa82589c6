//! Page-content fingerprints.

use std::fmt;

/// A 128-bit digest standing in for the 4096 bytes of a page.
///
/// Fingerprints are produced with a seeded 128-bit FNV-1a-style mixer over a
/// sequence of `u64` tokens describing the semantic identity of the page's
/// bytes. The mixer is deterministic, so the same token sequence always
/// yields the same fingerprint — this is what lets the KSM model discover
/// that "page 17 of libjvm.so in VM 2" equals "page 17 of libjvm.so in
/// VM 3".
///
/// The all-zeroes page, the single most mergeable page in any KSM deployment
/// (the garbage collector zero-fills freed heap), has the distinguished
/// value [`Fingerprint::ZERO`].
///
/// # Example
///
/// ```
/// use mem::Fingerprint;
///
/// let a = Fingerprint::of(&[7, 42]);
/// let b = Fingerprint::of(&[7, 42]);
/// let c = Fingerprint::of(&[7, 43]);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_ne!(a, Fingerprint::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fingerprint {
    /// The fingerprint of a page filled entirely with zero bytes.
    pub const ZERO: Fingerprint = Fingerprint(0);

    /// Computes the fingerprint of the page whose byte content is uniquely
    /// determined by `tokens`.
    ///
    /// Returns a non-[`ZERO`](Self::ZERO) fingerprint for every input (the
    /// zero digest is reserved for the zero page).
    #[must_use]
    pub fn of(tokens: &[u64]) -> Fingerprint {
        let mut builder = FingerprintBuilder::new();
        for &t in tokens {
            builder.push(t);
        }
        builder.finish()
    }

    /// Returns `true` if this is the fingerprint of the all-zeroes page.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Returns the raw 128-bit digest.
    #[must_use]
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Reconstructs a fingerprint from a raw digest, e.g. when
    /// deserialising a shared class cache file.
    #[must_use]
    pub fn from_u128(raw: u128) -> Fingerprint {
        Fingerprint(raw)
    }

    /// Derives a new fingerprint by mixing an extra token into this one.
    ///
    /// Used for "same data, different page offset" situations: shifting
    /// byte-identical data within a page produces different page bytes, so
    /// the offset is mixed in.
    #[must_use]
    pub fn derive(self, token: u64) -> Fingerprint {
        let mut b = FingerprintBuilder::from_state(self.0.max(1));
        b.push(token);
        b.finish()
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::ZERO
    }
}

/// Incremental builder for [`Fingerprint`]s.
///
/// Useful when a page's identity is assembled from a variable number of
/// parts, e.g. a class-segment page covered by several class fragments.
///
/// # Example
///
/// ```
/// use mem::{Fingerprint, FingerprintBuilder};
///
/// let mut b = FingerprintBuilder::new();
/// b.push(1);
/// b.push(2);
/// assert_eq!(b.finish(), Fingerprint::of(&[1, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    state: u128,
}

impl FingerprintBuilder {
    /// Creates a builder with the canonical initial state.
    #[must_use]
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder { state: FNV_OFFSET }
    }

    fn from_state(state: u128) -> FingerprintBuilder {
        FingerprintBuilder { state }
    }

    /// Mixes one token into the digest.
    pub fn push(&mut self, token: u64) {
        // FNV-1a over the eight little-endian bytes of the token, with an
        // avalanche rotation to spread low-entropy counters across the word.
        for byte in token.to_le_bytes() {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self.state = self.state.rotate_left(29) ^ self.state.rotate_right(17);
    }

    /// Finalises the digest.
    ///
    /// The zero digest is reserved for [`Fingerprint::ZERO`]; in the
    /// astronomically unlikely event the mixer lands on zero, the result is
    /// nudged to one.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state.max(1))
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_tokens_equal_fingerprints() {
        assert_eq!(Fingerprint::of(&[1, 2, 3]), Fingerprint::of(&[1, 2, 3]));
    }

    #[test]
    fn different_tokens_differ() {
        assert_ne!(Fingerprint::of(&[1, 2, 3]), Fingerprint::of(&[1, 2, 4]));
        assert_ne!(Fingerprint::of(&[1]), Fingerprint::of(&[1, 0]));
        assert_ne!(Fingerprint::of(&[]), Fingerprint::of(&[0]));
    }

    #[test]
    fn order_matters() {
        assert_ne!(Fingerprint::of(&[1, 2]), Fingerprint::of(&[2, 1]));
    }

    #[test]
    fn zero_is_distinguished() {
        assert!(Fingerprint::ZERO.is_zero());
        assert!(!Fingerprint::of(&[0]).is_zero());
        assert_eq!(Fingerprint::default(), Fingerprint::ZERO);
    }

    #[test]
    fn derive_changes_value_deterministically() {
        let base = Fingerprint::of(&[9]);
        assert_ne!(base.derive(0), base);
        assert_eq!(base.derive(5), base.derive(5));
        assert_ne!(base.derive(5), base.derive(6));
    }

    #[test]
    fn derive_from_zero_is_well_defined() {
        assert_ne!(Fingerprint::ZERO.derive(1), Fingerprint::ZERO);
    }

    #[test]
    fn no_collisions_over_dense_counter_space() {
        // Page identities are frequently (salt, index) pairs with small
        // indices; make sure the mixer spreads them.
        let mut seen = HashSet::new();
        for salt in 0..64u64 {
            for idx in 0..2048u64 {
                assert!(seen.insert(Fingerprint::of(&[salt, idx])));
            }
        }
    }

    #[test]
    fn roundtrip_raw() {
        let fp = Fingerprint::of(&[123, 456]);
        assert_eq!(Fingerprint::from_u128(fp.as_u128()), fp);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let fp = Fingerprint::of(&[1]);
        assert!(!format!("{fp}").is_empty());
        assert!(format!("{fp:?}").starts_with("Fingerprint("));
    }
}
