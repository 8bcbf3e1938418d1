//! Identifiers on the Chord ring.
//!
//! Chord places both peers and keys on a circular identifier space; SPRITE
//! uses MD5, so the circle is 2^128 positions (§6 of the paper). This module
//! provides the [`RingId`] newtype with the modular arithmetic Chord needs:
//! half-open interval membership (`in_range`), clockwise distance, and
//! finger-table offsets — and [`IdMap`], the hash map keyed by such ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::md5::md5;

/// Number of bits in the identifier space (MD5 digest width).
pub const ID_BITS: u32 = 128;

/// A position on the 2^128 Chord identifier circle.
///
/// Ordering is the natural integer order; ring-aware comparisons go through
/// [`RingId::in_open`], [`RingId::in_open_closed`], and
/// [`RingId::distance_cw`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingId(pub u128);

impl RingId {
    /// Hash arbitrary bytes onto the ring with MD5 (the paper's placement
    /// function for terms, queries, and peer addresses).
    #[must_use]
    pub fn hash_bytes(data: &[u8]) -> Self {
        RingId(md5(data).as_u128())
    }

    /// Hash a string term onto the ring.
    #[must_use]
    pub fn hash_term(term: &str) -> Self {
        Self::hash_bytes(term.as_bytes())
    }

    /// `self + 2^k (mod 2^128)` — the start of finger interval `k`.
    #[must_use]
    pub fn finger_start(self, k: u32) -> Self {
        debug_assert!(k < ID_BITS);
        RingId(self.0.wrapping_add(1u128 << k))
    }

    /// Clockwise distance from `self` to `other` (how far a lookup must
    /// travel along the circle).
    #[must_use]
    pub fn distance_cw(self, other: RingId) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// Membership in the *open* interval `(from, to)` on the circle.
    ///
    /// Intervals wrap: `in_open(9, 2)` contains 10, 0, and 1 but not 9 or 2.
    /// When `from == to` the interval covers the whole circle minus the
    /// endpoint, matching Chord's convention for a single-node ring.
    #[must_use]
    pub fn in_open(self, from: RingId, to: RingId) -> bool {
        if from == to {
            self != from
        } else {
            let d_self = from.distance_cw(self);
            d_self > 0 && d_self < from.distance_cw(to)
        }
    }

    /// Membership in the half-open interval `(from, to]` — the test Chord
    /// uses to decide whether a key belongs to a node (its predecessor
    /// excluded, the node itself included).
    #[must_use]
    pub fn in_open_closed(self, from: RingId, to: RingId) -> bool {
        if from == to {
            // Single node owns the whole circle.
            true
        } else {
            self == to || self.in_open(from, to)
        }
    }
}

/// Hasher for maps keyed by ring ids. An id is MD5 output — already
/// uniform — so it is folded (`hi ^ lo`) and multiplied once rather than
/// run through SipHash, and there is no per-process random state: equal
/// maps iterate in equal order. The multiplier is odd, so distinct folds
/// give distinct hashes. Not for keys an adversary can choose.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// 2^64 / φ, the Fibonacci-hashing multiplier.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u128(&mut self, id: u128) {
        self.mix((id >> 64) as u64 ^ id as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by raw ring-id values, hashed through [`IdHasher`].
pub type IdMap<V> = HashMap<u128, V, BuildHasherDefault<IdHasher>>;

impl std::fmt::Debug for RingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Show the top 16 hex digits; enough to eyeball ring positions.
        write!(f, "RingId({:016x}…)", (self.0 >> 64) as u64)
    }
}

impl std::fmt::Display for RingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl From<u128> for RingId {
    fn from(v: u128) -> Self {
        RingId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: RingId = RingId(10);
    const B: RingId = RingId(20);

    #[test]
    fn open_interval_basic() {
        assert!(RingId(15).in_open(A, B));
        assert!(!RingId(10).in_open(A, B));
        assert!(!RingId(20).in_open(A, B));
        assert!(!RingId(25).in_open(A, B));
    }

    #[test]
    fn open_interval_wraps() {
        // (20, 10): wraps through 0.
        assert!(RingId(25).in_open(B, A));
        assert!(RingId(u128::MAX).in_open(B, A));
        assert!(RingId(0).in_open(B, A));
        assert!(RingId(5).in_open(B, A));
        assert!(!RingId(15).in_open(B, A));
        assert!(!RingId(20).in_open(B, A));
        assert!(!RingId(10).in_open(B, A));
    }

    #[test]
    fn open_closed_includes_right_endpoint() {
        assert!(RingId(20).in_open_closed(A, B));
        assert!(!RingId(10).in_open_closed(A, B));
        assert!(RingId(15).in_open_closed(A, B));
        assert!(!RingId(21).in_open_closed(A, B));
    }

    #[test]
    fn degenerate_interval() {
        // (x, x] is the full circle: every id belongs to a lone node.
        assert!(RingId(999).in_open_closed(A, A));
        assert!(RingId(10).in_open_closed(A, A));
        // (x, x) is everything except x.
        assert!(RingId(999).in_open(A, A));
        assert!(!RingId(10).in_open(A, A));
    }

    #[test]
    fn finger_start_wraps() {
        let near_top = RingId(u128::MAX - 1);
        assert_eq!(near_top.finger_start(2).0, 2);
        assert_eq!(RingId(0).finger_start(127).0, 1u128 << 127);
    }

    #[test]
    fn distance_cw_wraps() {
        assert_eq!(A.distance_cw(B), 10);
        assert_eq!(B.distance_cw(A), u128::MAX - 10 + 1);
        assert_eq!(A.distance_cw(A), 0);
    }

    fn id_hash(id: u128) -> u64 {
        use std::hash::Hash;
        let mut h = IdHasher::default();
        id.hash(&mut h);
        h.finish()
    }

    #[test]
    fn id_hasher_separates_halves_and_small_ids() {
        let base = RingId::hash_term("abc").0;
        assert_ne!(id_hash(base), id_hash(base ^ (1 << 64)), "high half only");
        assert_ne!(id_hash(base), id_hash(base ^ 1), "low half only");
        // The small consecutive ids of the ring unit tests.
        let small: std::collections::BTreeSet<u64> =
            (1..=64u128).map(|i| id_hash(i * 10)).collect();
        assert_eq!(small.len(), 64);
        // A `RingId` key hashes as its value: both go through `write_u128`.
        let mut h = IdHasher::default();
        std::hash::Hash::hash(&RingId(base), &mut h);
        assert_eq!(h.finish(), id_hash(base));
    }

    #[test]
    fn hash_term_is_md5() {
        // md5("abc") = 900150983cd24fb0d6963f7d28e17f72
        assert_eq!(
            RingId::hash_term("abc").0,
            0x9001_5098_3cd2_4fb0_d696_3f7d_28e1_7f72u128
        );
    }
}
