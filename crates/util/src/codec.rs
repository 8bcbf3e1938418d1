//! Dependency-free wire codec: LEB128 varints, zig-zag signed mapping,
//! and delta-encoded ascending doc-id lists.
//!
//! The simulator charges network cost in *bytes*, not just messages, so
//! every payload that crosses the simulated wire needs an exact, canonical
//! serialized size. This module is that single source of truth:
//!
//! * [`varint_len`] / [`encode_varint`] / [`decode_varint`] — the
//!   little-endian base-128 encoding (LEB128) used for every integer
//!   field. Encoding is canonical: the shortest form is the only form a
//!   decoder accepts, so byte sizes are a pure function of the value.
//! * [`zigzag`] / [`unzigzag`] — the standard signed↔unsigned mapping so
//!   small-magnitude deltas of either sign encode in one byte.
//! * [`encode_gap_list`] / [`decode_gap_list`] — strictly ascending `u64`
//!   lists (posting lists of doc ids) stored as a count, a first value,
//!   and varint gaps.
//! * [`WireSize`] — the trait every DHT payload implements to report the
//!   exact number of bytes its canonical encoding occupies. Byte
//!   accounting throughout the workspace goes through this trait so that
//!   batched and unbatched transfers of the same records always sum to
//!   the same total.
//!
//! Decoding is total: every slice of bytes either decodes or yields a
//! typed [`CodecError`]. No input may panic, loop, or trigger an
//! unbounded allocation — the corruption-injection suite in
//! `sprite-audit` holds the decoders to that contract.

use std::fmt;

/// Longest canonical LEB128 encoding of a `u64`: ⌈64/7⌉ bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// Typed decode/encode failure. Every variant carries enough position
/// information to point at the offending byte (or element) in a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// A varint encoded a value wider than 64 bits, or a decoded gap
    /// list overflowed `u64` while accumulating.
    Overflow {
        /// Byte offset of the byte (or gap) that overflowed.
        offset: usize,
    },
    /// A varint used more bytes than the shortest encoding of its value.
    /// Canonical encodings are required so wire sizes are deterministic.
    NonCanonical {
        /// Byte offset of the final, redundant continuation byte.
        offset: usize,
    },
    /// `encode_gap_list` was handed a list that is not strictly
    /// ascending, or a decoded gap-encoded block repeats an element.
    NotAscending {
        /// Index of the first element that does not exceed its
        /// predecessor.
        index: usize,
    },
    /// Side data stored next to an encoded block (its element count, its
    /// last element, a set naming some of its elements) disagrees with
    /// what the block's bytes decode to.
    Inconsistent {
        /// Byte offset the decoder had reached when the disagreement
        /// showed.
        offset: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated { offset } => {
                write!(f, "input truncated at byte {offset}")
            }
            CodecError::Overflow { offset } => {
                write!(f, "value overflows u64 at byte {offset}")
            }
            CodecError::NonCanonical { offset } => {
                write!(f, "non-canonical varint ending at byte {offset}")
            }
            CodecError::NotAscending { index } => {
                write!(f, "gap list not strictly ascending at index {index}")
            }
            CodecError::Inconsistent { offset } => {
                write!(f, "block disagrees with its side data at byte {offset}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Exact canonical serialized size, in bytes.
///
/// Implementations must agree with the actual encoder: for any value,
/// `encode(v).len() == v.wire_size()`. Batching relies on this being a
/// pure per-record function — a batch's payload is the sum of its
/// records' wire sizes, never less.
pub trait WireSize {
    /// Number of bytes the canonical encoding of `self` occupies.
    fn wire_size(&self) -> usize;
}

impl WireSize for u64 {
    fn wire_size(&self) -> usize {
        varint_len(*self)
    }
}

impl WireSize for u32 {
    fn wire_size(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

impl WireSize for String {
    /// Length-prefixed raw bytes.
    fn wire_size(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    /// Count prefix plus the sum of element sizes.
    fn wire_size(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

/// Number of bytes the canonical LEB128 encoding of `v` occupies (1–10).
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ⌈bits/7⌉ with a floor of one byte for zero.
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(7).max(1)
}

/// Append the canonical LEB128 encoding of `v` to `out`.
pub fn encode_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode one canonical LEB128 varint from `buf` starting at `offset`.
///
/// Returns the value and the offset one past its final byte. Rejects
/// encodings longer than [`MAX_VARINT_LEN`], encodings whose tenth byte
/// carries more than one significant bit ([`CodecError::Overflow`]), and
/// non-shortest encodings ([`CodecError::NonCanonical`]).
pub fn decode_varint(buf: &[u8], offset: usize) -> Result<(u64, usize), CodecError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    let mut at = offset;
    loop {
        let byte = *buf.get(at).ok_or(CodecError::Truncated { offset: at })?;
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            // Tenth byte: only the low bit of its payload fits in u64.
            return Err(CodecError::Overflow { offset: at });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            // A multi-byte encoding whose final byte contributes nothing
            // is a longer-than-shortest form of the same value.
            if payload == 0 && shift > 0 {
                return Err(CodecError::NonCanonical { offset: at });
            }
            return Ok((value, at + 1));
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Overflow { offset: at + 1 });
        }
        at += 1;
    }
}

/// Map a signed value onto unsigned so small magnitudes of either sign
/// get short varints: 0 → 0, -1 → 1, 1 → 2, -2 → 3, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode a strictly ascending `u64` list as `count, first, gaps…`.
///
/// The empty list encodes as a single zero-count byte. Returns
/// [`CodecError::NotAscending`] if any element fails to exceed its
/// predecessor — equal elements included, since a zero gap would make
/// the encoding ambiguous with a canonical one-shorter list.
pub fn encode_gap_list(list: &[u64], out: &mut Vec<u8>) -> Result<(), CodecError> {
    encode_varint(list.len() as u64, out);
    let mut prev = match list.first() {
        Some(&first) => {
            encode_varint(first, out);
            first
        }
        None => return Ok(()),
    };
    for (i, &v) in list.iter().enumerate().skip(1) {
        if v <= prev {
            return Err(CodecError::NotAscending { index: i });
        }
        encode_varint(v - prev, out);
        prev = v;
    }
    Ok(())
}

/// Exact encoded size of a strictly ascending list, without encoding it.
///
/// Agrees byte-for-byte with [`encode_gap_list`] on valid input.
pub fn gap_list_len(list: &[u64]) -> usize {
    let mut n = varint_len(list.len() as u64);
    let mut prev = 0u64;
    for (i, &v) in list.iter().enumerate() {
        n += if i == 0 {
            varint_len(v)
        } else {
            varint_len(v.wrapping_sub(prev))
        };
        prev = v;
    }
    n
}

/// Decode a gap list produced by [`encode_gap_list`] from `buf` starting
/// at `offset`. Returns the list and the offset one past its last byte.
///
/// Accumulation is checked: a gap that would push a value past
/// `u64::MAX` is [`CodecError::Overflow`], not a wrap. The declared
/// count only *reserves* capacity up to what the remaining bytes could
/// possibly hold (each element needs at least one byte), so a corrupt
/// count can never trigger an unbounded allocation.
pub fn decode_gap_list(buf: &[u8], offset: usize) -> Result<(Vec<u64>, usize), CodecError> {
    let (count, mut at) = decode_varint(buf, offset)?;
    let count = count as usize;
    let mut list = Vec::with_capacity(count.min(buf.len().saturating_sub(at)));
    if count == 0 {
        return Ok((list, at));
    }
    let (first, next) = decode_varint(buf, at)?;
    at = next;
    list.push(first);
    let mut prev = first;
    for _ in 1..count {
        let gap_at = at;
        let (gap, next) = decode_varint(buf, at)?;
        at = next;
        prev = prev
            .checked_add(gap)
            .ok_or(CodecError::Overflow { offset: gap_at })?;
        if gap == 0 {
            // A zero gap re-encodes shorter by dropping the duplicate;
            // reject it so decode∘encode is the identity on byte level.
            return Err(CodecError::NonCanonical { offset: gap_at });
        }
        list.push(prev);
    }
    Ok((list, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> (u64, usize) {
        let mut buf = Vec::new();
        encode_varint(v, &mut buf);
        assert_eq!(buf.len(), varint_len(v), "varint_len must match encoder");
        decode_varint(&buf, 0).expect("canonical encoding decodes")
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let (got, _) = roundtrip(v);
            assert_eq!(got, v);
        }
    }

    #[test]
    fn varint_lengths_step_at_seven_bit_boundaries() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(0x7f), 1);
        assert_eq!(varint_len(0x80), 2);
        assert_eq!(varint_len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn non_canonical_varint_is_rejected() {
        // 0x80 0x00 is a two-byte zero; only 0x00 is canonical.
        assert_eq!(
            decode_varint(&[0x80, 0x00], 0),
            Err(CodecError::NonCanonical { offset: 1 })
        );
    }

    #[test]
    fn truncated_varint_is_rejected() {
        assert_eq!(
            decode_varint(&[0x80], 0),
            Err(CodecError::Truncated { offset: 1 })
        );
        assert_eq!(
            decode_varint(&[], 0),
            Err(CodecError::Truncated { offset: 0 })
        );
    }

    #[test]
    fn overlong_varint_overflows() {
        // Eleven continuation bytes can never terminate inside u64.
        let buf = [0xffu8; 11];
        assert_eq!(
            decode_varint(&buf, 0),
            Err(CodecError::Overflow { offset: 9 })
        );
    }

    #[test]
    fn zigzag_is_an_involution_on_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4711, -4711] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn gap_list_round_trips_and_sizes_agree() {
        let lists: &[&[u64]] = &[
            &[],
            &[0],
            &[u64::MAX],
            &[0, 1, 2, 3],
            &[5, 100, 10_000, u64::MAX],
        ];
        for list in lists {
            let mut buf = Vec::new();
            encode_gap_list(list, &mut buf).expect("ascending list encodes");
            assert_eq!(buf.len(), gap_list_len(list));
            let (got, end) = decode_gap_list(&buf, 0).expect("round trip");
            assert_eq!(&got, list);
            assert_eq!(end, buf.len());
        }
    }

    #[test]
    fn non_ascending_list_is_a_typed_encode_error() {
        let mut buf = Vec::new();
        assert_eq!(
            encode_gap_list(&[3, 3], &mut buf),
            Err(CodecError::NotAscending { index: 1 })
        );
        let mut buf = Vec::new();
        assert_eq!(
            encode_gap_list(&[5, 2], &mut buf),
            Err(CodecError::NotAscending { index: 1 })
        );
    }

    #[test]
    fn corrupt_count_cannot_overallocate() {
        // Claims 2^40 elements but carries no bytes for them: decoding
        // must fail fast with a bounded allocation.
        let mut buf = Vec::new();
        encode_varint(1 << 40, &mut buf);
        assert!(matches!(
            decode_gap_list(&buf, 0),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn gap_overflow_is_detected() {
        // first = u64::MAX, then any nonzero gap overflows.
        let mut buf = Vec::new();
        encode_varint(2, &mut buf);
        encode_varint(u64::MAX, &mut buf);
        encode_varint(1, &mut buf);
        assert!(matches!(
            decode_gap_list(&buf, 0),
            Err(CodecError::Overflow { .. })
        ));
    }

    #[test]
    fn wire_size_impls_match_varint_len() {
        assert_eq!(0u64.wire_size(), 1);
        assert_eq!(u64::MAX.wire_size(), MAX_VARINT_LEN);
        assert_eq!(300u32.wire_size(), 2);
        assert_eq!(String::from("abc").wire_size(), 1 + 3);
        assert_eq!(vec![0u64, 1, 2].wire_size(), 4);
    }
}
