//! Posting-list storage: delta-gap-compressed blocks behind one
//! [`PostingList`] type.
//!
//! The huge scale tier (`SPRITE_SCALE=huge`, 100k+ peers) cannot afford
//! `Vec<IndexEntry>` per term: each entry burns 32 logical bytes where
//! the canonical wire encoding of §5.1 needs ~20 — and far less once
//! document ids are delta-encoded. Every list in service therefore
//! stores exactly the per-entry wire encoding of
//! [`crate::peer::posting_list_wire_size`] (gap-varint doc id, raw
//! 16-byte owner address, varint tf / doc-length / distinct-count),
//! reusing the canonical LEB128 codec from `sprite-util`. Readers
//! decode on the fly through [`PostingIter`].
//!
//! The [`PostingList::Plain`] variant is a **test vehicle**, never
//! created by a deployment: corruption injection
//! ([`crate::peer::IndexingState::inject_raw`]) needs a list the encoder
//! cannot represent (unsorted, duplicate documents), and the tombstone
//! property tests use the plain vector as the model the packed block is
//! checked against.
//!
//! **Writes.** A packed block has one write kernel,
//! [`PostingList::publish_run`]: a doc-ascending run of entries is
//! appended when it lies past the last stored document, leaves the block
//! untouched when every entry is already stored, equal and live, and is
//! otherwise merged in one pass that copies stored entries verbatim and
//! re-encodes only the gap varints an insertion changed. A single
//! [`PostingList::publish`] is a run of one, and the two operations that
//! take entries out ([`PostingList::remove`], [`PostingList::cleanup`])
//! run the same pass with a drop set in place of the run. Nothing ever
//! decodes a block into a vector, splices it and encodes it again, so
//! bulk writers sort their records per list and merge each list once.
//!
//! **Tombstones.** Document deletion marks entries dead instead of
//! re-encoding the list on the spot: each list carries a sorted side
//! vector of tombstoned document ids, [`PostingIter`] skips them, and
//! every live-facing accessor (`len`, `iter`, `to_entries`,
//! `wire_size`) sees only live entries. The physical reclaim happens in
//! [`PostingList::cleanup`], called by the lazy pass in
//! `maintenance_round`, which returns the reclaimed entries so the
//! caller can bill each one. A tombstone never rewrites encoded bytes:
//! finding the document is an allocation-free scan that stops at the
//! first document id at or past it.
//!
//! **This module is the only place posting lists may be built.** A
//! `sprite-lint` rule bans `Vec<IndexEntry>` construction elsewhere so
//! every list flows through the sorted-insert invariant enforced here.

use sprite_util::{decode_varint, encode_varint, varint_len, RingId, WireSize};

use sprite_ir::DocId;

use crate::peer::IndexEntry;

/// Logical bytes one plain in-memory entry occupies: u32 doc id +
/// 16-byte owner address + u32 tf + u32 doc-length + u32 distinct-count.
/// A constant — not `size_of::<IndexEntry>()` — so the memory-per-peer
/// metric is identical across compilers and never gates on layout.
pub const PLAIN_ENTRY_BYTES: u64 = 4 + 16 + 4 + 4 + 4;

/// One inverted list, sorted by document id with one entry per document,
/// stored as a delta-gap-compressed block (plain entries in tests only,
/// see the module docs). Either way a sorted tombstone vector marks dead
/// documents awaiting the lazy cleanup pass.
#[derive(Clone, Debug)]
pub enum PostingList {
    /// Plain decoded entries — the layout of corruption-injected lists
    /// (which may violate the encoder's strictly-ascending precondition
    /// on purpose) and the reference model of the tombstone proptests.
    Plain {
        /// Doc-sorted entries, live and tombstoned alike.
        entries: Vec<IndexEntry>,
        /// Sorted document ids of tombstoned entries.
        dead: Vec<u32>,
    },
    /// The per-entry wire encoding, concatenated. `count` entries;
    /// `last_doc` is the final (largest) document id, so runs past it
    /// append without touching earlier bytes.
    Packed {
        /// Concatenated per-entry encodings (no count prefix).
        bytes: Vec<u8>,
        /// Number of encoded entries, tombstoned ones included.
        count: u32,
        /// Document id of the last entry (meaningless when `count == 0`).
        last_doc: u32,
        /// Sorted document ids of tombstoned entries.
        dead: Vec<u32>,
    },
}

/// Append the per-entry encoding of `e` to `out`. `prev_doc` is the
/// preceding entry's document id (`None` for the first entry, which
/// stores its id absolutely).
fn encode_entry(e: &IndexEntry, prev_doc: Option<u32>, out: &mut Vec<u8>) {
    let doc = e.doc.index() as u64;
    let gap = match prev_doc {
        Some(p) => doc - u64::from(p),
        None => doc,
    };
    encode_varint(gap, out);
    out.extend_from_slice(&e.owner.0.to_be_bytes());
    encode_varint(u64::from(e.tf), out);
    encode_varint(u64::from(e.doc_len), out);
    encode_varint(u64::from(e.distinct), out);
}

/// Decode one entry starting at `at`; returns the entry and the offset
/// one past it. Packed bytes are self-produced, so failures are bugs.
fn decode_entry(bytes: &[u8], at: usize, prev_doc: Option<u32>) -> (IndexEntry, usize) {
    let (gap, at) = decode_varint(bytes, at).expect("packed postings: doc gap");
    let doc = match prev_doc {
        Some(p) => u64::from(p) + gap,
        None => gap,
    };
    let owner_end = at + 16;
    let owner = u128::from_be_bytes(
        bytes[at..owner_end]
            .try_into()
            .expect("packed postings: owner address"),
    );
    let (tf, at) = decode_varint(bytes, owner_end).expect("packed postings: tf");
    let (doc_len, at) = decode_varint(bytes, at).expect("packed postings: doc_len");
    let (distinct, at) = decode_varint(bytes, at).expect("packed postings: distinct");
    (
        IndexEntry {
            doc: DocId(doc as u32),
            owner: RingId(owner),
            tf: tf as u32,
            doc_len: doc_len as u32,
            distinct: distinct as u32,
        },
        at,
    )
}

/// Byte extent of one packed entry: `start..body` holds the doc-gap
/// varint, `body..end` the owner address and the three metadata varints.
struct RawEntry {
    doc: u32,
    start: usize,
    body: usize,
    end: usize,
}

/// Locate the entry starting at `at` without decoding its metadata.
fn raw_entry(bytes: &[u8], at: usize, prev_doc: Option<u32>) -> RawEntry {
    let (gap, body) = decode_varint(bytes, at).expect("packed postings: doc gap");
    let doc = prev_doc.map_or(gap, |p| u64::from(p) + gap);
    let mut end = body + 16;
    for _ in 0..3 {
        while bytes[end] & 0x80 != 0 {
            end += 1;
        }
        end += 1;
    }
    RawEntry {
        doc: doc as u32,
        start: at,
        body,
        end,
    }
}

/// Is an entry for `doc` — live or tombstoned — stored in the block? A
/// scan that stops at the first document id at or past `doc`.
fn block_contains(bytes: &[u8], count: u32, doc: u32) -> bool {
    let (mut at, mut prev) = (0, None);
    for _ in 0..count {
        let raw = raw_entry(bytes, at, prev);
        if raw.doc >= doc {
            return raw.doc == doc;
        }
        prev = Some(raw.doc);
        at = raw.end;
    }
    false
}

/// The read-only half of [`PostingList::publish_run`]: true when every
/// entry of `run` is already stored, equal and not tombstoned, so the
/// block need not be touched.
fn run_is_stored(bytes: &[u8], count: u32, dead: &[u32], run: &[IndexEntry]) -> bool {
    let (mut at, mut prev, mut next) = (0, None, 0);
    for _ in 0..count {
        let raw = raw_entry(bytes, at, prev);
        let want = &run[next];
        if raw.doc > want.doc.0 {
            return false;
        }
        if raw.doc == want.doc.0 {
            if decode_entry(bytes, at, prev).0 != *want || dead.binary_search(&raw.doc).is_ok() {
                return false;
            }
            next += 1;
            if next == run.len() {
                return true;
            }
        }
        prev = Some(raw.doc);
        at = raw.end;
    }
    false
}

/// The one byte-rewrite pass behind every packed mutation that is not a
/// pure append: merge the doc-ascending `run` into the block (an entry of
/// the run replaces a stored entry for the same document) and leave out
/// the documents in the sorted `drop` set. A kept entry is re-encoded only
/// when its predecessor changed — then only its gap varint is written
/// anew — and every maximal stretch of entries whose predecessors are
/// unchanged is copied as one slice. Returns the new block, its entry
/// count and last document id, and the dropped entries in document order.
fn rewrite(
    bytes: &[u8],
    count: u32,
    run: &[IndexEntry],
    drop: &[u32],
) -> (Vec<u8>, u32, u32, Vec<IndexEntry>) {
    // An entry's stand-alone wire size bounds its gap-encoded size.
    let incoming: usize = run.iter().map(WireSize::wire_size).sum();
    let mut out = Vec::with_capacity(bytes.len() + incoming);
    let mut dropped = Vec::with_capacity(drop.len());
    let mut kept = 0u32;
    // Predecessor document in the old block and in the output.
    let (mut old_prev, mut out_prev) = (None, None);
    // Old bytes `copy_from..at` are kept verbatim but not yet copied.
    let (mut at, mut copy_from) = (0, 0);
    let (mut run, mut drop) = (run.iter().peekable(), drop.iter().peekable());
    for _ in 0..count {
        let raw = raw_entry(bytes, at, old_prev);
        while let Some(e) = run.next_if(|e| e.doc.0 <= raw.doc) {
            out.extend_from_slice(&bytes[copy_from..raw.start]);
            copy_from = raw.start;
            encode_entry(e, out_prev, &mut out);
            out_prev = Some(e.doc.0);
            kept += 1;
        }
        let is_dropped = drop.next_if(|&&d| d == raw.doc).is_some();
        if is_dropped || out_prev == Some(raw.doc) {
            out.extend_from_slice(&bytes[copy_from..raw.start]);
            copy_from = raw.end;
            if is_dropped {
                dropped.push(decode_entry(bytes, at, old_prev).0);
            }
        } else {
            if out_prev != old_prev {
                out.extend_from_slice(&bytes[copy_from..raw.start]);
                let base = out_prev.map_or(0, u64::from);
                encode_varint(u64::from(raw.doc) - base, &mut out);
                copy_from = raw.body;
            }
            out_prev = Some(raw.doc);
            kept += 1;
        }
        old_prev = Some(raw.doc);
        at = raw.end;
    }
    out.extend_from_slice(&bytes[copy_from..at]);
    for e in run {
        encode_entry(e, out_prev, &mut out);
        out_prev = Some(e.doc.0);
        kept += 1;
    }
    (out, kept, out_prev.unwrap_or(0), dropped)
}

impl PostingList {
    /// A fresh empty list in the requested representation.
    #[must_use]
    pub fn new(packed: bool) -> Self {
        if packed {
            PostingList::Packed {
                bytes: Vec::new(),
                count: 0,
                last_doc: 0,
                dead: Vec::new(),
            }
        } else {
            PostingList::Plain {
                entries: Vec::new(),
                dead: Vec::new(),
            }
        }
    }

    /// Build a list from doc-sorted entries in the requested
    /// representation. Callers guarantee sortedness (decoded lists, or
    /// the sorted-insert path); corruption injection passes
    /// `packed = false` so invalid lists are stored verbatim.
    #[must_use]
    pub fn from_entries(entries: Vec<IndexEntry>, packed: bool) -> Self {
        if !packed {
            return PostingList::Plain {
                entries,
                dead: Vec::new(),
            };
        }
        let mut list = PostingList::new(true);
        list.publish_run(&entries);
        list
    }

    /// True when stored in the compressed representation.
    #[must_use]
    pub fn is_packed(&self) -> bool {
        matches!(self, PostingList::Packed { .. })
    }

    /// Number of *live* entries — tombstoned documents are already
    /// invisible here, so indexed document frequencies never count the
    /// dead.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            PostingList::Plain { entries, dead } => entries.len() - dead.len(),
            PostingList::Packed { count, dead, .. } => *count as usize - dead.len(),
        }
    }

    /// True when no live entries are stored (tombstoned entries may
    /// still be awaiting cleanup — see [`Self::dead_count`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned entries awaiting the lazy cleanup pass.
    #[must_use]
    pub fn dead_count(&self) -> usize {
        match self {
            PostingList::Plain { dead, .. } | PostingList::Packed { dead, .. } => dead.len(),
        }
    }

    /// The packed block's raw encoded bytes, when packed. Exposed so
    /// tests can assert the append-only contract: between cleanups,
    /// appended runs, refreshes that change nothing and tombstones never
    /// rewrite existing bytes.
    #[must_use]
    pub fn packed_bytes(&self) -> Option<&[u8]> {
        match self {
            PostingList::Plain { .. } => None,
            PostingList::Packed { bytes, .. } => Some(bytes),
        }
    }

    /// Iterate *live* entries in document-id order, decoding on the fly
    /// and skipping tombstoned documents.
    #[must_use]
    pub fn iter(&self) -> PostingIter<'_> {
        let live = self.len();
        match self {
            PostingList::Plain { entries, dead } => PostingIter::Plain {
                entries: entries.iter(),
                dead,
                dead_at: 0,
                live,
            },
            PostingList::Packed {
                bytes, count, dead, ..
            } => PostingIter::Packed {
                bytes,
                at: 0,
                remaining: *count,
                prev_doc: None,
                dead,
                dead_at: 0,
                live,
            },
        }
    }

    /// All *live* entries, decoded into a fresh vector.
    #[must_use]
    pub fn to_entries(&self) -> Vec<IndexEntry> {
        self.iter().collect()
    }

    /// Exact wire size of this list as a `QueryFetch` payload: count
    /// prefix plus the per-entry encodings of the *live* entries.
    /// Agrees byte-for-byte with
    /// [`crate::peer::posting_list_wire_size`] on the decoded entries;
    /// with no tombstones pending, the packed block *is* the payload.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            PostingList::Plain { entries, dead } if dead.is_empty() => {
                crate::peer::posting_list_wire_size(entries)
            }
            PostingList::Packed {
                bytes, count, dead, ..
            } if dead.is_empty() => varint_len(u64::from(*count)) + bytes.len(),
            _ => crate::peer::posting_list_wire_size(&self.to_entries()),
        }
    }

    /// Deterministic *logical* bytes this list occupies in memory:
    /// encoded length for packed blocks, [`PLAIN_ENTRY_BYTES`] per entry
    /// for plain vectors, plus 4 bytes per pending tombstone — dead
    /// entries still occupy storage until the cleanup pass reclaims
    /// them. Length-based, never capacity, so the memory-per-peer
    /// metric gates on it exactly.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        match self {
            PostingList::Plain { entries, dead } => {
                entries.len() as u64 * PLAIN_ENTRY_BYTES + dead.len() as u64 * 4
            }
            PostingList::Packed { bytes, dead, .. } => bytes.len() as u64 + dead.len() as u64 * 4,
        }
    }

    /// Insert or replace the entry for its document, keeping the list
    /// sorted by document id with one entry per document:
    /// [`Self::publish_run`] on a run of one.
    pub fn publish(&mut self, entry: IndexEntry) {
        self.publish_run(std::slice::from_ref(&entry));
    }

    /// Insert or replace a whole run of entries — ascending by document
    /// id, one entry per document — in one pass over the list. The one
    /// write kernel of a packed block:
    ///
    /// * a run that lies past the last stored document is appended, no
    ///   earlier byte touched;
    /// * a run whose every entry is already stored, equal and not
    ///   tombstoned leaves the block untouched (a read-only compare, no
    ///   allocation);
    /// * anything else is one merge pass that copies stored
    ///   entries verbatim and re-encodes only the gaps an insertion
    ///   changed. A republished document sheds any pending tombstone.
    ///
    /// The result is what publishing the entries one by one, in any
    /// order, would leave behind.
    pub fn publish_run(&mut self, run: &[IndexEntry]) {
        debug_assert!(
            run.windows(2).all(|w| w[0].doc < w[1].doc),
            "a run ascends by document id with one entry per document"
        );
        let Some(first) = run.first() else {
            return;
        };
        match self {
            PostingList::Plain { entries, dead } => {
                for &entry in run {
                    if let Ok(i) = dead.binary_search(&entry.doc.0) {
                        dead.remove(i);
                    }
                    match entries.binary_search_by_key(&entry.doc, |e| e.doc) {
                        Ok(i) => entries[i] = entry,
                        Err(i) => entries.insert(i, entry),
                    }
                }
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                dead,
            } => {
                // Tombstoned docs were published before, so they sit at
                // or below `last_doc`: the append path can never hit one.
                if *count == 0 || first.doc.0 > *last_doc {
                    let mut prev = (*count > 0).then_some(*last_doc);
                    for e in run {
                        encode_entry(e, prev, bytes);
                        prev = Some(e.doc.0);
                    }
                    *count += run.len() as u32;
                    *last_doc = prev.unwrap_or(0);
                } else if !run_is_stored(bytes, *count, dead, run) {
                    (*bytes, *count, *last_doc, _) = rewrite(bytes, *count, run, &[]);
                    dead.retain(|d| run.binary_search_by_key(d, |e| e.doc.0).is_err());
                }
            }
        }
    }

    /// Eagerly remove the entry for `doc` — physical removal, pending
    /// tombstone included; true if the entry existed. The lazy
    /// alternative is [`Self::tombstone`].
    pub fn remove(&mut self, doc: DocId) -> bool {
        match self {
            PostingList::Plain { entries, dead } => {
                if let Ok(i) = dead.binary_search(&doc.0) {
                    dead.remove(i);
                }
                let before = entries.len();
                entries.retain(|e| e.doc != doc);
                entries.len() != before
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                dead,
            } => {
                if doc.0 > *last_doc || !block_contains(bytes, *count, doc.0) {
                    return false;
                }
                (*bytes, *count, *last_doc, _) = rewrite(bytes, *count, &[], &[doc.0]);
                if let Ok(i) = dead.binary_search(&doc.0) {
                    dead.remove(i);
                }
                true
            }
        }
    }

    /// Mark the entry for `doc` dead without touching the stored bytes;
    /// true if a live entry existed. The entry disappears from every
    /// live-facing accessor immediately; the physical reclaim — and its
    /// billing — waits for [`Self::cleanup`]. On a packed block the
    /// presence check is an allocation-free scan that stops at the first
    /// document id at or past `doc`.
    pub fn tombstone(&mut self, doc: DocId) -> bool {
        let (present, dead) = match self {
            PostingList::Plain { entries, dead } => {
                (entries.binary_search_by_key(&doc, |e| e.doc).is_ok(), dead)
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                dead,
            } => (
                doc.0 <= *last_doc && block_contains(bytes, *count, doc.0),
                dead,
            ),
        };
        if !present {
            return false;
        }
        match dead.binary_search(&doc.0) {
            Ok(_) => false,
            Err(i) => {
                dead.insert(i, doc.0);
                true
            }
        }
    }

    /// Physically reclaim every tombstoned entry, returning the
    /// reclaimed entries in document order so the caller can bill each
    /// one. A no-op (empty vector) when no tombstones are pending. For
    /// packed blocks this and [`Self::remove`] are the only operations
    /// that take bytes *out* from behind the append watermark.
    pub fn cleanup(&mut self) -> Vec<IndexEntry> {
        if self.dead_count() == 0 {
            return Vec::new();
        }
        match self {
            PostingList::Plain { entries, dead } => {
                let dead = std::mem::take(dead);
                let (live, reclaimed) = std::mem::take(entries)
                    .into_iter()
                    .partition(|e| dead.binary_search(&e.doc.0).is_err());
                *entries = live;
                reclaimed
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                dead,
            } => {
                let reclaimed;
                (*bytes, *count, *last_doc, reclaimed) =
                    rewrite(bytes, *count, &[], &std::mem::take(dead));
                reclaimed
            }
        }
    }
}

impl<'a> IntoIterator for &'a PostingList {
    type Item = IndexEntry;
    type IntoIter = PostingIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Decode-on-read iterator over a [`PostingList`], yielding *live*
/// entries by value in document-id order. Tombstoned documents are
/// skipped by a merge walk against the sorted dead vector, so the
/// iterator stays exact-size.
#[derive(Clone, Debug)]
pub enum PostingIter<'a> {
    /// Plain slice walk.
    Plain {
        /// Underlying entries, dead ones included.
        entries: std::slice::Iter<'a, IndexEntry>,
        /// Sorted tombstoned document ids.
        dead: &'a [u32],
        /// Next tombstone to skip.
        dead_at: usize,
        /// Live entries not yet yielded.
        live: usize,
    },
    /// Sequential decode of a packed block.
    Packed {
        /// The packed block.
        bytes: &'a [u8],
        /// Current decode offset.
        at: usize,
        /// Encoded entries left to decode (dead ones included).
        remaining: u32,
        /// Previous entry's document id (gap base).
        prev_doc: Option<u32>,
        /// Sorted tombstoned document ids.
        dead: &'a [u32],
        /// Next tombstone to skip.
        dead_at: usize,
        /// Live entries not yet yielded.
        live: usize,
    },
}

impl Iterator for PostingIter<'_> {
    type Item = IndexEntry;

    fn next(&mut self) -> Option<IndexEntry> {
        loop {
            let (entry, dead, dead_at, live) = match self {
                PostingIter::Plain {
                    entries,
                    dead,
                    dead_at,
                    live,
                } => (entries.next().copied()?, dead, dead_at, live),
                PostingIter::Packed {
                    bytes,
                    at,
                    remaining,
                    prev_doc,
                    dead,
                    dead_at,
                    live,
                } => {
                    if *remaining == 0 {
                        return None;
                    }
                    let (entry, next_at) = decode_entry(bytes, *at, *prev_doc);
                    *at = next_at;
                    *remaining -= 1;
                    *prev_doc = Some(entry.doc.index() as u32);
                    (entry, dead, dead_at, live)
                }
            };
            if dead
                .get(*dead_at)
                .is_some_and(|&d| d == entry.doc.index() as u32)
            {
                *dead_at += 1;
                continue;
            }
            *live -= 1;
            return Some(entry);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PostingIter::Plain { live, .. } | PostingIter::Packed { live, .. } => {
                (*live, Some(*live))
            }
        }
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::posting_list_wire_size;

    fn entry(doc: u32, tf: u32) -> IndexEntry {
        IndexEntry {
            doc: DocId(doc),
            owner: RingId(0xABCD_EF01_2345 + u128::from(doc)),
            tf,
            doc_len: 100 + doc,
            distinct: 50,
        }
    }

    #[test]
    fn representations_agree_on_everything() {
        for publish_order in [
            vec![0u32, 1, 2, 3, 300, 301],
            vec![300, 0, 301, 2, 1, 3],
            vec![5],
            vec![],
        ] {
            let mut plain = PostingList::new(false);
            let mut packed = PostingList::new(true);
            for &d in &publish_order {
                plain.publish(entry(d, d + 1));
                packed.publish(entry(d, d + 1));
            }
            assert!(packed.is_packed() && !plain.is_packed());
            assert_eq!(plain.len(), packed.len());
            assert_eq!(plain.to_entries(), packed.to_entries());
            assert_eq!(plain.wire_size(), packed.wire_size());
            assert_eq!(
                packed.wire_size(),
                posting_list_wire_size(&packed.to_entries()),
                "packed block + count prefix is exactly the wire encoding"
            );
        }
    }

    #[test]
    fn in_place_replace_and_remove_match() {
        let mut plain = PostingList::new(false);
        let mut packed = PostingList::new(true);
        for list in [&mut plain, &mut packed] {
            list.publish(entry(1, 1));
            list.publish(entry(2, 1));
            list.publish(entry(3, 1));
            list.publish(entry(2, 9)); // replace mid-list
            list.publish(entry(3, 7)); // replace last
            assert!(list.remove(DocId(1)));
            assert!(!list.remove(DocId(1)));
            assert!(!list.remove(DocId(99)));
        }
        assert_eq!(plain.to_entries(), packed.to_entries());
        assert_eq!(packed.len(), 2);
        assert_eq!(packed.to_entries()[0].tf, 9);
        assert_eq!(packed.to_entries()[1].tf, 7);
    }

    #[test]
    fn packed_is_smaller_than_plain() {
        let entries: Vec<IndexEntry> = (0..64).map(|d| entry(1000 + d, 3)).collect();
        let plain = PostingList::from_entries(entries.clone(), false);
        let packed = PostingList::from_entries(entries, true);
        assert!(packed.stored_bytes() < plain.stored_bytes());
        assert_eq!(plain.stored_bytes(), 64 * PLAIN_ENTRY_BYTES);
    }

    #[test]
    fn iterator_is_exact_size() {
        let packed = PostingList::from_entries((0..5).map(|d| entry(d, 1)).collect(), true);
        let mut it = packed.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn tombstones_hide_entries_until_cleanup_reclaims_them() {
        for packed in [false, true] {
            let mut list = PostingList::from_entries((0..6).map(|d| entry(d, 1)).collect(), packed);
            assert!(list.tombstone(DocId(2)));
            assert!(!list.tombstone(DocId(2)), "double tombstone is a no-op");
            assert!(!list.tombstone(DocId(99)), "absent doc cannot be marked");
            assert!(list.tombstone(DocId(5)));
            assert_eq!(list.len(), 4);
            assert_eq!(list.dead_count(), 2);
            let docs: Vec<u32> = list.iter().map(|e| e.doc.index() as u32).collect();
            assert_eq!(docs, vec![0, 1, 3, 4]);
            assert_eq!(list.iter().len(), 4, "exact size excludes the dead");
            assert_eq!(
                list.wire_size(),
                posting_list_wire_size(&list.to_entries()),
                "wire size is live-only"
            );
            let reclaimed = list.cleanup();
            assert_eq!(
                reclaimed.iter().map(|e| e.doc.index()).collect::<Vec<_>>(),
                vec![2, 5]
            );
            assert_eq!(list.dead_count(), 0);
            assert_eq!(list.len(), 4);
            assert!(list.cleanup().is_empty(), "second cleanup finds nothing");
        }
    }

    #[test]
    fn republish_sheds_a_pending_tombstone() {
        for packed in [false, true] {
            let mut list = PostingList::from_entries((0..4).map(|d| entry(d, 1)).collect(), packed);
            assert!(list.tombstone(DocId(1)));
            assert_eq!(list.len(), 3);
            list.publish(entry(1, 42)); // out-of-order republish
            assert_eq!(list.len(), 4);
            assert_eq!(list.dead_count(), 0);
            assert_eq!(list.to_entries()[1].tf, 42);
        }
    }

    #[test]
    fn packed_tombstone_never_rewrites_bytes() {
        let mut list = PostingList::from_entries((0..8).map(|d| entry(d, 1)).collect(), true);
        let before = list.packed_bytes().expect("packed").to_vec();
        assert!(list.tombstone(DocId(3)));
        assert!(list.tombstone(DocId(0)));
        assert_eq!(
            list.packed_bytes().expect("packed"),
            &before[..],
            "tombstones only touch the side vector"
        );
        list.publish(entry(100, 1)); // in-order append extends, never rewrites
        assert_eq!(
            &list.packed_bytes().expect("packed")[..before.len()],
            &before[..]
        );
        list.cleanup();
        assert_ne!(
            list.packed_bytes().expect("packed"),
            &before[..],
            "cleanup is the watermark that re-encodes"
        );
    }

    #[test]
    fn eager_remove_drops_a_tombstoned_entry_exactly_once() {
        for packed in [false, true] {
            let mut list = PostingList::from_entries((0..3).map(|d| entry(d, 1)).collect(), packed);
            assert!(list.tombstone(DocId(1)));
            assert!(list.remove(DocId(1)), "physical entry still existed");
            assert_eq!(list.dead_count(), 0, "its tombstone went with it");
            assert!(list.cleanup().is_empty());
            assert_eq!(list.len(), 2);
        }
    }
}
