//! Posting-list storage: delta-gap-compressed blocks behind one
//! [`PostingList`] type.
//!
//! The huge scale tier (`WorldConfig::huge`, 100k+ peers) cannot afford
//! `Vec<IndexEntry>` per term: each entry burns 32 logical bytes where
//! the canonical wire encoding of §5.1 needs ~20 — and far less once
//! document ids are delta-encoded. Every list in service therefore
//! stores exactly the per-entry wire encoding of
//! [`crate::peer::posting_list_wire_size`] (gap-varint doc id, raw
//! 16-byte owner address, varint tf / doc-length / distinct-count),
//! reusing the canonical LEB128 codec from `sprite-util`.
//!
//! **Reads.** One decoder (`entry_at`) and one iterator ([`PostingIter`])
//! serve every reader, and both are inlined into each one: the accumulation
//! loop of `QueryView::query_impl`, [`PostingList::to_entries`] behind
//! `absorb`, `run_is_stored`, [`PostingList::wire_size`] and the audit
//! fingerprints decode straight off the block, with no call per entry.
//! That call was where the decode time went. Out of line, decoding cost
//! 33–41 ns an entry and 0.43–0.55 of a `serve-full` view query (traced,
//! seed 42, 2-core host); inlined, 7.9–8.7 ns an entry and 0.16–0.21 of
//! the query, and `serve-full` serves 37–44 % more queries a second.
//! The attribute is `#[inline(always)]` because a plain `#[inline]` left
//! the call in place in most readers. With the call gone, the 16-byte
//! owner costs the ranking loop nothing measurable, so it stays in the
//! entry rather than in a column of its own.
//!
//! **Trust boundary.** Every block in service is self-produced: bytes
//! only ever enter one through this module's encoder, so the decode-on-read
//! iterator and the write kernel treat a block that fails to decode as a
//! bug in this module and panic. The one door for foreign bytes is
//! [`crate::peer::IndexingState::inject_raw`], which exists for the audit
//! layer's corruption injection and adopts the bytes unvalidated;
//! whoever holds such a block calls [`PostingList::check`] — the fallible
//! full scan, typed [`CodecError`]s, no panics — before reading it, as
//! `sprite-audit`'s `check_index` does.
//!
//! **Writes.** A block has one write kernel,
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
//! A list that moves between peers travels as its block and lands through
//! [`PostingList::absorb`]: equal bytes are left alone, an empty
//! destination adopts them, and only a real difference decodes the
//! donor's live entries into one `publish_run`.
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
//! **This module is the only place posting lists may be built**: the
//! fields are private, so every list flows through the sorted-insert
//! invariant enforced here.

use sprite_util::{decode_varint, encode_varint, varint_len, CodecError, RingId, WireSize};

use sprite_ir::{DocId, TermId};

use crate::peer::{term_record_wire_size, IndexEntry};

/// Logical bytes one decoded in-memory entry would occupy: u32 doc id +
/// 16-byte owner address + u32 tf + u32 doc-length + u32 distinct-count.
/// The denominator of the compression ratio (`plain_index_bytes`). A
/// constant — not `size_of::<IndexEntry>()` — so the figure is identical
/// across compilers and never gates on layout.
pub const PLAIN_ENTRY_BYTES: u64 = 4 + 16 + 4 + 4 + 4;

/// One inverted list, sorted by document id with one entry per document,
/// stored as a delta-gap-compressed block: the per-entry wire encodings,
/// concatenated. A sorted tombstone vector marks dead documents awaiting
/// the lazy cleanup pass.
#[derive(Clone, Debug)]
pub struct PostingList {
    /// Concatenated per-entry encodings (no count prefix).
    bytes: Vec<u8>,
    /// Number of encoded entries, tombstoned ones included.
    count: u32,
    /// Document id of the last (largest) entry, so runs past it append
    /// without touching earlier bytes (meaningless when `count == 0`).
    last_doc: u32,
    /// Sorted document ids of tombstoned entries.
    dead: Vec<u32>,
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

/// Decode one entry of a block in service (see the module docs, "Trust
/// boundary") starting at `at`; returns the entry and the offset one past
/// it. Infallible on purpose — the query path pays no `Result` per entry:
/// failing to decode self-produced bytes is a bug.
// Always inlined, with `PostingIter::next`, into every reader: the call
// per entry was most of the decode, 33–41 ns an entry out of line against
// 7.9–8.7 ns inlined; a plain `#[inline]` kept the call in most readers
// (module docs, "Reads").
#[inline(always)]
fn entry_at(bytes: &[u8], at: usize, prev_doc: Option<u32>) -> (IndexEntry, usize) {
    let (gap, at) = decode_varint(bytes, at).expect("self-produced posting block decodes");
    let doc = prev_doc.map_or(gap, |p| u64::from(p) + gap);
    let owner_end = at + 16;
    let owner = u128::from_be_bytes(
        bytes[at..owner_end]
            .try_into()
            .expect("self-produced posting block decodes"),
    );
    let (tf, at) = decode_varint(bytes, owner_end).expect("self-produced posting block decodes");
    let (doc_len, at) = decode_varint(bytes, at).expect("self-produced posting block decodes");
    let (distinct, at) = decode_varint(bytes, at).expect("self-produced posting block decodes");
    let entry = IndexEntry {
        doc: DocId(doc as u32),
        owner: RingId(owner),
        tf: tf as u32,
        doc_len: doc_len as u32,
        distinct: distinct as u32,
    };
    (entry, at)
}

/// Decode the canonical varint at `at` into a `u32` field.
fn decode_u32(bytes: &[u8], at: usize) -> Result<(u32, usize), CodecError> {
    let (v, next) = decode_varint(bytes, at)?;
    let v = u32::try_from(v).map_err(|_| CodecError::Overflow { offset: at })?;
    Ok((v, next))
}

/// [`entry_at`] for bytes nobody vouches for: any input either decodes,
/// every field within `u32`, or yields a typed error. Off the query path —
/// only the full scan behind [`PostingList::check`] calls it.
fn decode_entry(
    bytes: &[u8],
    at: usize,
    prev_doc: Option<u32>,
) -> Result<(IndexEntry, usize), CodecError> {
    let (gap, body) = decode_u32(bytes, at)?;
    let doc = prev_doc
        .unwrap_or(0)
        .checked_add(gap)
        .ok_or(CodecError::Overflow { offset: at })?;
    let owner: [u8; 16] = bytes
        .get(body..body + 16)
        .and_then(|b| b.try_into().ok())
        .ok_or(CodecError::Truncated {
            offset: bytes.len(),
        })?;
    let (tf, at) = decode_u32(bytes, body + 16)?;
    let (doc_len, at) = decode_u32(bytes, at)?;
    let (distinct, at) = decode_u32(bytes, at)?;
    let entry = IndexEntry {
        doc: DocId(doc),
        owner: RingId(u128::from_be_bytes(owner)),
        tf,
        doc_len,
        distinct,
    };
    Ok((entry, at))
}

/// The fallible full decode behind [`PostingList::check`] and
/// `PostingList::from_raw`: `count` entries of canonical varints with
/// strictly ascending document ids, exactly filling `bytes`. Hands every
/// document id to `visit` and returns the last one.
fn scan(bytes: &[u8], count: u32, mut visit: impl FnMut(u32)) -> Result<Option<u32>, CodecError> {
    let (mut at, mut prev) = (0, None);
    for index in 0..count as usize {
        let (entry, next) = decode_entry(bytes, at, prev)?;
        if prev == Some(entry.doc.0) {
            return Err(CodecError::NotAscending { index });
        }
        visit(entry.doc.0);
        (at, prev) = (next, Some(entry.doc.0));
    }
    if at != bytes.len() {
        return Err(CodecError::Inconsistent { offset: at });
    }
    Ok(prev)
}

/// Byte extent of one encoded entry: `start..body` holds the doc-gap
/// varint, `body..end` the owner address and the three metadata varints.
struct RawEntry {
    doc: u32,
    start: usize,
    body: usize,
    end: usize,
}

/// Locate the entry starting at `at` without decoding its metadata.
fn raw_entry(bytes: &[u8], at: usize, prev_doc: Option<u32>) -> RawEntry {
    let (gap, body) = decode_varint(bytes, at).expect("self-produced posting block decodes");
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
            if entry_at(bytes, at, prev).0 != *want || dead.binary_search(&raw.doc).is_ok() {
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

/// The one byte-rewrite pass behind every mutation that is not a
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
                dropped.push(entry_at(bytes, at, old_prev).0);
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
    /// A fresh empty list. The argument is ignored: it chose between two
    /// representations when there were two, and the benchmark harness
    /// still passes it.
    #[must_use]
    pub fn new(_packed: bool) -> Self {
        PostingList {
            bytes: Vec::new(),
            count: 0,
            last_doc: 0,
            dead: Vec::new(),
        }
    }

    /// Build a list from entries ascending by document id, one entry per
    /// document (decoded lists, or the sorted-insert path).
    #[must_use]
    pub fn from_entries(entries: Vec<IndexEntry>) -> Self {
        let mut list = PostingList::new(true);
        list.publish_run(&entries);
        list
    }

    /// Adopt `bytes` as a block of `count` entries **without validating
    /// them** — behind [`crate::peer::IndexingState::inject_raw`], the one
    /// door for foreign bytes (module docs, "Trust boundary"). Call
    /// [`Self::check`] before reading the result.
    #[must_use]
    pub(crate) fn from_raw(bytes: Vec<u8>, count: u32) -> Self {
        let last_doc = scan(&bytes, count, |_| {}).ok().flatten().unwrap_or(0);
        PostingList {
            bytes,
            count,
            last_doc,
            dead: Vec::new(),
        }
    }

    /// The fallible full scan: `Ok` exactly when this block is one the
    /// write kernel could have produced — `count` entries of canonical
    /// varints exactly filling the bytes, strictly ascending document ids
    /// and every field within `u32`, `last_doc` the last of them, and the
    /// tombstone vector sorted and naming stored documents only. Never
    /// panics, whatever the bytes.
    pub fn check(&self) -> Result<(), CodecError> {
        let mut dead = self.dead.iter().peekable();
        let last = scan(&self.bytes, self.count, |doc| {
            dead.next_if_eq(&&doc);
        })?;
        // The merge walk consumes `dead` only if it ascends through
        // stored documents.
        if dead.next().is_some() || last.is_some_and(|d| d != self.last_doc) {
            return Err(CodecError::Inconsistent {
                offset: self.bytes.len(),
            });
        }
        Ok(())
    }

    /// Number of *live* entries — tombstoned documents are already
    /// invisible here, so indexed document frequencies never count the
    /// dead.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize - self.dead.len()
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
        self.dead.len()
    }

    /// The block's raw encoded bytes. Exposed so tests can assert the
    /// append-only contract: between cleanups, appended runs, refreshes
    /// that change nothing and tombstones never rewrite existing bytes.
    #[must_use]
    pub fn packed_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Iterate *live* entries in document-id order, decoding on the fly
    /// and skipping tombstoned documents.
    #[must_use]
    pub fn iter(&self) -> PostingIter<'_> {
        PostingIter {
            bytes: &self.bytes,
            at: 0,
            remaining: self.count,
            prev_doc: None,
            dead: &self.dead,
            live: self.len(),
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
    /// with no tombstones pending, the block *is* the payload.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        if self.dead.is_empty() {
            return varint_len(u64::from(self.count)) + self.bytes.len();
        }
        // Skipping a dead entry widens the next live one's gap.
        let mut prev = 0;
        let entries: usize = self
            .iter()
            .map(|e| {
                let doc = e.doc.index() as u64;
                let gap = doc - std::mem::replace(&mut prev, doc);
                varint_len(gap) + e.wire_size() - varint_len(doc)
            })
            .sum();
        varint_len(self.len() as u64) + entries
    }

    /// Exact wire size of this list's *live* entries shipped as
    /// independent `(term, entry)` records — the sum of
    /// [`term_record_wire_size`] over them, in one streaming pass.
    #[must_use]
    pub fn records_wire_size(&self, term: TermId) -> u64 {
        self.iter()
            .map(|e| term_record_wire_size(term, &e) as u64)
            .sum()
    }

    /// Deterministic *logical* bytes this list occupies in memory: the
    /// encoded length plus 4 bytes per pending tombstone — dead entries
    /// still occupy storage until the cleanup pass reclaims them.
    /// Length-based, never capacity, so the memory-per-peer metric gates
    /// on it exactly.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.bytes.len() as u64 + self.dead.len() as u64 * 4
    }

    /// Insert or replace the entry for its document, keeping the list
    /// sorted by document id with one entry per document:
    /// [`Self::publish_run`] on a run of one.
    pub fn publish(&mut self, entry: IndexEntry) {
        self.publish_run(std::slice::from_ref(&entry));
    }

    /// Insert or replace a whole run of entries — ascending by document
    /// id, one entry per document — in one pass over the list. The one
    /// write kernel of a block:
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
    /// order, would leave behind. Returns whether the list changed.
    pub fn publish_run(&mut self, run: &[IndexEntry]) -> bool {
        debug_assert!(
            run.windows(2).all(|w| w[0].doc < w[1].doc),
            "a run ascends by document id with one entry per document"
        );
        let Some(first) = run.first() else {
            return false;
        };
        // Tombstoned docs were published before, so they sit at or below
        // `last_doc`: the append path can never hit one.
        if self.count == 0 || first.doc.0 > self.last_doc {
            let mut prev = (self.count > 0).then_some(self.last_doc);
            for e in run {
                encode_entry(e, prev, &mut self.bytes);
                prev = Some(e.doc.0);
            }
            self.count += run.len() as u32;
            self.last_doc = prev.unwrap_or(0);
        } else if run_is_stored(&self.bytes, self.count, &self.dead, run) {
            return false;
        } else {
            (self.bytes, self.count, self.last_doc, _) = rewrite(&self.bytes, self.count, run, &[]);
            self.dead
                .retain(|d| run.binary_search_by_key(d, |e| e.doc.0).is_err());
        }
        true
    }

    /// Merge another peer's copy of this list into this one — the one way
    /// a list lands after moving between peers (re-homing, successor
    /// replication, hand-over). Only the donor's *live* entries travel,
    /// and the result is what publishing them one by one would leave
    /// behind, reached by the cheapest of three routes:
    ///
    /// * equal blocks with no tombstone pending on either side are
    ///   already merged — nothing is decoded, written or allocated;
    /// * an empty destination adopts the donor's bytes as they are (the
    ///   encoding is canonical, so they are the bytes this list would
    ///   have produced);
    /// * anything else is one [`Self::publish_run`] over the donor's
    ///   decoded live entries, which sheds the destination's tombstone
    ///   for every document shipped.
    ///
    /// The donor is a block in service (module docs, "Trust boundary"), so
    /// nothing here calls [`Self::check`]. Returns whether the list
    /// changed.
    pub fn absorb(&mut self, donor: &PostingList) -> bool {
        if donor.dead.is_empty() {
            if self.dead.is_empty() && self.bytes == donor.bytes {
                debug_assert_eq!(self.count, donor.count, "equal blocks, equal counts");
                return false;
            }
            if self.count == 0 {
                self.bytes.clone_from(&donor.bytes);
                (self.count, self.last_doc) = (donor.count, donor.last_doc);
                return true;
            }
        }
        self.publish_run(&donor.to_entries())
    }

    /// Eagerly remove the entry for `doc` — physical removal, pending
    /// tombstone included; true if the entry existed. The lazy
    /// alternative is [`Self::tombstone`].
    pub fn remove(&mut self, doc: DocId) -> bool {
        if doc.0 > self.last_doc || !block_contains(&self.bytes, self.count, doc.0) {
            return false;
        }
        (self.bytes, self.count, self.last_doc, _) =
            rewrite(&self.bytes, self.count, &[], &[doc.0]);
        if let Ok(i) = self.dead.binary_search(&doc.0) {
            self.dead.remove(i);
        }
        true
    }

    /// Mark the entry for `doc` dead without touching the stored bytes;
    /// true if a live entry existed. The entry disappears from every
    /// live-facing accessor immediately; the physical reclaim — and its
    /// billing — waits for [`Self::cleanup`]. The presence check is an
    /// allocation-free scan that stops at the first document id at or
    /// past `doc`.
    pub fn tombstone(&mut self, doc: DocId) -> bool {
        if doc.0 > self.last_doc || !block_contains(&self.bytes, self.count, doc.0) {
            return false;
        }
        match self.dead.binary_search(&doc.0) {
            Ok(_) => false,
            Err(i) => {
                self.dead.insert(i, doc.0);
                true
            }
        }
    }

    /// Physically reclaim every tombstoned entry, returning the
    /// reclaimed entries in document order so the caller can bill each
    /// one. A no-op (empty vector) when no tombstones are pending. This
    /// and [`Self::remove`] are the only operations that take bytes
    /// *out* from behind the append watermark.
    pub fn cleanup(&mut self) -> Vec<IndexEntry> {
        if self.dead.is_empty() {
            return Vec::new();
        }
        let reclaimed;
        (self.bytes, self.count, self.last_doc, reclaimed) = rewrite(
            &self.bytes,
            self.count,
            &[],
            &std::mem::take(&mut self.dead),
        );
        reclaimed
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
pub struct PostingIter<'a> {
    bytes: &'a [u8],
    /// Current decode offset.
    at: usize,
    /// Encoded entries left to decode (dead ones included).
    remaining: u32,
    /// Previous entry's document id (gap base).
    prev_doc: Option<u32>,
    /// Tombstoned document ids not yet passed, ascending.
    dead: &'a [u32],
    /// Live entries not yet yielded.
    live: usize,
}

impl Iterator for PostingIter<'_> {
    type Item = IndexEntry;

    // Always inlined for the measured reason at `entry_at`: the decode
    // must compile into the caller's loop, in other crates too.
    #[inline(always)]
    fn next(&mut self) -> Option<IndexEntry> {
        while self.remaining > 0 {
            let (entry, next_at) = entry_at(self.bytes, self.at, self.prev_doc);
            self.at = next_at;
            self.remaining -= 1;
            self.prev_doc = Some(entry.doc.0);
            if self.dead.first() == Some(&entry.doc.0) {
                self.dead = &self.dead[1..];
                continue;
            }
            self.live -= 1;
            return Some(entry);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.live, Some(self.live))
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
    fn block_plus_count_prefix_is_the_wire_encoding() {
        for publish_order in [
            vec![0u32, 1, 2, 3, 300, 301],
            vec![300, 0, 301, 2, 1, 3],
            vec![5],
            vec![],
        ] {
            let mut list = PostingList::new(true);
            for &d in &publish_order {
                list.publish(entry(d, d + 1));
            }
            let mut docs = publish_order.clone();
            docs.sort_unstable();
            let decoded = list.to_entries();
            assert_eq!(
                decoded,
                docs.iter().map(|&d| entry(d, d + 1)).collect::<Vec<_>>()
            );
            assert_eq!(list.len(), docs.len());
            assert_eq!(list.wire_size(), posting_list_wire_size(&decoded));
            assert_eq!(
                varint_len(decoded.len() as u64) + list.packed_bytes().len(),
                posting_list_wire_size(&decoded),
                "block + count prefix is exactly the wire encoding"
            );
            assert_eq!(list.check(), Ok(()));
        }
    }

    #[test]
    fn in_place_replace_and_remove() {
        let mut list = PostingList::new(true);
        list.publish(entry(1, 1));
        list.publish(entry(2, 1));
        list.publish(entry(3, 1));
        list.publish(entry(2, 9)); // replace mid-list
        list.publish(entry(3, 7)); // replace last
        assert!(list.remove(DocId(1)));
        assert!(!list.remove(DocId(1)));
        assert!(!list.remove(DocId(99)));
        assert_eq!(list.to_entries(), vec![entry(2, 9), entry(3, 7)]);
        assert_eq!(list.check(), Ok(()));
    }

    #[test]
    fn block_is_smaller_than_decoded_entries() {
        let list = PostingList::from_entries((0..64).map(|d| entry(1000 + d, 3)).collect());
        assert!(list.stored_bytes() < 64 * PLAIN_ENTRY_BYTES);
    }

    #[test]
    fn iterator_is_exact_size() {
        let list = PostingList::from_entries((0..5).map(|d| entry(d, 1)).collect());
        let mut it = list.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn tombstones_hide_entries_until_cleanup_reclaims_them() {
        let mut list = PostingList::from_entries((0..6).map(|d| entry(d, 1)).collect());
        assert!(list.tombstone(DocId(2)));
        assert!(!list.tombstone(DocId(2)), "double tombstone is a no-op");
        assert!(!list.tombstone(DocId(99)), "absent doc cannot be marked");
        assert!(list.tombstone(DocId(5)));
        assert_eq!(list.len(), 4);
        assert_eq!(list.dead_count(), 2);
        assert_eq!(list.check(), Ok(()), "pending tombstones are consistent");
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

    #[test]
    fn republish_sheds_a_pending_tombstone() {
        let mut list = PostingList::from_entries((0..4).map(|d| entry(d, 1)).collect());
        assert!(list.tombstone(DocId(1)));
        assert_eq!(list.len(), 3);
        list.publish(entry(1, 42)); // out-of-order republish
        assert_eq!(list.len(), 4);
        assert_eq!(list.dead_count(), 0);
        assert_eq!(list.to_entries()[1].tf, 42);
    }

    #[test]
    fn absorbing_an_identical_block_leaves_the_byte_buffer_untouched() {
        let donor = PostingList::from_entries((0..9).map(|d| entry(3 * d, d + 1)).collect());
        let mut list = donor.clone();
        let (ptr, capacity) = (list.bytes.as_ptr(), list.bytes.capacity());
        assert!(!list.absorb(&donor), "nothing changed");
        assert_eq!(list.bytes.as_ptr(), ptr, "the block was reallocated");
        assert_eq!(list.bytes.capacity(), capacity);
        assert_eq!(list.packed_bytes(), donor.packed_bytes());
        assert_eq!((list.len(), list.dead_count()), (9, 0));
    }

    #[test]
    fn an_empty_destination_adopts_the_donors_block() {
        let donor = PostingList::from_entries((0..9).map(|d| entry(3 * d, d + 1)).collect());
        let mut list = PostingList::new(true);
        assert!(list.absorb(&donor));
        let rebuilt = PostingList::from_entries(donor.to_entries());
        assert_eq!(list.packed_bytes(), rebuilt.packed_bytes());
        assert_eq!(list.len(), 9);
        assert_eq!(list.check(), Ok(()));
        // The adopted block is a block like any other: it appends.
        list.publish(entry(100, 1));
        assert_eq!(list.len(), 10);
        assert_eq!(list.check(), Ok(()));
        assert!(
            !PostingList::new(true).absorb(&PostingList::new(true)),
            "nothing to adopt"
        );
    }

    #[test]
    fn absorb_ships_live_entries_only_and_sheds_the_destinations_tombstone() {
        let mut donor = PostingList::from_entries((0..4).map(|d| entry(d, 7)).collect());
        assert!(donor.tombstone(DocId(1)));
        // Into an empty list: the donor's dead entry stays behind.
        let mut fresh = PostingList::new(true);
        assert!(fresh.absorb(&donor));
        assert_eq!(
            fresh.to_entries(),
            vec![entry(0, 7), entry(2, 7), entry(3, 7)]
        );
        assert_eq!(fresh.dead_count(), 0, "a tombstone never travels");
        // Into a list that holds document 1 live and document 2 dead: the
        // donor's tombstone kills nothing, its live entry revives.
        let mut list = PostingList::from_entries((1..3).map(|d| entry(d, 5)).collect());
        assert!(list.tombstone(DocId(2)));
        assert!(list.absorb(&donor));
        assert_eq!(
            list.to_entries(),
            vec![entry(0, 7), entry(1, 5), entry(2, 7), entry(3, 7)]
        );
        assert_eq!(
            list.dead_count(),
            0,
            "the shipped document shed its tombstone"
        );
        assert_eq!(list.check(), Ok(()));
        // Equal bytes are not enough while a tombstone is pending.
        let mut same_bytes = donor.clone();
        same_bytes.dead.clear();
        assert!(donor.clone().absorb(&same_bytes), "document 1 revives");
        assert!(!same_bytes.absorb(&donor), "and is not killed");
        assert_eq!(same_bytes.len(), 4);
    }

    #[test]
    fn wire_sizes_stream_over_live_entries() {
        let mut list = PostingList::from_entries((0..6).map(|d| entry(200 * d, d + 1)).collect());
        assert!(list.tombstone(DocId(0)));
        assert!(list.tombstone(DocId(600)));
        let live = list.to_entries();
        assert_eq!(list.wire_size(), posting_list_wire_size(&live));
        let term = TermId(300);
        assert_eq!(
            list.records_wire_size(term),
            live.iter()
                .map(|e| term_record_wire_size(term, e) as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn tombstone_never_rewrites_bytes() {
        let mut list = PostingList::from_entries((0..8).map(|d| entry(d, 1)).collect());
        let before = list.packed_bytes().to_vec();
        assert!(list.tombstone(DocId(3)));
        assert!(list.tombstone(DocId(0)));
        assert_eq!(
            list.packed_bytes(),
            &before[..],
            "tombstones only touch the side vector"
        );
        list.publish(entry(100, 1)); // in-order append extends, never rewrites
        assert_eq!(&list.packed_bytes()[..before.len()], &before[..]);
        list.cleanup();
        assert_ne!(
            list.packed_bytes(),
            &before[..],
            "cleanup is the watermark that re-encodes"
        );
    }

    #[test]
    fn eager_remove_drops_a_tombstoned_entry_exactly_once() {
        let mut list = PostingList::from_entries((0..3).map(|d| entry(d, 1)).collect());
        assert!(list.tombstone(DocId(1)));
        assert!(list.remove(DocId(1)), "physical entry still existed");
        assert_eq!(list.dead_count(), 0, "its tombstone went with it");
        assert!(list.cleanup().is_empty());
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn check_types_every_way_a_foreign_block_can_be_wrong() {
        let good = PostingList::from_entries((0..4).map(|d| entry(10 * d, 1)).collect());
        let bytes = good.packed_bytes().to_vec();
        assert_eq!(PostingList::from_raw(bytes.clone(), 4).check(), Ok(()));
        let check = |bytes: &[u8], count| PostingList::from_raw(bytes.to_vec(), count).check();
        // Truncation, padded varints and absurd counts: the block fuzz in
        // `crates/audit/tests/corruption.rs`.
        assert!(matches!(
            check(&bytes, 3),
            Err(CodecError::Inconsistent { .. })
        ));
        // A zero gap is the same document twice.
        let mut twice = bytes.clone();
        encode_entry(&entry(30, 2), Some(30), &mut twice);
        assert_eq!(check(&twice, 5), Err(CodecError::NotAscending { index: 4 }));
        // A document id past `u32`.
        let mut wide = Vec::new();
        encode_varint(u64::from(u32::MAX) + 1, &mut wide);
        wide.extend_from_slice(&bytes[1..]);
        assert!(matches!(check(&wide, 4), Err(CodecError::Overflow { .. })));
        // A tombstone for a document the block does not store.
        let mut stray = good;
        stray.dead.push(5);
        assert!(matches!(
            stray.check(),
            Err(CodecError::Inconsistent { .. })
        ));
    }
}
