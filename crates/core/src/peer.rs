//! Per-peer state: the two roles of §3.
//!
//! Every SPRITE peer is simultaneously an **indexing peer** (inverted lists
//! for the terms the overlay assigns to it, plus a bounded history of recent
//! queries) and an **owner peer** (per shared document: the published global
//! index terms and the per-term learning statistics of §5.1).

use std::collections::{HashMap, VecDeque};

use sprite_ir::{DocId, Query, TermId};
use sprite_util::{varint_len, RingId, WireSize};

use crate::postings::PostingList;

/// One inverted-list entry, carrying exactly the metadata §5.1 lists:
/// owner address, document id, term frequency, document length — plus the
/// distinct-term count the §4 similarity normalization needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// The document containing the term.
    pub doc: DocId,
    /// The owner peer's address (for retrieval and liveness checks).
    pub owner: RingId,
    /// Raw term frequency in the document.
    pub tf: u32,
    /// Document length (token count).
    pub doc_len: u32,
    /// Distinct-term count ("number of terms in Dᵢ", §4).
    pub distinct: u32,
}

impl WireSize for IndexEntry {
    /// Canonical §5.1 record: varint document id, the owner peer's raw
    /// 16-byte ring address, then varint term frequency, document length,
    /// and distinct-term count.
    fn wire_size(&self) -> usize {
        varint_len(self.doc.index() as u64)
            + 16
            + varint_len(u64::from(self.tf))
            + varint_len(u64::from(self.doc_len))
            + varint_len(u64::from(self.distinct))
    }
}

/// Exact wire size of one published `(term, entry)` record: the varint
/// term id followed by the entry. Records encode independently — no
/// cross-record compression — so a batched transfer's payload is exactly
/// the sum of its records' sizes, making byte totals invariant under
/// batching.
#[must_use]
pub fn term_record_wire_size(term: TermId, entry: &IndexEntry) -> usize {
    varint_len(term.index() as u64) + entry.wire_size()
}

/// Exact wire size of one `(term, doc)` removal record.
#[must_use]
pub fn removal_wire_size(term: TermId, doc: DocId) -> usize {
    varint_len(term.index() as u64) + varint_len(doc.index() as u64)
}

/// Exact wire size of an inverted-list response (a `QueryFetch` payload):
/// a varint entry count, document ids delta-encoded as ascending gaps
/// (lists are kept sorted by document id), and each entry's remaining
/// metadata. The empty list is a single zero-count byte.
#[must_use]
pub fn posting_list_wire_size(entries: &[IndexEntry]) -> usize {
    let mut n = varint_len(entries.len() as u64);
    let mut prev = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let doc = e.doc.index() as u64;
        n += if i == 0 {
            varint_len(doc)
        } else {
            varint_len(doc.wrapping_sub(prev))
        };
        prev = doc;
        n += 16
            + varint_len(u64::from(e.tf))
            + varint_len(u64::from(e.doc_len))
            + varint_len(u64::from(e.distinct));
    }
    n
}

/// A query cached at an indexing peer, stamped with a global sequence
/// number so owners can poll incrementally ("Q′, the query set between the
/// current iteration and the last iteration", §5.3).
#[derive(Clone, Debug)]
pub struct CachedQuery {
    /// The query keywords (a [`Query`] clone shares its term storage, so
    /// filing one query at each of its keywords' peers allocates nothing).
    pub query: Query,
    /// MD5 of the query's canonical form — precomputed, used by the
    /// closest-hash deduplication of §3.
    pub qhash: RingId,
    /// Global issue sequence number.
    pub seq: u64,
}

/// Indexing-peer state.
#[derive(Clone, Debug, Default)]
pub struct IndexingState {
    /// Inverted lists for the terms this peer is responsible for.
    inverted: HashMap<TermId, PostingList>,
    /// Recent-query history, oldest first, bounded.
    cache: VecDeque<CachedQuery>,
    capacity: usize,
}

impl IndexingState {
    /// Fresh state with the given query-history capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        IndexingState {
            inverted: HashMap::new(),
            cache: VecDeque::new(),
            capacity,
        }
    }

    /// Insert or update the entry for `(term, doc)`.
    ///
    /// Lists stay sorted by document id with one entry per document —
    /// the structural invariant `sprite-audit`'s `check_index` verifies —
    /// so scans and merges are deterministic regardless of publish order.
    pub fn publish(&mut self, term: TermId, entry: IndexEntry) {
        self.publish_run(term, std::slice::from_ref(&entry));
    }

    /// Insert or update a whole run of entries under `term` — ascending
    /// by document id, one entry per document — as one merge into the
    /// list ([`PostingList::publish_run`]). Ends in the state publishing
    /// the entries one by one would.
    pub fn publish_run(&mut self, term: TermId, run: &[IndexEntry]) {
        if run.is_empty() {
            return; // an empty run must not leave an empty list behind
        }
        self.inverted
            .entry(term)
            .or_insert_with(|| PostingList::new(true))
            .publish_run(run);
    }

    /// Merge another peer's copy of `term`'s list into this peer's
    /// ([`PostingList::absorb`]) — how every list that moved between peers
    /// lands. Returns whether this peer's list changed.
    pub fn absorb_list(&mut self, term: TermId, donor: &PostingList) -> bool {
        if donor.is_empty() {
            return false; // an empty donor must not leave an empty list behind
        }
        self.inverted
            .entry(term)
            .or_insert_with(|| PostingList::new(true))
            .absorb(donor)
    }

    /// Remove the entry for `(term, doc)` eagerly; true if it existed.
    /// A list is dropped only when nothing — live or tombstoned — is
    /// left in it, so pending tombstones always survive to be billed by
    /// the cleanup pass.
    pub fn remove(&mut self, term: TermId, doc: DocId) -> bool {
        match self.inverted.get_mut(&term) {
            Some(list) => {
                let removed = list.remove(doc);
                if list.is_empty() && list.dead_count() == 0 {
                    self.inverted.remove(&term);
                }
                removed
            }
            None => false,
        }
    }

    /// Mark the entry for `(term, doc)` dead without rewriting the
    /// stored list; true if a live entry existed. The entry vanishes
    /// from queries, replication, and document frequencies immediately;
    /// the physical reclaim waits for [`Self::cleanup_tombstones`].
    pub fn tombstone(&mut self, term: TermId, doc: DocId) -> bool {
        self.inverted
            .get_mut(&term)
            .is_some_and(|list| list.tombstone(doc))
    }

    /// Tombstoned entries awaiting the lazy cleanup pass, across all
    /// lists.
    #[must_use]
    pub fn pending_tombstones(&self) -> usize {
        self.inverted.values().map(PostingList::dead_count).sum()
    }

    /// Physically reclaim every pending tombstone, dropping lists that
    /// end up empty. Returns the reclaimed `(term, entry)` records
    /// sorted by term then document so callers bill them in a
    /// deterministic order.
    pub fn cleanup_tombstones(&mut self) -> Vec<(TermId, IndexEntry)> {
        let mut dirty: Vec<TermId> = self
            .inverted
            .iter()
            .filter(|(_, l)| l.dead_count() > 0)
            .map(|(&t, _)| t)
            .collect();
        dirty.sort_unstable();
        let mut reclaimed = Vec::new();
        for t in dirty {
            if let Some(list) = self.inverted.get_mut(&t) {
                reclaimed.extend(list.cleanup().into_iter().map(|e| (t, e)));
                if list.is_empty() && list.dead_count() == 0 {
                    self.inverted.remove(&t);
                }
            }
        }
        reclaimed
    }

    /// The inverted list of `term`, if anything is indexed under it.
    /// The handle exposes length, exact wire size, and a decode-on-read
    /// iterator — the query hot path never materializes a list.
    #[must_use]
    pub fn postings(&self, term: TermId) -> Option<&PostingList> {
        self.inverted.get(&term)
    }

    /// The inverted list of `term`, decoded into a fresh vector (empty
    /// if nothing indexed).
    #[must_use]
    pub fn entries(&self, term: TermId) -> Vec<IndexEntry> {
        self.inverted
            .get(&term)
            .map_or_else(Vec::new, PostingList::to_entries)
    }

    /// Indexed document frequency `n′_k` (§3/§4): how many documents chose
    /// `term` as a global index term.
    #[must_use]
    pub fn indexed_df(&self, term: TermId) -> usize {
        self.inverted.get(&term).map_or(0, PostingList::len)
    }

    /// Terms this peer currently indexes, with their indexed df, sorted by
    /// term so iteration order never leaks `HashMap` randomness.
    pub fn term_dfs(&self) -> impl Iterator<Item = (TermId, usize)> {
        let mut v: Vec<(TermId, usize)> =
            self.inverted.iter().map(|(&t, l)| (t, l.len())).collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v.into_iter()
    }

    /// Every inverted list held by this peer, keyed by term, sorted by
    /// term so iteration order never leaks `HashMap` randomness.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &PostingList)> {
        let mut v: Vec<(TermId, &PostingList)> =
            self.inverted.iter().map(|(&t, l)| (t, l)).collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v.into_iter()
    }

    /// Replace the inverted list of `term` with a block of `count` entries
    /// made of `bytes`, unvalidated — **corruption injection** for
    /// `sprite-audit` tests only, and the only way bytes this crate did
    /// not encode enter a list; run [`PostingList::check`] before reading
    /// it. An empty block removes the list.
    pub fn inject_raw(&mut self, term: TermId, bytes: Vec<u8>, count: u32) {
        if bytes.is_empty() && count == 0 {
            self.inverted.remove(&term);
        } else {
            self.inverted
                .insert(term, PostingList::from_raw(bytes, count));
        }
    }

    /// Total inverted-list entries held.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.inverted.values().map(PostingList::len).sum()
    }

    /// Number of terms with a non-empty inverted list.
    #[must_use]
    pub fn indexed_terms(&self) -> usize {
        self.inverted.len()
    }

    /// Deterministic *logical* bytes of the inverted index: each list's
    /// stored size (its encoded length) plus a 4-byte term key per list.
    /// Length-based, never capacity, so the memory-per-peer metric gates on
    /// it exactly.
    #[must_use]
    pub fn logical_index_bytes(&self) -> u64 {
        self.inverted.values().map(|l| 4 + l.stored_bytes()).sum()
    }

    /// Record an issued query in the history (evicting the oldest beyond
    /// capacity).
    pub fn cache_query(&mut self, query: Query, qhash: RingId, seq: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.cache.len() == self.capacity {
            self.cache.pop_front();
        }
        self.cache.push_back(CachedQuery { query, qhash, seq });
    }

    /// Cached queries issued after `since` (exclusive).
    pub fn queries_since(&self, since: u64) -> impl Iterator<Item = &CachedQuery> {
        // The deque is ordered by seq; skip the old prefix.
        let start = self.cache.partition_point(|c| c.seq <= since);
        self.cache.range(start..)
    }

    /// Number of cached queries.
    #[must_use]
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// Copy all state from `other` into `self` (successor replication):
    /// one [`Self::absorb_list`] per list. Returns the number of entries
    /// copied.
    pub fn absorb_replica(&mut self, other: &IndexingState) -> usize {
        let mut copied = 0;
        for (&t, list) in &other.inverted {
            self.absorb_list(t, list);
            copied += list.len();
        }
        copied
    }
}

/// Per-term learning statistics an owner keeps for each shared document
/// (§5.1): the best historical `qScore` and the cumulative query frequency.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TermStat {
    /// Largest `qScore(Q, D)` over all past queries containing the term.
    pub qs: f64,
    /// Number of past queries containing the term (`QF`).
    pub qf: u64,
}

/// Owner-peer state for one shared document.
#[derive(Clone, Debug)]
pub struct OwnerDoc {
    /// The document.
    pub doc: DocId,
    /// Currently published global index terms, in rank order.
    pub published: Vec<TermId>,
    /// Learning statistics per document term ever seen in a query.
    pub stats: HashMap<TermId, TermStat>,
    /// Per-term high-water marks of the query sequence already polled
    /// (enables the incremental Algorithm 1). A term newly added to the
    /// index starts at 0 and fetches its full cached history on the next
    /// poll — §5.3: "for each indexing term, the indexing peer is polled
    /// to retrieve the query metadata of that term".
    pub term_watermarks: HashMap<TermId, u64>,
    /// Sequence numbers of queries already folded into `stats`, so a query
    /// reachable through several published terms is never double-counted
    /// across iterations (within one iteration the §3 closest-hash rule
    /// already deduplicates).
    pub seen: std::collections::HashSet<u64>,
    /// Terms this owner was advised to stop indexing (§7 hot-term
    /// advisory); learning never re-selects them.
    pub excluded: std::collections::HashSet<TermId>,
}

impl OwnerDoc {
    /// Fresh owner state for `doc` (nothing published yet).
    #[must_use]
    pub fn new(doc: DocId) -> Self {
        OwnerDoc {
            doc,
            published: Vec::new(),
            stats: HashMap::new(),
            term_watermarks: HashMap::new(),
            seen: std::collections::HashSet::new(),
            excluded: std::collections::HashSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(doc: u32, tf: u32) -> IndexEntry {
        IndexEntry {
            doc: DocId(doc),
            owner: RingId(0),
            tf,
            doc_len: 100,
            distinct: 50,
        }
    }

    #[test]
    fn publish_and_indexed_df() {
        let mut s = IndexingState::new(8);
        let t = TermId(1);
        s.publish(t, entry(0, 3));
        s.publish(t, entry(1, 5));
        assert_eq!(s.indexed_df(t), 2);
        assert_eq!(s.entries(t).len(), 2);
        assert_eq!(s.indexed_df(TermId(9)), 0);
        assert_eq!(s.total_entries(), 2);
    }

    #[test]
    fn publish_updates_in_place() {
        let mut s = IndexingState::new(8);
        let t = TermId(1);
        s.publish(t, entry(0, 3));
        s.publish(t, entry(0, 7));
        assert_eq!(s.indexed_df(t), 1);
        assert_eq!(s.entries(t)[0].tf, 7);
    }

    #[test]
    fn remove_entry() {
        let mut s = IndexingState::new(8);
        let t = TermId(1);
        s.publish(t, entry(0, 3));
        s.publish(t, entry(1, 5));
        assert!(s.remove(t, DocId(0)));
        assert_eq!(s.indexed_df(t), 1);
        assert!(!s.remove(t, DocId(0)));
        assert!(s.remove(t, DocId(1)));
        assert_eq!(s.indexed_df(t), 0);
        assert!(!s.remove(TermId(42), DocId(0)));
    }

    #[test]
    fn query_cache_bounded_and_ordered() {
        let mut s = IndexingState::new(3);
        for i in 0..5u64 {
            s.cache_query(Query::new(vec![TermId(i as u32)]), RingId(i as u128), i + 1);
        }
        // Capacity 3: seqs 3, 4, 5 remain.
        assert_eq!(s.cached_queries(), 3);
        let since2: Vec<u64> = s.queries_since(2).map(|c| c.seq).collect();
        assert_eq!(since2, [3, 4, 5]);
        let since4: Vec<u64> = s.queries_since(4).map(|c| c.seq).collect();
        assert_eq!(since4, [5]);
        assert_eq!(s.queries_since(5).count(), 0);
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        let mut s = IndexingState::new(0);
        s.cache_query(Query::default(), RingId(0), 1);
        assert_eq!(s.cached_queries(), 0);
    }

    #[test]
    fn absorb_replica_copies_entries() {
        let mut a = IndexingState::new(4);
        a.publish(TermId(1), entry(0, 2));
        let mut b = IndexingState::new(4);
        b.publish(TermId(1), entry(1, 3));
        b.publish(TermId(2), entry(2, 4));
        let copied = a.absorb_replica(&b);
        assert_eq!(copied, 2);
        assert_eq!(a.indexed_df(TermId(1)), 2);
        assert_eq!(a.indexed_df(TermId(2)), 1);
    }

    #[test]
    fn wire_sizes_are_exact_and_delta_compressed() {
        let e = entry(0, 3);
        // doc 0 (1B) + owner ring id (16B) + tf 3 (1B) + len 100 (1B) +
        // distinct 50 (1B).
        assert_eq!(e.wire_size(), 20);
        assert_eq!(term_record_wire_size(TermId(1), &e), 21);
        assert_eq!(term_record_wire_size(TermId(200), &e), 22);
        assert_eq!(removal_wire_size(TermId(1), DocId(0)), 2);
        assert_eq!(posting_list_wire_size(&[]), 1, "empty list is one byte");
        // Adjacent doc ids: each gap is one byte even when the absolute
        // ids would need two.
        let list: Vec<IndexEntry> = (0..4).map(|i| entry(300 + i, 2)).collect();
        let sized = posting_list_wire_size(&list);
        // count (1) + first doc 300 (2) + three 1-byte gaps + 4 × 19B of
        // per-entry metadata.
        assert_eq!(sized, 1 + 2 + 3 + 4 * 19);
        let naive: usize = 1 + list.iter().map(WireSize::wire_size).sum::<usize>();
        assert!(sized < naive, "gap encoding beats absolute ids");
    }

    #[test]
    fn tombstones_hide_entries_and_cleanup_reclaims_them() {
        let mut s = IndexingState::new(8);
        s.publish(TermId(1), entry(0, 3));
        s.publish(TermId(1), entry(1, 5));
        s.publish(TermId(2), entry(0, 2));
        assert!(s.tombstone(TermId(1), DocId(0)));
        assert!(!s.tombstone(TermId(1), DocId(0)), "already dead");
        assert!(!s.tombstone(TermId(9), DocId(0)), "unknown term");
        assert_eq!(s.indexed_df(TermId(1)), 1, "dead entries leave the df");
        assert_eq!(s.pending_tombstones(), 1);
        // A fully-tombstoned list survives until cleanup so its
        // reclaim can be billed.
        assert!(s.tombstone(TermId(2), DocId(0)));
        assert_eq!(s.indexed_df(TermId(2)), 0);
        assert_eq!(s.indexed_terms(), 2);
        let reclaimed = s.cleanup_tombstones();
        assert_eq!(
            reclaimed
                .iter()
                .map(|&(t, e)| (t, e.doc))
                .collect::<Vec<_>>(),
            vec![(TermId(1), DocId(0)), (TermId(2), DocId(0))]
        );
        assert_eq!(s.pending_tombstones(), 0);
        assert_eq!(s.indexed_terms(), 1, "the emptied list is dropped");
        assert!(s.cleanup_tombstones().is_empty());
    }

    #[test]
    fn replication_never_copies_tombstoned_entries() {
        let mut src = IndexingState::new(4);
        src.publish(TermId(1), entry(0, 2));
        src.publish(TermId(1), entry(1, 3));
        assert!(src.tombstone(TermId(1), DocId(0)));
        let mut dst = IndexingState::new(4);
        let copied = dst.absorb_replica(&src);
        assert_eq!(copied, 1, "only the live entry replicates");
        assert_eq!(dst.indexed_df(TermId(1)), 1);
        assert_eq!(dst.entries(TermId(1))[0].doc, DocId(1));
    }

    #[test]
    fn owner_doc_starts_empty() {
        let o = OwnerDoc::new(DocId(3));
        assert!(o.published.is_empty());
        assert!(o.stats.is_empty());
        assert!(o.term_watermarks.is_empty());
        assert!(o.seen.is_empty());
    }
}
