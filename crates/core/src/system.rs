//! The SPRITE system: owner and indexing peers over a Chord ring.
//!
//! Wires the substrates together into the architecture of §3:
//!
//! * **document sharing** — [`SpriteSystem::publish_all`] publishes each
//!   document's initial global index terms (top-F frequent, §5.2) to the
//!   indexing peers the ring assigns;
//! * **query processing** — [`SpriteSystem::issue_query`] resolves each
//!   keyword's indexing peer, fetches inverted lists (term frequency,
//!   document length, distinct-term count), caches the query at those peers,
//!   and ranks at the querying peer with indexed document frequency as the
//!   IDF surrogate (§4);
//! * **index tuning** — [`SpriteSystem::learning_iteration`] is the periodic
//!   §5.3 learning pass: owners poll the indexing peers of their current
//!   global terms, receive the *new* cached queries (deduplicated by the
//!   closest-hash rule of §3), run Algorithm 1, and publish/retract terms.
//!
//! The eSearch baseline of §6 is this same machinery with a static
//! configuration ([`crate::SpriteConfig::esearch`]): all terms up front,
//! no learning.

use std::collections::{BTreeMap, HashMap};

use sprite_chord::{
    sim, ChordConfig, ChordNet, MsgKind, NetStats, NullTrace, Phase, TraceRecorder, TraceSink,
};
use sprite_corpus::DocEvent;
use sprite_ir::{Corpus, DocId, Hit, Query, TermId};
use sprite_util::{derive_rng, EventQueue, IdMap, Md5, RingId, WireSize};

use crate::config::{IdfMode, SpriteConfig};
use crate::learn;
use crate::peer::{removal_wire_size, term_record_wire_size, IndexEntry, IndexingState, OwnerDoc};
use crate::view::{QueryView, RankScratch};

/// Outcome counters of one learning iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearnReport {
    /// Documents whose published term set changed.
    pub docs_changed: usize,
    /// Terms newly published across all documents.
    pub terms_added: usize,
    /// Terms retracted across all documents.
    pub terms_removed: usize,
    /// Cached queries returned to owners (after deduplication).
    pub queries_returned: usize,
    /// Indexing peers polled.
    pub polls: usize,
}

/// Outcome counters of one document update ([`SpriteSystem::update_document`]
/// or [`SpriteSystem::republish_document`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Terms newly published for the updated document.
    pub terms_added: usize,
    /// Terms retracted from the distributed index.
    pub terms_removed: usize,
    /// Terms kept as-is (their index entries retain the previous
    /// version's metadata until the next republish — the staleness
    /// window the freshness study measures).
    pub terms_kept: usize,
}

/// Outcome counters of one applied document-churn tick
/// ([`SpriteSystem::apply_doc_events`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DocTickReport {
    /// Fresh documents shared.
    pub inserted: usize,
    /// Documents whose content was replaced incrementally.
    pub updated: usize,
    /// Documents retired.
    pub deleted: usize,
    /// Terms published across all events (insert seeds + update adds).
    pub terms_published: usize,
    /// Terms retracted across all events (update drops + delete sweeps).
    pub terms_retracted: usize,
}

/// A running SPRITE deployment over a simulated Chord network.
#[derive(Clone, Debug)]
pub struct SpriteSystem {
    cfg: SpriteConfig,
    corpus: Corpus,
    net: ChordNet,
    peers: Vec<RingId>,
    /// Indexing-role state per peer (keyed by ring id).
    indexing: IdMap<IndexingState>,
    /// Owner-role state, one per document.
    owners: Vec<OwnerDoc>,
    /// Which peer owns (shares) each document.
    doc_owner: Vec<RingId>,
    /// Deleted-document flags, parallel to `owners`. Document ids are
    /// never reused; a deleted slot stays dead forever.
    deleted: Vec<bool>,
    /// Ring position of each term (lazily hashed).
    term_pos: Vec<Option<RingId>>,
    /// Global query sequence for incremental learning.
    query_seq: u64,
    /// Rotates the issuing peer across queries.
    issue_cursor: usize,
    /// Ranking buffers of the live query path, kept across queries.
    rank_scratch: RankScratch,
    /// Lazily computed exact document frequencies (ablation oracle).
    true_dfs: Option<Vec<u32>>,
    /// Per-key replica sets resolved during publishing (`oracle_replicas`
    /// re-walks the ring per call; many documents publish the same term).
    /// Invalidated whenever the membership can change.
    replica_cache: HashMap<u128, Vec<RingId>>,
    /// Installed trace recorder (observability layer). `None` — the
    /// default — makes every operation run its untraced, zero-overhead
    /// monomorphization.
    tracer: Option<TraceRecorder>,
    /// Logical operation clock: advances once per top-level operation
    /// (publish pass, query, learning iteration, document event). It is
    /// stamped on trace events, but it also seeds every delivery salt of
    /// the operation — which is why it advances with tracing on or off.
    pub(crate) op_tick: u64,
}

/// One application message of the write path, as [`SpriteSystem::deliver`]
/// takes it: index records travelling `origin → dest` as one billed
/// message of `kind`. A record sent on its own is a message of one;
/// [`SpriteSystem::publish_all`] and the maintenance passes fold the
/// records bound for one destination into one message. Records encode
/// independently, so `bytes` is the sum of their wire sizes either way —
/// batching changes message counts only, never byte totals. The message
/// carries the *records themselves*: installation at the indexing peer is
/// gated on the message actually arriving, so a drowned one leaves a real
/// hole in the index. `R` is how the sender holds them: `(term, entry)`
/// pairs on the publish path, a whole `(term, entries)` list per item in
/// a maintenance transfer.
#[derive(Debug)]
pub(crate) struct Message<R = (TermId, IndexEntry)> {
    pub(crate) origin: RingId,
    pub(crate) dest: RingId,
    pub(crate) kind: MsgKind,
    /// Distinguishes this message on its link (see DESIGN §10 for who
    /// salts with what).
    pub(crate) salt: u64,
    /// Summed wire size of `records`.
    pub(crate) bytes: u64,
    pub(crate) records: Vec<R>,
}

/// Index records that reached their indexing peer and await installation:
/// per destination, the `(term, entry)` records in arrival order. Always a
/// local of one top-level operation (a publish pass, a learning pass, a
/// document's diff), handed to [`SpriteSystem::install`] before it
/// returns — never stored, so between operations every delivered record is
/// in the index.
type Installs = BTreeMap<u128, Vec<(TermId, IndexEntry)>>;

/// What the charges of one write operation are stamped with: its phase,
/// its operation tick (which also seeds the delivery salts) and the sink
/// observing it.
pub(crate) struct OpTrace<'a, T: TraceSink> {
    pub(crate) phase: Phase,
    pub(crate) tick: u64,
    pub(crate) sink: &'a mut T,
}

/// Run `$body` with the installed tracer as `$sink` (temporarily moved out
/// so `$self` stays mutably borrowable), or with [`NullTrace`] when tracing
/// is off. A macro because [`TraceSink`] is deliberately not object-safe —
/// dispatch happens by monomorphization, not `dyn`.
macro_rules! traced {
    ($self:ident, $sink:ident, $body:expr) => {
        match $self.tracer.take() {
            Some(mut recorder) => {
                let out = {
                    let $sink = &mut recorder;
                    $body
                };
                $self.tracer = Some(recorder);
                out
            }
            None => {
                let $sink = &mut NullTrace;
                $body
            }
        }
    };
}

impl SpriteSystem {
    /// Build a deployment: `n_peers` peers in a converged Chord ring, the
    /// corpus's documents distributed over them as owners. Nothing is
    /// published yet — call [`Self::publish_all`].
    #[must_use]
    pub fn build(corpus: Corpus, n_peers: usize, cfg: SpriteConfig, seed: u64) -> Self {
        assert!(n_peers > 0, "need at least one peer");
        let net = ChordNet::with_random_nodes(ChordConfig::default(), n_peers, seed);
        let peers = net.node_ids();
        let mut rng = derive_rng(seed, "doc-owners");
        let doc_owner: Vec<RingId> = (0..corpus.len())
            .map(|_| peers[rng.gen_range(0..peers.len())])
            .collect();
        let owners = (0..corpus.len())
            .map(|i| OwnerDoc::new(DocId(i as u32)))
            .collect();
        let term_pos = vec![None; corpus.vocab().len()];
        let deleted = vec![false; corpus.len()];
        SpriteSystem {
            cfg,
            corpus,
            net,
            peers,
            indexing: IdMap::default(),
            owners,
            doc_owner,
            deleted,
            term_pos,
            query_seq: 0,
            issue_cursor: 0,
            rank_scratch: RankScratch::new(),
            true_dfs: None,
            replica_cache: HashMap::new(),
            tracer: None,
            op_tick: 0,
        }
    }

    // ------------------------------------------------------------------
    // Tracing (observability layer)
    // ------------------------------------------------------------------

    /// Install a fresh [`TraceRecorder`]: subsequent operations emit events
    /// into it. Tracing is observation only — results and `NetStats` are
    /// bit-identical with and without it (audited by `sprite-audit`).
    pub fn enable_tracing(&mut self) {
        if self.tracer.is_none() {
            self.tracer = Some(TraceRecorder::new());
        }
    }

    /// Remove and return the installed recorder (tracing turns off).
    pub fn take_tracer(&mut self) -> Option<TraceRecorder> {
        self.tracer.take()
    }

    /// The installed recorder, if tracing is on.
    #[must_use]
    pub fn tracer(&self) -> Option<&TraceRecorder> {
        self.tracer.as_ref()
    }

    /// Advance the operation clock (once per top-level operation).
    fn next_tick(&mut self) -> u64 {
        let t = self.op_tick;
        self.op_tick += 1;
        t
    }

    /// Start of a coarse traced span (maintenance round, churn tick): a
    /// stats snapshot when tracing is on, `None` otherwise.
    pub(crate) fn trace_span_start(&self) -> Option<NetStats> {
        self.tracer.as_ref().map(|_| self.net.stats().clone())
    }

    /// End of a coarse traced span: attribute every message charged since
    /// `start` to `phase`. Deriving the events from the accounting diff
    /// means span traces cannot diverge from `NetStats`.
    pub(crate) fn trace_span_end(&mut self, phase: Phase, start: Option<NetStats>) {
        if let (Some(before), Some(recorder)) = (start, self.tracer.as_mut()) {
            let after = self.net.stats().clone();
            recorder.absorb_span(phase, &before, &after);
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SpriteConfig {
        &self.cfg
    }

    /// The corpus this deployment shares.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The underlying network (message statistics live here).
    #[must_use]
    pub fn net(&self) -> &ChordNet {
        &self.net
    }

    /// Mutable network access (churn injection in experiments). Any caller
    /// may change the membership, so the replica cache is dropped.
    pub fn net_mut(&mut self) -> &mut ChordNet {
        self.replica_cache.clear();
        &mut self.net
    }

    /// Alive peers, ring order.
    #[must_use]
    pub fn peers(&self) -> &[RingId] {
        &self.peers
    }

    /// The peer owning (sharing) `doc`.
    #[must_use]
    pub fn owner_peer(&self, doc: DocId) -> RingId {
        self.doc_owner[doc.index()]
    }

    /// The currently published global index terms of `doc`, rank order.
    #[must_use]
    pub fn published_terms(&self, doc: DocId) -> &[TermId] {
        &self.owners[doc.index()].published
    }

    /// Owner-side learning state of `doc`.
    #[must_use]
    pub fn owner_state(&self, doc: DocId) -> &OwnerDoc {
        &self.owners[doc.index()]
    }

    /// Total inverted-list entries across all indexing peers (index size).
    #[must_use]
    pub fn total_index_entries(&self) -> usize {
        self.indexing
            .values()
            .map(IndexingState::total_entries)
            .sum()
    }

    /// Tombstoned entries awaiting the lazy cleanup pass, across every
    /// indexing peer. The audit invariant: after one `maintenance_round`
    /// this is zero again.
    #[must_use]
    pub fn pending_tombstones(&self) -> usize {
        self.indexing
            .values()
            .map(IndexingState::pending_tombstones)
            .sum()
    }

    /// The staleness window of the incremental update path, measured:
    /// `(stale, total)` live index entries, where an entry is *stale*
    /// when its stored metadata (term frequency, document length) no
    /// longer matches the document's current content. Kept terms are not
    /// republished on update — their entries age until the next learning
    /// pass or full republish — so this counts exactly the entries
    /// serving outdated ranking metadata. Tombstoned entries are
    /// invisible and excluded; replicas count per copy.
    #[must_use]
    pub fn stale_index_entries(&self) -> (u64, u64) {
        let (mut stale, mut total) = (0u64, 0u64);
        // Sorted peer walk: counting is commutative, but every index scan
        // in this crate runs in a reproducible order by convention.
        let mut peers: Vec<&u128> = self.indexing.keys().collect();
        peers.sort_unstable();
        for p in peers {
            for (term, list) in self.indexing[p].terms() {
                for e in list {
                    total += 1;
                    let d = self.corpus.doc(e.doc);
                    if e.tf != d.freq(term) || e.doc_len != d.len() {
                        stale += 1;
                    }
                }
            }
        }
        (stale, total)
    }

    /// Deterministic *logical* bytes of every inverted index in the
    /// deployment, as stored (encoded length for packed lists, the fixed
    /// per-entry cost for plain ones). Length-based — a pure function of
    /// the deployment's contents — so the memory-per-peer metric gates
    /// on it exactly.
    #[must_use]
    pub fn logical_index_bytes(&self) -> u64 {
        self.indexing
            .values()
            .map(IndexingState::logical_index_bytes)
            .sum()
    }

    /// What [`Self::logical_index_bytes`] would be if every list were
    /// held as decoded entries — the numerator of the compression ratio,
    /// counted over the same contents.
    #[must_use]
    pub fn plain_index_bytes(&self) -> u64 {
        self.indexing
            .values()
            .map(|st| {
                4 * st.indexed_terms() as u64
                    + st.total_entries() as u64 * crate::postings::PLAIN_ENTRY_BYTES
            })
            .sum()
    }

    /// Compute the exact per-term document frequencies once (the ablation
    /// oracle). Idempotent; also called before freezing a [`QueryView`] in
    /// true-df mode so the snapshot never needs lazy mutation.
    pub fn ensure_true_dfs(&mut self) {
        if self.true_dfs.is_none() {
            let mut dfs = vec![0u32; self.corpus.vocab().len()];
            for d in self.corpus.docs() {
                if self.deleted[d.id.index()] {
                    continue; // deleted documents leave the oracle too
                }
                for &(t, _) in d.terms() {
                    dfs[t.index()] += 1;
                }
            }
            self.true_dfs = Some(dfs);
        }
    }

    /// Ring position of a term (MD5 of its string form, cached).
    pub fn term_ring(&mut self, term: TermId) -> RingId {
        if let Some(p) = self.term_pos[term.index()] {
            return p;
        }
        let p = RingId::hash_term(self.corpus.vocab().term(term));
        self.term_pos[term.index()] = Some(p);
        p
    }

    /// Pre-hash the ring positions of every term in `queries` so a
    /// subsequent [`Self::query_view`] fan-out finds them all memoized
    /// (the view's fallback re-hashes per query per thread otherwise).
    pub fn warm_query_terms<'q, I>(&mut self, queries: I)
    where
        I: IntoIterator<Item = &'q Query>,
    {
        for q in queries {
            for (t, _) in q.term_counts() {
                let _ = self.term_ring(t);
            }
        }
    }

    /// Freeze the deployment into a read-only [`QueryView`] for concurrent
    /// ranking. Takes `&mut self` only to finish lazy bookkeeping first
    /// (the true-df oracle in [`IdfMode::TrueDf`] mode); the returned view
    /// holds shared borrows, so any number of threads may rank against it,
    /// and the borrow checker keeps learning and churn out until it drops.
    pub fn query_view(&mut self) -> QueryView<'_> {
        if self.cfg.idf_mode == IdfMode::TrueDf {
            self.ensure_true_dfs();
        }
        QueryView::new(
            &self.cfg,
            &self.net,
            &self.indexing,
            &self.corpus,
            &self.peers,
            &self.term_pos,
            self.true_dfs.as_deref(),
        )
    }

    /// Where a record of `key` lives: the routed `owner`, then — at
    /// replication degree > 1 — the further members of the §7 replica set,
    /// resolved by walking the owner's successor chain and memoized per
    /// key: many documents publish the same term, and the walk is
    /// identical for all of them until churn. The walk's
    /// Maintenance/Timeout probes are charged on first resolution only — a
    /// peer remembering the replica set it just learned, exactly like a
    /// real cache. Mid-churn a later route may resolve the key to another
    /// owner than the one the set was walked from; that route's owner
    /// still comes first, followed by the remembered successors.
    fn replicas_of<T: TraceSink>(
        &mut self,
        key: RingId,
        owner: RingId,
        op: &mut OpTrace<'_, T>,
    ) -> Vec<RingId> {
        if self.cfg.replication <= 1 {
            return vec![owner];
        }
        if !self.replica_cache.contains_key(&key.0) {
            let mut delta = NetStats::new();
            let walked = self.net.replicas_from_owner_traced(
                owner,
                self.cfg.replication,
                &mut delta,
                op.phase,
                op.tick,
                op.sink,
            );
            self.net.absorb_stats(&delta);
            self.replica_cache.insert(key.0, walked);
        }
        let successors = self.replica_cache[&key.0].iter().skip(1);
        std::iter::once(owner).chain(successors.copied()).collect()
    }

    /// MD5 of a query's canonical form (sorted term strings joined by a
    /// space) — precomputable offline by any peer, as §3 notes.
    #[must_use]
    pub fn query_hash(&self, query: &Query) -> RingId {
        let mut h = Md5::new();
        let mut first = true;
        for (t, _) in query.term_counts() {
            if !first {
                h.update(b" ");
            }
            h.update(self.corpus.vocab().term(t).as_bytes());
            first = false;
        }
        RingId(h.finalize().as_u128())
    }

    // ------------------------------------------------------------------
    // The write path: one diff, one `deliver`, one `install`
    // ------------------------------------------------------------------

    /// Publish the initial global index terms (top-F frequent, §5.2) for
    /// every document. Idempotent per document: already-published documents
    /// are skipped. The bulk share is the one caller that batches (§5 cost
    /// reduction): all records bound `origin → destination` under one kind
    /// ride one message, salted per slot.
    pub fn publish_all(&mut self) {
        let tick = self.next_tick();
        traced!(self, sink, {
            let phase = Phase::Publish;
            let mut op = OpTrace { phase, tick, sink };
            let mut outbox = Vec::new();
            // (origin, destination, replica copy?) → the batched message;
            // a `BTreeMap` fixes the slot order without an explicit sort.
            let mut slots: BTreeMap<(u128, u128, bool), Message> = BTreeMap::new();
            for i in 0..self.corpus.len() {
                let doc = DocId(i as u32);
                if self.deleted[i] || !self.owners[i].published.is_empty() {
                    continue;
                }
                let initial = self
                    .corpus
                    .doc(doc)
                    .top_frequent_terms(self.cfg.initial_terms);
                self.set_published(doc, initial, false, &mut op, &mut outbox);
                for m in outbox.drain(..) {
                    let (dest, replica) = (m.dest.0, m.kind == MsgKind::Replication);
                    let link = dest as u64 ^ (dest >> 64) as u64;
                    let slot = slots.entry((m.origin.0, dest, replica)).or_insert(Message {
                        salt: sim::message_salt(tick, link, u64::from(replica)),
                        bytes: 0,
                        records: Vec::new(),
                        ..m
                    });
                    slot.bytes += m.bytes;
                    slot.records.extend(m.records);
                }
            }
            let mut installs = Installs::new();
            self.deliver(slots.into_values(), &mut op, &mut installs);
            self.install(installs);
        });
    }

    /// The one diff of the write path: make `terms` the published global
    /// index terms of `doc`. Ships a record for every term the document
    /// did not publish yet (onto `outbox` — the caller owns delivery and
    /// installation), retracts every term it drops — eagerly, or by
    /// tombstone when `lazy` (see [`Self::retract_record`]) — stores the
    /// new set and returns `(added, removed)`.
    fn set_published<T: TraceSink>(
        &mut self,
        doc: DocId,
        terms: Vec<TermId>,
        lazy: bool,
        op: &mut OpTrace<'_, T>,
        outbox: &mut Vec<Message>,
    ) -> (usize, usize) {
        let old = std::mem::take(&mut self.owners[doc.index()].published);
        let (mut added, mut removed) = (0, 0);
        for &t in &terms {
            if !old.contains(&t) {
                self.ship_record(doc, t, op, outbox);
                added += 1;
            }
        }
        for &t in &old {
            if !terms.contains(&t) {
                self.retract_record(doc, t, lazy, op);
                removed += 1;
            }
        }
        self.owners[doc.index()].published = terms;
        self.debug_validate_owner(doc);
        (added, removed)
    }

    /// [`Self::set_published`] as a whole operation of [`Phase::Publish`]:
    /// diff, deliver each shipped record as a message of its own, install
    /// what arrived. Document lifecycle events and the §7 advisory change
    /// one document at a time, so there is nothing to batch — that is the
    /// paper's cost model for them, as it is for the learning diff.
    pub(crate) fn set_published_now(
        &mut self,
        doc: DocId,
        terms: Vec<TermId>,
        lazy: bool,
        tick: u64,
    ) -> (usize, usize) {
        traced!(self, sink, {
            let phase = Phase::Publish;
            let mut op = OpTrace { phase, tick, sink };
            let (mut outbox, mut installs) = (Vec::new(), Installs::new());
            let diff = self.set_published(doc, terms, lazy, &mut op, &mut outbox);
            self.deliver(outbox, &mut op, &mut installs);
            self.install(installs);
            diff
        })
    }

    /// Ship one `(doc, term)` index record with its §5.1 metadata: route
    /// to the term's indexing peer and queue one message per member of
    /// the replica set on `outbox` — [`MsgKind::IndexPublish`] to the
    /// routed peer, salted by the term's key, and
    /// [`MsgKind::Replication`] to every further replica, salted by the
    /// replica. A term that cannot be routed (heavy churn) ships nothing.
    fn ship_record<T: TraceSink>(
        &mut self,
        doc: DocId,
        term: TermId,
        op: &mut OpTrace<'_, T>,
        outbox: &mut Vec<Message>,
    ) {
        let origin = self.doc_owner[doc.index()];
        let key = self.term_ring(term);
        let Ok(lookup) = self
            .net
            .lookup_fast_traced(origin, key, op.phase, op.tick, op.sink)
        else {
            return;
        };
        let d = self.corpus.doc(doc);
        let entry = IndexEntry {
            doc,
            owner: origin,
            tf: d.freq(term),
            doc_len: d.len(),
            distinct: d.distinct_terms() as u32,
        };
        let bytes = term_record_wire_size(term, &entry) as u64;
        let replicas = self.replicas_of(key, lookup.owner, op);
        for (i, dest) in replicas.into_iter().enumerate() {
            let (kind, link) = if i == 0 {
                (MsgKind::IndexPublish, key.0 as u64)
            } else {
                (MsgKind::Replication, dest.0 as u64)
            };
            outbox.push(Message {
                origin,
                dest,
                kind,
                salt: sim::message_salt(op.tick, link, u64::from(doc.0)),
                bytes,
                records: vec![(term, entry)],
            });
        }
    }

    /// Retract one `(doc, term)` index record: route to the term's
    /// indexing peer, bill one [`MsgKind::IndexRemove`] plus the removal
    /// record's exact wire bytes at every member of the replica set, and
    /// take the entry out of each index — eagerly (`lazy = false`, a term
    /// replaced by learning or the advisory: the stored list is rewritten
    /// on the spot) or lazily (`lazy = true`, document delete / update /
    /// republish: the entry is tombstoned and the next
    /// `maintenance_round` reclaims it). The record on the wire is the
    /// same either way; only the indexing peer's local write strategy
    /// differs. Removals are reliable control messages: they do not pass
    /// through [`Self::deliver`].
    fn retract_record<T: TraceSink>(
        &mut self,
        doc: DocId,
        term: TermId,
        lazy: bool,
        op: &mut OpTrace<'_, T>,
    ) {
        let origin = self.doc_owner[doc.index()];
        let key = self.term_ring(term);
        let Ok(lookup) = self
            .net
            .lookup_fast_traced(origin, key, op.phase, op.tick, op.sink)
        else {
            return;
        };
        let bytes = removal_wire_size(term, doc) as u64;
        for peer in self.replicas_of(key, lookup.owner, op) {
            self.net
                .charge_traced(MsgKind::IndexRemove, op.phase, op.tick, peer, op.sink);
            self.net
                .charge_bytes_traced(MsgKind::IndexRemove, bytes, op.sink);
            if let Some(st) = self.indexing.get_mut(&peer.0) {
                if lazy {
                    st.tombstone(term, doc);
                } else {
                    st.remove(term, doc);
                }
            }
        }
    }

    /// The one delivery of the write path, and the only application
    /// caller of [`ChordNet::plan_delivery`]: every message is planned
    /// through the network model, scheduled at its modeled arrival time
    /// and processed in `(arrival, seq)` order. Each dropped transmission
    /// bills one real [`MsgKind::Timeout`]; a message that got through
    /// bills its kind once plus its payload bytes, and its records join
    /// `installs` under its destination. A drowned message bills only its
    /// timeouts and its records never arrive — the index genuinely loses
    /// them. On the perfect default every arrival is `t = 0`, so messages
    /// are processed in the order given.
    pub(crate) fn deliver<T: TraceSink, R>(
        &mut self,
        messages: impl IntoIterator<Item = Message<R>>,
        op: &mut OpTrace<'_, T>,
        installs: &mut BTreeMap<u128, Vec<R>>,
    ) {
        let mut queue = EventQueue::new();
        for m in messages {
            debug_assert!(
                matches!(m.kind, MsgKind::IndexPublish | MsgKind::Replication),
                "only data-bearing index records travel through `deliver`"
            );
            match self.net.plan_delivery(m.origin, m.dest, m.salt) {
                Ok((arrival, drops)) => queue.push(arrival, (m, drops, true)),
                Err(drops) => queue.push(0, (m, drops, false)),
            }
        }
        while let Some((_, (m, drops, delivered))) = queue.pop() {
            if drops > 0 {
                self.net.charge_n_traced(
                    MsgKind::Timeout,
                    op.phase,
                    op.tick,
                    m.dest,
                    drops,
                    op.sink,
                );
            }
            if !delivered {
                continue;
            }
            self.net
                .charge_traced(m.kind, op.phase, op.tick, m.dest, op.sink);
            self.net.charge_bytes_traced(m.kind, m.bytes, op.sink);
            installs.entry(m.dest.0).or_default().extend(m.records);
        }
    }

    /// The indexing-role state of `peer`, created empty on first contact.
    pub(crate) fn indexing_entry(&mut self, peer: RingId) -> &mut IndexingState {
        let cap = self.cfg.query_cache_capacity;
        self.indexing
            .entry(peer.0)
            .or_insert_with(|| IndexingState::new(cap))
    }

    /// Store delivered index records: order each destination's records by
    /// `(term, document)` — a stable sort, and the last arrival wins a
    /// repeated `(term, document)`, which is what sequential inserts do —
    /// and merge each inverted list once
    /// ([`IndexingState::publish_run`]).
    fn install(&mut self, installs: Installs) {
        let mut run: Vec<IndexEntry> = Vec::new();
        for (dest, mut records) in installs {
            records.sort_by_key(|&(term, entry)| (term, entry.doc));
            let st = self.indexing_entry(RingId(dest));
            let mut records = records.into_iter().peekable();
            while let Some((term, entry)) = records.next() {
                if run.last().is_some_and(|last| last.doc == entry.doc) {
                    run.pop();
                }
                run.push(entry);
                if records.peek().map(|&(next, _)| next) != Some(term) {
                    st.publish_run(term, &run);
                    run.clear();
                }
            }
        }
    }

    /// Retire `doc` from the distributed index: retract every published
    /// `(doc, term)` entry eagerly from its responsible peer and any
    /// replicas, leaving the owner's published set empty so a later
    /// [`Self::publish_all`] republishes the document from scratch.
    /// Returns the number of terms retracted.
    pub fn unpublish_document(&mut self, doc: DocId) -> usize {
        let tick = self.op_tick;
        self.set_published_now(doc, Vec::new(), false, tick).1
    }

    // ------------------------------------------------------------------
    // Document lifecycle (live corpus dynamics)
    // ------------------------------------------------------------------

    /// True when `doc` has been deleted from the deployment. Document
    /// ids are never reused, so a deleted slot stays dead forever.
    #[must_use]
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.deleted[doc.index()]
    }

    /// Documents currently shared (never-deleted ids, ascending).
    #[must_use]
    pub fn live_docs(&self) -> Vec<DocId> {
        (0..self.corpus.len())
            .map(|i| DocId(i as u32))
            .filter(|d| !self.deleted[d.index()])
            .collect()
    }

    /// Share a brand-new document: append it to the corpus, assign an
    /// owner peer deterministically (hash of the document id — late
    /// arrivals must not consume the build-time RNG stream), and publish
    /// its initial top-F frequent terms through the billed publish path.
    /// Returns the new id.
    pub fn insert_document(&mut self, terms: Vec<(TermId, u32)>) -> DocId {
        let doc = self.corpus.add_document(terms);
        let key = RingId::hash_bytes(format!("doc-owner-{}", doc.index()).as_bytes());
        let owner_peer = self.peers[(key.0 % self.peers.len() as u128) as usize];
        self.doc_owner.push(owner_peer);
        self.owners.push(OwnerDoc::new(doc));
        self.deleted.push(false);
        if self.term_pos.len() < self.corpus.vocab().len() {
            self.term_pos.resize(self.corpus.vocab().len(), None);
        }
        self.true_dfs = None;
        let tick = self.next_tick();
        let initial = self
            .corpus
            .doc(doc)
            .top_frequent_terms(self.cfg.initial_terms);
        self.set_published_now(doc, initial, true, tick);
        doc
    }

    /// Modify a shared document **incrementally**: replace its corpus
    /// contents, re-select its global index terms against the new
    /// version (learned statistics for vanished terms are dropped —
    /// `qScore` measures fit to content that no longer exists), then
    /// publish only the added terms and retract only the removed ones,
    /// billing exact wire bytes for both directions. Kept terms are
    /// *not* republished: their index entries retain the previous
    /// version's metadata until the next learning pass or republish —
    /// the staleness window the freshness study measures.
    ///
    /// # Panics
    /// Panics if `doc` was deleted.
    pub fn update_document(&mut self, doc: DocId, terms: Vec<(TermId, u32)>) -> UpdateReport {
        assert!(!self.deleted[doc.index()], "cannot update deleted {doc:?}");
        let earned = self.owners[doc.index()].published.len();
        let new_terms = self.replace_contents(doc, terms, earned);
        let selected = new_terms.len();
        let tick = self.next_tick();
        let (terms_added, terms_removed) = self.set_published_now(doc, new_terms, true, tick);
        UpdateReport {
            terms_added,
            terms_removed,
            terms_kept: selected - terms_added,
        }
    }

    /// Modify a shared document the **expensive** way: retract every
    /// published term, replace the contents, and publish the new
    /// selection from scratch — the delete+republish baseline the
    /// incremental [`Self::update_document`] is measured against.
    ///
    /// # Panics
    /// Panics if `doc` was deleted.
    pub fn republish_document(&mut self, doc: DocId, terms: Vec<(TermId, u32)>) -> UpdateReport {
        assert!(
            !self.deleted[doc.index()],
            "cannot republish deleted {doc:?}"
        );
        let tick = self.next_tick();
        let (_, terms_removed) = self.set_published_now(doc, Vec::new(), true, tick);
        let new_terms = self.replace_contents(doc, terms, terms_removed);
        let (terms_added, _) = self.set_published_now(doc, new_terms, true, tick);
        UpdateReport {
            terms_added,
            terms_removed,
            terms_kept: 0,
        }
    }

    /// Retire `doc` permanently: retract every published term
    /// (tombstoning the index entries; the next `maintenance_round`
    /// reclaims them), clear the owner state, and mark the id dead so no
    /// later pass (publish, learning, orphan repair) can resurrect it.
    /// Returns the number of terms retracted.
    pub fn delete_document(&mut self, doc: DocId) -> usize {
        if self.deleted[doc.index()] {
            return 0;
        }
        let tick = self.next_tick();
        let (_, retracted) = self.set_published_now(doc, Vec::new(), true, tick);
        let owner = &mut self.owners[doc.index()];
        owner.stats.clear();
        owner.term_watermarks.clear();
        self.deleted[doc.index()] = true;
        self.true_dfs = None;
        retracted
    }

    /// Apply one planned document-churn tick (a
    /// `sprite_corpus::DocChurnEngine` plan) through the billed lifecycle
    /// paths: inserts share fresh documents, updates re-publish
    /// incrementally, deletes retract and tombstone. Events apply in plan
    /// order; an update whose victim was deleted by an earlier tick is
    /// skipped (the engine never plans both in *one* tick, but callers
    /// may interleave plans with other deletion sources).
    pub fn apply_doc_events(&mut self, events: &[DocEvent]) -> DocTickReport {
        let mut report = DocTickReport::default();
        for ev in events {
            match ev {
                DocEvent::Insert { terms } => {
                    let doc = self.insert_document(terms.clone());
                    report.inserted += 1;
                    report.terms_published += self.owners[doc.index()].published.len();
                }
                DocEvent::Update { doc, terms } => {
                    if self.deleted[doc.index()] {
                        continue;
                    }
                    let r = self.update_document(*doc, terms.clone());
                    report.updated += 1;
                    report.terms_published += r.terms_added;
                    report.terms_retracted += r.terms_removed;
                }
                DocEvent::Delete { doc } => {
                    report.terms_retracted += self.delete_document(*doc);
                    report.deleted += 1;
                }
            }
        }
        report
    }

    /// Replace the corpus contents of `doc`, drop the learned statistics
    /// of terms the new version no longer contains, and re-select its
    /// global index terms at a budget that preserves the `earned` term
    /// count (never below the initial allocation, never above the cap).
    /// With no learned statistics this degrades to pure top-frequent
    /// selection — exactly the §5.2 seeding of a fresh document.
    fn replace_contents(
        &mut self,
        doc: DocId,
        terms: Vec<(TermId, u32)>,
        earned: usize,
    ) -> Vec<TermId> {
        self.corpus.replace_document(doc, terms);
        self.true_dfs = None;
        let d = self.corpus.doc(doc);
        self.owners[doc.index()].stats.retain(|t, _| d.contains(*t));
        self.select_terms(
            doc,
            earned.max(self.cfg.initial_terms).min(self.cfg.max_terms),
        )
    }

    /// The top `budget` candidate index terms of `doc` under its owner's
    /// current statistics and exclusions — the one selection every caller
    /// (learning, content change, advisory) makes, in the configured
    /// [`learn::ScoreMode`].
    pub(crate) fn select_terms(&self, doc: DocId, budget: usize) -> Vec<TermId> {
        let owner = &self.owners[doc.index()];
        learn::select_terms(
            self.corpus.doc(doc),
            &owner.stats,
            budget,
            &owner.excluded,
            self.cfg.score_mode,
        )
    }

    /// Bill one query-expansion document fetch from `peer` through the
    /// traced charge path, so the observability layer sees exactly what
    /// the accounting sees (§7 local context analysis downloads the term
    /// vectors of the top-ranked documents from their owner peers).
    pub(crate) fn charge_doc_fetch_traced(&mut self, peer: RingId) {
        let tick = self.op_tick;
        traced!(
            self,
            sink,
            self.net
                .charge_traced(MsgKind::QueryFetch, Phase::Query, tick, peer, sink)
        );
    }

    // ------------------------------------------------------------------
    // Query processing (§4)
    // ------------------------------------------------------------------

    /// Issue `query` from the next querying peer (round-robin) and return
    /// the top `k` ranked documents.
    pub fn issue_query(&mut self, query: &Query, k: usize) -> Vec<Hit> {
        let from = self.peers[self.issue_cursor % self.peers.len()];
        self.issue_cursor += 1;
        self.issue_query_from(from, query, k)
    }

    /// Issue `query` from a specific peer.
    pub fn issue_query_from(&mut self, from: RingId, query: &Query, k: usize) -> Vec<Hit> {
        let tick = self.next_tick();
        traced!(
            self,
            sink,
            self.issue_query_from_with(from, query, k, tick, sink)
        )
    }

    /// [`Self::issue_query_from`] under an explicit sink — results and
    /// charges are bit-identical whether the sink records or not. A user
    /// query is the [`QueryView`] kernel plus one side effect (§5.1): every
    /// keyword's indexing peer files the query in its history for later
    /// learning.
    fn issue_query_from_with<T: TraceSink>(
        &mut self,
        from: RingId,
        query: &Query,
        k: usize,
        tick: u64,
        sink: &mut T,
    ) -> Vec<Hit> {
        if query.is_empty() || !self.net.contains(from) {
            return Vec::new(); // rejected queries consume no sequence number
        }
        self.query_seq += 1;
        let seq = self.query_seq;
        let qhash = self.query_hash(query);
        self.warm_query_terms([query]);
        let mut scratch = std::mem::take(&mut self.rank_scratch);
        let mut delta = NetStats::new();
        let hits =
            self.query_view()
                .query_traced(from, query, k, &mut delta, &mut scratch, tick, sink);
        self.net.absorb_stats(&delta);
        for &owner in scratch.contacted() {
            self.indexing_entry(owner)
                .cache_query(query.clone(), qhash, seq);
        }
        self.rank_scratch = scratch;
        hits
    }

    /// Keyword search by string (exact vocabulary lookup; apply the same
    /// analysis used at corpus construction before calling). Unknown words
    /// are ignored.
    pub fn search(&mut self, words: &[&str], k: usize) -> Vec<Hit> {
        let terms: Vec<TermId> = words
            .iter()
            .filter_map(|w| self.corpus.vocab().get(w))
            .collect();
        if terms.is_empty() {
            return Vec::new();
        }
        self.issue_query(&Query::new(terms), k)
    }

    // ------------------------------------------------------------------
    // Learning (§5.3)
    // ------------------------------------------------------------------

    /// One periodic learning pass over every shared document. Static
    /// configurations (eSearch) return an empty report without touching
    /// the network.
    pub fn learning_iteration(&mut self) -> LearnReport {
        let tick = self.next_tick();
        traced!(self, sink, self.learning_iteration_with(tick, sink))
    }

    /// [`Self::learning_iteration`] under an explicit sink.
    fn learning_iteration_with<T: TraceSink>(&mut self, tick: u64, sink: &mut T) -> LearnReport {
        let mut report = LearnReport::default();
        if self.cfg.is_static() {
            return report;
        }
        let phase = Phase::Learn;
        let mut op = OpTrace { phase, tick, sink };
        let seq_now = self.query_seq;
        // Each document's diff records are billed and delivery-gated on
        // the spot, one message per record; the ones that arrive are
        // merged into the index when the pass ends. Nothing in a pass
        // reads an inverted list — polls read the query caches, selection
        // reads owner statistics, and the eager retractions hit `(term,
        // document)` pairs disjoint from the additions — so the deferral
        // is unobservable.
        let (mut outbox, mut installs) = (Vec::new(), Installs::new());
        for i in 0..self.corpus.len() {
            let doc = DocId(i as u32);
            let published = self.owners[i].published.clone();
            if published.is_empty() {
                continue;
            }
            let owner_peer = self.doc_owner[i];
            if !self.net.contains(owner_peer) {
                continue; // owner offline: its documents stop learning
            }

            // Group the document's global terms by responsible indexing peer.
            let mut by_peer: HashMap<u128, Vec<TermId>> = HashMap::new();
            for &t in &published {
                let key = self.term_ring(t);
                if let Ok(l) = self
                    .net
                    .lookup_fast_traced(owner_peer, key, phase, tick, op.sink)
                {
                    by_peer.entry(l.owner.0).or_default().push(t);
                }
            }

            // Poll each peer, per indexing term (§5.3: "for each indexing
            // term, the indexing peer is polled to retrieve the query
            // metadata of that term"). A peer returns the queries newer
            // than the owner's per-term watermark for which that term is
            // the closest (by hash) of all the document's global terms —
            // the §3 deduplication. The owner additionally skips queries it
            // already processed through a previously published term.
            let global_pos: Vec<(TermId, RingId)> =
                published.iter().map(|&t| (t, self.term_ring(t))).collect();
            let mut incoming: Vec<Query> = Vec::new();
            let mut returned: u64 = 0;
            let mut returned_bytes: u64 = 0;
            // Poll in sorted peer order: the fold below is commutative, but
            // a fixed order keeps traces and the determinism audit exact.
            let mut by_peer: Vec<(u128, Vec<TermId>)> = by_peer.into_iter().collect();
            by_peer.sort_unstable_by_key(|&(p, _)| p);
            for (peer, terms) in &by_peer {
                self.net
                    .charge_traced(MsgKind::LearnPoll, phase, tick, RingId(*peer), op.sink);
                report.polls += 1;
                let Some(st) = self.indexing.get(peer) else {
                    continue;
                };
                let owner = &mut self.owners[i];
                for &t in terms {
                    let since = owner.term_watermarks.get(&t).copied().unwrap_or(0);
                    for cached in st.queries_since(since) {
                        if !cached.query.contains(t) {
                            continue;
                        }
                        let closest = closest_global_term(&global_pos, &cached.query, cached.qhash);
                        if closest != Some(t) {
                            continue;
                        }
                        returned += 1;
                        returned_bytes += cached.query.wire_size() as u64;
                        if owner.seen.insert(cached.seq) {
                            incoming.push(cached.query.clone());
                        }
                    }
                }
            }
            report.queries_returned += incoming.len();
            self.net.charge_n_traced(
                MsgKind::LearnReturn,
                phase,
                tick,
                owner_peer,
                returned,
                op.sink,
            );
            self.net
                .charge_bytes_traced(MsgKind::LearnReturn, returned_bytes, op.sink);
            {
                let owner = &mut self.owners[i];
                for &t in &published {
                    owner.term_watermarks.insert(t, seq_now);
                }
            }

            // Algorithm 1 with the grown budget, then publish the difference.
            let budget = (published.len() + self.cfg.terms_per_iteration).min(self.cfg.max_terms);
            learn::update_stats(self.corpus.doc(doc), &mut self.owners[i].stats, &incoming);
            let new_terms = self.select_terms(doc, budget);
            let (added, removed) = self.set_published(doc, new_terms, false, &mut op, &mut outbox);
            self.deliver(outbox.drain(..), &mut op, &mut installs);
            report.terms_added += added;
            report.terms_removed += removed;
            report.docs_changed += usize::from(added + removed > 0);
        }
        self.install(installs);
        report
    }

    /// Run `n` learning iterations, returning the reports.
    pub fn learn(&mut self, n: usize) -> Vec<LearnReport> {
        (0..n).map(|_| self.learning_iteration()).collect()
    }

    /// Indexed document frequency of `term` as seen by its responsible
    /// peer (0 when unreachable or never indexed). Resolves the peer with a
    /// routed lookup whose cost is discarded: this is a free diagnostic for
    /// tests and reports, not a network operation of the protocol.
    pub fn indexed_df(&mut self, term: TermId) -> usize {
        let key = self.term_ring(term);
        let mut scratch = NetStats::new();
        let Some(&from) = self.peers.first() else {
            return 0;
        };
        let Ok(lookup) = self.net.probe(from, key, &mut scratch) else {
            return 0;
        };
        self.indexing
            .get(&lookup.owner.0)
            .map_or(0, |st| st.indexed_df(term))
    }

    /// Direct access to an indexing peer's state (diagnostics / tests).
    #[must_use]
    pub fn indexing_state(&self, peer: RingId) -> Option<&IndexingState> {
        self.indexing.get(&peer.0)
    }

    /// Mutable access to an indexing peer's state — **corruption injection**
    /// for `sprite-audit` tests only (plant an unsorted or duplicated
    /// posting list and assert the checkers flag it).
    pub fn indexing_state_mut(&mut self, peer: RingId) -> Option<&mut IndexingState> {
        self.indexing.get_mut(&peer.0)
    }

    /// Overwrite the published-term list of `doc` without touching the
    /// distributed index — **corruption injection** for `sprite-audit`
    /// tests only (plants cap overruns and published-but-unindexed terms).
    pub fn inject_published(&mut self, doc: DocId, terms: Vec<TermId>) {
        self.owners[doc.index()].published = terms;
    }

    /// Peers currently holding any indexing-role state, in ring order
    /// (diagnostics and the `sprite-audit` checkers).
    #[must_use]
    pub fn indexing_peers(&self) -> Vec<RingId> {
        let mut peers: Vec<RingId> = self.indexing.keys().map(|&p| RingId(p)).collect();
        peers.sort_unstable();
        peers
    }

    /// Owner-side self-check run after every publish/refine pass in debug
    /// builds: the published set must respect the global-term cap, contain
    /// no duplicates, and never include an advisory-excluded term. The
    /// richer cross-layer checks live in `sprite-audit`'s `check_index`.
    fn debug_validate_owner(&self, doc: DocId) {
        let _ = doc; // used only when debug_assertions are on
        #[cfg(debug_assertions)]
        {
            let owner = &self.owners[doc.index()];
            debug_assert!(
                owner.published.len() <= self.cfg.max_terms,
                "doc {doc:?} publishes {} terms, cap {}",
                owner.published.len(),
                self.cfg.max_terms
            );
            let distinct: std::collections::HashSet<_> = owner.published.iter().collect();
            debug_assert_eq!(
                distinct.len(),
                owner.published.len(),
                "doc {doc:?} publishes duplicate terms"
            );
            debug_assert!(
                owner.published.iter().all(|t| !owner.excluded.contains(t)),
                "doc {doc:?} publishes an excluded term"
            );
        }
    }

    pub(crate) fn indexing_mut(&mut self) -> &mut IdMap<IndexingState> {
        &mut self.indexing
    }

    pub(crate) fn owner_mut(&mut self, doc: DocId) -> &mut OwnerDoc {
        &mut self.owners[doc.index()]
    }

    /// Refresh the cached peer list after churn (drops dead issuing peers
    /// and the now-stale replica cache).
    pub fn refresh_peers(&mut self) {
        self.peers = self.net.node_ids();
        self.replica_cache.clear();
    }
}

/// The §3 deduplication rule: among the document's global index terms that
/// occur in the query, the one whose ring position is closest to the query's
/// hash (shorter of the two arc distances; ties broken by term id).
fn closest_global_term(
    global_pos: &[(TermId, RingId)],
    query: &Query,
    qhash: RingId,
) -> Option<TermId> {
    global_pos
        .iter()
        .filter(|(t, _)| query.contains(*t))
        .min_by_key(|(t, pos)| {
            let d = pos.distance_cw(qhash).min(qhash.distance_cw(*pos));
            (d, *t)
        })
        .map(|&(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_corpus::{CorpusConfig, SyntheticCorpus};

    fn tiny_system(cfg: SpriteConfig) -> (SyntheticCorpus, SpriteSystem) {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(11));
        let sys = SpriteSystem::build(sc.corpus().clone(), 16, cfg, 11);
        (sc, sys)
    }

    /// An untraced operation stamp, for driving the write path's pieces
    /// directly.
    fn untraced(sink: &mut NullTrace) -> OpTrace<'_, NullTrace> {
        OpTrace {
            phase: Phase::Publish,
            tick: 0,
            sink,
        }
    }

    #[test]
    fn publish_all_indexes_top_frequent_terms() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let doc = DocId(0);
        let published = sys.published_terms(doc).to_vec();
        assert_eq!(published.len(), 5);
        assert_eq!(
            published,
            sys.corpus().doc(doc).top_frequent_terms(5),
            "initial terms are the top-5 frequent"
        );
        // The index entry is reachable and carries the right metadata.
        for &t in &published {
            assert_eq!(sys.indexed_df(t).min(1), 1);
        }
        assert_eq!(sys.total_index_entries(), sys.corpus().len() * 5);
    }

    #[test]
    fn publish_all_is_idempotent() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let before = sys.total_index_entries();
        sys.publish_all();
        assert_eq!(sys.total_index_entries(), before);
    }

    #[test]
    fn install_merges_a_repeated_record_like_sequential_inserts() {
        // One flush can carry the same (term, document) twice to one
        // destination — a stale route that resolves to a cached replica —
        // and records arrive out of document order. The merge must end
        // where per-record inserts in arrival order end: last arrival wins.
        let (_sc, mut merged) = tiny_system(SpriteConfig::default());
        merged.publish_all();
        let (listed, fresh) = (merged.published_terms(DocId(0))[0], TermId(0));
        let key = merged.term_ring(listed);
        let (p, q) = (merged.net().oracle_owner(key).unwrap(), merged.peers()[0]);
        let entry = |doc: u32, tf: u32| IndexEntry {
            doc: DocId(doc),
            owner: p,
            tf,
            doc_len: 90 + doc,
            distinct: 40,
        };
        let arrivals = [
            (p, listed, entry(150, 1)),
            (p, fresh, entry(9, 1)),
            (p, listed, entry(0, 7)), // replaces the stored entry of doc 0
            (q, listed, entry(150, 2)),
            (p, listed, entry(150, 3)), // the repeat: this one must win
            (p, listed, entry(4, 1)),
            (p, fresh, entry(2, 5)),
            (p, listed, entry(0, 8)), // and this one
        ];
        let mut sequential = merged.clone();
        let mut installs = Installs::new();
        for &(dest, term, e) in &arrivals {
            sequential.indexing_entry(dest).publish(term, e);
            installs.entry(dest.0).or_default().push((term, e));
        }
        merged.install(installs);
        assert_eq!(merged.indexing_peers(), sequential.indexing_peers());
        for peer in merged.indexing_peers() {
            let (a, b) = (
                merged.indexing_state(peer).unwrap(),
                sequential.indexing_state(peer).unwrap(),
            );
            assert_eq!(a.indexed_terms(), b.indexed_terms());
            for ((ta, la), (tb, lb)) in a.terms().zip(b.terms()) {
                assert_eq!((ta, la.packed_bytes()), (tb, lb.packed_bytes()));
            }
        }
        let stored = merged.indexing_state(p).unwrap().entries(listed);
        let tf_of = |doc: u32| stored.iter().find(|e| e.doc == DocId(doc)).map(|e| e.tf);
        assert_eq!((tf_of(0), tf_of(150)), (Some(8), Some(3)));
    }

    #[test]
    fn deliver_bills_the_plan_and_returns_what_arrived_in_arrival_order() {
        use sprite_chord::SimConfig;
        let record = |i: u64| {
            let entry = IndexEntry {
                doc: DocId(i as u32),
                owner: RingId(0),
                tf: 1,
                doc_len: 9,
                distinct: 3,
            };
            (TermId(i as u32 % 3), entry)
        };
        // What the per-record send of the commit before `deliver` billed
        // for the 64 single messages below: (delivered, timeouts, bytes).
        for (max_retries, pinned) in [(0, (42, 22, 5493)), (1, (53, 33, 7000))] {
            let (_sc, mut sys) = tiny_system(SpriteConfig::default());
            sys.net_mut().set_sim(SimConfig {
                seed: 3,
                loss: 0.3,
                latency: 4,
                jitter: 6,
                max_retries,
                ..SimConfig::default()
            });
            let peers = sys.peers().to_vec();
            let message = |i: u64| Message {
                origin: peers[i as usize % peers.len()],
                dest: peers[(i as usize * 7 + 3) % peers.len()],
                kind: [MsgKind::IndexPublish, MsgKind::Replication][i as usize % 2],
                salt: sim::message_salt(9, i, 0),
                bytes: 10 + i,
                records: vec![record(i), record(i + 100)],
            };

            // The plan, asked of the link model directly.
            let mut drops_planned = 0;
            let mut arrivals: Vec<(u64, u64, Message)> = Vec::new();
            for i in 0..48 {
                let m = message(i);
                match sys.net().sim().transmit(m.origin, m.dest, m.salt) {
                    Ok((arrival, drops)) => {
                        drops_planned += drops;
                        arrivals.push((arrival, i, m));
                    }
                    Err(drops) => drops_planned += drops,
                }
            }
            assert!(
                drops_planned > 0 && arrivals.len() < 48,
                "some drop, some drown"
            );
            arrivals.sort_by_key(|&(arrival, seq, _)| (arrival, seq));
            let mut expected = Installs::new();
            let (mut count, mut bytes) = ([0u64; 2], [0u64; 2]);
            for (_, i, m) in arrivals {
                count[i as usize % 2] += 1;
                bytes[i as usize % 2] += m.bytes;
                expected.entry(m.dest.0).or_default().extend(m.records);
            }

            let (mut rec, mut installs) = (TraceRecorder::new(), Installs::new());
            let mut op = OpTrace {
                phase: Phase::Publish,
                tick: 0,
                sink: &mut rec,
            };
            sys.net_mut().reset_stats();
            sys.deliver((0..48).map(message), &mut op, &mut installs);
            assert_eq!(installs, expected);
            let bill = sys.net().stats().clone();
            assert_eq!(bill.count(MsgKind::Timeout), drops_planned);
            let kinds = [MsgKind::IndexPublish, MsgKind::Replication];
            for (k, kind) in kinds.into_iter().enumerate() {
                assert_eq!((bill.count(kind), bill.bytes(kind)), (count[k], bytes[k]));
            }
            assert_eq!(
                bill.total_messages(),
                drops_planned + count[0] + count[1],
                "a drowned message bills its timeouts and nothing else"
            );
            for kind in MsgKind::all() {
                assert_eq!(rec.kind_count(kind), bill.count(kind), "{kind:?} events");
                assert_eq!(rec.kind_bytes(kind), bill.bytes(kind), "{kind:?} bytes");
            }

            // A record sent on its own is a batch of one.
            let (from, to) = (peers[0], peers[5]);
            sys.net_mut().reset_stats();
            let mut delivered = 0;
            for i in 0..64 {
                let one = Message {
                    origin: from,
                    dest: to,
                    kind: MsgKind::IndexPublish,
                    salt: sim::message_salt(7, i, 1),
                    bytes: 100 + i,
                    records: vec![record(i)],
                };
                let mut arrived = Installs::new();
                sys.deliver([one], &mut untraced(&mut NullTrace), &mut arrived);
                delivered += arrived.values().map(Vec::len).sum::<usize>();
            }
            let bill = sys.net().stats();
            assert_eq!(bill.count(MsgKind::IndexPublish), delivered as u64);
            assert_eq!(
                (
                    delivered,
                    bill.count(MsgKind::Timeout),
                    bill.bytes(MsgKind::IndexPublish)
                ),
                pinned,
                "max_retries {max_retries}"
            );
        }
    }

    #[test]
    fn retract_record_removes_the_entry_and_bills_index_remove() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let doc = DocId(0);
        let term = sys.published_terms(doc)[0];
        let df_before = sys.indexed_df(term);
        let entries_before = sys.total_index_entries();
        assert!(df_before > 0, "published term must be indexed");
        sys.net_mut().reset_stats();
        sys.retract_record(doc, term, false, &mut untraced(&mut NullTrace));
        assert!(
            sys.net().stats().count(MsgKind::IndexRemove) > 0,
            "retraction must bill IndexRemove messages"
        );
        assert_eq!(sys.indexed_df(term), df_before - 1);
        assert_eq!(sys.total_index_entries(), entries_before - 1);
        // A removed entry is no longer retrievable.
        let hits = sys.issue_query(&Query::new(vec![term]), sys.corpus().len());
        assert!(
            hits.iter().all(|h| h.doc != doc),
            "retracted (doc, term) must not be retrieved"
        );
        // Removing an entry that is already gone is a no-op on the index.
        sys.retract_record(doc, term, false, &mut untraced(&mut NullTrace));
        assert_eq!(sys.total_index_entries(), entries_before - 1);
    }

    #[test]
    fn query_finds_documents_through_the_ring() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        // Query a term that is published for some document.
        let doc = DocId(3);
        let t = sys.published_terms(doc)[0];
        let all = sys.corpus().len();
        let hits = sys.issue_query(&Query::new(vec![t]), all);
        assert!(!hits.is_empty());
        assert!(
            hits.iter().any(|h| h.doc == doc),
            "doc 3 indexed on t must be retrieved"
        );
        // All hits actually contain the term.
        for h in &hits {
            assert!(sys.corpus().doc(h.doc).contains(t));
        }
    }

    #[test]
    fn unpublished_terms_are_invisible() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        // Find a term of doc 0 that was NOT published (rank > 5).
        let doc = sys.corpus().doc(DocId(0)).clone();
        let published = sys.published_terms(DocId(0)).to_vec();
        let hidden = doc
            .terms()
            .iter()
            .map(|&(t, _)| t)
            .find(|t| !published.contains(t))
            .expect("doc has more than 5 distinct terms");
        let hits = sys.issue_query(&Query::new(vec![hidden]), 100);
        assert!(
            hits.iter().all(|h| h.doc != DocId(0)),
            "unindexed term must not retrieve doc 0"
        );
    }

    #[test]
    fn queries_are_cached_at_indexing_peers() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let t = sys.published_terms(DocId(0))[0];
        let key = sys.term_ring(t);
        let peer = sys.net().oracle_owner(key).unwrap();
        let before = sys
            .indexing_state(peer)
            .map_or(0, IndexingState::cached_queries);
        sys.issue_query(&Query::new(vec![t]), 10);
        let after = sys.indexing_state(peer).unwrap().cached_queries();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn learning_grows_budget_and_uses_queries() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        // Issue queries combining a published term with an unpublished
        // high-value term of doc 0.
        let doc0 = sys.corpus().doc(DocId(0)).clone();
        let published = sys.published_terms(DocId(0)).to_vec();
        // Highest term id = deepest background rank = rare term, so doc 0
        // ranks well for it once indexed (low ids are corpus-wide noise).
        let hidden = doc0
            .terms()
            .iter()
            .map(|&(t, _)| t)
            .filter(|t| !published.contains(t))
            .max()
            .expect("unpublished term");
        let q = Query::new(vec![published[0], hidden]);
        for _ in 0..5 {
            sys.issue_query(&q, 10);
        }
        let report = sys.learning_iteration();
        assert!(report.queries_returned > 0, "queries must reach the owner");
        assert!(report.terms_added > 0);
        let now = sys.published_terms(DocId(0));
        assert!(now.len() > 5, "budget grew: {} terms", now.len());
        assert!(
            now.contains(&hidden),
            "the queried hidden term must now be indexed"
        );
        // And it is retrievable.
        let hits = sys.issue_query(&Query::new(vec![hidden]), 100);
        assert!(hits.iter().any(|h| h.doc == DocId(0)));
    }

    #[test]
    fn learning_respects_max_terms() {
        let cfg = SpriteConfig {
            max_terms: 8,
            ..SpriteConfig::default()
        };
        let (_sc, mut sys) = tiny_system(cfg);
        sys.publish_all();
        sys.learn(5);
        for i in 0..sys.corpus().len() {
            assert!(sys.published_terms(DocId(i as u32)).len() <= 8);
        }
    }

    #[test]
    fn esearch_config_never_learns() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::esearch(10));
        sys.publish_all();
        assert_eq!(sys.published_terms(DocId(0)).len(), 10);
        let entries = sys.total_index_entries();
        let report = sys.learning_iteration();
        assert_eq!(report, LearnReport::default());
        assert_eq!(sys.total_index_entries(), entries);
    }

    #[test]
    fn incremental_polling_does_not_recount_queries() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let t = sys.published_terms(DocId(0))[0];
        let q = Query::new(vec![t]);
        sys.issue_query(&q, 10);
        sys.learning_iteration();
        let qf_after_first = sys.owner_state(DocId(0)).stats.get(&t).map_or(0, |s| s.qf);
        // No new queries: a second iteration must not inflate QF.
        sys.learning_iteration();
        let qf_after_second = sys.owner_state(DocId(0)).stats.get(&t).map_or(0, |s| s.qf);
        assert_eq!(qf_after_first, qf_after_second);
    }

    #[test]
    fn closest_hash_dedup_returns_query_once() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        // A query containing TWO published terms of doc 0 is cached at two
        // peers but must be returned to the owner exactly once.
        let published = sys.published_terms(DocId(0)).to_vec();
        assert!(published.len() >= 2);
        let q = Query::new(vec![published[0], published[1]]);
        // Check the two terms actually live on different peers; otherwise
        // the dedup is trivially satisfied.
        let k0 = sys.term_ring(published[0]);
        let k1 = sys.term_ring(published[1]);
        let p0 = sys.net().oracle_owner(k0).unwrap();
        let p1 = sys.net().oracle_owner(k1).unwrap();
        sys.issue_query(&q, 10);
        let report = sys.learning_iteration();
        // The owner of doc 0 must have received this query exactly once.
        // (Other docs may legitimately receive it too if they also index
        // one of the two terms; count via doc 0's stats.)
        let qf0 = sys
            .owner_state(DocId(0))
            .stats
            .get(&published[0])
            .map_or(0, |s| s.qf);
        let qf1 = sys
            .owner_state(DocId(0))
            .stats
            .get(&published[1])
            .map_or(0, |s| s.qf);
        assert_eq!(
            qf0 + qf1,
            2,
            "each term of the query counted once (peers {p0:?}/{p1:?}, polls {})",
            report.polls
        );
    }

    #[test]
    fn closest_global_term_is_deterministic() {
        let global = vec![
            (TermId(1), RingId(100)),
            (TermId(2), RingId(200)),
            (TermId(3), RingId(300)),
        ];
        let q = Query::new(vec![TermId(1), TermId(3)]);
        // qhash at 290: closest of {100, 300} is 300 → TermId(3).
        assert_eq!(
            closest_global_term(&global, &q, RingId(290)),
            Some(TermId(3))
        );
        // qhash at 110: closest is 100 → TermId(1).
        assert_eq!(
            closest_global_term(&global, &q, RingId(110)),
            Some(TermId(1))
        );
        // Query with no global terms → None.
        let q2 = Query::new(vec![TermId(9)]);
        assert_eq!(closest_global_term(&global, &q2, RingId(0)), None);
    }

    #[test]
    fn search_by_words_roundtrip() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let t = sys.published_terms(DocId(1))[0];
        let word = sys.corpus().vocab().term(t).to_string();
        let hits = sys.search(&[word.as_str()], 20);
        assert!(hits.iter().any(|h| h.doc == DocId(1)));
        assert!(sys.search(&["no-such-word-exists"], 5).is_empty());
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        assert!(sys.issue_query(&Query::default(), 10).is_empty());
    }

    #[test]
    fn fail_peer_and_join_clear_the_replica_cache() {
        let cfg = SpriteConfig {
            replication: 3,
            ..SpriteConfig::default()
        };
        let (_sc, mut sys) = tiny_system(cfg);
        sys.publish_all();
        assert!(
            !sys.replica_cache.is_empty(),
            "publishing at degree 3 warms the cache"
        );
        let victim = *sys.peers().last().unwrap();
        assert!(sys.fail_peer(victim));
        assert!(
            sys.replica_cache.is_empty(),
            "fail_peer must drop the replica cache"
        );
        // Re-warm, then join: any membership change through net_mut
        // invalidates again.
        let t = sys.published_terms(DocId(0))[0];
        sys.ship_record(DocId(0), t, &mut untraced(&mut NullTrace), &mut Vec::new());
        assert!(!sys.replica_cache.is_empty());
        let bootstrap = sys.peers()[0];
        let newcomer = RingId::hash_bytes(b"staleness-joiner");
        sys.net_mut().join(newcomer, bootstrap).unwrap();
        assert!(
            sys.replica_cache.is_empty(),
            "join must drop the replica cache"
        );
    }

    #[test]
    fn churned_query_never_reads_a_dead_replica_from_cache() {
        let cfg = SpriteConfig {
            replication: 3,
            ..SpriteConfig::default()
        };
        let (_sc, mut sys) = tiny_system(cfg);
        sys.publish_all();
        sys.replicate_indexes();
        let t = sys.published_terms(DocId(0))[0];
        let key = sys.term_ring(t);
        // Kill the term's responsible peer; the query path must fail over
        // to a replica through a *fresh* routed walk, never a cached set.
        let victim = sys.net().oracle_owner(key).unwrap();
        assert!(sys.fail_peer(victim));
        let hits = sys.issue_query(&Query::new(vec![t]), sys.corpus().len());
        assert!(
            hits.iter().any(|h| h.doc == DocId(0)),
            "failover must still retrieve doc 0"
        );
        // Re-publishing after the failure repopulates the cache; every set
        // resolved post-churn may only list live peers.
        sys.ship_record(DocId(0), t, &mut untraced(&mut NullTrace), &mut Vec::new());
        #[allow(clippy::iter_over_hash_type)] // one assertion per set, order-free
        for (k, replicas) in &sys.replica_cache {
            for r in replicas {
                assert!(
                    sys.net().contains(*r),
                    "cached replica set for key {k:#x} lists dead peer {r:?}"
                );
            }
        }
    }

    #[test]
    fn insert_document_publishes_and_retrieves_the_newcomer() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        // A fresh document reusing rare terms of the existing vocabulary.
        let rare = TermId((sys.corpus().vocab().len() - 1) as u32);
        let doc = sys.insert_document(vec![(rare, 9), (TermId(0), 1)]);
        assert_eq!(doc.index(), sys.corpus().len() - 1);
        assert!(!sys.is_deleted(doc));
        assert!(sys.live_docs().contains(&doc));
        let published = sys.published_terms(doc).to_vec();
        assert!(published.contains(&rare), "top-frequent term is published");
        let hits = sys.issue_query(&Query::new(vec![rare]), sys.corpus().len());
        assert!(
            hits.iter().any(|h| h.doc == doc),
            "inserted document must be retrievable by its published term"
        );
    }

    #[test]
    fn update_document_publishes_added_and_retracts_removed_terms_only() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let doc = DocId(0);
        let old = sys.published_terms(doc).to_vec();
        // New version: keep the two most frequent old terms, swap the rest
        // of the content for a rare fresh term.
        let keep: Vec<(TermId, u32)> = sys
            .corpus()
            .doc(doc)
            .top_frequent_terms(2)
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, 10 - i as u32))
            .collect();
        let fresh = TermId((sys.corpus().vocab().len() - 1) as u32);
        let mut terms = keep.clone();
        terms.push((fresh, 7));
        sys.net_mut().reset_stats();
        let report = sys.update_document(doc, terms);
        assert!(report.terms_kept >= 2, "shared top terms must be kept");
        assert!(report.terms_added >= 1, "the fresh term must be published");
        assert!(report.terms_removed >= 1, "vanished terms must go");
        // The diff is billed in both directions, not republished wholesale.
        let stats = sys.net().stats().clone();
        assert_eq!(
            stats.count(MsgKind::IndexPublish),
            report.terms_added as u64
        );
        assert_eq!(
            stats.count(MsgKind::IndexRemove),
            report.terms_removed as u64
        );
        // New terms retrieve the doc; removed ones no longer do.
        let hits = sys.issue_query(&Query::new(vec![fresh]), sys.corpus().len());
        assert!(hits.iter().any(|h| h.doc == doc));
        let gone = old
            .iter()
            .copied()
            .find(|t| !sys.published_terms(doc).contains(t))
            .expect("some old term was removed");
        let hits = sys.issue_query(&Query::new(vec![gone]), sys.corpus().len());
        assert!(
            hits.iter().all(|h| h.doc != doc),
            "a retracted term must not retrieve the old version"
        );
    }

    #[test]
    fn incremental_update_is_cheaper_than_full_republish() {
        let run = |incremental: bool| {
            let (_sc, mut sys) = tiny_system(SpriteConfig::default());
            sys.publish_all();
            let doc = DocId(0);
            // Small edit: original content plus one extra occurrence of a
            // rare term — most published terms survive the diff.
            let mut terms: Vec<(TermId, u32)> = sys.corpus().doc(doc).terms().to_vec();
            terms.push((TermId((sys.corpus().vocab().len() - 1) as u32), 6));
            sys.net_mut().reset_stats();
            if incremental {
                sys.update_document(doc, terms);
            } else {
                sys.republish_document(doc, terms);
            }
            let stats = sys.net().stats();
            stats.bytes(MsgKind::IndexPublish) + stats.bytes(MsgKind::IndexRemove)
        };
        let (incr, full) = (run(true), run(false));
        assert!(
            incr * 10 <= full * 7,
            "incremental update ({incr} B) must be ≥30% cheaper than \
             delete+republish ({full} B)"
        );
    }

    #[test]
    fn delete_document_hides_it_immediately_and_maintenance_reclaims() {
        let (_sc, mut sys) = tiny_system(SpriteConfig::default());
        sys.publish_all();
        let doc = DocId(0);
        let term = sys.published_terms(doc)[0];
        sys.net_mut().reset_stats();
        let retracted = sys.delete_document(doc);
        assert_eq!(retracted, 5);
        assert_eq!(sys.net().stats().count(MsgKind::IndexRemove), 5);
        assert!(sys.is_deleted(doc));
        assert!(!sys.live_docs().contains(&doc));
        // The entries are tombstoned, not yet rewritten …
        assert_eq!(sys.pending_tombstones(), 5);
        // … but the document is invisible to queries right now.
        let hits = sys.issue_query(&Query::new(vec![term]), sys.corpus().len());
        assert!(
            hits.iter().all(|h| h.doc != doc),
            "deleted document leaked into a live query result"
        );
        // One maintenance round reclaims every tombstone.
        let report = sys.maintenance_round();
        assert_eq!(report.tombstones_reclaimed, 5);
        assert_eq!(sys.pending_tombstones(), 0);
        // Deleting again is a no-op.
        assert_eq!(sys.delete_document(doc), 0);
        // Learning and republishing never resurrect the dead id.
        sys.publish_all();
        sys.learn(1);
        assert!(sys.published_terms(doc).is_empty());
        let hits = sys.issue_query(&Query::new(vec![term]), sys.corpus().len());
        assert!(hits.iter().all(|h| h.doc != doc));
    }
}
