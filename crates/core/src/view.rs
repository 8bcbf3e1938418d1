//! The query kernel.
//!
//! [`QueryView`] is a frozen snapshot of a [`crate::SpriteSystem`]: it
//! borrows the ring, the indexing-peer states, and the precomputed
//! term→ring positions immutably, so any number of threads can rank
//! queries against it concurrently. Its private `query_impl` is the **only**
//! route-fetch-rank implementation in the workspace; every caller — the
//! parallel evaluation, the batched pipeline, the traced and diagnostic
//! flavors, and the live user path — goes through it.
//!
//! In the paper a user query (§4) differs from a measurement probe in one
//! way only: each keyword's indexing peer also files the query in its
//! history for later learning (§5.1/§5.3). The code has the same shape:
//! [`crate::SpriteSystem::issue_query_from`] runs this kernel over its own
//! [`RankScratch`], merges the [`NetStats`] delta, and then files the query
//! at every owner the kernel reports in [`RankScratch::contacted`]. The
//! kernel itself never mutates the deployment, which is what measurement
//! wants:
//!
//! * **no query caching / `query_seq`** — evaluation queries are probes of
//!   current quality, not training examples; caching them would leak the
//!   test set into the next learning iteration (train/test hygiene);
//! * **no round-robin issue cursor** — the view takes an explicit `from`
//!   peer per query, so the issuing peer depends only on the query's
//!   position in the workload, not on global mutable state;
//! * **caller-owned `NetStats`** — the message bill goes into a delta;
//!   per-query deltas merged in input order reproduce the one-at-a-time
//!   totals bit-for-bit because every `NetStats` field is a sum or a max.
//!
//! [`RankScratch`] keeps the accumulation arrays alive across queries so
//! the hot loop stops reallocating them.

use sprite_chord::trace::{self, NullTrace, Phase, TraceSink};
use sprite_chord::{ChordNet, MsgKind, NetStats, RouteMemo};
use sprite_ir::{Corpus, DocId, Hit, Query, Similarity, TermId};
use sprite_util::{IdMap, RingId};

use crate::config::{IdfMode, SpriteConfig};
use crate::peer::IndexingState;
use crate::postings::PostingList;
use crate::trace::{KeywordTrace, QueryTrace};

/// Reusable per-thread ranking buffers (see module docs), dense over the
/// document space: one accumulator slot per [`DocId`] with an epoch stamp,
/// so starting a query is O(1), clearing is implicit, and the per-posting
/// hot loop is two array writes instead of two hash-map probes. The
/// `touched` list remembers which documents this query reached; the final
/// hit sort is a total order over `(score, doc)`, so ranked lists are
/// bit-identical to the historical hash-map accumulation (scores are
/// summed per document in the same posting order either way). The
/// contents never survive a query — only the allocations do — except
/// [`RankScratch::contacted`], which reports the last query's routed owners
/// to the live path's cache side effect.
#[derive(Clone, Debug, Default)]
pub struct RankScratch {
    dot: Vec<f64>,
    norm_sq: Vec<f64>,
    meta: Vec<u32>,
    epoch: Vec<u32>,
    current: u32,
    touched: Vec<DocId>,
    hits: Vec<Hit>,
    contacted: Vec<RingId>,
}

impl RankScratch {
    /// Fresh buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The indexing peer each keyword of the last query routed to, in the
    /// query's sorted term order — one entry per keyword that resolved
    /// (dead-ended keywords contact nobody; failover replicas are not
    /// listed: §5.1 files a query at the peer *responsible* for the term).
    #[must_use]
    pub fn contacted(&self) -> &[RingId] {
        &self.contacted
    }

    /// Start a new query over a corpus of `docs` documents: bump the epoch
    /// (stale slots die wholesale) and size the dense arrays on first use.
    fn begin(&mut self, docs: usize) {
        self.touched.clear();
        self.hits.clear();
        self.contacted.clear();
        if self.epoch.len() < docs {
            self.dot.resize(docs, 0.0);
            self.norm_sq.resize(docs, 0.0);
            self.meta.resize(docs, 0);
            self.epoch.resize(docs, 0);
        }
        if self.current == u32::MAX {
            // Epoch wrap: one O(docs) reset every u32::MAX queries.
            self.epoch.fill(0);
            self.current = 0;
        }
        self.current += 1;
    }

    /// The dense slot of `doc`, zeroed on its first touch this query.
    #[inline]
    fn slot(&mut self, doc: DocId) -> usize {
        let i = doc.index();
        if self.epoch[i] != self.current {
            self.epoch[i] = self.current;
            self.dot[i] = 0.0;
            self.norm_sq[i] = 0.0;
            self.meta[i] = 0;
            self.touched.push(doc);
        }
        i
    }
}

/// An immutable snapshot of a SPRITE deployment for concurrent querying.
/// Obtain one with [`crate::SpriteSystem::query_view`]; it freezes the
/// system for its lifetime (the borrow checker enforces that no learning
/// or churn interleaves with a fan-out).
#[derive(Clone, Copy, Debug)]
pub struct QueryView<'a> {
    cfg: &'a SpriteConfig,
    net: &'a ChordNet,
    indexing: &'a IdMap<IndexingState>,
    corpus: &'a Corpus,
    peers: &'a [RingId],
    term_pos: &'a [Option<RingId>],
    true_dfs: Option<&'a [u32]>,
}

impl<'a> QueryView<'a> {
    pub(crate) fn new(
        cfg: &'a SpriteConfig,
        net: &'a ChordNet,
        indexing: &'a IdMap<IndexingState>,
        corpus: &'a Corpus,
        peers: &'a [RingId],
        term_pos: &'a [Option<RingId>],
        true_dfs: Option<&'a [u32]>,
    ) -> Self {
        QueryView {
            cfg,
            net,
            indexing,
            corpus,
            peers,
            term_pos,
            true_dfs,
        }
    }

    /// Alive peers in ring order — the pool callers pick an explicit
    /// issuing peer per query from this list.
    #[must_use]
    pub fn peers(&self) -> &'a [RingId] {
        self.peers
    }

    /// Ring position of a term: the snapshot's precomputed position when
    /// warmed, else hashed on the fly (pure, so still deterministic).
    #[must_use]
    pub fn term_ring(&self, term: TermId) -> RingId {
        self.term_pos[term.index()]
            .unwrap_or_else(|| RingId::hash_term(self.corpus.vocab().term(term)))
    }

    /// Rank `query` issued from peer `from`, charging the message bill into
    /// `stats`: [`crate::SpriteSystem::issue_query_from`] without the
    /// query-caching side effect (see the module docs).
    #[must_use]
    pub fn query(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
    ) -> Vec<Hit> {
        self.query_impl(
            from,
            query,
            k,
            stats,
            scratch,
            0,
            &mut NullTrace,
            None,
            None,
        )
    }

    /// Resolve every keyword route of a query batch once, up front: the
    /// distinct `(issuing peer, keyword key)` pairs are each walked a
    /// single time in one sequential pass (routing a frozen ring is
    /// read-only). [`QueryView::query_batched`] then replays the recorded
    /// outcomes — and their exact message bills — instead of re-walking
    /// keywords shared across in-flight queries.
    #[must_use]
    pub fn resolve_routes<'q, I>(&self, jobs: I) -> RouteMemo
    where
        I: IntoIterator<Item = (RingId, &'q Query)>,
    {
        let mut pairs: Vec<(RingId, RingId)> = Vec::new();
        for (from, query) in jobs {
            if query.is_empty() || !self.net.contains(from) {
                continue; // the query path rejects these before routing
            }
            for (term, _) in query.term_counts() {
                pairs.push((from, self.term_ring(term)));
            }
        }
        RouteMemo::build(self.net, &pairs)
    }

    /// [`QueryView::query`] through a prebuilt [`RouteMemo`] — the batched
    /// pipeline's per-query entry point. Results and charges are
    /// bit-identical to the unmemoized call (enforced by
    /// `batched_query_matches_plain_query_bit_for_bit` below and
    /// `sprite-audit`'s `batched_pipeline_matches_unbatched_bit_for_bit`);
    /// pairs missing from the memo fall back to a fresh walk.
    #[must_use]
    pub fn query_batched(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        memo: &RouteMemo,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
    ) -> Vec<Hit> {
        self.query_impl(
            from,
            query,
            k,
            stats,
            scratch,
            0,
            &mut NullTrace,
            None,
            Some(memo),
        )
    }

    /// [`QueryView::query`] with trace events emitted into `sink` under
    /// [`Phase::Query`]. Results and charges are bit-identical to the
    /// untraced call — tracing is observation only.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn query_traced<T: TraceSink>(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
        tick: u64,
        sink: &mut T,
    ) -> Vec<Hit> {
        self.query_impl(from, query, k, stats, scratch, tick, sink, None, None)
    }

    /// [`QueryView::query`] that additionally builds the per-keyword
    /// [`QueryTrace`] report (routes, owner hits, failover paths, timeouts).
    /// Results and charges are bit-identical to the untraced call.
    #[must_use]
    pub fn query_trace(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
    ) -> (Vec<Hit>, QueryTrace) {
        let mut qt = QueryTrace::default();
        let hits = self.query_impl(
            from,
            query,
            k,
            stats,
            scratch,
            0,
            &mut NullTrace,
            Some(&mut qt),
            None,
        );
        (hits, qt)
    }

    /// The single query implementation behind every public flavor. When the
    /// sink is [`NullTrace`] and no [`QueryTrace`] is requested, every
    /// tracing branch is compile-time dead or `qt.is_some()`-guarded, so
    /// the hot evaluation path pays nothing.
    #[allow(clippy::too_many_arguments)]
    fn query_impl<T: TraceSink>(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
        tick: u64,
        sink: &mut T,
        mut qt: Option<&mut QueryTrace>,
        memo: Option<&RouteMemo>,
    ) -> Vec<Hit> {
        if query.is_empty() || !self.net.contains(from) {
            return Vec::new();
        }
        scratch.begin(self.corpus.len());
        let msgs_before = stats.total_messages();
        let mut replicas_probed: u64 = 0;
        let n = self.cfg.assumed_n;
        for (term, qtf) in query.term_counts() {
            let key = self.term_ring(term);
            let dead_before = stats.count(MsgKind::Failed) + stats.count(MsgKind::Timeout);
            // Resolve the keyword's indexing peer: a memoized replay for the
            // batched pipeline, else the one traced walk (which is the
            // plain walk unless the sink records or a report wants the
            // route).
            let mut route = Vec::new();
            let resolved = match memo {
                Some(memo) if !T::ENABLED && qt.is_none() => {
                    self.net.probe_via(memo, from, key, stats)
                }
                _ => self.net.probe_traced(
                    from,
                    key,
                    stats,
                    Phase::Query,
                    tick,
                    sink,
                    qt.is_some().then_some(&mut route),
                ),
            };
            let (owner, hops) = match resolved {
                Ok(l) => (l.owner, l.hops),
                Err(_) => {
                    // §7 degradation: the routed walk dead-ended (every
                    // successor-list entry probed was dead) or drowned in
                    // flight. Charge the abandoned retry and drop the
                    // keyword — ranking proceeds on the terms that are
                    // still reachable.
                    trace::charge(stats, sink, tick, from, MsgKind::Timeout, Phase::Query);
                    if let Some(q) = qt.as_deref_mut() {
                        let timeouts = stats.count(MsgKind::Failed) + stats.count(MsgKind::Timeout)
                            - dead_before;
                        q.keywords.push(KeywordTrace {
                            term,
                            key,
                            route: Vec::new(),
                            owner: None,
                            hops: 0,
                            owner_hit: false,
                            failover: Vec::new(),
                            served_by: None,
                            timeouts,
                            entries: 0,
                        });
                    }
                    continue;
                }
            };
            scratch.contacted.push(owner);
            trace::charge(stats, sink, tick, owner, MsgKind::QueryFetch, Phase::Query);
            let mut postings: Option<&PostingList> =
                self.indexing.get(&owner.0).and_then(|st| st.postings(term));
            // An absent list bills as the canonical empty response: one
            // zero-count byte.
            trace::charge_bytes(
                stats,
                sink,
                MsgKind::QueryFetch,
                postings.map_or(1, PostingList::wire_size) as u64,
            );
            let owner_hit = postings.is_some_and(|p| !p.is_empty());
            let mut failover: Vec<RingId> = Vec::new();
            let mut served_by = if owner_hit { Some(owner) } else { None };
            // Failover when the routed peer holds no list (it may have
            // taken over an arc after a failure, §7): walk the owner's
            // successor chain — never the oracle — and retry each live
            // replica in turn. A fully-dead replica set leaves the term
            // with no entries; ranking degrades to partial results.
            if !owner_hit && self.cfg.replication > 1 {
                let replicas = self.net.replicas_from_owner_traced(
                    owner,
                    self.cfg.replication,
                    stats,
                    Phase::Query,
                    tick,
                    sink,
                );
                for peer in replicas.into_iter().skip(1) {
                    trace::charge(stats, sink, tick, peer, MsgKind::QueryFetch, Phase::Query);
                    replicas_probed += 1;
                    if qt.is_some() {
                        failover.push(peer);
                    }
                    let list: Option<&PostingList> = self
                        .indexing
                        .get(&peer.0)
                        .and_then(|rep| rep.postings(term));
                    trace::charge_bytes(
                        stats,
                        sink,
                        MsgKind::QueryFetch,
                        list.map_or(1, PostingList::wire_size) as u64,
                    );
                    if list.is_some_and(|p| !p.is_empty()) {
                        postings = list;
                        served_by = Some(peer);
                        break;
                    }
                }
            }
            let n_entries = postings.map_or(0, PostingList::len);
            if let Some(q) = qt.as_deref_mut() {
                let timeouts =
                    stats.count(MsgKind::Failed) + stats.count(MsgKind::Timeout) - dead_before;
                q.keywords.push(KeywordTrace {
                    term,
                    key,
                    route,
                    owner: Some(owner),
                    hops,
                    owner_hit,
                    failover,
                    served_by,
                    timeouts,
                    entries: n_entries,
                });
            }
            // Accumulate immediately (§4 ranking): indexed document
            // frequency as n′_k, the assumed large N. Terms arrive in sorted
            // order, which fixes the floating-point addition order per
            // document.
            let df = match self.cfg.idf_mode {
                IdfMode::Indexed => n_entries,
                IdfMode::TrueDf => self.true_dfs.map_or(0, |d| d[term.index()] as usize),
            };
            if df == 0 || n_entries == 0 {
                continue;
            }
            let idf = (n / df as f64).ln();
            if idf <= 0.0 {
                continue;
            }
            let w_q = f64::from(qtf) * idf;
            for e in postings.expect("n_entries > 0").iter() {
                let w_d = if e.doc_len == 0 {
                    0.0
                } else {
                    (f64::from(e.tf) / f64::from(e.doc_len)) * idf
                };
                let s = scratch.slot(e.doc);
                scratch.dot[s] += w_q * w_d;
                scratch.norm_sq[s] += w_d * w_d;
                scratch.meta[s] = e.distinct;
            }
        }
        for ti in 0..scratch.touched.len() {
            let doc = scratch.touched[ti];
            let i = doc.index();
            let num = scratch.dot[i];
            let denom = match self.cfg.similarity {
                Similarity::LeeSecond => f64::from(scratch.meta[i]).sqrt(),
                // Distributed cosine can only normalize over the
                // *retrieved* term weights (ablation configuration).
                Similarity::CosineTfIdf => scratch.norm_sq[i].sqrt(),
            };
            let score = if denom > 0.0 { num / denom } else { 0.0 };
            scratch.hits.push(Hit { doc, score });
        }
        // Rank by (score desc, doc asc) — a *strict* total order (scores
        // are finite and docs distinct), so selecting the top k first and
        // sorting only that prefix returns exactly what sorting everything
        // and truncating would: same set, same order, same bits.
        let cmp = |a: &Hit, b: &Hit| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.doc.cmp(&b.doc))
        };
        if k > 0 && scratch.hits.len() > k {
            scratch.hits.select_nth_unstable_by(k - 1, cmp);
            scratch.hits.truncate(k);
        }
        scratch.hits.sort_by(cmp);
        scratch.hits.truncate(k);
        let hits = scratch.hits.clone();
        if T::ENABLED {
            sink.query_done(
                stats.total_messages() - msgs_before,
                replicas_probed,
                hits.len(),
            );
        }
        if let Some(q) = qt {
            q.from = from;
            q.messages = stats.total_messages() - msgs_before;
            q.rank_size = hits.len();
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpriteConfig;
    use crate::system::SpriteSystem;
    use sprite_corpus::{CorpusConfig, SyntheticCorpus};

    fn tiny_system(cfg: SpriteConfig) -> SpriteSystem {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(17));
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 16, cfg, 17);
        sys.publish_all();
        sys
    }

    fn probe_queries(sys: &SpriteSystem) -> Vec<Query> {
        // A mix of single-term, multi-term, and unknown-term queries over
        // published and unpublished vocabulary.
        let p0 = sys.published_terms(DocId(0)).to_vec();
        let p3 = sys.published_terms(DocId(3)).to_vec();
        vec![
            Query::new(vec![p0[0]]),
            Query::new(vec![p0[0], p0[1], p3[0]]),
            Query::new(vec![p3[1], p3[1], p0[2]]),
            Query::new(vec![TermId(0), TermId(1), TermId(2)]),
        ]
    }

    #[test]
    fn batched_query_matches_plain_query_bit_for_bit() {
        // Across configurations (incl. replication failover) and a peer
        // set with failures, the memoized batched path must reproduce the
        // plain per-query path exactly: same hits, same score bits, same
        // charged stats.
        for cfg in [
            SpriteConfig::default(),
            SpriteConfig {
                replication: 3,
                ..SpriteConfig::default()
            },
        ] {
            let mut sys = tiny_system(cfg);
            sys.fail_random_peers(2, 5);
            let queries = probe_queries(&sys);
            let peers = sys.peers().to_vec();
            let view = sys.query_view();
            let memo = view.resolve_routes(
                queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| (peers[(i * 3) % peers.len()], q)),
            );
            assert!(!memo.is_empty(), "probe queries must memoize routes");
            for (i, q) in queries.iter().enumerate() {
                let from = peers[(i * 3) % peers.len()];
                let mut d_plain = NetStats::new();
                let mut d_batched = NetStats::new();
                let mut s_plain = RankScratch::new();
                let mut s_batched = RankScratch::new();
                let plain = view.query(from, q, 20, &mut d_plain, &mut s_plain);
                let batched =
                    view.query_batched(from, q, 20, &memo, &mut d_batched, &mut s_batched);
                assert_eq!(plain.len(), batched.len(), "query {i}");
                for (a, b) in plain.iter().zip(&batched) {
                    assert_eq!(a.doc, b.doc, "query {i}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {i}");
                }
                assert_eq!(d_plain, d_batched, "charges differ, query {i}");
            }
        }
    }

    #[test]
    fn view_does_not_cache_queries() {
        let mut sys = tiny_system(SpriteConfig::default());
        let t = sys.published_terms(DocId(0))[0];
        let key = sys.term_ring(t);
        let peer = sys.net().oracle_owner(key).expect("non-empty ring");
        let from = sys.peers()[0];
        let before = sys
            .indexing_state(peer)
            .map_or(0, IndexingState::cached_queries);
        let mut delta = NetStats::new();
        let mut scratch = RankScratch::new();
        let view = sys.query_view();
        let hits = view.query(from, &Query::new(vec![t]), 10, &mut delta, &mut scratch);
        assert!(!hits.is_empty());
        let after = sys
            .indexing_state(peer)
            .map_or(0, IndexingState::cached_queries);
        assert_eq!(before, after, "evaluation must not pollute query caches");
    }

    #[test]
    fn unwarmed_terms_hash_to_the_same_position() {
        let mut sys = tiny_system(SpriteConfig::default());
        let t = sys.published_terms(DocId(2))[0];
        let fresh = {
            let view = sys.query_view();
            view.term_ring(t) // not warmed: computed via the pure fallback
        };
        assert_eq!(fresh, sys.term_ring(t));
    }
}
