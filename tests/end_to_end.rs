//! Cross-crate integration tests: the whole stack, from corpus generation
//! through the Chord ring to ranked answers and the paper's evaluation
//! pipeline.

use std::collections::BTreeMap;

use sprite::chord::{MsgKind, NetStats, SimConfig, TraceRecorder};
use sprite::core::{
    fig4a, fig4c, ExpansionConfig, IdfMode, IndexingState, RankScratch, SpriteConfig, SpriteSystem,
    World, WorldConfig,
};
use sprite::corpus::{CorpusConfig, Schedule, SyntheticCorpus};
use sprite::ir::{evaluate_hits_at_k, DocId, Query, Similarity, TermId};
use sprite::util::{derive_rng, RingId};

fn tiny_world() -> World {
    World::build(WorldConfig::tiny(77))
}

#[test]
fn full_pipeline_produces_relevant_answers() {
    let world = tiny_world();
    let mut sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    // Every test query must be answerable; most should return relevant docs.
    let mut answered = 0;
    let mut relevant_found = 0;
    for &qi in &world.test {
        let gq = &world.workload[qi];
        let hits = sys.issue_query(&gq.query, 20);
        if !hits.is_empty() {
            answered += 1;
        }
        let e = evaluate_hits_at_k(&hits, &gq.relevant, 20);
        if e.hits > 0 {
            relevant_found += 1;
        }
    }
    assert!(answered as f64 >= world.test.len() as f64 * 0.9);
    assert!(
        relevant_found as f64 >= world.test.len() as f64 * 0.5,
        "only {relevant_found}/{} queries found any relevant doc",
        world.test.len()
    );
}

#[test]
fn sprite_tracks_centralized_within_band() {
    let world = tiny_world();
    let mut sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let r = world.evaluate(&mut sys, &world.test, 20);
    // The paper reports ~0.87-0.89 of centralized; at tiny scale we only
    // require a sane band.
    assert!(
        r.precision_ratio > 0.5 && r.precision_ratio <= 1.2,
        "precision ratio {} out of band",
        r.precision_ratio
    );
    assert!(r.recall_ratio > 0.5 && r.recall_ratio <= 1.2);
}

#[test]
fn learning_beats_static_on_equal_budget() {
    // The headline claim, end to end through the facade.
    let world = World::build(WorldConfig::small(5));
    let mut sprite = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let mut esearch = world.standard_system(SpriteConfig::esearch(20), Schedule::WithoutRepeats);
    let rs = world.evaluate(&mut sprite, &world.test, 20);
    let re = world.evaluate(&mut esearch, &world.test, 20);
    assert!(
        rs.precision_ratio > re.precision_ratio,
        "SPRITE {} vs eSearch {}",
        rs.precision_ratio,
        re.precision_ratio
    );
}

#[test]
fn no_learning_at_minimum_budget_matches_esearch() {
    // Figure 4(b)'s anchor point: with only the initial 5 terms, SPRITE and
    // eSearch publish identical indexes, so every answer matches.
    let world = tiny_world();
    let cfg5 = SpriteConfig {
        max_terms: 5,
        ..SpriteConfig::default()
    };
    let mut a = world.standard_system(cfg5, Schedule::WithoutRepeats);
    let mut b = world.standard_system(SpriteConfig::esearch(5), Schedule::WithoutRepeats);
    for &qi in world.test.iter().take(20) {
        let q = &world.workload[qi].query;
        let ha: Vec<DocId> = a.issue_query(q, 10).iter().map(|h| h.doc).collect();
        let hb: Vec<DocId> = b.issue_query(q, 10).iter().map(|h| h.doc).collect();
        assert_eq!(ha, hb, "identical indexes must answer identically");
    }
}

#[test]
fn fig_drivers_are_deterministic() {
    let w1 = tiny_world();
    let w2 = tiny_world();
    let a1 = fig4a(&w1, &[10, 20]);
    let a2 = fig4a(&w2, &[10, 20]);
    for (p1, p2) in a1.sprite.iter().zip(&a2.sprite) {
        assert_eq!(p1.precision, p2.precision);
        assert_eq!(p1.recall, p2.recall);
    }
    let c1 = fig4c(&w1, 4, 10);
    let c2 = fig4c(&w2, 4, 10);
    for (p1, p2) in c1.sprite.iter().zip(&c2.sprite) {
        assert_eq!(p1.precision, p2.precision);
    }
}

#[test]
fn querying_through_churn_and_replication() {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(31));
    let cfg = SpriteConfig {
        replication: 3,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 32, cfg, 31);
    sys.publish_all();
    sys.replicate_indexes();
    let probe = Query::new(sc.topic_core(0)[..3].to_vec());
    let before = sys.issue_query(&probe, 30).len();
    sys.fail_random_peers(6, 2);
    let after = sys.issue_query(&probe, 30).len();
    assert!(before > 0);
    assert!(
        after * 10 >= before * 8,
        "replication should preserve most answers: {after} vs {before}"
    );
}

#[test]
fn message_accounting_covers_all_activity() {
    let world = tiny_world();
    let mut sys = world.new_system(SpriteConfig::default());
    assert_eq!(sys.net().stats().total_messages(), 0);
    world.issue(
        &mut sys,
        &world.train[..10.min(world.train.len())],
        Schedule::WithoutRepeats,
    );
    let after_queries = sys.net().stats().total_messages();
    assert!(after_queries > 0, "query traffic must be charged");
    sys.publish_all();
    let after_publish = sys.net().stats().total_messages();
    assert!(
        after_publish > after_queries,
        "publish traffic must be charged"
    );
    sys.learning_iteration();
    assert!(
        sys.net().stats().total_messages() > after_publish,
        "learning traffic must be charged"
    );
}

#[test]
fn owner_term_budgets_always_respected() {
    let world = tiny_world();
    for max_terms in [5usize, 10, 20] {
        let cfg = SpriteConfig {
            max_terms,
            ..SpriteConfig::default()
        };
        let sys = world.standard_system(cfg, Schedule::WithoutRepeats);
        for i in 0..sys.corpus().len() {
            let n = sys.published_terms(DocId(i as u32)).len();
            assert!(n <= max_terms, "doc {i} published {n} > {max_terms}");
        }
    }
}

#[test]
fn index_remove_retires_a_document_end_to_end() {
    // Publish → remove → query, through the public API: retiring a
    // document must bill IndexRemove traffic (visible to both the stats
    // ledger and the trace recorder), strip the document's entries from
    // every replica, and make it unreachable by the queries that found it.
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(47));
    let cfg = SpriteConfig {
        replication: 2,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 32, cfg, 47);
    sys.publish_all();
    sys.replicate_indexes();

    // Find a document that a query over its own published terms actually
    // returns, so "unreachable afterwards" is a meaningful assertion.
    let (doc, probe) = (0..sys.corpus().len())
        .map(|i| DocId(i as u32))
        .find_map(|d| {
            let terms = sys.published_terms(d).to_vec();
            if terms.is_empty() {
                return None;
            }
            let q = Query::new(terms);
            sys.issue_query(&q, 30)
                .iter()
                .any(|h| h.doc == d)
                .then_some((d, q))
        })
        .expect("some published document answers its own terms");

    let removes_before = sys.net().stats().count(MsgKind::IndexRemove);
    sys.enable_tracing();
    let retracted = sys.unpublish_document(doc);
    let rec = sys.take_tracer().expect("tracing was enabled");
    assert!(retracted > 0, "the document had published terms to retract");
    assert!(
        rec.kind_count(MsgKind::IndexRemove) > 0,
        "the recorder must see IndexRemove events on the removal path"
    );
    assert!(
        rec.kind_bytes(MsgKind::IndexRemove) > 0,
        "removal records carry wire bytes"
    );
    assert!(
        sys.net().stats().count(MsgKind::IndexRemove) > removes_before,
        "the stats ledger must bill the removal traffic"
    );
    assert!(sys.published_terms(doc).is_empty());

    // Replicas included: no indexing peer may still hold an entry for the
    // retired document.
    for peer in sys.indexing_peers() {
        let st = sys.indexing_state(peer).expect("listed peer is alive");
        for (t, list) in st.terms() {
            assert!(
                list.iter().all(|e| e.doc != doc),
                "peer {peer:?} still lists the retired doc under term {t:?}"
            );
        }
    }
    assert!(
        !sys.issue_query(&probe, 30).iter().any(|h| h.doc == doc),
        "a retired document must be unreachable"
    );
}

#[test]
fn text_pipeline_integrates_with_ir() {
    // Real text through the analyzer into the centralized engine.
    let analyzer = sprite::text::Analyzer::standard();
    let corpus = sprite::ir::Corpus::from_texts(
        &analyzer,
        [
            "Peer-to-peer networks distribute documents across many nodes.",
            "Text retrieval systems rank documents by term similarity.",
            "Chord is a distributed hash table with logarithmic lookups.",
        ],
    );
    let engine = sprite::ir::CentralizedEngine::build(&corpus);
    let q = Query::new(
        ["retrieval", "documents"]
            .iter()
            .filter_map(|w| corpus.vocab().get(&sprite::text::stem(w)))
            .collect(),
    );
    let hits = engine.search(&q, 3);
    assert!(!hits.is_empty());
    assert_eq!(hits[0].doc, DocId(1), "the retrieval doc should rank first");
}

// ---------------------------------------------------------------------
// Live queries: the `QueryView` kernel plus the §5.1 cache side effect.
// ---------------------------------------------------------------------

/// A 200-document deployment over `n_peers` peers with nothing published.
fn tiny_deployment(cfg: SpriteConfig, n_peers: usize) -> SpriteSystem {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(17));
    SpriteSystem::build(sc.corpus().clone(), n_peers, cfg, 17)
}

/// Single-term, multi-term, repeated-term and never-indexed queries.
fn probe_queries(sys: &SpriteSystem) -> Vec<Query> {
    let a = sys.corpus().doc(DocId(0)).top_frequent_terms(5);
    let b = sys.corpus().doc(DocId(3)).top_frequent_terms(5);
    vec![
        Query::new(vec![a[0]]),
        Query::new(vec![a[0], a[1], b[0]]),
        Query::new(vec![b[1], b[1], a[2]]),
        Query::new(vec![TermId(0), TermId(1), TermId(2)]),
    ]
}

/// A seeded stream of `n` live requests from the deployment's alive peers.
fn live_stream(sys: &SpriteSystem, n: usize) -> Vec<(RingId, Query)> {
    let queries = probe_queries(sys);
    let peers = sys.peers();
    let mut rng = derive_rng(17, "live-stream");
    (0..n)
        .map(|_| {
            let from = peers[rng.gen_range(0..peers.len())];
            (from, queries[rng.gen_range(0..queries.len())].clone())
        })
        .collect()
}

/// Every indexing peer holds exactly what §5.1 says it holds once `stream`
/// was issued live (sequence numbers from 1): one `(query, qhash, seq)` per
/// keyword routed there — resolved here with the plain walk, not the
/// kernel — oldest evicted at capacity, nothing at capacity 0; and every
/// routed owner has indexing state, an empty one if it had none.
fn assert_histories(sys: &SpriteSystem, stream: &[(RingId, Query)]) {
    let cap = sys.config().query_cache_capacity;
    let mut expected: BTreeMap<u128, Vec<(Query, RingId, u64)>> = BTreeMap::new();
    for (i, (from, q)) in stream.iter().enumerate() {
        for (t, _) in q.term_counts() {
            let key = RingId::hash_term(sys.corpus().vocab().term(t));
            let Ok(l) = sys.net().probe(*from, key, &mut NetStats::new()) else {
                continue; // a dead-ended keyword contacts nobody
            };
            let history = expected.entry(l.owner.0).or_default();
            if cap > 0 {
                if history.len() == cap {
                    history.remove(0);
                }
                history.push((q.clone(), sys.query_hash(q), i as u64 + 1));
            }
        }
    }
    for peer in sys.indexing_peers() {
        let got: Vec<(Query, RingId, u64)> = sys
            .indexing_state(peer)
            .expect("listed peer has state")
            .queries_since(0)
            .map(|c| (c.query.clone(), c.qhash, c.seq))
            .collect();
        let want = expected.remove(&peer.0).unwrap_or_default();
        assert_eq!(got, want, "history of {peer:?}");
    }
    assert!(expected.is_empty(), "a routed owner has no indexing state");
}

/// The recorder saw exactly what the bill charged, kind by kind.
fn assert_recorder_matches(rec: &TraceRecorder, bill: &NetStats) {
    for kind in MsgKind::all() {
        assert_eq!(rec.kind_count(kind), bill.count(kind), "{kind:?} events");
        assert_eq!(rec.kind_bytes(kind), bill.bytes(kind), "{kind:?} bytes");
    }
    assert_eq!(rec.events(), bill.total_messages());
    assert_eq!(rec.hops_per_lookup().count(), bill.lookups());
}

fn cached_queries(sys: &SpriteSystem, peer: RingId) -> usize {
    sys.indexing_state(peer)
        .map_or(0, IndexingState::cached_queries)
}

#[test]
fn live_query_is_the_view_query_plus_the_cache_side_effect() {
    // A live query returns what `QueryView::query` returns and bills what
    // it bills, bit for bit; a recording sink sees the whole bill on either
    // path; and the query is left in the history of each keyword's indexing
    // peer. (configuration, peers, publish first?, damage to the ring)
    // On the 2-peer ring some of a query's three keywords must share an
    // owner, which then files the query once per keyword.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Damage {
        None,
        /// Peers fail, unrepaired, under link loss: stale fingers and
        /// successor entries.
        FailLossy,
        /// Peers join at keywords' ring positions and nobody stabilizes:
        /// their predecessors still point past them, so a walk ends at the
        /// old owner while the global view names the newcomer.
        JoinUnstabilized,
    }
    let with = |f: fn(&mut SpriteConfig)| {
        let mut cfg = SpriteConfig::default();
        f(&mut cfg);
        cfg
    };
    for (cfg, n_peers, publish, damage) in [
        (with(|c| c.query_cache_capacity = 3), 2, true, Damage::None),
        (
            with(|c| c.query_cache_capacity = 0),
            24,
            false,
            Damage::None,
        ),
        (with(|c| c.replication = 3), 24, true, Damage::None),
        (
            with(|c| {
                c.similarity = Similarity::CosineTfIdf;
                c.idf_mode = IdfMode::TrueDf;
            }),
            24,
            true,
            Damage::None,
        ),
        (with(|c| c.replication = 2), 24, true, Damage::FailLossy),
        (with(|_| {}), 24, true, Damage::JoinUnstabilized),
    ] {
        let mut sys = tiny_deployment(cfg, n_peers);
        let damaged = damage == Damage::FailLossy;
        if damaged {
            sys.net_mut().set_sim(SimConfig {
                seed: 5,
                loss: 0.15,
                latency: 10,
                jitter: 5,
                ..SimConfig::default()
            });
        }
        if publish {
            sys.publish_all();
        }
        match damage {
            Damage::None => {}
            Damage::FailLossy => {
                let victims: Vec<RingId> = sys.peers().iter().copied().step_by(5).take(4).collect();
                for v in victims {
                    sys.net_mut().fail(v).expect("alive until now");
                }
            }
            Damage::JoinUnstabilized => {
                let bootstrap = sys.peers()[0];
                let mut keys: Vec<RingId> = probe_queries(&sys)
                    .iter()
                    .flat_map(|q| q.terms().to_vec())
                    .map(|t| sys.term_ring(t))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys.into_iter().take(3) {
                    sys.net_mut().join(key, bootstrap).expect("fresh id");
                }
            }
        }
        sys.refresh_peers();
        let stream = live_stream(&sys, 80);
        // Only the unstabilized joins make a routed owner differ from the
        // one the global view names, so only that row can tell a query
        // path that consults the oracle from one that routes.
        let misrouted = stream
            .iter()
            .flat_map(|(from, q)| q.terms().iter().map(move |&t| (*from, t)))
            .filter(|&(from, t)| {
                let key = sys.term_ring(t);
                let routed = sys.net().probe(from, key, &mut NetStats::new());
                routed.is_ok_and(|l| Some(l.owner) != sys.net().oracle_owner(key))
            })
            .count();
        assert_eq!(
            misrouted > 0,
            damage == Damage::JoinUnstabilized,
            "{damage:?}: {misrouted} keywords route away from the global view's owner"
        );
        // Rejected queries consume no sequence number (learning watermarks
        // depend on it): the stream below is still filed as 1, 2, 3, ...
        let alive = sys.peers()[0];
        assert!(sys
            .issue_query_from(alive, &Query::default(), 20)
            .is_empty());
        assert!(!sys.net().contains(RingId(7)));
        assert!(sys.issue_query_from(RingId(7), &stream[0].1, 20).is_empty());

        let mut bill = NetStats::new();
        let mut view_rec = TraceRecorder::new();
        let mut scratch = RankScratch::new();
        sys.net_mut().reset_stats();
        sys.enable_tracing();
        for (i, (from, q)) in stream.iter().enumerate() {
            let view_hits = sys.query_view().query_traced(
                *from,
                q,
                20,
                &mut bill,
                &mut scratch,
                i as u64,
                &mut view_rec,
            );
            let live_hits = sys.issue_query_from(*from, q, 20);
            assert_eq!(view_hits.len(), live_hits.len(), "query {i}");
            for (a, b) in view_hits.iter().zip(&live_hits) {
                assert_eq!((a.doc, a.score.to_bits()), (b.doc, b.score.to_bits()));
            }
        }
        let live_rec = sys.take_tracer().expect("tracing was enabled");
        assert_eq!(&bill, sys.net().stats(), "the live bill is the view bill");
        for rec in [&view_rec, &live_rec] {
            assert_recorder_matches(rec, &bill);
            assert_eq!(rec.queries(), stream.len() as u64);
        }
        assert_eq!(damaged, bill.count(MsgKind::Failed) > 0, "dead probes");
        assert_eq!(damaged, bill.count(MsgKind::Timeout) > 0, "link drops");
        assert_histories(&sys, &stream);
        if !publish {
            let owners = sys.indexing_peers();
            assert!(!owners.is_empty(), "routed owners gained state");
            for p in owners {
                let st = sys.indexing_state(p).expect("listed peer has state");
                assert_eq!(st.indexed_terms(), 0);
            }
        }
    }
}

#[test]
fn expanded_queries_bill_exactly_what_the_recorder_sees() {
    // §7 expansion downloads term vectors on top of the plain query path:
    // every fetch must reach the recorder as well as the bill.
    let mut sys = tiny_deployment(SpriteConfig::default(), 24);
    sys.publish_all();
    let stream = live_stream(&sys, 20);
    sys.net_mut().reset_stats();
    sys.enable_tracing();
    for (_, q) in &stream {
        sys.issue_query_expanded(q, 10, &ExpansionConfig::default());
    }
    let rec = sys.take_tracer().expect("tracing was enabled");
    assert_recorder_matches(&rec, sys.net().stats());
    // Each expansion re-issues its enriched query: some did.
    assert!(rec.queries() > stream.len() as u64, "nothing was expanded");
}

#[test]
fn dead_ended_keywords_bill_a_timeout_and_file_nothing() {
    let mut sys = tiny_deployment(SpriteConfig::default(), 16);
    sys.publish_all();
    let from = sys.peers()[0];
    // Every successor `from` knows fails, unrepaired: each of its walks
    // dead-ends on the spot after probing the whole list.
    let node = sys.net().node(from).expect("alive");
    let succ = node.successor_list().to_vec();
    for &s in &succ {
        sys.net_mut().fail(s).expect("alive until now");
    }
    let filed = |sys: &SpriteSystem| -> Vec<u64> {
        let peers = sys.indexing_peers();
        let states = peers.iter().filter_map(|&p| sys.indexing_state(p));
        states
            .flat_map(|st| st.queries_since(0).map(|c| c.seq))
            .collect()
    };
    let q = probe_queries(&sys)[1].clone();
    let keywords = q.distinct_len() as u64;
    sys.net_mut().reset_stats();
    assert!(sys.issue_query_from(from, &q, 20).is_empty());
    let bill = sys.net().stats();
    assert_eq!(bill.count(MsgKind::Timeout), keywords);
    assert_eq!(bill.count(MsgKind::Failed), keywords * succ.len() as u64);
    assert_eq!(bill.total_messages(), keywords * (1 + succ.len() as u64));
    assert!(filed(&sys).is_empty(), "nobody was contacted");
    // The dead-ended query still took sequence number 1: the next query
    // that reaches an owner is filed as number 2.
    let routes = |p: RingId, t: TermId| {
        let key = RingId::hash_term(sys.corpus().vocab().term(t));
        sys.net().probe(p, key, &mut NetStats::new()).is_ok()
    };
    let alive = sys.peers().iter().filter(|&&p| sys.net().contains(p));
    let (from2, t) = alive
        .flat_map(|&p| q.term_counts().map(move |(t, _)| (p, t)))
        .find(|&(p, t)| routes(p, t))
        .expect("some live peer still routes some keyword");
    let _ = sys.issue_query_from(from2, &Query::new(vec![t]), 20);
    assert_eq!(filed(&sys), [2]);
}

#[test]
fn failover_files_the_query_at_the_routed_owner_only() {
    let cfg = SpriteConfig {
        replication: 3,
        ..SpriteConfig::default()
    };
    let mut sys = tiny_deployment(cfg, 16);
    sys.publish_all();
    let t = sys.published_terms(DocId(0))[0];
    let q = Query::new(vec![t]);
    let from = sys.peers()[0];
    let key = sys.term_ring(t);
    let routed = sys.net().probe(from, key, &mut NetStats::new());
    let owner = routed.expect("converged ring").owner;
    // The routed owner loses its list (as if it had just taken over the
    // arc, §7); its replicas still hold theirs.
    sys.indexing_state_mut(owner)
        .expect("the owner indexes the term")
        .inject_raw(t, Vec::new(), 0);
    let (mut bill, mut scratch) = (NetStats::new(), RankScratch::new());
    let view = sys.query_view();
    let (_, report) = view.query_trace(from, &q, 20, &mut bill, &mut scratch);
    let served_by = report.keywords[0].served_by.expect("a replica serves");
    assert_ne!(served_by, owner);
    let before = (cached_queries(&sys, owner), cached_queries(&sys, served_by));
    assert!(!sys.issue_query_from(from, &q, 20).is_empty());
    let after = (cached_queries(&sys, owner), cached_queries(&sys, served_by));
    assert_eq!(after, (before.0 + 1, before.1));
}

#[test]
fn corrupt_posting_block_is_a_typed_violation_not_a_panic() {
    let mut sys = tiny_deployment(SpriteConfig::default(), 16);
    sys.publish_all();
    assert_eq!(sprite::audit::check_system(&sys), Vec::new());
    let peer = sys.indexing_peers()[0];
    let st = sys.indexing_state(peer).expect("listed peer indexes");
    let (term, list) = st.terms().next().expect("it holds a list");
    // A block that claims one entry more than its bytes hold.
    let (bytes, count) = (list.packed_bytes().to_vec(), list.len() as u32 + 1);
    sys.indexing_state_mut(peer)
        .expect("listed peer indexes")
        .inject_raw(term, bytes, count);
    let found = sprite::audit::check_system(&sys);
    assert!(
        matches!(found[..], [sprite::audit::Violation::MalformedPostings { peer: p, term: t, .. }]
            if p == peer && t == term),
        "expected one MalformedPostings for ({peer:?}, {term:?}), got {found:?}"
    );
}

#[test]
fn learning_from_live_queries_ends_in_the_pinned_index() {
    // The cache side effect is what learning eats: if what a live query
    // files (which peers, which order, which sequence numbers) drifts, two
    // learning iterations end in a different index. The fingerprints are
    // those of the commit before the query paths were merged.
    use sprite::audit::determinism::{fingerprint_index, fingerprint_owners};

    let world = tiny_world();
    let mut sys = world.new_system(SpriteConfig::default());
    sys.publish_all();
    world.issue(&mut sys, &world.train, Schedule::WithoutRepeats);
    sys.learning_iteration();
    sys.learning_iteration();
    assert_eq!(
        fingerprint_index(&sys),
        0x9d431a682f8a2876d2f45144337f25ee,
        "index fingerprint"
    );
    assert_eq!(
        fingerprint_owners(&sys),
        0x185993f8d2af1218d8f84b95d54a68a3,
        "owner-state fingerprint"
    );
}

// ---------------------------------------------------------------------
// Pinned fingerprints for the one storage layout, publish path and
// deletion strategy. Each run used to be checked against a twin built
// with the other mode (map store, plain postings, unbatched publish);
// the values are those of the last commit where the twins existed.
// ---------------------------------------------------------------------

#[test]
fn replicated_deployment_ends_in_the_pinned_index_results_and_bill() {
    use sprite::audit::determinism::{
        fingerprint_index, fingerprint_stats, parallel_results_fingerprint,
    };

    let seed = 2026;
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(seed));
    let queries: Vec<Query> = sc
        .seed_queries()
        .iter()
        .take(8)
        .map(|s| s.query.clone())
        .collect();
    let cfg = SpriteConfig {
        replication: 2,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, seed);
    sys.publish_all();
    sys.replicate_indexes();
    sys.learning_iteration();
    sys.fail_random_peers(2, seed + 1);
    assert_eq!(
        fingerprint_index(&sys),
        0x88e9daa7348aa286f122c62eb4475ae1,
        "index fingerprint"
    );
    assert_eq!(
        parallel_results_fingerprint(&mut sys, &queries, 4),
        0x282e695c5ad1be790b57bffd09921699,
        "4-worker results fingerprint"
    );
    assert_eq!(
        fingerprint_stats(sys.net().stats()),
        0x21feb3cc295953e848d738f03f1a9d79,
        "message and byte bill"
    );
}

#[test]
fn document_lifecycle_ends_in_the_pinned_state() {
    let audit = sprite::audit::audit_lifecycle(2026);
    assert_eq!(
        audit.fingerprint, 0xb1973f6291ec9a5f08b8ee2352ecd5f6,
        "lifecycle fingerprint"
    );
    assert!(audit.no_resurrection, "a query surfaced a deleted document");
    assert!(audit.tombstones_cleared, "tombstones survived maintenance");
}

#[test]
fn ring_churn_schedule_passes_through_the_pinned_rings() {
    use sprite::audit::determinism::fingerprint_ring;
    use sprite::chord::{ChordConfig, ChordNet};

    let seed = 2026u64;
    let mut net = ChordNet::with_random_nodes(ChordConfig::default(), 96, seed);
    let built = fingerprint_ring(&net);
    for id in net.node_ids().iter().step_by(11) {
        net.fail(*id).expect("listed node is alive");
    }
    net.converge(64);
    let failed = fingerprint_ring(&net);
    for i in 0..8u64 {
        let id = RingId::hash_bytes(format!("storage-audit-{seed}-{i}").as_bytes());
        let bootstrap = net.node_ids()[0];
        net.join(id, bootstrap).expect("bootstrap is alive");
    }
    net.converge(64);
    let joined = fingerprint_ring(&net);
    assert_eq!(
        [built, failed, joined],
        [
            0x621660482ca9a1bd37cca34753cea19b,
            0x742b6dde6767b4093ed1cd5e6a383098,
            0xed8d8989705c7deee337f7afab4e353f
        ],
        "ring fingerprints after build, failures + repair, joins + repair"
    );
}

/// The schedule above pins only *converged* rings, which membership alone
/// determines. This one pins a ring **while it is stale**: the bill of
/// lookups routed through dead fingers (one `Failed` probe per table entry
/// a dead in-interval finger occupies), and what single maintenance rounds
/// leave behind — each call's change count, the stale-fingers-included
/// fingerprint and the maintenance bill. The values are those of the
/// commit before finger tables were stored as their distinct runs.
#[test]
fn stale_ring_lookups_and_single_repair_rounds_end_in_the_pinned_state() {
    use sprite::audit::determinism::fingerprint_ring;
    use sprite::chord::{ChordConfig, ChordNet};

    let seed = 2026u64;
    let mut net = ChordNet::with_random_nodes(ChordConfig::default(), 200, seed);
    for id in net.node_ids().iter().step_by(7) {
        net.fail(*id).expect("listed node is alive");
    }

    // 300 lookups on the unrepaired ring.
    let ids = net.node_ids();
    let mut rng = derive_rng(seed, "stale-ring-lookups");
    let mut resolved = 0u64;
    for i in 0..300u64 {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = RingId::hash_bytes(format!("stale-ring-{seed}-{i}").as_bytes());
        resolved += u64::from(net.lookup(from, key).is_ok());
    }
    let bill = |net: &ChordNet, kind| net.stats().count(kind);
    assert_eq!(
        [
            resolved,
            bill(&net, MsgKind::LookupHop),
            bill(&net, MsgKind::Failed)
        ],
        [300, 1213, 3186],
        "lookups resolved, hops and dead-finger probes billed on the stale ring"
    );

    // One stabilize + one fix-fingers call per round, no convergence loop.
    // Each round's bill starts where the previous one ended, so the third
    // includes the joins' own maintenance traffic.
    let round = |net: &mut ChordNet| {
        let changed = [net.stabilize_round(), net.fix_fingers_round()];
        let billed = [bill(net, MsgKind::Maintenance), bill(net, MsgKind::Failed)];
        net.reset_stats();
        (changed, fingerprint_ring(net), billed)
    };
    net.reset_stats();
    let first = round(&mut net);
    let second = round(&mut net);
    for i in 0..8u64 {
        let id = RingId::hash_bytes(format!("stale-ring-join-{seed}-{i}").as_bytes());
        let bootstrap = net.node_ids()[0];
        net.join(id, bootstrap).expect("bootstrap is alive");
    }
    let third = round(&mut net);
    assert_eq!(
        [first, second, third],
        [
            ([58, 3728], 0x7b61aeb2ef5c1daf75d5f5eba3d424bd, [4099, 9208]),
            ([29, 0], 0x5d1e22166916a796b6a778c3bdd3740f, [3951, 0]),
            ([37, 1093], 0x9a2d8bec3ea032d52128327f5d8c5174, [4307, 0]),
        ],
        "per round: [stabilize, fix_fingers] changes, ring fingerprint, [Maintenance, Failed] bill"
    );
}

// ---------------------------------------------------------------------
// Pinned learning runs whose index depends on *when* a delivered record
// is installed relative to delivery gating and to the same pass's
// removals. The values are those of the commit before index records were
// installed as one merge per inverted list.
// ---------------------------------------------------------------------

#[test]
fn lossy_replicated_learning_ends_in_the_pinned_index_and_bill() {
    use sprite::audit::determinism::{fingerprint_index, fingerprint_stats};

    let world = tiny_world();
    let cfg = SpriteConfig {
        replication: 3,
        ..SpriteConfig::default()
    };
    let mut sys = world.new_system(cfg);
    // One retransmission: most dropped records arrive on the retry (a
    // timeout is billed, the record is installed), a few drown for good.
    sys.net_mut().set_sim(SimConfig {
        seed: 5,
        loss: 0.05,
        max_retries: 1,
        ..SimConfig::default()
    });
    sys.publish_all();
    world.issue(&mut sys, &world.train, Schedule::WithoutRepeats);
    let records_before = {
        let s = sys.net().stats();
        s.count(MsgKind::IndexPublish) + s.count(MsgKind::Replication)
    };
    let added: usize = sys.learn(2).iter().map(|r| r.terms_added).sum();
    let stats = sys.net().stats();
    let delivered =
        stats.count(MsgKind::IndexPublish) + stats.count(MsgKind::Replication) - records_before;
    assert!(stats.count(MsgKind::Timeout) > 0, "no transmission dropped");
    assert!(
        0 < delivered && delivered < 3 * added as u64,
        "no learning record drowned: {delivered} of {} delivered",
        3 * added
    );
    assert_eq!(
        fingerprint_index(&sys),
        0xf8c04c25e352abc3d58a9b83735cbd81,
        "index fingerprint"
    );
    assert_eq!(
        fingerprint_stats(sys.net().stats()),
        0xb37c2b875a5f3d209228185ee6abafe3,
        "message and byte bill"
    );
}

#[test]
fn learning_pass_that_adds_and_removes_ends_in_the_pinned_index_and_bill() {
    use sprite::audit::determinism::{fingerprint_index, fingerprint_stats};
    use std::collections::BTreeSet;

    // Every (term → documents listed under it) across the deployment; at
    // replication 1 each term lives at exactly one peer.
    fn lists(sys: &SpriteSystem) -> BTreeMap<TermId, BTreeSet<DocId>> {
        let mut out: BTreeMap<TermId, BTreeSet<DocId>> = BTreeMap::new();
        for peer in sys.indexing_peers() {
            let st = sys.indexing_state(peer).expect("listed peer has state");
            for (t, list) in st.terms() {
                out.entry(t).or_default().extend(list.iter().map(|e| e.doc));
            }
        }
        out
    }

    let world = tiny_world();
    // A budget that is full after the first pass, so the second pass can
    // only add a term by retracting another.
    let cfg = SpriteConfig {
        max_terms: 6,
        ..SpriteConfig::default()
    };
    let mut sys = world.new_system(cfg);
    sys.publish_all();
    let (first, second) = world.train.split_at(world.train.len() / 2);
    world.issue(&mut sys, first, Schedule::WithoutRepeats);
    sys.learning_iteration();
    // Two late documents over thirteen terms nobody indexes yet. `a`
    // seeds its index with the rare term `r` (the list of `r` is `a`
    // alone), `b` merely contains `r`. Three queries over six other terms
    // of `a` then outrank `r` there, and one query `{r, y}` reaches `b`
    // through its seed term `y`: in the next pass `a` retracts `r` and `b`
    // publishes it.
    let indexed = lists(&sys);
    let free: Vec<TermId> = (0..sys.corpus().vocab().len() as u32)
        .rev()
        .map(TermId)
        .filter(|t| !indexed.contains_key(t))
        .take(13)
        .collect();
    let (r, y, a_rest, b_rest) = (free[0], free[1], &free[2..8], &free[8..12]);
    let weighted = |head: TermId, rest: &[TermId]| -> Vec<(TermId, u32)> {
        let terms = std::iter::once(head).chain(rest.iter().copied());
        terms.zip((1..10u32).rev()).collect()
    };
    let a = sys.insert_document(weighted(r, a_rest));
    let mut b_terms = weighted(y, b_rest);
    b_terms.push((r, 1));
    let b = sys.insert_document(b_terms);
    assert!(sys.published_terms(a).contains(&r) && !sys.published_terms(b).contains(&r));
    for _ in 0..3 {
        sys.issue_query(&Query::new(a_rest.to_vec()), 20);
    }
    sys.issue_query(&Query::new(vec![r, y]), 20);
    world.issue(&mut sys, second, Schedule::WithoutRepeats);
    assert_eq!(lists(&sys)[&r], BTreeSet::from([a]), "`a` alone lists `r`");
    let report = sys.learning_iteration();
    assert!(report.terms_added > 0 && report.terms_removed > 0);
    // The pass retracted the only entry of a list while another document
    // published the same term: the list is emptied and re-created.
    assert_eq!(lists(&sys)[&r], BTreeSet::from([b]), "`r` moved to `b`");
    assert_eq!(
        fingerprint_index(&sys),
        0x625a78c87ab8e1b266d4313a4d034034,
        "index fingerprint"
    );
    assert_eq!(
        fingerprint_stats(sys.net().stats()),
        0x7259c6ab6732dcc03b33b9066864910,
        "message and byte bill"
    );
}

// ---------------------------------------------------------------------
// Pinned composed-fault run: the write paths no other fingerprint covers
// — maintenance transfers and hand-over under link loss, and the §7
// advisory. The values are those of the commit before every index record
// went through one diff, one `deliver` and one `install`.
// ---------------------------------------------------------------------

#[test]
fn churn_lifecycle_and_repair_under_loss_end_in_the_pinned_state() {
    use sprite::audit::determinism::{fingerprint_index, fingerprint_owners, fingerprint_stats};
    use sprite::chord::{ChurnConfig, ChurnEngine};
    use sprite::corpus::{DocChurnConfig, DocChurnEngine};

    let world = tiny_world();
    let cfg = SpriteConfig {
        replication: 3,
        ..SpriteConfig::default()
    };
    // 64 peers and this link seed: among the maintenance transfers' fixed
    // per-destination links, some deliver on the retry and one drowns.
    let mut sys = SpriteSystem::build(world.synthetic.corpus().clone(), 64, cfg, 77);
    sys.net_mut().set_sim(SimConfig {
        seed: 5,
        loss: 0.02,
        max_retries: 1,
        ..SimConfig::default()
    });
    sys.publish_all();
    sys.replicate_indexes();
    world.issue(&mut sys, &world.train, Schedule::WithoutRepeats);

    let mut peers = ChurnEngine::new(
        ChurnConfig {
            join_rate: 1.5,
            leave_rate: 1.0,
            fail_rate: 0.5,
            ..ChurnConfig::default()
        },
        78,
    );
    let mut docs = DocChurnEngine::new(
        DocChurnConfig {
            insert_rate: 2.0,
            update_rate: 3.0,
            delete_rate: 2.0,
            min_docs: 8,
        },
        79,
        &world.synthetic,
    );
    let (mut joins, mut leaves, mut fails) = (0, 0, 0);
    let (mut handed_over, mut orphans_moved) = (0, 0);
    let (mut inserted, mut updated, mut deleted) = (0, 0, 0);
    for _ in 0..8 {
        let churn = sys.churn_tick(&mut peers);
        joins += churn.tick.joins;
        leaves += churn.tick.leaves;
        fails += churn.tick.fails;
        handed_over += churn.handed_over;
        let events = docs.plan(&sys.live_docs(), sys.corpus().len());
        let applied = sys.apply_doc_events(&events);
        inserted += applied.inserted;
        updated += applied.updated;
        deleted += applied.deleted;
        orphans_moved += sys.maintenance_round().orphans_moved;
    }
    assert!(joins > 0 && leaves > 0 && fails > 0, "peer churn");
    assert!(inserted > 0 && updated > 0 && deleted > 0, "document churn");
    assert!(handed_over > 0, "no leaving peer handed its lists over");
    assert!(orphans_moved > 0, "no orphaned entry was re-homed");

    let advisory = sys.hot_term_advisory(12);
    assert!(advisory.replacements > 0, "the advisory replaced nothing");
    let added: usize = sys.learn(2).iter().map(|r| r.terms_added).sum();
    assert!(added > 0, "learning published nothing");
    // Every message kind has a billing site that this run reaches: a
    // kind nothing bills any more shows up here by name.
    let unbilled: Vec<MsgKind> = MsgKind::all()
        .into_iter()
        .filter(|&kind| sys.net().stats().count(kind) == 0)
        .collect();
    assert_eq!(unbilled, [], "message kinds this run never billed");
    assert_eq!(
        fingerprint_index(&sys),
        0x3b725cb8bc6222f517b887c177c0bd3e,
        "index fingerprint"
    );
    assert_eq!(
        fingerprint_owners(&sys),
        0x5050c999fc5ed435987daa2c1e339c0f,
        "owner-state fingerprint"
    );
    assert_eq!(
        fingerprint_stats(sys.net().stats()),
        0xed948e92acd04123b314fc8ae2d122a2,
        "message and byte bill"
    );
}

// ---------------------------------------------------------------------
// Pinned repair run: every way an inverted list moves between peers —
// orphan re-homing, successor replication, hand-over — at 5 % loss, plus
// one replication pass that runs while tombstones are still pending. The
// values are those of the commit before lists travelled as packed blocks
// and landed through one block-level merge.
// ---------------------------------------------------------------------

#[test]
fn repair_rounds_under_loss_end_in_the_pinned_state() {
    use sprite::audit::determinism::{fingerprint_index, fingerprint_owners, fingerprint_stats};
    use sprite::chord::{ChurnConfig, ChurnEngine};
    use sprite::corpus::{DocChurnConfig, DocChurnEngine};

    let world = tiny_world();
    let cfg = SpriteConfig {
        replication: 3,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(world.synthetic.corpus().clone(), 48, cfg, 77);
    sys.net_mut().set_sim(SimConfig {
        seed: 9,
        loss: 0.05,
        max_retries: 1,
        latency: 10,
        jitter: 5,
        ..SimConfig::default()
    });
    sys.publish_all();
    sys.replicate_indexes();

    // Integer rates are exact counts: two joins, one leave, one failure
    // per tick; two inserts, three updates, two deletes.
    let mut peers = ChurnEngine::new(
        ChurnConfig {
            join_rate: 2.0,
            leave_rate: 1.0,
            fail_rate: 1.0,
            ..ChurnConfig::default()
        },
        91,
    );
    let mut docs = DocChurnEngine::new(
        DocChurnConfig {
            insert_rate: 2.0,
            update_rate: 3.0,
            delete_rate: 2.0,
            min_docs: 8,
        },
        92,
        &world.synthetic,
    );
    // Per round: tombstones reclaimed, orphans moved, entries replicated.
    let pinned_rounds: [(usize, usize, usize); 4] = [
        (67, 18, 1978),
        (57, 38, 2004),
        (46, 59, 2016),
        (61, 38, 2022),
    ];
    let mut handed_over = 0;
    let mut bare_replicated = None;
    for (round, &(reclaimed, orphans, replicated)) in pinned_rounds.iter().enumerate() {
        let churn = sys.churn_tick(&mut peers);
        assert_eq!(
            (churn.tick.joins, churn.tick.leaves, churn.tick.fails),
            (2, 1, 1),
            "peer churn of round {round}"
        );
        handed_over += churn.handed_over;
        let events = docs.plan(&sys.live_docs(), sys.corpus().len());
        let applied = sys.apply_doc_events(&events);
        assert!(
            applied.inserted > 0 && applied.updated > 0 && applied.deleted > 0,
            "document churn of round {round}"
        );
        if round == 1 {
            // A replication pass nobody ran `reclaim_tombstones` before:
            // lists with dead entries ship their live ones only.
            assert!(sys.pending_tombstones() > 0, "no tombstone is pending");
            bare_replicated = Some(sys.replicate_indexes());
        }
        let report = sys.maintenance_round();
        assert_eq!(
            report.tombstones_reclaimed, reclaimed,
            "tombstones reclaimed in round {round}"
        );
        assert_eq!(
            report.orphans_moved, orphans,
            "orphans moved in round {round}"
        );
        assert_eq!(
            report.replicated, replicated,
            "entries replicated in round {round}"
        );
        // Most lists land where an equal copy already is; a round in which
        // none does means the merge's fast path stopped firing.
        assert!(
            0 < report.lists_unchanged && report.lists_unchanged <= report.lists_shipped,
            "{} of {} shipped lists unchanged in round {round}",
            report.lists_unchanged,
            report.lists_shipped
        );
    }
    assert_eq!(bare_replicated, Some(1928), "the bare replication pass");
    assert_eq!(handed_over, 145, "entries handed over by leaving peers");

    let stats = sys.net().stats();
    let bill = |kind| (stats.count(kind), stats.bytes(kind));
    assert_eq!(
        bill(MsgKind::Replication),
        (1802, 497_982),
        "replication bill"
    );
    assert_eq!(bill(MsgKind::Maintenance), (8524, 0), "maintenance bill");
    assert_eq!(bill(MsgKind::Timeout), (1849, 0), "timeout bill");
    assert_eq!(
        fingerprint_index(&sys),
        0xade42b3057249f8b17e876ceaf42d2e9,
        "index fingerprint"
    );
    assert_eq!(
        fingerprint_owners(&sys),
        0xf67745e83704f237f5f1351e4192b94f,
        "owner-state fingerprint"
    );
    assert_eq!(
        fingerprint_stats(stats),
        0xca51f6a6ec01d3a61781390470f20109,
        "message and byte bill"
    );
}
