//! Cross-crate lifecycle tests: live corpus dynamics through the facade —
//! publish → update → query, publish → delete → churn → maintenance — with
//! the lifecycle invariants checked end to end: an updated document is
//! reachable by its new terms and not by its removed ones, and a deleted
//! document stays dead through peer *failures* and replica repair. It does
//! not yet stay dead through peer *joins*: a newcomer can push a replica
//! out of a term's replica set, the removal never reaches that copy, and
//! orphan re-homing then ships it back as if it were live — the open
//! `deleted_document_stays_dead_when_a_join_displaces_a_replica` below
//! (ROADMAP item 1).

use sprite::chord::{ChurnConfig, ChurnEngine};
use sprite::core::{SpriteConfig, SpriteSystem};
use sprite::corpus::{CorpusConfig, DocChurnConfig, DocChurnEngine, SyntheticCorpus};
use sprite::ir::{DocId, Query, TermId};

fn replicated_system(seed: u64, replication: usize) -> (SyntheticCorpus, SpriteSystem) {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(seed));
    let cfg = SpriteConfig {
        replication,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 32, cfg, seed);
    sys.publish_all();
    if replication > 1 {
        sys.replicate_indexes();
    }
    (sc, sys)
}

/// A document whose published terms, queried back, actually return it —
/// so reachability assertions after a mutation are meaningful.
fn self_answering_doc(sys: &mut SpriteSystem, k: usize) -> (DocId, Query) {
    (0..sys.corpus().len())
        .map(|i| DocId(i as u32))
        .find_map(|d| {
            let terms = sys.published_terms(d).to_vec();
            if terms.is_empty() {
                return None;
            }
            let q = Query::new(terms);
            sys.issue_query(&q, k)
                .iter()
                .any(|h| h.doc == d)
                .then_some((d, q))
        })
        .expect("some published document answers its own terms")
}

#[test]
fn updated_document_is_reachable_by_new_terms_and_not_by_removed_ones() {
    let (sc, mut sys) = replicated_system(61, 2);
    let (doc, _) = self_answering_doc(&mut sys, 50);
    let old_published = sys.published_terms(doc).to_vec();

    // Rewrite the document around a different topic's core vocabulary,
    // keeping none of its currently published terms: every index term
    // must flip.
    let fresh: Vec<(TermId, u32)> = (0..sc.config().n_topics)
        .flat_map(|t| sc.topic_core(t).to_vec())
        .filter(|t| !old_published.contains(t))
        .take(12)
        .enumerate()
        .map(|(i, t)| (t, 12 - i as u32))
        .collect();
    assert!(
        fresh.len() >= 8,
        "enough foreign vocabulary to rewrite with"
    );
    let report = sys.update_document(doc, fresh.clone());
    assert!(report.terms_added > 0, "the rewrite must publish new terms");
    assert!(
        report.terms_removed > 0,
        "the rewrite must retract old terms"
    );

    // Reachable by what it now publishes…
    let new_published = sys.published_terms(doc).to_vec();
    assert!(!new_published.is_empty());
    let hits = sys.issue_query(&Query::new(new_published.clone()), 50);
    assert!(
        hits.iter().any(|h| h.doc == doc),
        "the updated document must answer its new index terms"
    );

    // …and unreachable by what it no longer publishes.
    let removed: Vec<TermId> = old_published
        .iter()
        .copied()
        .filter(|t| !new_published.contains(t))
        .collect();
    assert!(!removed.is_empty(), "some old terms were retracted");
    for &t in &removed {
        assert!(
            !sys.issue_query(&Query::new(vec![t]), 50)
                .iter()
                .any(|h| h.doc == doc),
            "a retracted term still reaches the updated document"
        );
    }
}

#[test]
fn deleted_document_never_resurrects_through_replica_repair() {
    let (_, mut sys) = replicated_system(63, 3);
    let (doc, probe) = self_answering_doc(&mut sys, 30);

    let retracted = sys.delete_document(doc);
    assert!(retracted > 0, "the document had published terms to retract");
    assert!(
        sys.pending_tombstones() > 0,
        "lazy deletion leaves tombstones for maintenance to reclaim"
    );
    // Invisible immediately, tombstones still pending.
    assert!(
        !sys.issue_query(&probe, 30).iter().any(|h| h.doc == doc),
        "a deleted document surfaced before reclamation"
    );

    // Churn the ring, then let maintenance repair orphans and refresh
    // replicas: the deletion must survive both.
    sys.fail_random_peers(4, 64);
    let mut reclaimed = 0;
    for _ in 0..2 {
        reclaimed += sys.maintenance_round().tombstones_reclaimed;
    }
    assert!(reclaimed > 0, "maintenance must reclaim the tombstone debt");
    assert_eq!(
        sys.pending_tombstones(),
        0,
        "no tombstone survives two maintenance rounds at live peers"
    );
    assert!(
        !sys.issue_query(&probe, 30).iter().any(|h| h.doc == doc),
        "replica repair resurrected a deleted document"
    );

    // Not even a full republish or a learning pass may bring it back.
    sys.publish_all();
    sys.learning_iteration();
    sys.maintenance_round();
    assert!(sys.published_terms(doc).is_empty());
    assert!(
        !sys.issue_query(&probe, 30).iter().any(|h| h.doc == doc),
        "a later publish/learn pass resurrected a deleted document"
    );
}

#[test]
#[ignore = "open: ROADMAP item 1 — displaced replicas never hear removals"]
fn deleted_document_stays_dead_when_a_join_displaces_a_replica() {
    // Loss-free, one join: the newcomer lands inside the replica set of one
    // of document 1's terms, so the old third replica is no longer among
    // the peers `delete_document` tells. Its stale copy is then re-homed by
    // the orphan pass and fanned out by the replication pass.
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(7));
    let cfg = SpriteConfig {
        replication: 3,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 40, cfg, 7);
    sys.publish_all();
    sys.replicate_indexes();
    let joins_only = ChurnConfig {
        join_rate: 2.0,
        leave_rate: 0.0,
        fail_rate: 0.0,
        ..ChurnConfig::default()
    };
    let joined = sys
        .churn_tick(&mut ChurnEngine::new(joins_only, 99))
        .tick
        .joins;
    assert!(joined > 0, "the tick must add a peer");

    let doc = DocId(1);
    let probe = Query::new(sys.published_terms(doc).to_vec());
    assert!(sys.delete_document(doc) > 0);
    sys.maintenance_round();

    for peer in sys.indexing_peers() {
        let st = sys.indexing_state(peer).expect("listed peer has state");
        for (t, list) in st.terms() {
            assert!(
                list.iter().all(|e| e.doc != doc),
                "peer {peer:?} lists the deleted document under term {t:?} again"
            );
        }
    }
    assert!(
        !sys.issue_query(&probe, 50).iter().any(|h| h.doc == doc),
        "the deleted document answers its own terms"
    );
}

#[test]
fn mixed_churn_stream_upholds_the_lifecycle_invariants() {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(65));
    let cfg = SpriteConfig {
        replication: 2,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 32, cfg, 65);
    sys.publish_all();
    sys.replicate_indexes();
    let mut engine = DocChurnEngine::new(
        DocChurnConfig {
            insert_rate: 2.0,
            update_rate: 3.0,
            delete_rate: 2.0,
            min_docs: 8,
        },
        66,
        &sc,
    );
    let queries: Vec<Query> = sc
        .seed_queries()
        .iter()
        .take(10)
        .map(|s| s.query.clone())
        .collect();
    let mut deleted_total = 0;
    for tick in 0..6 {
        let live = sys.live_docs();
        let events = engine.plan(&live, sys.corpus().len());
        let report = sys.apply_doc_events(&events);
        deleted_total += report.deleted;
        if tick % 2 == 1 {
            sys.maintenance_round();
        }
        // Mid-stream, tombstones pending or not: no query surfaces a
        // deleted document.
        for q in &queries {
            for hit in sys.issue_query(q, 20) {
                assert!(
                    !sys.is_deleted(hit.doc),
                    "tick {tick}: a live query returned deleted {:?}",
                    hit.doc
                );
            }
        }
    }
    assert!(deleted_total > 0, "the stream must exercise deletion");
    sys.maintenance_round();
    assert_eq!(sys.pending_tombstones(), 0);

    // Freshly inserted documents are first-class citizens: reachable by
    // their own published terms like any build-time document.
    let inserted: Vec<DocId> = sys
        .live_docs()
        .into_iter()
        .filter(|d| d.index() >= sc.corpus().len())
        .collect();
    assert!(!inserted.is_empty(), "the stream must insert documents");
    let reachable = inserted
        .iter()
        .filter(|&&d| {
            let terms = sys.published_terms(d).to_vec();
            !terms.is_empty()
                && sys
                    .issue_query(&Query::new(terms), 50)
                    .iter()
                    .any(|h| h.doc == d)
        })
        .count();
    assert!(
        reachable * 2 > inserted.len(),
        "most inserted documents must answer their own terms: {reachable}/{}",
        inserted.len()
    );
}
