//! Integration fixtures for the IR substrate: vocabulary round-trips
//! through the analyzer, and hand-computed ranking-order fixtures for the
//! centralized reference engine — small enough to verify by hand, exact
//! enough to pin the ordering contract every distributed figure
//! normalizes against.

use sprite_ir::{
    evaluate_hits_at_k, CentralizedEngine, Corpus, DocId, Query, SearchScratch, Similarity, TermId,
    Vocab,
};
use sprite_text::Analyzer;

/// The fixture corpus, built from raw term-count vectors so every weight
/// is hand-checkable:
///
/// | doc | alpha | beta | gamma | len |
/// |-----|-------|------|-------|-----|
/// | d0  | 4     |      |       | 4   |
/// | d1  | 1     | 3    |       | 4   |
/// | d2  |       | 2    | 2     | 4   |
/// | d3  |       |      | 4     | 4   |
///
/// df(alpha) = df(beta) = df(gamma) = 2 over N = 4 documents.
fn fixture() -> (Corpus, [TermId; 3]) {
    let mut corpus = Corpus::new();
    let alpha = corpus.vocab_mut().intern("alpha");
    let beta = corpus.vocab_mut().intern("beta");
    let gamma = corpus.vocab_mut().intern("gamma");
    corpus.add_document(vec![(alpha, 4)]);
    corpus.add_document(vec![(alpha, 1), (beta, 3)]);
    corpus.add_document(vec![(beta, 2), (gamma, 2)]);
    corpus.add_document(vec![(gamma, 4)]);
    (corpus, [alpha, beta, gamma])
}

#[test]
fn vocabulary_round_trips_through_the_analyzer() {
    let analyzer = Analyzer::standard();
    let mut vocab = Vocab::new();
    // Intern the analyzed forms of a realistic passage (stemming folds
    // inflections together) and demand a perfect bidirectional map.
    let text = "Peers publish documents; published documents reach querying peers.";
    let counts = analyzer.term_counts(text);
    let ids: Vec<TermId> = counts.counts.keys().map(|t| vocab.intern(t)).collect();
    // Idempotent: re-interning the same strings mints no new ids.
    let before = vocab.len();
    #[allow(clippy::iter_over_hash_type)] // one assertion per term, order-free
    for t in counts.counts.keys() {
        assert_eq!(vocab.intern(t), vocab.get(t).expect("already interned"));
    }
    assert_eq!(vocab.len(), before);
    // Inverse maps agree: id -> string -> id is the identity, and the
    // iterator enumerates exactly the interned set in id order.
    for &id in &ids {
        assert_eq!(vocab.get(vocab.term(id)), Some(id));
    }
    let enumerated: Vec<(TermId, &str)> = vocab.iter().collect();
    assert_eq!(enumerated.len(), vocab.len());
    for (i, &(id, term)) in enumerated.iter().enumerate() {
        assert_eq!(id, TermId(i as u32));
        assert_eq!(vocab.term(id), term);
    }
    // Stemming folded the plural: one shared id serves both surface forms.
    assert!(vocab.get("peer").is_some());
    assert!(vocab.get("peers").is_none());
}

#[test]
fn single_term_query_ranks_by_normalized_tf() {
    let (corpus, [alpha, _, _]) = fixture();
    let engine = CentralizedEngine::build(&corpus);
    // Both alpha documents share df and doc length, so cosine order is
    // decided by tf alone: d0 (tf 4) strictly above d1 (tf 1). The other
    // two documents must not appear at all.
    let hits = engine.search(&Query::new(vec![alpha]), 10);
    let order: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
    assert_eq!(order, [DocId(0), DocId(1)]);
    assert!(hits[0].score > hits[1].score);
    assert!(hits.iter().all(|h| h.score > 0.0));
}

#[test]
fn multi_term_query_prefers_the_document_covering_both_terms() {
    let (corpus, [alpha, beta, _]) = fixture();
    let engine = CentralizedEngine::build(&corpus);
    // d1 is the only document containing both query terms; with equal
    // document frequencies everywhere it must outrank the single-term
    // matches d0 and d2.
    let hits = engine.search(&Query::new(vec![alpha, beta]), 10);
    assert_eq!(hits[0].doc, DocId(1));
    let docs: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
    assert!(docs.contains(&DocId(0)) && docs.contains(&DocId(2)));
    assert!(!docs.contains(&DocId(3)), "d3 shares no query term");
}

#[test]
fn ubiquitous_terms_carry_no_signal() {
    // A term present in every document has idf log(N/N) = 0: querying it
    // alone matches nothing, and adding it to a query must not disturb
    // the ranking the discriminative terms produce.
    let (mut corpus, [alpha, _, _]) = fixture();
    let common = corpus.vocab_mut().intern("common");
    for d in 0..corpus.len() {
        let mut terms = corpus.doc(DocId(d as u32)).terms().to_vec();
        terms.push((common, 1));
        corpus.replace_document(DocId(d as u32), terms);
    }
    let engine = CentralizedEngine::build(&corpus);
    assert!(engine.search(&Query::new(vec![common]), 10).is_empty());
    let with: Vec<DocId> = engine
        .search(&Query::new(vec![alpha, common]), 10)
        .iter()
        .map(|h| h.doc)
        .collect();
    let without: Vec<DocId> = engine
        .search(&Query::new(vec![alpha]), 10)
        .iter()
        .map(|h| h.doc)
        .collect();
    assert_eq!(with, without);
}

#[test]
fn score_ties_break_by_ascending_doc_id() {
    // Two bit-identical documents tie exactly; the engine promises a
    // total order, so the smaller id always comes first.
    let mut corpus = Corpus::new();
    let t = corpus.vocab_mut().intern("twin");
    let u = corpus.vocab_mut().intern("unique");
    corpus.add_document(vec![(t, 2)]);
    corpus.add_document(vec![(t, 2)]);
    corpus.add_document(vec![(u, 1)]);
    let engine = CentralizedEngine::build(&corpus);
    let hits = engine.search(&Query::new(vec![t]), 10);
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].doc, DocId(0));
    assert_eq!(hits[1].doc, DocId(1));
    assert_eq!(hits[0].score, hits[1].score);
}

#[test]
fn lee_second_normalizes_by_distinct_terms_not_vector_norm() {
    // Under the paper's simplified similarity a focused document (one
    // distinct term) divides by √1 while cosine divides by its full
    // norm — so against a topically diluted document the orders differ
    // in a hand-checkable way: Lee keeps the raw dot product dominant.
    let mut corpus = Corpus::new();
    let q = corpus.vocab_mut().intern("query-term");
    let noise = corpus.vocab_mut().intern("noise");
    // d0: the query term once, amid heavy off-query mass.
    corpus.add_document(vec![(q, 1), (noise, 1)]);
    // d1: the query term once, nothing else.
    corpus.add_document(vec![(q, 1)]);
    // Padding so neither term is ubiquitous.
    corpus.add_document(vec![(noise, 3)]);
    let cosine = CentralizedEngine::build(&corpus);
    let lee = CentralizedEngine::with_similarity(&corpus, Similarity::LeeSecond);
    let probe = Query::new(vec![q]);
    let top_lee = lee.search(&probe, 1)[0].doc;
    assert_eq!(top_lee, DocId(1), "√distinct favors the focused document");
    // Both engines agree on *who matches*; only the order may differ.
    let match_set = |e: &CentralizedEngine| {
        let mut d: Vec<DocId> = e.search(&probe, 10).iter().map(|h| h.doc).collect();
        d.sort_unstable();
        d
    };
    assert_eq!(match_set(&cosine), match_set(&lee));
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
    let (corpus, [alpha, beta, gamma]) = fixture();
    let engine = CentralizedEngine::build(&corpus);
    let queries = [
        Query::new(vec![alpha]),
        Query::new(vec![beta, gamma]),
        Query::new(vec![alpha, beta, gamma]),
        Query::new(vec![gamma, gamma, alpha]),
    ];
    let mut scratch = SearchScratch::new();
    for q in &queries {
        let fresh = engine.search(q, 10);
        let reused = engine.search_with(q, 10, &mut scratch);
        assert_eq!(fresh, reused, "scratch reuse changed a ranking");
    }
}

#[test]
fn precision_recall_fixture_is_exact() {
    let (corpus, [alpha, beta, _]) = fixture();
    let engine = CentralizedEngine::build(&corpus);
    let hits = engine.search(&Query::new(vec![alpha, beta]), 2);
    // Declare d1 and d3 relevant: of the top 2 ranked (d1 first), exactly
    // one is relevant — precision 1/2, recall 1/2.
    let relevant = [DocId(1), DocId(3)].into_iter().collect();
    let pr = evaluate_hits_at_k(&hits, &relevant, 2);
    assert!((pr.precision - 0.5).abs() < 1e-12);
    assert!((pr.recall - 0.5).abs() < 1e-12);
}
