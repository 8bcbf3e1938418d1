//! Property-style tests over the learning pipeline and the workload
//! generator — the invariants the paper's correctness argument rests on.
//!
//! Formerly `proptest` suites; now deterministic seeded loops over
//! `DetRng`-generated inputs so the workspace builds with an empty registry.

use sprite::core::{algorithm1, naive_select, q_score};
use sprite::ir::{DocId, Document, Query, TermId};
use sprite::util::{derive_rng, DetRng};

fn rng(label: &str) -> DetRng {
    derive_rng(0x5EED, label)
}

/// A document over a small term universe (3..30 distinct terms from 0..50).
fn gen_doc(rng: &mut DetRng) -> Document {
    let n = rng.gen_range(3..30);
    let mut m = std::collections::BTreeMap::new();
    while m.len() < n {
        m.insert(rng.gen_range(0..50) as u32, rng.gen_range(1..20) as u32);
    }
    Document::new(
        DocId(0),
        m.into_iter().map(|(t, c)| (TermId(t), c)).collect(),
    )
}

/// A query over the same universe (plus misses from 50..80).
fn gen_query(rng: &mut DetRng) -> Query {
    let len = rng.gen_range(1..6);
    Query::new(
        (0..len)
            .map(|_| TermId(rng.gen_range(0..80) as u32))
            .collect(),
    )
}

/// A query history of 0..40 queries.
fn gen_history(rng: &mut DetRng) -> Vec<Query> {
    let n = rng.gen_range(0..40);
    (0..n).map(|_| gen_query(rng)).collect()
}

/// The paper's equivalence claim for Algorithm 1: incremental
/// processing over arbitrary batch boundaries equals the naive
/// recompute over the full history (max is associative, QF is a sum).
#[test]
fn algorithm1_incremental_equals_naive() {
    let mut r = rng("alg1-incremental");
    for _ in 0..200 {
        let doc = gen_doc(&mut r);
        let history = gen_history(&mut r);
        let c1 = r.gen_range(0..40).min(history.len());
        let c2 = r.gen_range(0..40).min(history.len()).max(c1);
        let budget = r.gen_range(1..12);
        let whole = naive_select(&doc, &history, budget);
        let mut stats = std::collections::HashMap::new();
        let _ = algorithm1(&doc, &mut stats, &history[..c1], budget);
        let _ = algorithm1(&doc, &mut stats, &history[c1..c2], budget);
        let inc = algorithm1(&doc, &mut stats, &history[c2..], budget);
        assert_eq!(whole, inc);
    }
}

/// Selected terms always belong to the document or its frequency
/// fallback, never exceed the budget, and contain no duplicates.
#[test]
fn selection_wellformed() {
    let mut r = rng("selection");
    for _ in 0..200 {
        let doc = gen_doc(&mut r);
        let history = gen_history(&mut r);
        let budget = r.gen_range(0..15);
        let mut stats = std::collections::HashMap::new();
        let chosen = algorithm1(&doc, &mut stats, &history, budget);
        assert!(chosen.len() <= budget);
        let set: std::collections::HashSet<_> = chosen.iter().collect();
        assert_eq!(set.len(), chosen.len(), "duplicates in selection");
        for t in &chosen {
            assert!(doc.contains(*t), "selected term not in document");
        }
    }
}

/// qScore is a fraction in [0, 1], 1 iff the document covers the whole
/// query.
#[test]
fn q_score_bounds() {
    let mut r = rng("qscore");
    for _ in 0..500 {
        let doc = gen_doc(&mut r);
        let query = gen_query(&mut r);
        let s = q_score(&query, &doc);
        assert!((0.0..=1.0).contains(&s));
        let all_in = query.term_counts().all(|(t, _)| doc.contains(t));
        assert_eq!(s == 1.0, all_in);
    }
}

/// Adding more queries never decreases any term's QF statistic, and
/// never decreases its best qScore.
#[test]
fn stats_are_monotone() {
    let mut r = rng("stats-monotone");
    for _ in 0..200 {
        let doc = gen_doc(&mut r);
        let history = gen_history(&mut r);
        let extra = gen_history(&mut r);
        let mut stats = std::collections::HashMap::new();
        let _ = algorithm1(&doc, &mut stats, &history, 10);
        let before = stats.clone();
        let _ = algorithm1(&doc, &mut stats, &extra, 10);
        for (t, s) in &before {
            let after = stats[t];
            assert!(after.qf >= s.qf);
            assert!(after.qs >= s.qs);
        }
    }
}

mod workload {
    use super::rng;
    use sprite::corpus::{
        generate_workload, issue_order, split_train_test, CorpusConfig, GenConfig, Schedule,
        SyntheticCorpus,
    };
    use sprite::ir::CentralizedEngine;

    /// The generated workload always has (k+1) queries per seed, every
    /// derived query keeps ≥ ⌈O·|Q|⌉ − |Q| of the seed's terms, and no
    /// derived query is empty.
    #[test]
    fn workload_invariants() {
        let mut r = rng("workload");
        for _ in 0..8 {
            let seed = r.gen_range(0..500) as u64;
            let k = r.gen_range(1..6);
            let overlap = 0.3 + r.gen_f64() * 0.7;
            let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(seed));
            let engine = CentralizedEngine::build(sc.corpus());
            let seeds = sc.seed_queries();
            let cfg = GenConfig {
                k_per_seed: k,
                overlap,
                top_e: 60,
                seed,
                ..GenConfig::default()
            };
            let w = generate_workload(sc.corpus(), &engine, &seeds[..3], &cfg);
            assert_eq!(w.len(), 3 * (k + 1));
            for gq in &w {
                assert!(!gq.query.is_empty());
                if !gq.is_original {
                    let orig = &seeds[gq.seed_idx].query;
                    let keep = (overlap * orig.distinct_len() as f64).round() as usize;
                    let shared = gq
                        .query
                        .term_counts()
                        .filter(|(t, _)| orig.contains(*t))
                        .count();
                    assert!(
                        shared >= keep.min(orig.distinct_len()),
                        "derived query shares {shared} terms, expected >= {keep}"
                    );
                }
            }
        }
    }

    /// Train/test splits partition the workload for any size.
    #[test]
    fn split_partitions() {
        let mut r = rng("split");
        for _ in 0..50 {
            let n = r.gen_range(0..500);
            let seed = r.gen_u64();
            let (train, test) = split_train_test(n, seed);
            assert_eq!(train.len() + test.len(), n);
            let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), n);
        }
    }

    /// Issue orders only reference valid queries; w/o-r is a permutation.
    #[test]
    fn schedules_valid() {
        let mut r = rng("schedules");
        for _ in 0..50 {
            let n = r.gen_range(1..100);
            let seed = r.gen_u64();
            let total = r.gen_range(1..300);
            let wor = issue_order(n, Schedule::WithoutRepeats, seed);
            let mut sorted = wor.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            let z = issue_order(n, Schedule::Zipf { slope: 0.5, total }, seed);
            assert_eq!(z.len(), total);
            assert!(z.iter().all(|&i| i < n));
        }
    }
}
