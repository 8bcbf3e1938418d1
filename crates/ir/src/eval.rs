//! Retrieval-effectiveness evaluation: precision, recall, and the
//! paper's *ratio over the centralized system* reporting.
//!
//! §6 of the paper: "If the top K documents are returned for a query, K′ of
//! them are relevant to the query and there are R relevant documents in the
//! entire corpus, then the precision is defined as K′/K and the recall as
//! K′/R. All precision and recall results presented later are in terms of
//! the ratio of a specific system over the centralized system."

use std::collections::HashSet;

use crate::doc::DocId;
use crate::rank::Hit;

/// Precision and recall of one result list against a relevance set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrEval {
    /// K′/K — fraction of returned documents that are relevant.
    pub precision: f64,
    /// K′/R — fraction of relevant documents that were returned.
    pub recall: f64,
    /// K′ — number of relevant documents returned.
    pub hits: usize,
}

/// Evaluate the top `k` of `results` against `relevant`.
///
/// `results` longer than `k` are truncated; shorter lists are evaluated as
/// returned (precision denominator is `k`, matching the paper's fixed-K
/// definition — an empty tail counts against precision).
#[must_use]
pub fn evaluate_at_k(results: &[DocId], relevant: &HashSet<DocId>, k: usize) -> PrEval {
    if k == 0 || relevant.is_empty() {
        return PrEval::default();
    }
    let hits = results
        .iter()
        .take(k)
        .filter(|d| relevant.contains(d))
        .count();
    PrEval {
        precision: hits as f64 / k as f64,
        recall: hits as f64 / relevant.len() as f64,
        hits,
    }
}

/// Convenience: evaluate ranked [`Hit`]s. Allocation-free — this sits on
/// the per-query evaluation hot path.
#[must_use]
pub fn evaluate_hits_at_k(results: &[Hit], relevant: &HashSet<DocId>, k: usize) -> PrEval {
    if k == 0 || relevant.is_empty() {
        return PrEval::default();
    }
    let hits = results
        .iter()
        .take(k)
        .filter(|h| relevant.contains(&h.doc))
        .count();
    PrEval {
        precision: hits as f64 / k as f64,
        recall: hits as f64 / relevant.len() as f64,
        hits,
    }
}

/// Ratio of a system's precision over the centralized reference, averaged
/// over a query set.
///
/// The paper reports `system / centralized` per query; queries where the
/// centralized system itself scores zero are skipped (the ratio is
/// undefined — neither system can be distinguished on them). There is no
/// separate recall ratio: at one K and one relevant set a query's
/// precision ratio and recall ratio both reduce to
/// `hits_system / hits_centralized`, so the two means are equal. (A ratio
/// of means, `Σ hits_s/|rel|` over `Σ hits_c/|rel|`, would separate
/// them; the paper's per-query definition cannot.)
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RatioEval {
    /// Mean precision ratio over queries with a defined ratio.
    pub precision_ratio: f64,
    /// Number of queries contributing to the mean.
    pub queries: usize,
}

/// Accumulator for [`RatioEval`] across a query set.
#[derive(Clone, Debug, Default)]
pub struct RatioAccumulator {
    p_sum: f64,
    p_n: usize,
}

impl RatioAccumulator {
    /// Fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one query's evaluation for the system under test and the
    /// centralized reference.
    pub fn add(&mut self, system: PrEval, centralized: PrEval) {
        if centralized.precision > 0.0 {
            self.p_sum += system.precision / centralized.precision;
            self.p_n += 1;
        }
    }

    /// Finish, producing the mean ratio.
    #[must_use]
    pub fn finish(&self) -> RatioEval {
        RatioEval {
            precision_ratio: if self.p_n == 0 {
                0.0
            } else {
                self.p_sum / self.p_n as f64
            },
            queries: self.p_n,
        }
    }
}

/// Average precision of a ranked list: the mean of precision@r over the
/// ranks r holding relevant documents, with unretrieved relevant documents
/// contributing zero. Averaging this over queries gives MAP.
#[must_use]
pub fn average_precision(results: &[DocId], relevant: &HashSet<DocId>) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (rank, d) in results.iter().enumerate() {
        if relevant.contains(d) {
            hits += 1;
            sum += hits as f64 / (rank + 1) as f64;
        }
    }
    sum / relevant.len() as f64
}

/// Normalized discounted cumulative gain at `k` with binary relevance:
/// `DCG = Σ rel_i / log₂(i+1)` over the top k, normalized by the ideal
/// ordering's DCG.
#[must_use]
pub fn ndcg_at_k(results: &[DocId], relevant: &HashSet<DocId>, k: usize) -> f64 {
    if k == 0 || relevant.is_empty() {
        return 0.0;
    }
    let dcg: f64 = results
        .iter()
        .take(k)
        .enumerate()
        .filter(|(_, d)| relevant.contains(d))
        .map(|(i, _)| 1.0 / ((i + 2) as f64).log2())
        .sum();
    let ideal: f64 = (0..relevant.len().min(k))
        .map(|i| 1.0 / ((i + 2) as f64).log2())
        .sum();
    dcg / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: &[u32]) -> HashSet<DocId> {
        ids.iter().map(|&i| DocId(i)).collect()
    }

    fn docs(ids: &[u32]) -> Vec<DocId> {
        ids.iter().map(|&i| DocId(i)).collect()
    }

    #[test]
    fn precision_and_recall_basic() {
        // Top-4: two relevant out of 5 total relevant.
        let e = evaluate_at_k(&docs(&[1, 2, 3, 4]), &rel(&[2, 4, 10, 11, 12]), 4);
        assert!((e.precision - 0.5).abs() < 1e-12);
        assert!((e.recall - 0.4).abs() < 1e-12);
        assert_eq!(e.hits, 2);
    }

    #[test]
    fn truncates_to_k() {
        // Relevant doc sits at rank 5; evaluating at k=3 misses it.
        let e = evaluate_at_k(&docs(&[1, 2, 3, 4, 9]), &rel(&[9]), 3);
        assert_eq!(e.hits, 0);
        assert_eq!(e.precision, 0.0);
    }

    #[test]
    fn short_result_list_penalizes_precision() {
        // Only 2 results returned but K = 10: precision denominator is K.
        let e = evaluate_at_k(&docs(&[1, 2]), &rel(&[1, 2]), 10);
        assert!((e.precision - 0.2).abs() < 1e-12);
        assert!((e.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_retrieval() {
        let e = evaluate_at_k(&docs(&[5, 6]), &rel(&[5, 6]), 2);
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(evaluate_at_k(&docs(&[1]), &rel(&[1]), 0), PrEval::default());
        assert_eq!(evaluate_at_k(&docs(&[1]), &rel(&[]), 5), PrEval::default());
        let e = evaluate_at_k(&[], &rel(&[1]), 5);
        assert_eq!(e.precision, 0.0);
        assert_eq!(e.recall, 0.0);
    }

    #[test]
    fn ratio_accumulator_averages() {
        let mut acc = RatioAccumulator::new();
        // Query 1: the system finds half of what the reference finds.
        acc.add(
            evaluate_at_k(&docs(&[1, 9, 9, 9]), &rel(&[1, 2, 3]), 4),
            evaluate_at_k(&docs(&[1, 2, 9, 9]), &rel(&[1, 2, 3]), 4),
        );
        // Query 2: as much as the reference.
        acc.add(
            evaluate_at_k(&docs(&[5, 9]), &rel(&[5]), 2),
            evaluate_at_k(&docs(&[5, 8]), &rel(&[5]), 2),
        );
        let r = acc.finish();
        assert!((r.precision_ratio - 0.75).abs() < 1e-12);
        assert_eq!(r.queries, 2);
    }

    #[test]
    fn precision_and_recall_give_one_ratio_per_query() {
        // At one K and one relevant set, both ratios are hits_s / hits_c:
        // K and |rel| cancel. This is why `RatioEval` carries one ratio.
        let relevant = rel(&[1, 2, 3, 4, 5, 6, 7]);
        let hits = |ids: &[u32]| -> Vec<Hit> {
            ids.iter()
                .map(|&i| Hit {
                    doc: DocId(i),
                    score: 1.0,
                })
                .collect()
        };
        for k in [3, 5, 20] {
            let system = evaluate_hits_at_k(&hits(&[1, 9, 3, 8, 10]), &relevant, k);
            let central = evaluate_hits_at_k(&hits(&[1, 2, 3, 4, 11]), &relevant, k);
            let by_precision = system.precision / central.precision;
            let by_recall = system.recall / central.recall;
            assert!((by_precision - by_recall).abs() < 1e-12, "k = {k}");
            assert!((by_precision - system.hits as f64 / central.hits as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn ratio_skips_undefined_queries() {
        let mut acc = RatioAccumulator::new();
        // Centralized finds nothing: ratio undefined, skipped entirely.
        acc.add(
            PrEval {
                precision: 0.5,
                recall: 0.5,
                hits: 1,
            },
            PrEval::default(),
        );
        let r = acc.finish();
        assert_eq!(r.queries, 0);
        assert_eq!(r.precision_ratio, 0.0);
    }

    #[test]
    fn average_precision_classic_example() {
        // Relevant at ranks 1, 3, 5 (1-based) of 3 relevant total:
        // AP = (1/1 + 2/3 + 3/5) / 3.
        let ap = average_precision(&docs(&[9, 1, 8, 2, 7]), &rel(&[9, 8, 7]));
        assert!((ap - (1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn average_precision_penalizes_unretrieved() {
        // Only 1 of 4 relevant retrieved, at rank 1: AP = 1/4.
        let ap = average_precision(&docs(&[5]), &rel(&[5, 6, 7, 8]));
        assert!((ap - 0.25).abs() < 1e-12);
        assert_eq!(average_precision(&docs(&[1]), &rel(&[])), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let n = ndcg_at_k(&docs(&[1, 2, 3]), &rel(&[1, 2, 3]), 3);
        assert!((n - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_prefers_early_hits() {
        let early = ndcg_at_k(&docs(&[1, 9, 8]), &rel(&[1]), 3);
        let late = ndcg_at_k(&docs(&[9, 8, 1]), &rel(&[1]), 3);
        assert!(early > late);
        assert!((early - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_degenerate_inputs() {
        assert_eq!(ndcg_at_k(&docs(&[1]), &rel(&[1]), 0), 0.0);
        assert_eq!(ndcg_at_k(&docs(&[1]), &rel(&[]), 5), 0.0);
        assert_eq!(ndcg_at_k(&[], &rel(&[1]), 5), 0.0);
    }

    #[test]
    fn system_better_than_reference_exceeds_one() {
        let mut acc = RatioAccumulator::new();
        acc.add(
            PrEval {
                precision: 0.8,
                recall: 0.8,
                hits: 4,
            },
            PrEval {
                precision: 0.4,
                recall: 0.4,
                hits: 2,
            },
        );
        let r = acc.finish();
        assert!((r.precision_ratio - 2.0).abs() < 1e-12);
    }
}
