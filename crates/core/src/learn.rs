//! Index-term learning (§5.3): `qScore`, `QF`, the combined `Score`, and
//! **Algorithm 1** — the incremental learning pass that updates per-term
//! statistics from only the queries that arrived since the last iteration.
//!
//! A naive reference implementation ([`naive_select`]) recomputes from the
//! full query history; a property test asserts both agree (the paper's
//! argument: `max(S₁∪S₂) = max(max S₁, max S₂)` and `QF` is cumulative).

use std::collections::{HashMap, HashSet};

use sprite_ir::{Document, Query, TermId};
use sprite_util::{top_k, F64Ord};

use crate::peer::TermStat;

/// `qScore(Q, D) = |Q ∩ D| / |Q|` — the fraction of the query's (distinct)
/// terms the document contains (§5.3). 0 for an empty query.
#[must_use]
pub fn q_score(query: &Query, doc: &Document) -> f64 {
    let distinct = query.distinct_len();
    if distinct == 0 {
        return 0.0;
    }
    let matched = query
        .term_counts()
        .filter(|(t, _)| doc.contains(*t))
        .count();
    matched as f64 / distinct as f64
}

/// `Score(t, D) = qScore_max · log₁₀(QF)` — the combined term score of
/// §5.3. The paper's worked example (Figure 2(b): `0.75 · log 20 = 0.975`)
/// fixes the logarithm base at 10; a single occurrence (`QF = 1`) scores 0.
#[must_use]
pub fn term_score(stat: TermStat) -> f64 {
    term_score_with(stat, ScoreMode::Full)
}

/// Term-scoring variants for the ablation study of §5.3's design argument
/// ("it is insufficient to consider (1) alone … insufficient to consider
/// (2) alone").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoreMode {
    /// The paper's combination: `qScore_max · log₁₀(QF)`.
    #[default]
    Full,
    /// Only the best query similarity (ignores how often terms are asked).
    QScoreOnly,
    /// Only the query frequency (ignores how well queries fit the doc).
    QfOnly,
}

/// [`term_score`] under an explicit [`ScoreMode`].
#[must_use]
pub fn term_score_with(stat: TermStat, mode: ScoreMode) -> f64 {
    if stat.qf == 0 {
        return 0.0;
    }
    match mode {
        ScoreMode::Full => stat.qs * (stat.qf as f64).log10(),
        ScoreMode::QScoreOnly => stat.qs,
        ScoreMode::QfOnly => (stat.qf as f64).log10(),
    }
}

/// Update `stats` in place from the incremental query set `new_queries`
/// (Algorithm 1, lines 4–11): for each document term occurring in a new
/// query, bump `QF` and keep the maximum `qScore`.
pub fn update_stats(doc: &Document, stats: &mut HashMap<TermId, TermStat>, new_queries: &[Query]) {
    for q in new_queries {
        let qs = q_score(q, doc);
        for (t, _) in q.term_counts() {
            if doc.contains(t) {
                let s = stats.entry(t).or_default();
                s.qf += 1;
                if qs > s.qs {
                    s.qs = qs;
                }
            }
        }
    }
}

/// Select the document's global index terms given its (already updated)
/// statistics: the top `budget` terms by [`term_score_with`] under `mode`,
/// padded — when fewer terms have a positive score — with the document's
/// most frequent terms (the same signal that seeded the index, §5.2).
/// Terms in `excluded` are never chosen (the §7 hot-term advisory — a peer
/// overloaded by a high-df term tells owners to index an analogously
/// important term instead). The returned list is in rank order and free of
/// duplicates.
#[must_use]
pub fn select_terms(
    doc: &Document,
    stats: &HashMap<TermId, TermStat>,
    budget: usize,
    excluded: &HashSet<TermId>,
    mode: ScoreMode,
) -> Vec<TermId> {
    // Every queried term (QF ≥ 1) is a candidate: `log₁₀(1) = 0`, but a
    // term that was queried at all is better evidence than an unqueried
    // frequent term (§3's term `c` "is not indexed because it has not been
    // used in any query"). Ties on the mode's primary signal — in
    // particular all QF = 1 terms under the paper's Score — are broken by
    // the mode's own secondary statistic, then by in-document frequency,
    // so sparse query histories still rank meaningfully.
    let ranked = top_k(
        budget,
        stats.iter().filter_map(|(&t, &s)| {
            if excluded.contains(&t) || s.qf == 0 {
                return None;
            }
            let score = term_score_with(s, mode);
            let tiebreak = match mode {
                ScoreMode::Full | ScoreMode::QScoreOnly => s.qs,
                ScoreMode::QfOnly => s.qf as f64,
            };
            Some(((F64Ord(score), F64Ord(tiebreak), doc.freq(t)), t))
        }),
    );
    let mut chosen: Vec<TermId> = ranked.into_iter().map(|s| s.item).collect();
    if chosen.len() < budget {
        for t in doc.top_frequent_terms(budget + chosen.len() + excluded.len()) {
            if chosen.len() == budget {
                break;
            }
            if !chosen.contains(&t) && !excluded.contains(&t) {
                chosen.push(t);
            }
        }
    }
    chosen
}

/// One full incremental learning step (Algorithm 1): absorb `new_queries`
/// into `stats`, then pick the top `budget` terms.
#[must_use]
pub fn algorithm1(
    doc: &Document,
    stats: &mut HashMap<TermId, TermStat>,
    new_queries: &[Query],
    budget: usize,
) -> Vec<TermId> {
    update_stats(doc, stats, new_queries);
    select_terms(doc, stats, budget, &HashSet::new(), ScoreMode::Full)
}

/// Naive reference (§5.3's "basic idea"): recompute every statistic from
/// the complete query history. Semantically equal to running
/// [`algorithm1`] over the same history split into arbitrary batches.
#[must_use]
pub fn naive_select(doc: &Document, all_queries: &[Query], budget: usize) -> Vec<TermId> {
    let mut stats = HashMap::new();
    update_stats(doc, &mut stats, all_queries);
    select_terms(doc, &stats, budget, &HashSet::new(), ScoreMode::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_ir::DocId;

    fn doc(terms: &[(u32, u32)]) -> Document {
        Document::new(
            DocId(0),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    fn q(terms: &[u32]) -> Query {
        Query::new(terms.iter().map(|&t| TermId(t)).collect())
    }

    #[test]
    fn q_score_counts_matching_fraction() {
        let d = doc(&[(1, 5), (2, 3), (3, 1)]);
        assert!((q_score(&q(&[1, 2]), &d) - 1.0).abs() < 1e-12);
        assert!((q_score(&q(&[1, 9]), &d) - 0.5).abs() < 1e-12);
        assert!((q_score(&q(&[7, 8, 9]), &d) - 0.0).abs() < 1e-12);
        assert_eq!(q_score(&Query::default(), &d), 0.0);
        // Duplicates in the query count once.
        assert!((q_score(&q(&[1, 1, 9, 9]), &d) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn term_score_matches_paper_example() {
        // Figure 2(b): qs=0.75, QF=20 → 0.975; qs=0.75, QF=5 → 0.524;
        // qs=0.33, QF=30 → 0.492.
        assert!((term_score(TermStat { qs: 0.75, qf: 20 }) - 0.9752).abs() < 1e-3);
        assert!((term_score(TermStat { qs: 0.75, qf: 5 }) - 0.5242).abs() < 1e-3);
        assert!((term_score(TermStat { qs: 0.33, qf: 30 }) - 0.4875).abs() < 1e-3);
        assert_eq!(term_score(TermStat { qs: 0.9, qf: 1 }), 0.0);
        assert_eq!(term_score(TermStat { qs: 0.9, qf: 0 }), 0.0);
    }

    #[test]
    fn paper_figure_2b_replacement() {
        // Time i: t1 (0.75, 20), t2 (0.75, 5), t5 (0.33, 30) indexed, cap 3.
        // Three new queries arrive; afterwards t3 reaches (0.75, 5) and t5
        // moves to (0.33, 32); t3's 0.524 beats t5's 0.501 → t5 replaced.
        let d = doc(&[(1, 9), (2, 8), (3, 7), (5, 6)]);
        let mut stats: HashMap<TermId, TermStat> = HashMap::new();
        stats.insert(TermId(1), TermStat { qs: 0.75, qf: 20 });
        stats.insert(TermId(2), TermStat { qs: 0.75, qf: 5 });
        stats.insert(TermId(5), TermStat { qs: 0.33, qf: 30 });
        stats.insert(TermId(3), TermStat { qs: 0.75, qf: 3 });
        // Two more queries mention t3; two mention t5 with low qScore.
        // Construct queries reproducing the target stats:
        //   t3: qf 3→5 keeping qs 0.75; t5: qf 30→32 keeping qs 0.33.
        // Query {3, x, y, z} with only t3 in doc gives qScore 0.25 ≤ 0.75.
        let new = vec![
            q(&[3, 100, 101, 102]),
            q(&[3, 5, 100, 101, 102, 103]),
            q(&[5, 100, 101]),
        ];
        let chosen = algorithm1(&d, &mut stats, &new, 3);
        assert_eq!(stats[&TermId(3)].qf, 5);
        assert_eq!(stats[&TermId(5)].qf, 32);
        assert!((stats[&TermId(3)].qs - 0.75).abs() < 1e-12);
        assert!(chosen.contains(&TermId(1)));
        assert!(chosen.contains(&TermId(2)) || chosen.contains(&TermId(3)));
        assert!(chosen.contains(&TermId(3)), "t3 should be indexed now");
        assert!(!chosen.contains(&TermId(5)), "t5 should be replaced");
    }

    #[test]
    fn update_stats_keeps_max_qscore() {
        let d = doc(&[(1, 2), (2, 2)]);
        let mut stats = HashMap::new();
        update_stats(&d, &mut stats, &[q(&[1, 9])]); // qs 0.5
        update_stats(&d, &mut stats, &[q(&[1, 2])]); // qs 1.0
        update_stats(&d, &mut stats, &[q(&[1, 8, 9])]); // qs ~0.33
        let s = stats[&TermId(1)];
        assert_eq!(s.qf, 3);
        assert!((s.qs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn select_pads_with_frequent_terms() {
        let d = doc(&[(1, 10), (2, 9), (3, 8), (4, 7)]);
        // Only term 3 has a positive score.
        let mut stats = HashMap::new();
        stats.insert(TermId(3), TermStat { qs: 0.5, qf: 10 });
        let chosen = select_terms(&d, &stats, 3, &HashSet::new(), ScoreMode::Full);
        assert_eq!(chosen[0], TermId(3));
        // Padding: most frequent first (1, then 2).
        assert_eq!(&chosen[1..], [TermId(1), TermId(2)]);
    }

    #[test]
    fn select_respects_budget_and_dedups() {
        let d = doc(&[(1, 10), (2, 9)]);
        let mut stats = HashMap::new();
        stats.insert(TermId(1), TermStat { qs: 1.0, qf: 100 });
        stats.insert(TermId(2), TermStat { qs: 0.9, qf: 100 });
        let chosen = select_terms(&d, &stats, 1, &HashSet::new(), ScoreMode::Full);
        assert_eq!(chosen, [TermId(1)]);
        let chosen2 = select_terms(&d, &stats, 5, &HashSet::new(), ScoreMode::Full);
        assert_eq!(chosen2.len(), 2, "only 2 distinct terms exist");
        let set: HashSet<_> = chosen2.iter().collect();
        assert_eq!(set.len(), chosen2.len());
    }

    #[test]
    fn score_modes_disagree_and_exclusions_hold_in_every_mode() {
        // Term 1 is asked often by queries that fit the document badly,
        // term 2 rarely by one that fits it well: QF alone prefers 1, the
        // paper's Score (0.9 · log 4 > 0.1 · log 40) and qScore alone 2.
        let d = doc(&[(1, 3), (2, 3), (3, 9)]);
        let mut stats = HashMap::new();
        stats.insert(TermId(1), TermStat { qs: 0.1, qf: 40 });
        stats.insert(TermId(2), TermStat { qs: 0.9, qf: 4 });
        let none = HashSet::new();
        let pick = |excluded: &HashSet<TermId>, mode| select_terms(&d, &stats, 1, excluded, mode);
        assert_eq!(pick(&none, ScoreMode::Full), [TermId(2)]);
        assert_eq!(pick(&none, ScoreMode::QScoreOnly), [TermId(2)]);
        assert_eq!(pick(&none, ScoreMode::QfOnly), [TermId(1)]);
        // The advisory's veto holds whatever the mode: the next-best
        // scored term steps in, then the frequency padding.
        let vetoed = HashSet::from([TermId(1)]);
        assert_eq!(pick(&vetoed, ScoreMode::QfOnly), [TermId(2)]);
        let both = HashSet::from([TermId(1), TermId(2)]);
        assert_eq!(pick(&both, ScoreMode::QfOnly), [TermId(3)]);
    }

    #[test]
    fn incremental_equals_naive_on_batches() {
        let d = doc(&[(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]);
        let history = vec![
            q(&[1, 2]),
            q(&[2, 3, 9]),
            q(&[1, 3]),
            q(&[4, 8]),
            q(&[1, 2, 3]),
            q(&[5, 1]),
            q(&[2]),
        ];
        let whole = naive_select(&d, &history, 3);
        // Same history in three uneven batches through Algorithm 1.
        let mut stats = HashMap::new();
        let _ = algorithm1(&d, &mut stats, &history[..2], 3);
        let _ = algorithm1(&d, &mut stats, &history[2..3], 3);
        let inc = algorithm1(&d, &mut stats, &history[3..], 3);
        assert_eq!(whole, inc);
    }
}
