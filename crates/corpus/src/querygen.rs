//! The paper's two-phase query generator (§6.1), re-implemented verbatim.
//!
//! Benchmarks rarely contain *similar* queries, so the authors generate
//! them: for every original (seed) query, `k` new queries are derived.
//!
//! **Phase 1 — term selection.** A new query keeps a fraction `O` of the
//! original's terms (`Q'₁ ⊂ Q`, `O = |Q'₁|/|Q|`), and replaces each dropped
//! term with one of its `S` nearest neighbors under the corpus-distribution
//! metric `Distribution(t) = Freq(t) × Num(t)` — terms that are "equally
//! important" in the corpus, injecting realistic noise.
//!
//! **Phase 2 — relevant documents.** Using the centralized engine's deep
//! ranked lists (`RL` for the original, `RL'` for the new query, both cut at
//! `E`): every document of `RL'` that is relevant to the original becomes
//! relevant to the new query, consuming the original relevant document with
//! the most similar rank; every remaining (unmatched) relevant document of
//! `RL` at rank `r` donates relevance to the document at the same rank `r`
//! of `RL'`. The new relevance judgments thus mirror the rank distribution
//! of the originals.

use std::collections::HashSet;

use sprite_util::SliceRng;

use sprite_ir::{CentralizedEngine, Corpus, DocId, Query, TermId};
use sprite_util::derive_rng;

use crate::synthetic::SeedQuery;

/// Query-generator parameters (paper defaults).
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// New queries derived per seed query (`k = 9`, so 63 seeds → 630
    /// queries including the originals).
    pub k_per_seed: usize,
    /// Overlap ratio `O = |Q'₁| / |Q|` (default 0.7).
    pub overlap: f64,
    /// Number of nearest-distribution candidates per replaced term
    /// (`S = 5`).
    pub s_similar: usize,
    /// Ranked-list depth used when defining relevance (`E = 1000`).
    pub top_e: usize,
    /// RNG seed for the generator's choices.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            k_per_seed: 9,
            overlap: 0.7,
            s_similar: 5,
            top_e: 1000,
            seed: 17,
        }
    }
}

/// One query of the generated workload, with its relevance judgments.
#[derive(Clone, Debug)]
pub struct GeneratedQuery {
    /// The keyword query.
    pub query: Query,
    /// Documents relevant to it.
    pub relevant: HashSet<DocId>,
    /// Index of the seed query it derives from.
    pub seed_idx: usize,
    /// True for the seed query itself (not derived).
    pub is_original: bool,
}

/// The corpus-wide term importance metric of phase 1:
/// `Distribution(t) = Freq(t) × Num(t)` — total occurrences times document
/// frequency. Precomputed once per corpus.
#[derive(Clone, Debug)]
pub struct TermDistribution {
    /// `Distribution` value per term id.
    by_term: Vec<f64>,
    /// Term ids sorted by ascending distribution value (nearest-neighbor
    /// search runs on this).
    sorted: Vec<TermId>,
}

impl TermDistribution {
    /// Compute the metric over `corpus`.
    #[must_use]
    pub fn compute(corpus: &Corpus) -> Self {
        let n_terms = corpus.vocab().len();
        let mut freq = vec![0u64; n_terms];
        let mut num = vec![0u64; n_terms];
        for doc in corpus.docs() {
            for &(t, c) in doc.terms() {
                freq[t.index()] += u64::from(c);
                num[t.index()] += 1;
            }
        }
        let by_term: Vec<f64> = freq
            .iter()
            .zip(&num)
            .map(|(&f, &n)| (f as f64) * (n as f64))
            .collect();
        let mut sorted: Vec<TermId> = (0..n_terms as u32).map(TermId).collect();
        sorted.sort_by(|a, b| {
            by_term[a.index()]
                .partial_cmp(&by_term[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        TermDistribution { by_term, sorted }
    }

    /// `Distribution(t)`.
    #[must_use]
    pub fn value(&self, t: TermId) -> f64 {
        self.by_term[t.index()]
    }

    /// The `s` terms whose distribution value is closest to `t`'s
    /// (`|Distribution(tᵢ) − Distribution(tⱼ)|` minimal), excluding `t`
    /// itself and anything in `exclude`.
    #[must_use]
    pub fn nearest(&self, t: TermId, s: usize, exclude: &HashSet<TermId>) -> Vec<TermId> {
        let target = self.value(t);
        // Position of t's value in the sorted order.
        let pos = self
            .sorted
            .partition_point(|&x| {
                self.by_term[x.index()] < target || (self.by_term[x.index()] == target && x < t)
            })
            .min(self.sorted.len().saturating_sub(1));
        // Expand a window around pos, always taking the closer side next.
        let mut out = Vec::with_capacity(s);
        let (mut lo, mut hi) = (pos as isize - 1, pos as isize + 1);
        // `pos` itself should be t; include it as a candidate guard anyway.
        let consider = |idx: isize, out: &mut Vec<TermId>| {
            if idx < 0 || idx as usize >= self.sorted.len() {
                return false;
            }
            let cand = self.sorted[idx as usize];
            if cand != t && !exclude.contains(&cand) {
                out.push(cand);
            }
            true
        };
        consider(pos as isize, &mut out);
        while out.len() < s && (lo >= 0 || (hi as usize) < self.sorted.len()) {
            let d_lo = if lo >= 0 {
                (self.by_term[self.sorted[lo as usize].index()] - target).abs()
            } else {
                f64::INFINITY
            };
            let d_hi = if (hi as usize) < self.sorted.len() {
                (self.by_term[self.sorted[hi as usize].index()] - target).abs()
            } else {
                f64::INFINITY
            };
            if d_lo <= d_hi {
                consider(lo, &mut out);
                lo -= 1;
            } else {
                consider(hi, &mut out);
                hi += 1;
            }
        }
        out.truncate(s);
        out
    }
}

/// Generate the full workload: every seed query followed by its `k` derived
/// queries, in seed order (deterministic in `cfg.seed`).
#[must_use]
pub fn generate_workload(
    corpus: &Corpus,
    engine: &CentralizedEngine,
    seeds: &[SeedQuery],
    cfg: &GenConfig,
) -> Vec<GeneratedQuery> {
    let dist = TermDistribution::compute(corpus);
    let mut rng = derive_rng(cfg.seed, "query-gen");
    let mut out = Vec::with_capacity(seeds.len() * (cfg.k_per_seed + 1));
    for (seed_idx, seed) in seeds.iter().enumerate() {
        // Cache the original's pruned ranked list once.
        let rl: Vec<DocId> = engine
            .rank_all(&seed.query)
            .into_iter()
            .take(cfg.top_e)
            .map(|h| h.doc)
            .collect();
        out.push(GeneratedQuery {
            query: seed.query.clone(),
            relevant: seed.relevant.clone(),
            seed_idx,
            is_original: true,
        });
        for _ in 0..cfg.k_per_seed {
            let query = phase1_terms(&seed.query, &dist, cfg, &mut rng);
            let relevant = phase2_relevance(engine, &rl, &seed.relevant, &query, cfg);
            out.push(GeneratedQuery {
                query,
                relevant,
                seed_idx,
                is_original: false,
            });
        }
    }
    out
}

/// Phase 1: keep `O·|Q|` original terms, replace the rest with
/// distribution-nearest substitutes.
fn phase1_terms(
    original: &Query,
    dist: &TermDistribution,
    cfg: &GenConfig,
    rng: &mut sprite_util::DetRng,
) -> Query {
    let orig: Vec<TermId> = original.term_counts().map(|(t, _)| t).collect();
    let keep_n = ((cfg.overlap * orig.len() as f64).round() as usize).min(orig.len());
    let mut shuffled = orig.clone();
    shuffled.shuffle(rng);
    let (kept, dropped) = shuffled.split_at(keep_n);
    let mut terms: Vec<TermId> = kept.to_vec();
    let exclude: HashSet<TermId> = orig.iter().copied().collect();
    for &d in dropped {
        let cands = dist.nearest(d, cfg.s_similar, &exclude);
        if let Some(&pick) = cands.choose(rng) {
            if !terms.contains(&pick) {
                terms.push(pick);
            }
        }
    }
    Query::new(terms)
}

/// Phase 2: transfer the original's relevance judgments onto the new
/// query's ranked list, preserving the rank distribution (Figure 3).
fn phase2_relevance(
    engine: &CentralizedEngine,
    rl: &[DocId],
    relevant: &HashSet<DocId>,
    new_query: &Query,
    cfg: &GenConfig,
) -> HashSet<DocId> {
    let rl2: Vec<DocId> = engine
        .rank_all(new_query)
        .into_iter()
        .take(cfg.top_e)
        .map(|h| h.doc)
        .collect();
    // Ranks of the original's relevant documents inside its own top-E list.
    let rel_ranks: Vec<usize> = rl
        .iter()
        .enumerate()
        .filter(|(_, d)| relevant.contains(d))
        .map(|(r, _)| r)
        .collect();
    let mut matched = vec![false; rel_ranks.len()];
    let mut out: HashSet<DocId> = HashSet::new();
    // Step 1: shared documents stay relevant, consuming the original
    // relevant document with the most similar rank.
    for (rank2, d) in rl2.iter().enumerate() {
        if relevant.contains(d) {
            out.insert(*d);
            // Nearest unmatched original rank.
            let mut best: Option<(usize, usize)> = None; // (distance, idx)
            for (i, &r) in rel_ranks.iter().enumerate() {
                if matched[i] {
                    continue;
                }
                let dd = r.abs_diff(rank2);
                if best.is_none_or(|(bd, _)| dd < bd) {
                    best = Some((dd, i));
                }
            }
            if let Some((_, i)) = best {
                matched[i] = true;
            }
        }
    }
    // Step 2: every unmatched original relevant rank donates relevance to
    // the same rank of the new list.
    for (i, &r) in rel_ranks.iter().enumerate() {
        if !matched[i] {
            if let Some(&d) = rl2.get(r) {
                out.insert(d);
            }
        }
    }
    out
}

/// A 50/50 random split of workload indices into (training, testing),
/// as §6.2 prescribes ("queries are randomly assigned to the groups").
#[must_use]
pub fn split_train_test(n_queries: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n_queries).collect();
    let mut rng = derive_rng(seed, "train-test-split");
    idx.shuffle(&mut rng);
    let mid = n_queries / 2;
    let (train, test) = idx.split_at(mid);
    let (mut train, mut test) = (train.to_vec(), test.to_vec());
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

/// Query issue schedules for Figure 4(b).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// `w/o-r`: every query appears exactly once.
    WithoutRepeats,
    /// `w-zipf`: queries are issued `total` times, drawn with Zipfian
    /// popularity of the given slope (paper: 0.5).
    Zipf {
        /// Zipf slope.
        slope: f64,
        /// Total number of issues.
        total: usize,
    },
}

/// Materialize an issue order over `n` available queries.
#[must_use]
pub fn issue_order(n: usize, schedule: Schedule, seed: u64) -> Vec<usize> {
    match schedule {
        Schedule::WithoutRepeats => {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut derive_rng(seed, "schedule-wor"));
            idx
        }
        Schedule::Zipf { slope, total } => {
            // Popularity rank r ↦ query: a random permutation decides which
            // query gets which popularity rank.
            let mut perm: Vec<usize> = (0..n).collect();
            let mut rng = derive_rng(seed, "schedule-zipf");
            perm.shuffle(&mut rng);
            let z = sprite_util::Zipf::new(n, slope);
            (0..total).map(|_| perm[z.sample(&mut rng)]).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{CorpusConfig, SyntheticCorpus};

    fn setup() -> (SyntheticCorpus, CentralizedEngine, Vec<SeedQuery>) {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(5));
        let engine = CentralizedEngine::build(sc.corpus());
        let seeds = sc.seed_queries();
        (sc, engine, seeds)
    }

    #[test]
    fn distribution_metric_matches_hand_count() {
        let mut corpus = Corpus::new();
        let a = corpus.vocab_mut().intern("a");
        let b = corpus.vocab_mut().intern("b");
        corpus.add_document(vec![(a, 3), (b, 1)]);
        corpus.add_document(vec![(a, 2)]);
        let dist = TermDistribution::compute(&corpus);
        // a: freq 5, num 2 → 10. b: freq 1, num 1 → 1.
        assert_eq!(dist.value(a), 10.0);
        assert_eq!(dist.value(b), 1.0);
    }

    #[test]
    fn nearest_returns_closest_values() {
        let mut corpus = Corpus::new();
        // Terms with distribution values 1,4,9,16,25 (freq=v, num=1).
        let ids: Vec<TermId> = (1u32..=5)
            .map(|i| {
                let t = corpus.vocab_mut().intern(&format!("t{i}"));
                corpus.add_document(vec![(t, i * i)]);
                t
            })
            .collect();
        let dist = TermDistribution::compute(&corpus);
        let near = dist.nearest(ids[2], 2, &HashSet::new()); // value 9
                                                             // Closest to 9 are 4 and 16.
        assert_eq!(near.len(), 2);
        assert!(near.contains(&ids[1]) && near.contains(&ids[3]));
    }

    #[test]
    fn nearest_respects_exclusions() {
        let mut corpus = Corpus::new();
        let ids: Vec<TermId> = (1u32..=5)
            .map(|i| {
                let t = corpus.vocab_mut().intern(&format!("t{i}"));
                corpus.add_document(vec![(t, i)]);
                t
            })
            .collect();
        let dist = TermDistribution::compute(&corpus);
        let exclude: HashSet<TermId> = [ids[1], ids[3]].into_iter().collect();
        let near = dist.nearest(ids[2], 3, &exclude);
        assert!(!near.contains(&ids[1]) && !near.contains(&ids[3]));
        assert!(!near.contains(&ids[2]), "never returns the term itself");
    }

    #[test]
    fn workload_size_and_structure() {
        let (sc, engine, seeds) = setup();
        let cfg = GenConfig {
            k_per_seed: 9,
            top_e: 100,
            ..GenConfig::default()
        };
        let w = generate_workload(sc.corpus(), &engine, &seeds[..4], &cfg);
        assert_eq!(w.len(), 4 * 10);
        for (i, q) in w.iter().enumerate() {
            assert_eq!(q.seed_idx, i / 10);
            assert_eq!(q.is_original, i % 10 == 0);
            assert!(!q.query.is_empty());
        }
    }

    #[test]
    fn generated_queries_overlap_with_original() {
        let (sc, engine, seeds) = setup();
        let cfg = GenConfig {
            top_e: 100,
            ..GenConfig::default()
        };
        let w = generate_workload(sc.corpus(), &engine, &seeds[..3], &cfg);
        for q in w.iter().filter(|q| !q.is_original) {
            let orig = &seeds[q.seed_idx].query;
            let shared = q
                .query
                .term_counts()
                .filter(|(t, _)| orig.contains(*t))
                .count();
            let keep_n = (cfg.overlap * orig.distinct_len() as f64).round() as usize;
            assert!(
                shared >= keep_n.saturating_sub(0).min(orig.distinct_len()),
                "expected ≥{keep_n} shared terms, got {shared}"
            );
        }
    }

    #[test]
    fn generated_relevance_shares_documents_with_original() {
        let (sc, engine, seeds) = setup();
        let cfg = GenConfig {
            top_e: 200,
            ..GenConfig::default()
        };
        let w = generate_workload(sc.corpus(), &engine, &seeds[..3], &cfg);
        let mut any_shared = false;
        for q in w.iter().filter(|q| !q.is_original) {
            assert!(!q.relevant.is_empty(), "derived query with no relevance");
            if q.relevant
                .intersection(&seeds[q.seed_idx].relevant)
                .next()
                .is_some()
            {
                any_shared = true;
            }
        }
        assert!(
            any_shared,
            "derived queries should share relevant docs with seeds"
        );
    }

    #[test]
    fn split_is_even_and_disjoint() {
        let (train, test) = split_train_test(630, 1);
        assert_eq!(train.len(), 315);
        assert_eq!(test.len(), 315);
        let t: HashSet<usize> = train.iter().copied().collect();
        assert!(test.iter().all(|i| !t.contains(i)));
        let all: HashSet<usize> = train.iter().chain(&test).copied().collect();
        assert_eq!(all.len(), 630);
    }

    #[test]
    fn schedules() {
        let order = issue_order(10, Schedule::WithoutRepeats, 3);
        let set: HashSet<usize> = order.iter().copied().collect();
        assert_eq!(order.len(), 10);
        assert_eq!(set.len(), 10);

        let z = issue_order(
            10,
            Schedule::Zipf {
                slope: 0.5,
                total: 500,
            },
            3,
        );
        assert_eq!(z.len(), 500);
        assert!(z.iter().all(|&i| i < 10));
        // Zipf: the most popular query must repeat far more than the least.
        let mut counts = [0usize; 10];
        for &i in &z {
            counts[i] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max > min, "zipf schedule should be skewed");
    }
}
