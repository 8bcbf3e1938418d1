//! Term weighting, similarity, and the centralized retrieval engine.
//!
//! Two formulas from the paper live here:
//!
//! * **TF·IDF weighting** (§4): `w_ik = t_ik × log(N / n_k)` with `t_ik`
//!   the term frequency normalized by document length;
//! * **similarity**: either full cosine (the "classic TF·IDF scheme" the
//!   centralized reference uses, §6) or the Lee–Chuang–Seamons *second
//!   method* the paper adopts for SPRITE (§4):
//!   `sim(Q, D) = Σ w_Qj·w_ij / sqrt(#distinct terms in D)`.
//!
//! The [`CentralizedEngine`] is the ideal system of §6: full index, exact
//! `N` and `n_k`. Every experiment reports SPRITE/eSearch quality as a ratio
//! over this engine's results.

use std::sync::Arc;

use sprite_util::{varint_len, WireSize};

use crate::doc::{Corpus, DocId, TermId};
use crate::index::InvertedIndex;

/// TF·IDF weight of a term in a document (§4 of the paper).
///
/// `tf` is the raw occurrence count, `doc_len` the document token count,
/// `n` the corpus size `N`, and `df` the document frequency `n_k`.
/// Returns 0 for degenerate inputs (absent term, unseen term, empty corpus).
#[must_use]
pub fn tfidf_weight(tf: u32, doc_len: u32, n: f64, df: usize) -> f64 {
    if tf == 0 || doc_len == 0 || df == 0 || n <= 0.0 {
        return 0.0;
    }
    let norm_tf = f64::from(tf) / f64::from(doc_len);
    norm_tf * (n / df as f64).ln()
}

/// Inverse document frequency `log(N / n_k)`; 0 when undefined.
#[must_use]
pub fn idf(n: f64, df: usize) -> f64 {
    if df == 0 || n <= 0.0 {
        0.0
    } else {
        (n / df as f64).ln()
    }
}

/// Similarity formula selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Similarity {
    /// Full cosine over TF·IDF vectors (document-side normalization by the
    /// vector norm). The centralized reference configuration.
    #[default]
    CosineTfIdf,
    /// The paper's simplified "second method" of Lee et al.:
    /// dot product normalized by `sqrt(#distinct terms in D)`.
    LeeSecond,
}

/// One ranked result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// The matching document.
    pub doc: DocId,
    /// Its similarity score (higher is better).
    pub score: f64,
}

/// A keyword query: a bag of term ids.
///
/// Duplicates are allowed and act as term weights (`w_Qj` scales with the
/// query-side term frequency). Immutable once built, and clones share the
/// term storage: a query is filed at every indexing peer it touches and
/// shipped back to owners during learning, and none of those copies
/// allocates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    terms: Arc<[TermId]>,
}

impl Default for Query {
    fn default() -> Self {
        Query::new(Vec::new())
    }
}

impl Query {
    /// Build from term ids; sorts for canonical form.
    #[must_use]
    pub fn new(mut terms: Vec<TermId>) -> Self {
        terms.sort_unstable();
        Query {
            terms: terms.into(),
        }
    }

    /// The term ids (sorted, duplicates preserved).
    #[must_use]
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Distinct term ids with their in-query counts, ascending by term:
    /// the runs of the sorted term list, read in place.
    #[must_use]
    pub fn term_counts(&self) -> TermCounts<'_> {
        TermCounts { rest: &self.terms }
    }

    /// Distinct term count `|Q|` (used by `qScore`, §5.3).
    #[must_use]
    pub fn distinct_len(&self) -> usize {
        self.term_counts().count()
    }

    /// Number of terms including duplicates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True for the empty query.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Does the query mention `term`?
    #[must_use]
    pub fn contains(&self, term: TermId) -> bool {
        self.terms.binary_search(&term).is_ok()
    }
}

/// Run-length iterator over a query's sorted terms (see
/// [`Query::term_counts`]).
#[derive(Clone, Debug)]
pub struct TermCounts<'a> {
    rest: &'a [TermId],
}

impl Iterator for TermCounts<'_> {
    type Item = (TermId, u32);

    fn next(&mut self) -> Option<(TermId, u32)> {
        let &term = self.rest.first()?;
        let run = self.rest.iter().take_while(|&&t| t == term).count();
        self.rest = &self.rest[run..];
        Some((term, run as u32))
    }
}

impl From<Vec<TermId>> for Query {
    fn from(terms: Vec<TermId>) -> Self {
        Query::new(terms)
    }
}

impl WireSize for Query {
    /// Canonical wire form: a distinct-term count, the sorted term ids
    /// delta-encoded as ascending gaps, and each term's in-query count —
    /// the payload an indexing peer ships back during learning returns.
    fn wire_size(&self) -> usize {
        let mut n = varint_len(self.distinct_len() as u64);
        let mut prev = 0u64;
        for (i, (t, c)) in self.term_counts().enumerate() {
            let tid = t.index() as u64;
            n += if i == 0 {
                varint_len(tid)
            } else {
                varint_len(tid.wrapping_sub(prev))
            };
            prev = tid;
            n += varint_len(u64::from(c));
        }
        n
    }
}

/// Reusable dense accumulation buffers for [`CentralizedEngine`] ranking:
/// one dot-product slot per document with an epoch stamp, so repeated
/// searches (the evaluation hot loop runs one per test query) stop paying
/// a fresh hash map each call. Purely an allocation cache — results are
/// bit-identical to a search with fresh buffers, because per-document
/// sums accumulate in the same posting order and the final sort is a
/// total order over `(score, doc)`.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    dot: Vec<f64>,
    epoch: Vec<u32>,
    current: u32,
    touched: Vec<DocId>,
}

impl SearchScratch {
    /// Fresh buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new query over `docs` documents.
    fn begin(&mut self, docs: usize) {
        self.touched.clear();
        if self.epoch.len() < docs {
            self.dot.resize(docs, 0.0);
            self.epoch.resize(docs, 0);
        }
        if self.current == u32::MAX {
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
            self.touched.push(doc);
        }
        i
    }
}

/// The ideal centralized engine of §6: full inverted index, exact global
/// statistics, configurable similarity.
#[derive(Clone, Debug)]
pub struct CentralizedEngine {
    index: InvertedIndex,
    similarity: Similarity,
    /// Cosine norm per document: `sqrt(Σ_k w_ik²)` over all its terms.
    doc_norms: Vec<f64>,
}

impl CentralizedEngine {
    /// Build over `corpus` with the classic cosine TF·IDF configuration.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        Self::with_similarity(corpus, Similarity::CosineTfIdf)
    }

    /// Build with an explicit similarity formula.
    #[must_use]
    pub fn with_similarity(corpus: &Corpus, similarity: Similarity) -> Self {
        let index = InvertedIndex::build(corpus);
        let n = index.n_docs() as f64;
        let mut norms = vec![0.0f64; corpus.len()];
        for doc in corpus.docs() {
            let mut sum = 0.0;
            for &(term, tf) in doc.terms() {
                let w = tfidf_weight(tf, doc.len(), n, index.df(term));
                sum += w * w;
            }
            norms[doc.id.index()] = sum.sqrt();
        }
        CentralizedEngine {
            index,
            similarity,
            doc_norms: norms,
        }
    }

    /// The underlying full index (exact `df`, `N`).
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Rank all matching documents for `query`, returning the top `k`.
    #[must_use]
    pub fn search(&self, query: &Query, k: usize) -> Vec<Hit> {
        self.search_with(query, k, &mut SearchScratch::default())
    }

    /// [`Self::search`] with caller-owned scratch buffers — the evaluation
    /// hot loop runs one search per test query per repetition and reuses
    /// one scratch per pool worker. Bit-identical to [`Self::search`].
    #[must_use]
    pub fn search_with(&self, query: &Query, k: usize, scratch: &mut SearchScratch) -> Vec<Hit> {
        let mut hits = self.rank_with(query, scratch);
        hits.truncate(k);
        hits
    }

    /// Rank *all* matching documents, best first. Used by the query
    /// generator, which needs deep ranked lists (E = 1000).
    #[must_use]
    pub fn rank_all(&self, query: &Query) -> Vec<Hit> {
        self.rank_with(query, &mut SearchScratch::default())
    }

    /// The ranking core behind [`Self::search`] and [`Self::rank_all`]:
    /// dense term-at-a-time accumulation over `scratch`, then one sort by
    /// descending score with ties broken by ascending doc id — a total
    /// order, so the result is independent of accumulation order.
    fn rank_with(&self, query: &Query, scratch: &mut SearchScratch) -> Vec<Hit> {
        let n = self.index.n_docs() as f64;
        scratch.begin(self.index.n_docs());
        for (term, qtf) in query.term_counts() {
            let df = self.index.df(term);
            let term_idf = idf(n, df);
            if term_idf == 0.0 {
                continue;
            }
            let w_q = f64::from(qtf) * term_idf;
            for p in self.index.postings(term) {
                let w_d = tfidf_weight(p.tf, self.index.doc_len(p.doc), n, df);
                let s = scratch.slot(p.doc);
                scratch.dot[s] += w_q * w_d;
            }
        }
        let mut hits: Vec<Hit> = scratch
            .touched
            .iter()
            .map(|&doc| {
                let dot = scratch.dot[doc.index()];
                let denom = match self.similarity {
                    Similarity::CosineTfIdf => self.doc_norms[doc.index()],
                    Similarity::LeeSecond => f64::from(self.index.doc_distinct(doc)).sqrt(),
                };
                let score = if denom > 0.0 { dot / denom } else { 0.0 };
                Hit { doc, score }
            })
            .collect();
        // Descending score; ties broken by ascending doc id for determinism.
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.doc.cmp(&b.doc))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_text::Analyzer;

    fn corpus() -> Corpus {
        let analyzer = Analyzer::standard();
        Corpus::from_texts(
            &analyzer,
            [
                "chord ring lookup protocol with finger tables", // 0
                "peer ring maintenance and peer churn in the ring", // 1
                "text retrieval quality metrics precision recall", // 2
                "retrieval with learning from past queries",     // 3
            ],
        )
    }

    fn q(corpus: &Corpus, words: &[&str]) -> Query {
        Query::new(
            words
                .iter()
                .filter_map(|w| corpus.vocab().get(&sprite_text::stem(w)))
                .collect(),
        )
    }

    #[test]
    fn tfidf_weight_basics() {
        // tf=2, len=10, N=100, df=10 → 0.2 * ln(10)
        let w = tfidf_weight(2, 10, 100.0, 10);
        assert!((w - 0.2 * 10f64.ln()).abs() < 1e-12);
        assert_eq!(tfidf_weight(0, 10, 100.0, 10), 0.0);
        assert_eq!(tfidf_weight(2, 0, 100.0, 10), 0.0);
        assert_eq!(tfidf_weight(2, 10, 100.0, 0), 0.0);
    }

    #[test]
    fn rarer_terms_weigh_more() {
        let n = 1000.0;
        assert!(tfidf_weight(1, 10, n, 5) > tfidf_weight(1, 10, n, 50));
    }

    #[test]
    fn query_term_counts() {
        let query = Query::new(vec![TermId(2), TermId(1), TermId(2)]);
        assert_eq!(
            query.term_counts().collect::<Vec<_>>(),
            vec![(TermId(1), 1), (TermId(2), 2)]
        );
        assert_eq!(Query::default().term_counts().next(), None);
        assert_eq!(Query::default().distinct_len(), 0);
        assert_eq!(query.distinct_len(), 2);
        assert_eq!(query.len(), 3);
        assert!(query.contains(TermId(2)));
        assert!(!query.contains(TermId(3)));
    }

    #[test]
    fn search_finds_matching_docs() {
        let c = corpus();
        let engine = CentralizedEngine::build(&c);
        let hits = engine.search(&q(&c, &["retrieval"]), 10);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(docs.len(), 2);
        assert!(docs.contains(&2) && docs.contains(&3));
    }

    #[test]
    fn scores_descend_and_k_truncates() {
        let c = corpus();
        let engine = CentralizedEngine::build(&c);
        let hits = engine.search(&q(&c, &["ring", "retrieval", "peer"]), 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert_eq!(
            engine
                .search(&q(&c, &["ring", "retrieval", "peer"]), 1)
                .len(),
            1
        );
    }

    #[test]
    fn repeated_ring_ranks_doc1_first() {
        let c = corpus();
        let engine = CentralizedEngine::build(&c);
        // Doc 1 mentions "ring" three times; doc 0 once (and is longer on
        // other dimensions). The top hit for "ring" must be doc 1.
        let hits = engine.search(&q(&c, &["ring"]), 10);
        assert_eq!(hits[0].doc, DocId(1));
    }

    #[test]
    fn empty_and_unknown_queries() {
        let c = corpus();
        let engine = CentralizedEngine::build(&c);
        assert!(engine.search(&Query::default(), 10).is_empty());
        assert!(engine
            .search(&Query::new(vec![TermId(99_999)]), 10)
            .is_empty());
    }

    #[test]
    fn lee_similarity_normalizes_by_distinct_terms() {
        let c = corpus();
        let lee = CentralizedEngine::with_similarity(&c, Similarity::LeeSecond);
        let query = q(&c, &["retrieval"]);
        let hits = lee.rank_all(&query);
        assert_eq!(hits.len(), 2);
        // Manually recompute for the top hit.
        let idx = lee.index();
        let n = idx.n_docs() as f64;
        let term = query.terms()[0];
        let df = idx.df(term);
        let h = hits[0];
        let tf = c.doc(h.doc).freq(term);
        let expect = idf(n, df) * tfidf_weight(tf, idx.doc_len(h.doc), n, df)
            / f64::from(idx.doc_distinct(h.doc)).sqrt();
        assert!((h.score - expect).abs() < 1e-12);
    }

    #[test]
    fn reused_scratch_matches_fresh_search_bit_for_bit() {
        let c = corpus();
        for sim in [Similarity::CosineTfIdf, Similarity::LeeSecond] {
            let engine = CentralizedEngine::with_similarity(&c, sim);
            let queries = [
                q(&c, &["ring"]),
                q(&c, &["retrieval", "ring", "peer"]),
                q(&c, &["peer", "peer", "churn"]),
                Query::default(),
                q(&c, &["lookup"]),
            ];
            let mut scratch = SearchScratch::new();
            for (i, query) in queries.iter().enumerate() {
                let reused = engine.search_with(query, 3, &mut scratch);
                let fresh = engine.search(query, 3);
                assert_eq!(reused.len(), fresh.len(), "query {i} ({sim:?})");
                for (a, b) in reused.iter().zip(&fresh) {
                    assert_eq!(a.doc, b.doc, "query {i} ({sim:?})");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {i} ({sim:?})");
                }
            }
        }
    }

    #[test]
    fn ties_break_by_doc_id() {
        let analyzer = Analyzer::standard();
        // Two identical documents: identical scores; doc 0 must sort first.
        // (A third distinct document keeps df < N so idf > 0.)
        let c = Corpus::from_texts(
            &analyzer,
            [
                "same words here",
                "same words here",
                "unrelated filler text",
            ],
        );
        let engine = CentralizedEngine::build(&c);
        let query = q(&c, &["words"]);
        let hits = engine.rank_all(&query);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].doc, DocId(0));
    }
}
