//! Synthetic TREC9-like corpus.
//!
//! The paper evaluates on the TREC9/OHSUMED collection (348,565 documents,
//! 63 expert-judged queries), which is licensed data we substitute with a
//! generative model that preserves the properties SPRITE's learning relies
//! on (see DESIGN.md §2):
//!
//! * a **Zipf-distributed vocabulary** (natural-language term statistics,
//!   which the `Distribution(t)` metric of the query generator needs);
//! * **latent topics**: each document mixes a few topics, each topic owns a
//!   core of characteristic terms — so queries about a topic share keywords
//!   and share relevant documents (the *query locality* of §1);
//! * **expert relevance**: a document is relevant to a topic's query iff it
//!   carries that topic — judgment independent of any retrieval system,
//!   like TREC assessors.
//!
//! Documents are generated directly as term-count vectors (the analyzed
//! form); [`SyntheticCorpus::doc_text`] can render a document back to a
//! plausible text for the examples.

use std::collections::HashSet;

use sprite_util::SliceRng;

use sprite_ir::{Corpus, DocId, Query, TermId};
use sprite_util::{derive_rng, Zipf};

/// Configuration of the synthetic corpus.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Master seed; every stream below derives from it.
    pub seed: u64,
    /// Number of documents.
    pub n_docs: usize,
    /// Vocabulary size (distinct terms).
    pub vocab_size: usize,
    /// Number of latent topics. Most topics are *distractors*: only
    /// [`Self::n_seed_queries`] of them are ever queried, so the corpus is
    /// dominated by documents irrelevant to every query — the property that
    /// makes TREC-style ranking hard and keeps judged sets small.
    pub n_topics: usize,
    /// Number of judged seed queries (TREC9 ships 63). Seed topics are
    /// spread uniformly across the popularity spectrum.
    pub n_seed_queries: usize,
    /// Characteristic terms per topic.
    pub terms_per_topic: usize,
    /// Document length bounds (tokens), inclusive.
    pub doc_len: (usize, usize),
    /// Topics per document, inclusive bounds.
    pub topics_per_doc: (usize, usize),
    /// Fraction of a document's tokens drawn from its topics' cores
    /// (the rest is Zipf background noise).
    pub topic_fraction: f64,
    /// Zipf exponent of the background term distribution.
    pub zipf_exponent: f64,
    /// Zipf exponent *within* a topic core: a topic's characteristic terms
    /// are themselves skewed, so a document's most frequent topical terms
    /// cover only the head of the core while queries draw uniformly from
    /// all of it. This is what separates frequency-based indexing (eSearch)
    /// from query-based indexing (SPRITE) — the paper's Figure 1 scenario
    /// where term `c` is frequent but never queried.
    pub topic_zipf_exponent: f64,
    /// Seed-query length bounds (keywords), inclusive.
    pub query_len: (usize, usize),
}

impl Default for CorpusConfig {
    /// The default experiment scale: 8,000 documents, 63 topics (the paper's
    /// 63 seed queries), 20,000-term vocabulary.
    fn default() -> Self {
        CorpusConfig {
            seed: 42,
            n_docs: 8_000,
            vocab_size: 20_000,
            n_topics: 320,
            n_seed_queries: 63,
            terms_per_topic: 40,
            doc_len: (80, 300),
            topics_per_doc: (1, 3),
            topic_fraction: 0.4,
            zipf_exponent: 1.0,
            topic_zipf_exponent: 1.3,
            query_len: (2, 4),
        }
    }
}

impl CorpusConfig {
    /// A miniature configuration for unit tests and doc examples.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        CorpusConfig {
            seed,
            n_docs: 200,
            vocab_size: 1_200,
            n_topics: 12,
            n_seed_queries: 8,
            terms_per_topic: 20,
            doc_len: (30, 80),
            topics_per_doc: (1, 2),
            topic_fraction: 0.5,
            zipf_exponent: 1.0,
            topic_zipf_exponent: 1.0,
            query_len: (2, 3),
        }
    }

    /// A mid-size configuration for integration tests (runs in seconds).
    #[must_use]
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            seed,
            n_docs: 1_500,
            vocab_size: 6_000,
            n_topics: 100,
            n_seed_queries: 24,
            terms_per_topic: 30,
            doc_len: (60, 180),
            topics_per_doc: (1, 3),
            topic_fraction: 0.4,
            zipf_exponent: 1.0,
            topic_zipf_exponent: 1.3,
            query_len: (2, 4),
        }
    }
}

/// A seed query with its expert relevance judgments — the stand-in for one
/// of TREC9's 63 judged queries.
#[derive(Clone, Debug)]
pub struct SeedQuery {
    /// The keyword query.
    pub query: Query,
    /// Documents judged relevant (topic membership).
    pub relevant: HashSet<DocId>,
    /// The latent topic behind this query.
    pub topic: usize,
}

/// The generated corpus: documents, latent topics, and per-document topic
/// assignments.
#[derive(Clone, Debug)]
pub struct SyntheticCorpus {
    corpus: Corpus,
    /// Topic cores: characteristic term ids per topic.
    topics: Vec<Vec<TermId>>,
    /// Topics mixed into each document (parallel to doc ids).
    doc_topics: Vec<Vec<u16>>,
    config: CorpusConfig,
}

impl SyntheticCorpus {
    /// Generate a corpus from `config`. Deterministic in `config.seed`.
    #[must_use]
    pub fn generate(config: &CorpusConfig) -> Self {
        assert!(config.n_docs > 0 && config.vocab_size > 0 && config.n_topics > 0);
        assert!(config.doc_len.0 >= 1 && config.doc_len.0 <= config.doc_len.1);
        assert!(
            config.topics_per_doc.0 >= 1
                && config.topics_per_doc.1 >= config.topics_per_doc.0
                && config.topics_per_doc.1 <= config.n_topics
        );
        let mut corpus = Corpus::new();
        // Vocabulary: term id == background-frequency rank (id 0 = most
        // frequent). Words are synthetic but pronounceable.
        let words = generate_words(config.vocab_size, config.seed);
        for w in &words {
            corpus.vocab_mut().intern(w);
        }

        // Topic cores drawn from the mid-band of the frequency ranks: common
        // enough to appear, rare enough to be characteristic.
        let mut topic_rng = derive_rng(config.seed, "topics");
        let band_lo = config.vocab_size / 10;
        let band_hi = (config.vocab_size * 4) / 5;
        let band: Vec<u32> = (band_lo as u32..band_hi as u32).collect();
        let topics: Vec<Vec<TermId>> = (0..config.n_topics)
            .map(|_| {
                band.choose_multiple(&mut topic_rng, config.terms_per_topic)
                    .map(|&r| TermId(r))
                    .collect()
            })
            .collect();

        // Documents.
        let mut doc_rng = derive_rng(config.seed, "docs");
        let background = Zipf::new(config.vocab_size, config.zipf_exponent);
        let within_topic = Zipf::new(config.terms_per_topic, config.topic_zipf_exponent);
        let topic_pop = Zipf::new(config.n_topics, 0.5);
        let mut doc_topics = Vec::with_capacity(config.n_docs);
        for _ in 0..config.n_docs {
            let n_topics = doc_rng.gen_range(config.topics_per_doc.0..=config.topics_per_doc.1);
            let mut mine: Vec<u16> = Vec::with_capacity(n_topics);
            while mine.len() < n_topics {
                let t = topic_pop.sample(&mut doc_rng) as u16;
                if !mine.contains(&t) {
                    mine.push(t);
                }
            }
            let len = doc_rng.gen_range(config.doc_len.0..=config.doc_len.1);
            // Each document emphasizes its topics' vocabulary differently:
            // the Zipf ranking over a core is permuted per document, so one
            // doc's most frequent topical terms are another doc's tail.
            // Without this, reachability of the learning loop would be
            // all-or-nothing per topic instead of per document.
            let my_cores: Vec<Vec<TermId>> = mine
                .iter()
                .map(|&t| {
                    let mut core = topics[t as usize].clone();
                    core.shuffle(&mut doc_rng);
                    core
                })
                .collect();
            let mut tokens: Vec<(TermId, u32)> = Vec::with_capacity(len);
            for _ in 0..len {
                let term = if doc_rng.gen_bool(config.topic_fraction) {
                    let core = my_cores.choose(&mut doc_rng).expect("n_topics >= 1");
                    // Zipf within the core: a doc's topical vocabulary is
                    // head-heavy, but queries sample the whole core.
                    core[within_topic.sample(&mut doc_rng)]
                } else {
                    TermId(background.sample(&mut doc_rng) as u32)
                };
                tokens.push((term, 1));
            }
            corpus.add_document(tokens);
            doc_topics.push(mine);
        }

        SyntheticCorpus {
            corpus,
            topics,
            doc_topics,
            config: config.clone(),
        }
    }

    /// The analyzed corpus.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The documents (shorthand for `corpus().docs()`).
    #[must_use]
    pub fn docs(&self) -> &[sprite_ir::Document] {
        self.corpus.docs()
    }

    /// The generation configuration.
    #[must_use]
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// The topic core of topic `t`.
    #[must_use]
    pub fn topic_core(&self, t: usize) -> &[TermId] {
        &self.topics[t]
    }

    /// Topics mixed into document `doc`.
    #[must_use]
    pub fn doc_topics(&self, doc: DocId) -> &[u16] {
        &self.doc_topics[doc.index()]
    }

    /// Documents judged relevant to topic `t` (expert judgment =
    /// topic membership).
    #[must_use]
    pub fn topic_docs(&self, t: usize) -> HashSet<DocId> {
        self.doc_topics
            .iter()
            .enumerate()
            .filter(|(_, ts)| ts.contains(&(t as u16)))
            .map(|(i, _)| DocId(i as u32))
            .collect()
    }

    /// The seed query set, mirroring TREC9's 63 judged queries: one query
    /// per *seed topic*. Seed topics are spread uniformly across the
    /// popularity spectrum, so relevant-set sizes vary realistically; the
    /// remaining topics are unqueried distractors. Deterministic in the
    /// corpus seed.
    #[must_use]
    pub fn seed_queries(&self) -> Vec<SeedQuery> {
        let mut rng = derive_rng(self.config.seed, "seed-queries");
        let n = self.config.n_seed_queries.min(self.config.n_topics);
        (0..n)
            .map(|s| {
                let t = s * self.config.n_topics / n;
                let len = rng.gen_range(self.config.query_len.0..=self.config.query_len.1);
                let terms: Vec<TermId> = self.topics[t]
                    .choose_multiple(&mut rng, len)
                    .copied()
                    .collect();
                SeedQuery {
                    query: Query::new(terms),
                    relevant: self.topic_docs(t),
                    topic: t,
                }
            })
            .collect()
    }

    /// Render a document back into plausible text (for examples/demos):
    /// each term repeated by its count, shuffled deterministically.
    #[must_use]
    pub fn doc_text(&self, doc: DocId) -> String {
        let d = self.corpus.doc(doc);
        let mut words: Vec<&str> = Vec::with_capacity(d.len() as usize);
        for &(t, c) in d.terms() {
            for _ in 0..c {
                words.push(self.corpus.vocab().term(t));
            }
        }
        let mut rng = derive_rng(self.config.seed ^ u64::from(doc.0), "doc-text");
        words.shuffle(&mut rng);
        words.join(" ")
    }
}

/// Generate `n` distinct pronounceable lowercase words, deterministically.
fn generate_words(n: usize, seed: u64) -> Vec<String> {
    const CONSONANTS: &[u8] = b"bcdfghjklmnprstvwz";
    const VOWELS: &[u8] = b"aeiou";
    let mut rng = derive_rng(seed, "vocab-words");
    let mut seen: HashSet<String> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let syllables = rng.gen_range(2..=4);
        let mut w = String::with_capacity(syllables * 2 + 1);
        for _ in 0..syllables {
            w.push(CONSONANTS[rng.gen_range(0..CONSONANTS.len())] as char);
            w.push(VOWELS[rng.gen_range(0..VOWELS.len())] as char);
        }
        if rng.gen_bool(0.3) {
            w.push(CONSONANTS[rng.gen_range(0..CONSONANTS.len())] as char);
        }
        if seen.insert(w.clone()) {
            out.push(w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SyntheticCorpus {
        SyntheticCorpus::generate(&CorpusConfig::tiny(7))
    }

    #[test]
    fn deterministic_generation() {
        let a = SyntheticCorpus::generate(&CorpusConfig::tiny(7));
        let b = SyntheticCorpus::generate(&CorpusConfig::tiny(7));
        assert_eq!(a.corpus().len(), b.corpus().len());
        for (da, db) in a.docs().iter().zip(b.docs()) {
            assert_eq!(da.terms(), db.terms());
        }
        let c = SyntheticCorpus::generate(&CorpusConfig::tiny(8));
        // Different seed ⇒ (overwhelmingly likely) different documents.
        assert!(a
            .docs()
            .iter()
            .zip(c.docs())
            .any(|(x, y)| x.terms() != y.terms()));
    }

    #[test]
    fn respects_config_shape() {
        let sc = tiny();
        let cfg = sc.config().clone();
        assert_eq!(sc.corpus().len(), cfg.n_docs);
        assert_eq!(sc.corpus().vocab().len(), cfg.vocab_size);
        for d in sc.docs() {
            let len = d.len() as usize;
            assert!(
                len >= cfg.doc_len.0 && len <= cfg.doc_len.1,
                "doc len {len}"
            );
        }
        for i in 0..cfg.n_docs {
            let nt = sc.doc_topics(DocId(i as u32)).len();
            assert!(nt >= cfg.topics_per_doc.0 && nt <= cfg.topics_per_doc.1);
        }
    }

    #[test]
    fn topic_docs_is_inverse_of_doc_topics() {
        let sc = tiny();
        let docs0 = sc.topic_docs(0);
        assert!(!docs0.is_empty(), "topic 0 should appear somewhere");
        #[allow(clippy::iter_over_hash_type)] // one assertion per doc, order-free
        for d in &docs0 {
            assert!(sc.doc_topics(*d).contains(&0));
        }
    }

    #[test]
    fn topical_docs_use_core_terms_heavily() {
        let sc = tiny();
        // For documents of topic 0, a large share of tokens should come
        // from the topic core(s).
        let core: HashSet<TermId> = sc.topic_core(0).iter().copied().collect();
        let docs = sc.topic_docs(0);
        let mut core_tokens = 0u32;
        let mut all_tokens = 0u32;
        #[allow(clippy::iter_over_hash_type)] // sums, order-free
        for d in &docs {
            // Only single-topic docs for a clean measurement.
            if sc.doc_topics(*d).len() != 1 {
                continue;
            }
            let doc = sc.corpus().doc(*d);
            all_tokens += doc.len();
            for &(t, c) in doc.terms() {
                if core.contains(&t) {
                    core_tokens += c;
                }
            }
        }
        assert!(all_tokens > 0);
        let frac = f64::from(core_tokens) / f64::from(all_tokens);
        // Configured topic_fraction is 0.5; background draws can also hit
        // core terms, so expect roughly ≥ 0.4.
        assert!(frac > 0.4, "core fraction {frac} too low");
    }

    #[test]
    fn seed_queries_use_topic_terms_and_have_relevance() {
        let sc = tiny();
        let seeds = sc.seed_queries();
        assert_eq!(seeds.len(), sc.config().n_seed_queries);
        for s in &seeds {
            let core: HashSet<TermId> = sc.topic_core(s.topic).iter().copied().collect();
            assert!(!s.query.is_empty());
            for &t in s.query.terms() {
                assert!(core.contains(&t), "query term outside its topic core");
            }
            assert!(!s.relevant.is_empty());
            assert_eq!(s.relevant, sc.topic_docs(s.topic));
        }
    }

    #[test]
    fn background_terms_follow_rank_order() {
        // Term id 0 (rank 0) must occur much more often than a deep-rank id.
        let sc = SyntheticCorpus::generate(&CorpusConfig::small(3));
        let count =
            |term: TermId| -> u64 { sc.docs().iter().map(|d| u64::from(d.freq(term))).sum() };
        let head: u64 = (0..5u32).map(|i| count(TermId(i))).sum();
        let tail: u64 = (0..5u32)
            .map(|i| count(TermId(sc.config().vocab_size as u32 - 1 - i)))
            .sum();
        assert!(
            head > tail.saturating_mul(5),
            "head {head} should dwarf tail {tail}"
        );
    }

    #[test]
    fn doc_text_roundtrips_through_vocab() {
        let sc = tiny();
        let text = sc.doc_text(DocId(0));
        let words: Vec<&str> = text.split(' ').collect();
        assert_eq!(words.len(), sc.corpus().doc(DocId(0)).len() as usize);
        for w in words {
            assert!(sc.corpus().vocab().get(w).is_some());
        }
    }

    #[test]
    fn generated_words_distinct_and_wellformed() {
        let words = generate_words(500, 1);
        let set: HashSet<&String> = words.iter().collect();
        assert_eq!(set.len(), 500);
        for w in &words {
            assert!(w.len() >= 4 && w.len() <= 9, "odd word {w:?}");
            assert!(w.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }
}
