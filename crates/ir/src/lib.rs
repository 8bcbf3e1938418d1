//! Information-retrieval substrate for SPRITE.
//!
//! Provides the pieces the paper's evaluation takes for granted:
//!
//! * [`doc`] — interned terms, analyzed documents, the corpus container;
//! * [`index`] — a full centralized inverted index with exact global
//!   statistics (`N`, `n_k`);
//! * [`rank`] — TF·IDF weighting, cosine and Lee-"second method"
//!   similarities, and the ideal [`rank::CentralizedEngine`] every figure
//!   normalizes against;
//! * [`eval`] — precision/recall at K and the ratio-over-centralized
//!   reporting of §6.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod doc;
pub mod eval;
pub mod index;
pub mod rank;

pub use doc::{Corpus, DocId, Document, TermId, Vocab};
pub use eval::{
    average_precision, evaluate_at_k, evaluate_hits_at_k, ndcg_at_k, PrEval, RatioAccumulator,
    RatioEval,
};
pub use index::{InvertedIndex, Posting};
pub use rank::{
    idf, tfidf_weight, CentralizedEngine, Hit, Query, SearchScratch, Similarity, TermCounts,
};
