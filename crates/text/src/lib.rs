//! Text analysis for SPRITE: tokenizer, stop words, Porter stemmer.
//!
//! Implements the preprocessing the paper describes in §5.2/§6: "we
//! summarize the terms in a document and filter them with a
//! stop-word-list … then we apply the stemming algorithm". The default
//! stop list is Lucene's English list (the paper's choice); the stemmer is
//! a from-scratch Porter (1980) implementation.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analyzer;
pub mod porter;
pub mod stopwords;
pub mod tokenizer;

pub use analyzer::{Analyzer, Stemming, TermCounts};
pub use porter::stem;
pub use stopwords::{StopWords, LUCENE_ENGLISH};
pub use tokenizer::{Tokenizer, TokenizerConfig};
