//! SPRITE — Selective PRogressive Index Tuning by Examples.
//!
//! Facade crate re-exporting the whole SPRITE stack. A reproduction of
//! *"SPRITE: A Learning-Based Text Retrieval System in DHT Networks"*
//! (Li, Jagadish, Tan — ICDE 2007).
//!
//! See the individual crates for the subsystems:
//!
//! * [`util`] — MD5, ring identifiers, Zipf sampling, top-k, statistics.
//! * [`text`] — tokenizer, stop words, Porter stemmer.
//! * [`ir`] — corpus model, centralized TF·IDF engine, evaluation metrics.
//! * [`chord`] — the Chord DHT simulator.
//! * [`corpus`] — synthetic corpus and the paper's query generator.
//! * [`core`] — the SPRITE system itself plus the eSearch baseline.
//! * [`audit`] — structural invariant checkers and the determinism auditor.
//!
//! # Quickstart
//!
//! ```
//! use sprite::core::{SpriteConfig, SpriteSystem};
//! use sprite::corpus::{CorpusConfig, SyntheticCorpus};
//! use sprite::ir::DocId;
//!
//! // A tiny world: 200 documents, 32 peers.
//! let world = SyntheticCorpus::generate(&CorpusConfig::tiny(7));
//! let mut system = SpriteSystem::build(world.corpus().clone(), 32, SpriteConfig::default(), 7);
//! system.publish_all();
//!
//! // Search for the first published term of document 0.
//! let term = system.published_terms(DocId(0))[0];
//! let word = system.corpus().vocab().term(term).to_string();
//! let hits = system.search(&[word.as_str()], 10);
//! assert!(!hits.is_empty() && hits.len() <= 10);
//! ```

#![deny(rust_2018_idioms)]

pub use sprite_audit as audit;
pub use sprite_chord as chord;
pub use sprite_core as core;
pub use sprite_corpus as corpus;
pub use sprite_ir as ir;
pub use sprite_text as text;
pub use sprite_util as util;
