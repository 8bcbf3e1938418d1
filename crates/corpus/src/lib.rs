//! Workload generation for the SPRITE evaluation.
//!
//! The paper evaluates on TREC9 plus a purpose-built query generator
//! (§6.1). This crate provides both halves:
//!
//! * [`synthetic`] — a topic-model corpus substituting the licensed TREC9
//!   collection (the substitution argument is in DESIGN.md §2), with one
//!   expert-judged seed query per topic standing in for TREC9's 63 judged
//!   queries;
//! * [`querygen`] — the paper's two-phase query generator re-implemented
//!   verbatim: overlap-ratio term selection with `Distribution(t)`
//!   nearest-neighbor replacement, and rank-aligned relevance transfer.
//!
//! Beyond the paper's frozen-corpus setup, [`lifecycle`] adds a seeded
//! document-churn engine (insert/update/delete streams) for the live
//! corpus dynamics study.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod lifecycle;
pub mod querygen;
pub mod synthetic;
pub mod trec;

pub use lifecycle::{DocChurnConfig, DocChurnEngine, DocEvent};
pub use querygen::{
    generate_workload, issue_order, split_train_test, GenConfig, GeneratedQuery, Schedule,
    TermDistribution,
};
pub use synthetic::{CorpusConfig, SeedQuery, SyntheticCorpus};
pub use trec::{parse_qrels, parse_topics, seed_queries_from_trec, ParseError, Qrels, Topic};
