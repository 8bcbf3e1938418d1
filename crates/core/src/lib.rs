//! SPRITE — Selective PRogressive Index Tuning by Examples.
//!
//! The paper's primary contribution (Li, Jagadish, Tan — ICDE 2007): a
//! text-retrieval system for DHT networks that publishes only a small,
//! *learned* set of global index terms per document, progressively refined
//! from the queries cached at indexing peers.
//!
//! * [`config`] — deployment tunables (§6.2 defaults) and the eSearch
//!   baseline configuration;
//! * [`peer`] — the two per-peer roles of §3 (indexing state with bounded
//!   query history; owner state with per-term learning statistics);
//! * [`learn`] — `qScore`, `QF`, the combined `Score`, and Algorithm 1;
//! * [`system`] — the deployment itself: publishing, distributed query
//!   processing, and the periodic learning pass over Chord;
//! * [`view`] — the frozen read-only query snapshot behind the parallel
//!   experiment engine (any number of threads rank against one system);
//! * [`resilience`] — §7: peer failure, successor replication, hot-term
//!   advisory;
//! * [`expansion`] — §7: local-context-analysis query expansion;
//! * [`experiment`] — the shared experiment driver behind every figure;
//! * [`trace`] — per-query [`QueryTrace`] reports for the observability
//!   layer (`sprite-trace`).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod expansion;
pub mod experiment;
pub mod learn;
pub mod metrics;
pub mod peer;
pub mod postings;
pub mod resilience;
pub mod system;
pub mod trace;
pub mod view;

pub use config::{IdfMode, SpriteConfig};
pub use expansion::ExpansionConfig;
pub use experiment::{
    churn_figure, fig4a, fig4b, fig4c, freshness_figure, loss_figure, update_cost, ChurnFigure,
    ChurnPoint, Fig4a, Fig4b, Fig4c, FreshnessFigure, FreshnessPoint, LossFigure, LossPoint,
    SeriesPoint, UpdateCost, World, WorldConfig,
};
pub use learn::{
    algorithm1, naive_select, q_score, select_terms, term_score, term_score_with, update_stats,
    ScoreMode,
};
pub use metrics::{gini, LoadReport, PeerLoad};
pub use peer::{CachedQuery, IndexEntry, IndexingState, OwnerDoc, TermStat};
pub use postings::{PostingIter, PostingList, PLAIN_ENTRY_BYTES};
pub use resilience::{AdvisoryReport, ChurnReport, MaintenanceReport};
pub use system::{DocTickReport, LearnReport, SpriteSystem, UpdateReport};
pub use trace::{KeywordTrace, QueryTrace};
pub use view::{QueryView, RankScratch};
