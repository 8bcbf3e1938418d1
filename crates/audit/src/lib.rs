//! Auditing for the SPRITE reproduction: invariant checkers and a
//! determinism auditor.
//!
//! Every layer of this workspace is a deterministic simulation, which makes
//! strong auditing cheap: any structural property the papers promise can be
//! checked against the *live* state of a run, and whole experiments can be
//! replayed bit-for-bit. This crate packages those checks:
//!
//! * [`invariants`] — pure checkers over a [`sprite_chord::ChordNet`] and
//!   a [`sprite_core::SpriteSystem`], returning typed [`Violation`]s: ring
//!   symmetry and finger correctness (Chord's §IV invariants),
//!   posting-block well-formedness and shape, the per-document global-term
//!   cap, and TF·IDF weight sanity (§4).
//! * [`determinism`] — runs a small end-to-end experiment twice from the
//!   same seed and fingerprints every stage (ring state, index contents,
//!   ranked results) with MD5, reporting the first stage that diverges.
//!
//! The companion binary `sprite-lint` (see `src/bin/sprite-lint.rs`) is a
//! workspace *source* audit: it scans every crate for patterns that would
//! undermine the determinism and safety story (`unwrap()` in library code,
//! wall-clock time or ambient randomness in simulation crates, missing
//! `#![forbid(unsafe_code)]`, unsorted `HashMap` iteration in ranked-output
//! modules) and exits nonzero with `file:line` diagnostics.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod determinism;
pub mod invariants;
pub mod lex;
pub mod rules;
pub mod syntax;

pub use rules::{analyze, analyze_sources, Diagnostic};

pub use determinism::{
    audit_determinism, audit_lifecycle, audit_sim, fingerprint_recorder,
    parallel_results_fingerprint, run_trace, traced_parallel_fingerprints, DeterminismReport,
    LifecycleAudit, SimAudit, Trace,
};
pub use invariants::{check_index, check_ring, check_system, Violation};
