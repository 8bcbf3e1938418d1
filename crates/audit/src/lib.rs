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

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod determinism;
pub mod invariants;

pub use determinism::{
    audit_determinism, audit_lifecycle, audit_sim, fingerprint_recorder,
    parallel_results_fingerprint, run_trace, traced_parallel_fingerprints, DeterminismReport,
    LifecycleAudit, SimAudit, Trace,
};
pub use invariants::{check_index, check_ring, check_system, Violation};
