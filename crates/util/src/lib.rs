//! Foundations shared by every SPRITE crate.
//!
//! This crate holds the paper-mandated primitives that do not belong to any
//! one subsystem:
//!
//! * [`md5()`] — the MD5 digest (RFC 1321) used to hash terms, queries, and
//!   peer addresses onto the Chord ring (SPRITE §6);
//! * [`id`] — 128-bit ring identifiers with Chord's wrap-around interval
//!   arithmetic, and the [`IdMap`] keyed by them;
//! * [`zipf`] — exact Zipf sampling for term statistics and the `w-zipf`
//!   query schedule of Figure 4(b);
//! * [`topk`] — bounded top-k selection used for term budgets and answer
//!   lists;
//! * [`stats`] — one-pass summaries for experiment reporting;
//! * [`rng`] — labeled, deterministic RNG derivation so every experiment is
//!   reproducible;
//! * [`pool`] — the deterministic scoped-thread pool behind every parallel
//!   construct in the workspace (order-preserving `par_map`);
//! * [`hist`] — fixed-bucket histograms with a commutative merge, the
//!   aggregation primitive of the observability layer;
//! * [`codec`] — the dependency-free wire codec (LEB128 varints, zig-zag,
//!   delta-encoded gap lists) and the [`WireSize`] trait behind the
//!   byte-accurate network accounting;
//! * [`event`] — the `(time, seq)`-keyed discrete-event queue behind the
//!   event-driven message delivery layer.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod event;
pub mod hist;
pub mod id;
pub mod md5;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod topk;
pub mod zipf;

pub use codec::{
    decode_gap_list, decode_varint, encode_gap_list, encode_varint, gap_list_len, unzigzag,
    varint_len, zigzag, CodecError, WireSize, MAX_VARINT_LEN,
};
pub use event::EventQueue;
pub use hist::Histogram;
pub use id::{IdHasher, IdMap, RingId, ID_BITS};
pub use md5::{md5, md5_u128, Digest, Md5};
pub use pool::{configured_threads, override_threads, par_map, par_map_init};
pub use rng::{derive_rng, DetRng, SliceRng, UniformRange};
pub use stats::{percentile, Summary};
pub use topk::{top_k, F64Ord, Scored, TopK};
pub use zipf::Zipf;
