//! A Chord DHT simulator, as the SPRITE paper uses it.
//!
//! "We implemented Chord as designed in \[15\]. All terms are hashed using
//! MD5" (§6). This crate provides that substrate as a deterministic
//! single-process simulation:
//!
//! * [`ring`] — the network: finger-table routing with honest O(log N) hop
//!   accounting, join/leave/abrupt-failure, and the stabilization protocol;
//! * [`node`] — per-node routing state (predecessor, successor list,
//!   fingers);
//! * [`stats`] — message counters classified by purpose, feeding the cost
//!   studies;
//! * [`trace`] — the deterministic observability layer: zero-cost-when-
//!   disabled trace sinks, structured events, and mergeable cost recorders;
//! * [`sim`] — the network model (latency/jitter, link asymmetry,
//!   Bernoulli loss) behind the event-driven delivery layer; the default
//!   perfect network is bit-identical to lockstep execution.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod churn;
pub mod node;
pub mod ring;
pub mod sim;
pub mod stats;
mod store;
pub mod trace;

pub use churn::{ChurnConfig, ChurnEngine, ChurnEvent, TickReport};
pub use node::NodeView;
pub use ring::{ChordConfig, ChordError, ChordNet, Lookup, LookupLite, RouteMemo};
pub use sim::SimConfig;
pub use stats::{MsgKind, NetStats, MSG_KINDS};
pub use trace::{Event, NullTrace, Phase, TraceRecorder, TraceSink, PHASES};
