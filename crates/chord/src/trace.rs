//! Deterministic observability: structured trace events and mergeable
//! cost recorders.
//!
//! `NetStats` answers *how many* messages the simulation sent; it cannot
//! answer *where they went* or *which phase paid them*. This module adds
//! that second axis without touching the cost model:
//!
//! * [`Event`] — one charged message, tagged with a logical tick, the peer
//!   it targeted, its [`MsgKind`], and the [`Phase`] span that caused it;
//! * [`TraceSink`] — the zero-cost-when-disabled consumer trait. The
//!   `ENABLED` associated constant lets every traced helper compile down to
//!   its untraced body when the sink is [`NullTrace`]: the branch
//!   `if T::ENABLED` is resolved at monomorphization time;
//! * [`TraceRecorder`] — the recording sink: per-phase and per-kind event
//!   counts plus fixed-bucket [`Histogram`]s (hops per lookup, messages per
//!   query, replicas probed). Every field is a sum or a max, so
//!   [`TraceRecorder::merge`] is commutative like [`NetStats::merge`] and
//!   per-worker recorders fold bit-identically under `par_map`.
//!
//! The determinism contract is **observation only**: a traced run must
//! produce exactly the same results and `NetStats` as an untraced run
//! (audited by `sprite-audit`'s tracing stages).

use sprite_util::{Histogram, RingId};

use crate::stats::{MsgKind, NetStats, MSG_KINDS};

/// Operation spans that charge messages. Every traced event belongs to
/// exactly one phase, so per-phase counts partition the message bill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Index publication (term metadata writes and their replication).
    Publish,
    /// A bare Chord lookup outside any higher-level span.
    Lookup,
    /// Query processing: keyword routing, inverted-list fetches, failover.
    Query,
    /// The learning protocol (owner polls, cached-query returns, diffs).
    Learn,
    /// Ring and index maintenance (stabilization probes, orphan repair).
    Maintenance,
    /// Churn repair: re-replication after membership changes.
    ChurnRepair,
}

/// Number of distinct [`Phase`] values.
pub const PHASES: usize = 6;

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::Publish => 0,
            Phase::Lookup => 1,
            Phase::Query => 2,
            Phase::Learn => 3,
            Phase::Maintenance => 4,
            Phase::ChurnRepair => 5,
        }
    }

    /// All phases, in index order.
    #[must_use]
    pub fn all() -> [Phase; PHASES] {
        [
            Phase::Publish,
            Phase::Lookup,
            Phase::Query,
            Phase::Learn,
            Phase::Maintenance,
            Phase::ChurnRepair,
        ]
    }

    /// Stable lower-snake name, used by trace reports and the bench
    /// `metrics` JSON object.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Publish => "publish",
            Phase::Lookup => "lookup",
            Phase::Query => "query",
            Phase::Learn => "learn",
            Phase::Maintenance => "maintenance",
            Phase::ChurnRepair => "churn_repair",
        }
    }
}

/// One charged message, as seen by a [`TraceSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Logical time: experiment-defined (query index, learning iteration,
    /// maintenance round), never wall-clock — traces must be deterministic.
    pub tick: u64,
    /// The peer the message targeted (origin for timeout tallies).
    pub peer: RingId,
    /// Message class, identical to the `NetStats` classification.
    pub kind: MsgKind,
    /// The operation span that charged it.
    pub phase: Phase,
}

/// Consumer of trace events.
///
/// Not object-safe on purpose: the `ENABLED` constant makes
/// `if T::ENABLED { sink.emit(..) }` a compile-time branch, so the traced
/// helpers cost nothing when instantiated with [`NullTrace`]. Dispatch
/// between recording and not recording therefore happens by
/// monomorphization, not by `dyn` indirection.
pub trait TraceSink {
    /// Whether this sink observes anything at all. Helpers skip event
    /// construction entirely when this is `false`.
    const ENABLED: bool;

    /// Observe one charged message.
    fn emit(&mut self, ev: Event);

    /// Observe `n` identical charged messages (bulk charges).
    fn emit_n(&mut self, ev: Event, n: u64) {
        for _ in 0..n {
            self.emit(ev);
        }
    }

    /// Observe `n` payload bytes charged to `kind`. Bytes are an
    /// independent axis from events: a batched transfer emits one event
    /// but many records' bytes, a control message emits an event and no
    /// bytes.
    fn emit_bytes(&mut self, kind: MsgKind, n: u64);

    /// A completed application lookup took `hops` routing steps.
    fn lookup_done(&mut self, hops: u32);

    /// A query finished: total messages billed, replicas probed during
    /// failover, and the final rank size it returned.
    fn query_done(&mut self, messages: u64, replicas_probed: u64, rank_size: usize);
}

/// The disabled sink: every traced helper instantiated with this compiles
/// down to its untraced body.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    const ENABLED: bool = false;

    #[inline]
    fn emit(&mut self, _ev: Event) {}

    #[inline]
    fn emit_n(&mut self, _ev: Event, _n: u64) {}

    #[inline]
    fn emit_bytes(&mut self, _kind: MsgKind, _n: u64) {}

    #[inline]
    fn lookup_done(&mut self, _hops: u32) {}

    #[inline]
    fn query_done(&mut self, _messages: u64, _replicas_probed: u64, _rank_size: usize) {}
}

/// Buckets of the hops-per-lookup histogram (last bucket = overflow).
pub const HOP_BUCKETS: usize = 32;
/// Buckets of the messages-per-query histogram (last bucket = overflow).
pub const QUERY_MSG_BUCKETS: usize = 64;
/// Buckets of the replicas-probed histogram (last bucket = overflow).
pub const REPLICA_BUCKETS: usize = 8;

/// The recording sink: aggregate counters and histograms over every event
/// it observed. All fields are sums or maxes, so [`TraceRecorder::merge`]
/// is commutative and associative — per-worker recorders merged in input
/// order reproduce the sequential recorder bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecorder {
    phase_counts: [u64; PHASES],
    kind_counts: [u64; MSG_KINDS],
    /// Payload bytes observed per kind, mirroring `NetStats` byte charges.
    kind_bytes: [u64; MSG_KINDS],
    events: u64,
    queries: u64,
    hops_per_lookup: Histogram,
    messages_per_query: Histogram,
    replicas_probed: Histogram,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A zeroed recorder with the standard bucket layout.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder {
            phase_counts: [0; PHASES],
            kind_counts: [0; MSG_KINDS],
            kind_bytes: [0; MSG_KINDS],
            events: 0,
            queries: 0,
            hops_per_lookup: Histogram::new(HOP_BUCKETS),
            messages_per_query: Histogram::new(QUERY_MSG_BUCKETS),
            replicas_probed: Histogram::new(REPLICA_BUCKETS),
        }
    }

    /// Absorb the counts of `other` (commutative, like [`NetStats::merge`]).
    pub fn merge(&mut self, other: &TraceRecorder) {
        for i in 0..PHASES {
            self.phase_counts[i] += other.phase_counts[i];
        }
        for i in 0..MSG_KINDS {
            self.kind_counts[i] += other.kind_counts[i];
            self.kind_bytes[i] += other.kind_bytes[i];
        }
        self.events += other.events;
        self.queries += other.queries;
        self.hops_per_lookup.merge(&other.hops_per_lookup);
        self.messages_per_query.merge(&other.messages_per_query);
        self.replicas_probed.merge(&other.replicas_probed);
    }

    /// Attribute a whole `NetStats` span to one phase: every message
    /// counted between `before` and `after` becomes `diff` events of its
    /// kind under `phase`. Used for coarse spans (maintenance rounds, churn
    /// ticks) whose internals charge the network counters directly — the
    /// trace is derived *from* the accounting, so the two cannot diverge.
    pub fn absorb_span(&mut self, phase: Phase, before: &NetStats, after: &NetStats) {
        for kind in MsgKind::all() {
            let diff = after.count(kind).saturating_sub(before.count(kind));
            if diff > 0 {
                self.kind_counts[kind.index()] += diff;
                self.phase_counts[phase.index()] += diff;
                self.events += diff;
            }
            let byte_diff = after.bytes(kind).saturating_sub(before.bytes(kind));
            if byte_diff > 0 {
                self.kind_bytes[kind.index()] += byte_diff;
            }
        }
        // Per-lookup hop values are not recoverable from an aggregate span,
        // so coarse spans contribute event counts only — the hop histogram
        // is fed exclusively by per-lookup [`TraceSink::lookup_done`] calls.
    }

    /// Events observed under `phase`.
    #[must_use]
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase.index()]
    }

    /// Events observed of `kind`.
    #[must_use]
    pub fn kind_count(&self, kind: MsgKind) -> u64 {
        self.kind_counts[kind.index()]
    }

    /// Payload bytes observed for `kind`.
    #[must_use]
    pub fn kind_bytes(&self, kind: MsgKind) -> u64 {
        self.kind_bytes[kind.index()]
    }

    /// Payload bytes observed across all kinds.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.kind_bytes.iter().sum()
    }

    /// Total events observed.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Queries completed ([`TraceSink::query_done`] calls).
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Hops per completed application lookup.
    #[must_use]
    pub fn hops_per_lookup(&self) -> &Histogram {
        &self.hops_per_lookup
    }

    /// Messages billed per completed query.
    #[must_use]
    pub fn messages_per_query(&self) -> &Histogram {
        &self.messages_per_query
    }

    /// Failover replicas probed per completed query.
    #[must_use]
    pub fn replicas_probed(&self) -> &Histogram {
        &self.replicas_probed
    }
}

impl TraceSink for TraceRecorder {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: Event) {
        self.emit_n(ev, 1);
    }

    fn emit_n(&mut self, ev: Event, n: u64) {
        if n == 0 {
            return;
        }
        self.phase_counts[ev.phase.index()] += n;
        self.kind_counts[ev.kind.index()] += n;
        self.events += n;
    }

    fn emit_bytes(&mut self, kind: MsgKind, n: u64) {
        self.kind_bytes[kind.index()] += n;
    }

    fn lookup_done(&mut self, hops: u32) {
        self.hops_per_lookup.record(u64::from(hops));
    }

    fn query_done(&mut self, messages: u64, replicas_probed: u64, rank_size: usize) {
        self.queries += 1;
        self.messages_per_query.record(messages);
        self.replicas_probed.record(replicas_probed);
        let _ = rank_size;
    }
}

/// Charge one message to `stats` and, when the sink is enabled, emit the
/// matching event. This is the helper query-path modules must use instead
/// of calling `NetStats::record` directly, so accounting and tracing cannot
/// diverge (the recorder-equals-bill assertions in `tests/end_to_end.rs`
/// catch a bypass).
#[inline]
pub fn charge<T: TraceSink>(
    stats: &mut NetStats,
    sink: &mut T,
    tick: u64,
    peer: RingId,
    kind: MsgKind,
    phase: Phase,
) {
    stats.record(kind);
    if T::ENABLED {
        sink.emit(Event {
            tick,
            peer,
            kind,
            phase,
        });
    }
}

/// Bulk variant of [`charge`]: `n` messages of `kind` at once.
#[inline]
pub fn charge_n<T: TraceSink>(
    stats: &mut NetStats,
    sink: &mut T,
    tick: u64,
    peer: RingId,
    kind: MsgKind,
    phase: Phase,
    n: u64,
) {
    stats.record_n(kind, n);
    if T::ENABLED && n > 0 {
        sink.emit_n(
            Event {
                tick,
                peer,
                kind,
                phase,
            },
            n,
        );
    }
}

/// Charge `bytes` payload bytes to `kind`, keeping accounting and trace in
/// step. Byte charges never count messages — pair this with [`charge`] (or
/// a routed charge) for the message the payload rides on. Like the message
/// helpers, this is the only spelling the lint allows in charge-audited
/// modules, so `NetStats` and `TraceRecorder` byte totals cannot diverge.
#[inline]
pub fn charge_bytes<T: TraceSink>(stats: &mut NetStats, sink: &mut T, kind: MsgKind, bytes: u64) {
    stats.record_bytes(kind, bytes);
    if T::ENABLED && bytes > 0 {
        sink.emit_bytes(kind, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: MsgKind, phase: Phase) -> Event {
        Event {
            tick: 1,
            peer: RingId(42),
            kind,
            phase,
        }
    }

    #[test]
    fn recorder_counts_by_phase_and_kind() {
        let mut r = TraceRecorder::new();
        r.emit(ev(MsgKind::LookupHop, Phase::Query));
        r.emit(ev(MsgKind::LookupHop, Phase::Query));
        r.emit_n(ev(MsgKind::Replication, Phase::Publish), 3);
        assert_eq!(r.phase_count(Phase::Query), 2);
        assert_eq!(r.phase_count(Phase::Publish), 3);
        assert_eq!(r.kind_count(MsgKind::LookupHop), 2);
        assert_eq!(r.kind_count(MsgKind::Replication), 3);
        assert_eq!(r.events(), 5);
    }

    #[test]
    fn recorder_histograms() {
        let mut r = TraceRecorder::new();
        r.lookup_done(3);
        r.lookup_done(3);
        r.lookup_done(500); // overflow bucket
        r.query_done(12, 1, 20);
        r.query_done(7, 0, 20);
        assert_eq!(r.hops_per_lookup().count(), 3);
        assert_eq!(r.hops_per_lookup().buckets()[3], 2);
        assert_eq!(r.hops_per_lookup().buckets()[HOP_BUCKETS - 1], 1);
        assert_eq!(r.hops_per_lookup().max(), 500);
        assert_eq!(r.queries(), 2);
        assert_eq!(r.messages_per_query().sum(), 19);
        assert_eq!(r.replicas_probed().count(), 2);
    }

    #[test]
    fn merge_commutes_and_has_identity() {
        let mut a = TraceRecorder::new();
        a.emit(ev(MsgKind::QueryFetch, Phase::Query));
        a.lookup_done(2);
        a.query_done(5, 1, 10);
        let mut b = TraceRecorder::new();
        b.emit_n(ev(MsgKind::Maintenance, Phase::ChurnRepair), 4);
        b.lookup_done(9);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "recorder merge must be commutative");

        let mut with_empty = a.clone();
        with_empty.merge(&TraceRecorder::new());
        assert_eq!(with_empty, a, "merging a fresh recorder is the identity");
    }

    #[test]
    fn absorb_span_attributes_stats_diff_to_one_phase() {
        let before = NetStats::new();
        let mut after = NetStats::new();
        after.record_n(MsgKind::Maintenance, 6);
        after.record_n(MsgKind::Replication, 2);
        after.record_lookup(3);

        let mut r = TraceRecorder::new();
        r.absorb_span(Phase::Maintenance, &before, &after);
        assert_eq!(r.phase_count(Phase::Maintenance), 8);
        assert_eq!(r.kind_count(MsgKind::Maintenance), 6);
        assert_eq!(r.kind_count(MsgKind::Replication), 2);
        assert_eq!(r.events(), 8);
    }

    #[test]
    fn byte_charges_track_stats_and_recorder_together() {
        let mut stats = NetStats::new();
        let mut rec = TraceRecorder::new();
        charge_bytes(&mut stats, &mut rec, MsgKind::IndexPublish, 23);
        charge_bytes(&mut stats, &mut rec, MsgKind::IndexPublish, 7);
        charge_bytes(&mut stats, &mut rec, MsgKind::QueryFetch, 1);
        assert_eq!(stats.bytes(MsgKind::IndexPublish), 30);
        assert_eq!(rec.kind_bytes(MsgKind::IndexPublish), 30);
        assert_eq!(rec.kind_bytes(MsgKind::QueryFetch), 1);
        assert_eq!(rec.total_bytes(), stats.total_bytes());
        assert_eq!(rec.events(), 0, "byte charges never count messages");
        assert_eq!(stats.total_messages(), 0);
    }

    #[test]
    fn absorb_span_carries_byte_diffs() {
        let mut before = NetStats::new();
        before.record_bytes(MsgKind::Replication, 10);
        let mut after = before.clone();
        after.record_n(MsgKind::Replication, 2);
        after.record_bytes(MsgKind::Replication, 90);
        let mut r = TraceRecorder::new();
        r.absorb_span(Phase::ChurnRepair, &before, &after);
        assert_eq!(r.kind_count(MsgKind::Replication), 2);
        assert_eq!(r.kind_bytes(MsgKind::Replication), 90);
        assert_eq!(r.total_bytes(), 90);
    }

    #[test]
    fn merge_adds_byte_totals() {
        let mut a = TraceRecorder::new();
        a.emit_bytes(MsgKind::LearnReturn, 40);
        let mut b = TraceRecorder::new();
        b.emit_bytes(MsgKind::LearnReturn, 2);
        b.emit_bytes(MsgKind::QueryFetch, 8);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "byte merge must be commutative");
        assert_eq!(ab.kind_bytes(MsgKind::LearnReturn), 42);
        assert_eq!(ab.total_bytes(), 50);
    }

    #[test]
    fn charge_helpers_keep_stats_and_trace_in_step() {
        let mut stats = NetStats::new();
        let mut rec = TraceRecorder::new();
        charge(
            &mut stats,
            &mut rec,
            0,
            RingId(7),
            MsgKind::QueryFetch,
            Phase::Query,
        );
        charge_n(
            &mut stats,
            &mut rec,
            0,
            RingId(7),
            MsgKind::LearnReturn,
            Phase::Learn,
            5,
        );
        assert_eq!(stats.count(MsgKind::QueryFetch), 1);
        assert_eq!(stats.count(MsgKind::LearnReturn), 5);
        assert_eq!(rec.kind_count(MsgKind::QueryFetch), 1);
        assert_eq!(rec.kind_count(MsgKind::LearnReturn), 5);
        assert_eq!(rec.events(), stats.total_messages());
    }

    #[test]
    fn null_trace_observes_nothing_and_is_disabled() {
        // The associated consts drive the zero-cost dispatch; pin them
        // (through a generic reader, as call sites observe them).
        fn enabled<T: TraceSink>() -> bool {
            T::ENABLED
        }
        assert!(!enabled::<NullTrace>());
        assert!(enabled::<TraceRecorder>());
        let mut stats = NetStats::new();
        let mut null = NullTrace;
        charge(
            &mut stats,
            &mut null,
            0,
            RingId(1),
            MsgKind::Failed,
            Phase::Lookup,
        );
        assert_eq!(stats.count(MsgKind::Failed), 1);
    }

    #[test]
    fn phase_names_and_indices_are_distinct() {
        let mut names = std::collections::HashSet::new();
        let mut indices = std::collections::HashSet::new();
        for p in Phase::all() {
            assert!(names.insert(p.name()));
            assert!(indices.insert(p.index()));
        }
        assert_eq!(names.len(), PHASES);
    }
}
