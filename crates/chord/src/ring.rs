//! The Chord network simulator.
//!
//! "We implemented Chord as designed in \[15\]" (§6 of the SPRITE paper).
//! This module is that implementation, as a deterministic single-process
//! simulation: every peer's routing state is explicit ([`NodeView`]), every
//! inter-peer interaction is charged to [`NetStats`], and lookups route using
//! **only node-local information** (fingers + successor lists), so hop counts
//! are honest O(log N) Chord hops, not oracle shortcuts.
//!
//! Two construction modes:
//!
//! * [`ChordNet::with_nodes`] builds an already-converged ring (free of
//!   charge) — the steady-state starting point of the retrieval experiments;
//! * [`ChordNet::create`] / [`ChordNet::join`] / [`ChordNet::leave`] /
//!   [`ChordNet::fail`] plus [`ChordNet::stabilize_round`] and
//!   [`ChordNet::fix_fingers_round`] implement the full dynamic protocol for
//!   the churn studies (§7).

use std::collections::{BTreeSet, HashMap};

use sprite_util::{derive_rng, RingId, ID_BITS};

use crate::node::{FingerTable, NodeState, NodeView, Slot};
use crate::sim::{self, SimConfig};
use crate::stats::{MsgKind, NetStats};
use crate::store::NodeStore;
use crate::trace::{self, Event, NullTrace, Phase, TraceSink};

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Successor-list length `r` (fault tolerance; Chord suggests
    /// `r = Θ(log N)`). Default 8.
    pub succ_list_len: usize,
    /// Safety bound on routing steps before a lookup aborts. Default 512.
    pub max_lookup_hops: u32,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            succ_list_len: 8,
            max_lookup_hops: 512,
        }
    }
}

/// Errors from membership operations and lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChordError {
    /// The referenced node is not in the network.
    UnknownNode(RingId),
    /// Attempt to add a node with an identifier already present.
    DuplicateNode(RingId),
    /// Operation requires a non-empty network.
    EmptyNetwork,
    /// Routing reached a node with no usable (alive) successor.
    DeadEnd {
        /// The node where routing got stuck.
        at: RingId,
        /// Dead peers probed over the whole walk before giving up — the
        /// retry layer uses this to back off instead of silently dropping
        /// the key (a walk that burned many timeouts is evidence the ring
        /// is badly damaged, not just that one entry was stale).
        failed_probes: u64,
    },
    /// Routing exceeded the configured hop bound (ring badly damaged).
    TooManyHops {
        /// Origin of the lookup.
        from: RingId,
        /// The key being resolved.
        key: RingId,
    },
    /// An in-flight hop message was dropped by the network model on every
    /// retransmission attempt — a *real* timeout, not a dead-probe one.
    Lost {
        /// The sender of the undeliverable hop.
        at: RingId,
        /// Its unreachable target (alive, but the link drowned).
        to: RingId,
        /// Transmissions dropped over the whole walk, each already billed
        /// as one [`MsgKind::Timeout`].
        dropped: u64,
    },
}

impl std::fmt::Display for ChordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChordError::UnknownNode(id) => write!(f, "unknown node {id:?}"),
            ChordError::DuplicateNode(id) => write!(f, "node {id:?} already present"),
            ChordError::EmptyNetwork => write!(f, "network is empty"),
            ChordError::DeadEnd { at, failed_probes } => {
                write!(
                    f,
                    "routing dead end at {at:?} after {failed_probes} failed probes"
                )
            }
            ChordError::TooManyHops { from, key } => {
                write!(f, "lookup from {from:?} for {key:?} exceeded hop bound")
            }
            ChordError::Lost { at, to, dropped } => {
                write!(
                    f,
                    "hop {at:?} -> {to:?} lost in flight after {dropped} dropped transmissions"
                )
            }
        }
    }
}

impl std::error::Error for ChordError {}

/// A resolved lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lookup {
    /// The node responsible for the key.
    pub owner: RingId,
    /// Routing steps taken (0 when the origin's successor owns the key).
    pub hops: u32,
    /// Nodes visited, origin first, owner *not* included.
    pub path: Vec<RingId>,
}

/// A resolved lookup without the visited-path allocation — the hot-path
/// result of [`ChordNet::lookup_fast`] and [`ChordNet::probe`]. The path is
/// only needed by audits and diagnostics; the retrieval loops resolve
/// millions of keys and should not pay a `Vec` per lookup for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupLite {
    /// The node responsible for the key.
    pub owner: RingId,
    /// Routing steps taken (0 when the origin's successor owns the key).
    pub hops: u32,
}

/// Memoized routing outcomes for the batched query pipeline.
///
/// The batched evaluate path resolves every distinct `(from, key)` pair of
/// a query batch once up front ([`RouteMemo::build`] — one sequential pass
/// of read-only walks), then each in-flight query replays the
/// recorded outcome through [`ChordNet::probe_via`]. Replay bills exactly
/// what [`ChordNet::probe`] would have billed — the walk's `(hops,
/// failed-probe)` tally is stored next to its outcome — so per-query
/// [`NetStats`] deltas merged in input order reproduce the unmemoized
/// reference bit for bit, while keywords shared across in-flight queries
/// pay the routing walk only once.
#[derive(Clone, Debug, Default)]
pub struct RouteMemo {
    routes: HashMap<(u128, u128), MemoRoute>,
}

/// One recorded walk: the outcome [`ChordNet::probe`] would return plus
/// the exact charge it would make.
#[derive(Clone, Debug)]
struct MemoRoute {
    outcome: Result<LookupLite, ChordError>,
    hops: u32,
    failed: u64,
    lost: u64,
}

impl RouteMemo {
    /// Walk every distinct `(from, key)` pair once over a frozen network.
    /// Duplicates are collapsed on insertion (`entry` — first occurrence
    /// walks, the rest reuse), so the memo's contents depend only on the
    /// pair *set*: a walk is a pure function of `(from, key)` on a frozen
    /// ring, making the build order unobservable. The build is a single
    /// sequential pass — route resolution is a small fraction of a batch's
    /// work, and spawning pool workers for it costs more than the walks.
    #[must_use]
    pub fn build(net: &ChordNet, pairs: &[(RingId, RingId)]) -> Self {
        let mut routes = HashMap::with_capacity(pairs.len());
        for &(from, key) in pairs {
            routes.entry((from.0, key.0)).or_insert_with(|| {
                let (outcome, hops, failed, lost) =
                    net.walk(from, key, Phase::Lookup, 0, &mut NullTrace, None);
                MemoRoute {
                    outcome,
                    hops,
                    failed,
                    lost,
                }
            });
        }
        RouteMemo { routes }
    }

    /// Number of distinct routes memoized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no routes are memoized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// The simulated Chord network.
#[derive(Clone, Debug)]
pub struct ChordNet {
    cfg: ChordConfig,
    nodes: NodeStore,
    /// Sorted alive identifiers (oracle for ideal construction and tests;
    /// never consulted during routing).
    sorted: BTreeSet<u128>,
    stats: NetStats,
    /// Network model every message transits; the default is the perfect
    /// (zero-latency, zero-loss) network, which is never even sampled.
    sim: SimConfig,
}

impl ChordNet {
    /// An empty network.
    #[must_use]
    pub fn new(cfg: ChordConfig) -> Self {
        ChordNet {
            cfg,
            nodes: NodeStore::default(),
            sorted: BTreeSet::new(),
            stats: NetStats::new(),
            sim: SimConfig::default(),
        }
    }

    /// Build an already-converged ring over `ids` (duplicates ignored).
    /// Charges no messages: this is the experiment's steady-state start.
    #[must_use]
    pub fn with_nodes(cfg: ChordConfig, ids: &[RingId]) -> Self {
        let mut net = ChordNet::new(cfg);
        for &id in ids {
            if net.sorted.insert(id.0) {
                let slot = net.nodes.intern(id.0);
                net.nodes.revive(slot, NodeState::solitary(id, slot));
            }
        }
        net.ideal_repair();
        net
    }

    /// Build a converged ring of `n` peers with identifiers derived from the
    /// seed (MD5 of synthetic peer addresses, like a deployment hashing
    /// `ip:port`).
    #[must_use]
    pub fn with_random_nodes(cfg: ChordConfig, n: usize, seed: u64) -> Self {
        let mut rng = derive_rng(seed, "chord-peers");
        let ids: Vec<RingId> = (0..n)
            .map(|i| {
                let addr = format!("peer-{i}-{:08x}:{}", rng.gen_u32(), 1024 + (i % 60000));
                RingId::hash_bytes(addr.as_bytes())
            })
            .collect();
        Self::with_nodes(cfg, &ids)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    /// The active network model.
    #[must_use]
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// Install a network model. Must be set before any traffic a caller
    /// wants modeled; replacing the model mid-run is deterministic (link
    /// fates are pure functions) but changes subsequent samples.
    pub fn set_sim(&mut self, sim: SimConfig) {
        self.sim = sim;
    }

    /// Plan one application-level message `from → to` through the network
    /// model. `Ok((arrival, drops))` means some transmission got through:
    /// `arrival` is its scheduler-time offset and `drops` the dropped
    /// attempts, each owed one [`MsgKind::Timeout`] charge by the caller.
    /// `Err(drops)` means the retransmission budget drowned and the message
    /// is lost for good. The perfect default short-circuits to
    /// `Ok((0, 0))` without sampling — the bit-identity contract. This is
    /// the only delivery entry for application crates (the per-attempt
    /// sampler is private to [`sim`]); `sprite-core` calls it from one
    /// place, `SpriteSystem::deliver`.
    pub fn plan_delivery(&self, from: RingId, to: RingId, salt: u64) -> Result<(u64, u64), u64> {
        if self.sim.is_perfect() {
            return Ok((0, 0));
        }
        self.sim.transmit(from, to, salt)
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are alive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is `id` an alive node?
    #[must_use]
    pub fn contains(&self, id: RingId) -> bool {
        self.nodes.contains(id.0)
    }

    /// Routing state of a node, if alive, every pointer resolved to its id.
    #[must_use]
    pub fn node(&self, id: RingId) -> Option<NodeView<'_>> {
        let slot = self.nodes.alive_slot(id.0)?;
        Some(NodeView::new(
            self.nodes.state(slot),
            slot,
            self.nodes.ids(),
        ))
    }

    /// The permanent slot of `id` in the id table, when the network has
    /// been told about it — alive, failed, departed or only pointed at.
    #[must_use]
    pub fn slot_of(&self, id: RingId) -> Option<u32> {
        self.nodes.slot(id.0)
    }

    /// The id interned at `slot`, if that slot exists.
    #[must_use]
    pub fn id_at(&self, slot: u32) -> Option<RingId> {
        self.nodes.ids().get(slot as usize).map(|&v| RingId(v))
    }

    /// Ids interned so far, alive or dead: the id table's length.
    #[must_use]
    pub fn interned(&self) -> usize {
        self.nodes.interned()
    }

    /// The slot of an alive node, or [`ChordError::UnknownNode`].
    fn alive_slot(&self, id: RingId) -> Result<Slot, ChordError> {
        self.nodes
            .alive_slot(id.0)
            .ok_or(ChordError::UnknownNode(id))
    }

    /// Overwrite finger `k` of node `id` — **corruption injection** for
    /// audits and tests only; the simulation itself never calls this, nor
    /// the other two setters. They exist so `sprite-audit`'s checkers can
    /// be exercised against known-broken routing state. A `target` the
    /// network has never seen is interned as a dead peer.
    pub fn set_finger(&mut self, id: RingId, k: usize, target: RingId) -> Result<(), ChordError> {
        let slot = self.alive_slot(id)?;
        let target = self.nodes.intern(target.0);
        self.nodes.state_mut(slot).set_finger(k, target);
        Ok(())
    }

    /// Replace the successor list of node `id` — corruption injection (see
    /// [`Self::set_finger`]). The list must stay non-empty.
    pub fn set_successor_list(&mut self, id: RingId, list: &[RingId]) -> Result<(), ChordError> {
        assert!(!list.is_empty(), "successor list must stay non-empty");
        let slot = self.alive_slot(id)?;
        let list: Vec<Slot> = list.iter().map(|s| self.nodes.intern(s.0)).collect();
        self.nodes.state_mut(slot).set_successors(&list);
        Ok(())
    }

    /// Replace the predecessor pointer of node `id` — corruption injection
    /// (see [`Self::set_finger`]).
    pub fn set_predecessor(&mut self, id: RingId, pred: Option<RingId>) -> Result<(), ChordError> {
        let slot = self.alive_slot(id)?;
        let pred = pred.map(|p| self.nodes.intern(p.0));
        self.nodes.state_mut(slot).set_pred(pred);
        Ok(())
    }

    /// Alive node identifiers in ring order.
    #[must_use]
    pub fn node_ids(&self) -> Vec<RingId> {
        self.sorted.iter().map(|&v| RingId(v)).collect()
    }

    /// Deterministic logical bytes of all stored routing state (see
    /// `NodeStore::logical_bytes`): length-based accounting of every ring
    /// id a node keeps, plus per-slot index cost. The memory-per-peer
    /// bench metric divides this by [`Self::len`] and gates it exactly.
    #[must_use]
    pub fn logical_state_bytes(&self) -> u64 {
        self.nodes.logical_bytes()
    }

    /// Bytes the routing state actually occupies — the state arena, every
    /// node's link block, the id table and the `id → slot` index, by
    /// capacity. Unlike
    /// [`Self::logical_state_bytes`] it depends on allocation history, so
    /// it is bounded by tests, never gated exactly.
    #[must_use]
    pub fn resident_state_bytes(&self) -> u64 {
        self.nodes.resident_bytes()
    }

    /// Message counters.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Zero the message counters (start of a measured phase).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Charge an application-level message (e.g. an index publish after the
    /// routing already paid its hops).
    pub fn charge(&mut self, kind: MsgKind) {
        self.stats.record(kind);
    }

    /// Charge `n` application-level messages.
    pub fn charge_n(&mut self, kind: MsgKind, n: u64) {
        self.stats.record_n(kind, n);
    }

    /// Charge `n` payload bytes to `kind` without counting a message (the
    /// message itself is billed separately via [`Self::charge`] or a
    /// routed walk).
    pub fn charge_bytes(&mut self, kind: MsgKind, n: u64) {
        self.stats.record_bytes(kind, n);
    }

    // ------------------------------------------------------------------
    // Oracle (test / setup only — never used in routing)
    // ------------------------------------------------------------------

    /// The node that *should* own `key`: the first alive identifier
    /// clockwise at or after it.
    #[must_use]
    pub fn oracle_owner(&self, key: RingId) -> Option<RingId> {
        self.sorted
            .range(key.0..)
            .next()
            .or_else(|| self.sorted.iter().next())
            .map(|&v| RingId(v))
    }

    /// The `n` alive nodes clockwise from (and including) the owner of
    /// `key` — the replica set for that key (§7 successor replication).
    #[must_use]
    pub fn oracle_replicas(&self, key: RingId, n: usize) -> Vec<RingId> {
        let mut out = Vec::with_capacity(n.min(self.nodes.len()));
        if self.is_empty() || n == 0 {
            return out;
        }
        let mut iter = self
            .sorted
            .range(key.0..)
            .chain(self.sorted.iter())
            .map(|&v| RingId(v));
        while out.len() < n.min(self.nodes.len()) {
            let id = iter.next().expect("cycle over non-empty set");
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// Is every node's successor pointer and finger table exactly what the
    /// oracle says it should be? (Convergence check for churn tests.)
    #[must_use]
    pub fn is_converged(&self) -> bool {
        let (ids, slots) = self.ring_order();
        self.nodes.alive_slots().all(|slot| {
            let node = self.nodes.state(slot);
            let ideal = FingerTable::ideal(node.id(), &ids, &slots);
            // Finger 0 starts at `id + 1`: its owner is the successor.
            node.successors()[0] == ideal.get(0) && node.has_fingers(&ideal)
        })
    }

    /// Alive ids in ring order, and the slot of each.
    fn ring_order(&self) -> (Vec<u128>, Vec<Slot>) {
        let ids: Vec<u128> = self.sorted.iter().copied().collect();
        let slots = ids
            .iter()
            .map(|&v| self.nodes.slot(v).expect("alive ids are interned"))
            .collect();
        (ids, slots)
    }

    /// Rebuild every node's pointers from the oracle, free of charge.
    /// Used to construct converged rings and to fast-forward repair in
    /// experiments that are not about the repair protocol itself.
    pub fn ideal_repair(&mut self) {
        let (ids, slots) = self.ring_order();
        if ids.is_empty() {
            return;
        }
        let n = ids.len();
        // A node never lists itself among its successors (except when alone).
        let r = self.cfg.succ_list_len.min(n.saturating_sub(1)).max(1);
        let mut succ = Vec::with_capacity(r);
        for (i, (&idv, &slot)) in ids.iter().zip(&slots).enumerate() {
            let id = RingId(idv);
            succ.clear();
            succ.extend((1..=r).map(|j| slots[(i + j) % n]));
            let pred = slots[(i + n - 1) % n];
            let fingers = FingerTable::ideal(id, &ids, &slots);
            self.nodes
                .revive(slot, NodeState::new(id, Some(pred), &succ, &fingers));
        }
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Create the first node of the network.
    pub fn create(&mut self, id: RingId) -> Result<(), ChordError> {
        if !self.is_empty() {
            return Err(ChordError::DuplicateNode(id));
        }
        let slot = self.nodes.intern(id.0);
        self.nodes.revive(slot, NodeState::solitary(id, slot));
        self.sorted.insert(id.0);
        self.debug_validate();
        Ok(())
    }

    /// Join `id` via an alive `bootstrap` node: one lookup to find the
    /// successor, then immediate successor/predecessor hookup. Finger tables
    /// of other nodes converge through [`Self::stabilize_round`] /
    /// [`Self::fix_fingers_round`].
    pub fn join(&mut self, id: RingId, bootstrap: RingId) -> Result<(), ChordError> {
        if self.contains(id) {
            return Err(ChordError::DuplicateNode(id));
        }
        if !self.contains(bootstrap) {
            return Err(ChordError::UnknownNode(bootstrap));
        }
        let succ = self.route(bootstrap, id, MsgKind::Maintenance)?.owner;
        // Copy the successor's list (one message), then hook up pointers
        // (one notify message).
        self.stats.record_n(MsgKind::Maintenance, 2);
        // A failed id rejoins at its old slot: stale pointers to it read
        // alive again.
        let slot = self.nodes.intern(id.0);
        let succ_slot = self.nodes.alive_slot(succ.0).expect("owner is alive");
        let s = self.nodes.state(succ_slot);
        let mut list = vec![succ_slot];
        list.extend(
            s.successors()
                .iter()
                .copied()
                .filter(|&x| x != slot)
                .take(self.cfg.succ_list_len - 1),
        );
        // Adopt the successor's old predecessor when it is still plausible.
        let pred = s
            .pred()
            .filter(|&p| self.nodes.is_alive(p) && id.in_open(self.nodes.id(p), succ));
        let node = NodeState::new(id, pred, &list, &FingerTable::filled(succ_slot));
        self.nodes.revive(slot, node);
        self.sorted.insert(id.0);
        // Notify the successor that we now precede it.
        let keep = self.nodes.state(succ_slot).pred().is_some_and(|p| {
            p != slot && self.nodes.is_alive(p) && !id.in_open(self.nodes.id(p), succ)
        });
        if !keep {
            self.nodes.state_mut(succ_slot).set_pred(Some(slot));
        }
        self.debug_validate();
        Ok(())
    }

    /// Graceful departure: the node hands its position to its neighbors
    /// before leaving (two messages). Other nodes' fingers remain stale
    /// until maintenance runs.
    pub fn leave(&mut self, id: RingId) -> Result<(), ChordError> {
        let (slot, node) = self.nodes.remove(id.0).ok_or(ChordError::UnknownNode(id))?;
        self.sorted.remove(&id.0);
        if self.is_empty() {
            return Ok(());
        }
        self.stats.record_n(MsgKind::Maintenance, 2);
        // Tell the successor its new predecessor.
        let succ = node
            .successors()
            .iter()
            .copied()
            .find(|&s| self.nodes.is_alive(s));
        let pred = node.pred().filter(|&p| self.nodes.is_alive(p));
        if let (Some(sv), Some(pv)) = (succ, pred) {
            let s = self.nodes.state_mut(sv);
            if s.pred() == Some(slot) {
                s.set_pred(Some(pv));
            }
            let p = self.nodes.state_mut(pv);
            let mut list = p.successors().to_vec();
            if list[0] == slot {
                list[0] = sv;
            }
            list.retain(|&x| x != slot);
            if list.is_empty() {
                list.push(sv);
            }
            p.set_successors(&list);
        }
        self.debug_validate();
        Ok(())
    }

    /// Abrupt failure: the node vanishes without telling anyone. Stale
    /// pointers remain everywhere until maintenance repairs them.
    pub fn fail(&mut self, id: RingId) -> Result<(), ChordError> {
        self.nodes.remove(id.0).ok_or(ChordError::UnknownNode(id))?;
        self.sorted.remove(&id.0);
        self.debug_validate();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Resolve the owner of `key` starting from node `from`, charging one
    /// [`MsgKind::LookupHop`] per routing step and recording the lookup in
    /// the hop statistics. Returns the full visited path; hot callers that
    /// do not need it should use [`Self::lookup_fast`].
    pub fn lookup(&mut self, from: RingId, key: RingId) -> Result<Lookup, ChordError> {
        self.route(from, key, MsgKind::LookupHop)
    }

    /// [`Self::lookup`] without the visited-path allocation. Identical
    /// routing decisions and identical stats charging — only the `path`
    /// bookkeeping is skipped. The retrieval hot paths (publish, query,
    /// learning) use the traced spelling; this is its [`NullTrace`] instance.
    pub fn lookup_fast(&mut self, from: RingId, key: RingId) -> Result<LookupLite, ChordError> {
        self.lookup_fast_traced(from, key, Phase::Lookup, 0, &mut NullTrace)
    }

    /// Read-only lookup for the parallel query engine: routes exactly like
    /// [`Self::lookup_fast`] but charges into a caller-owned [`NetStats`]
    /// delta instead of the network's own counters, so concurrent queries
    /// can each accumulate their share and merge deterministically
    /// afterwards (see [`Self::absorb_stats`]).
    pub fn probe(
        &self,
        from: RingId,
        key: RingId,
        stats: &mut NetStats,
    ) -> Result<LookupLite, ChordError> {
        self.probe_traced(from, key, stats, Phase::Lookup, 0, &mut NullTrace, None)
    }

    /// [`Self::probe`] through a [`RouteMemo`]: a memoized `(from, key)`
    /// pair replays the recorded outcome and bills exactly what the walk
    /// would have billed; a miss falls back to walking. Results and
    /// charges are bit-identical to [`Self::probe`] either way — the memo
    /// only removes repeated work, never changes it.
    pub fn probe_via(
        &self,
        memo: &RouteMemo,
        from: RingId,
        key: RingId,
        stats: &mut NetStats,
    ) -> Result<LookupLite, ChordError> {
        match memo.routes.get(&(from.0, key.0)) {
            Some(route) => {
                stats.charge_route(
                    MsgKind::LookupHop,
                    route.hops,
                    route.failed,
                    route.lost,
                    route.outcome.is_ok(),
                );
                route.outcome.clone()
            }
            None => self.probe(from, key, stats),
        }
    }

    /// Merge a [`NetStats`] delta produced by [`Self::probe`] (or any
    /// off-to-the-side accounting) back into the network's counters.
    pub fn absorb_stats(&mut self, delta: &NetStats) {
        self.stats.merge(delta);
    }

    /// [`Self::replicas_from_owner_traced`] with tracing off.
    #[must_use]
    pub fn replicas_from_owner(
        &self,
        owner: RingId,
        n: usize,
        stats: &mut NetStats,
    ) -> Vec<RingId> {
        self.replicas_from_owner_traced(owner, n, stats, Phase::Lookup, 0, &mut NullTrace)
    }

    /// [`Self::probe`] that additionally emits the walk's events into
    /// `sink`, as the walk makes them: one [`MsgKind::LookupHop`] per node
    /// contacted, then the dead probes and in-flight drops (attributed to
    /// the origin — the dead targets are no longer addressable peers) and
    /// the hop-histogram entry of a completed lookup. A failed walk emits
    /// what it billed before giving up, so recorder totals equal the
    /// `NetStats` bill on any ring. `route`, when given, receives the
    /// origin plus every node contacted. With [`NullTrace`] the event
    /// branches compile out: [`Self::probe`] is exactly this call.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_traced<T: TraceSink>(
        &self,
        from: RingId,
        key: RingId,
        stats: &mut NetStats,
        phase: Phase,
        tick: u64,
        sink: &mut T,
        route: Option<&mut Vec<RingId>>,
    ) -> Result<LookupLite, ChordError> {
        let (result, hops, failed, lost) = self.walk(from, key, phase, tick, sink, route);
        stats.charge_route(MsgKind::LookupHop, hops, failed, lost, result.is_ok());
        result
    }

    /// [`Self::probe_traced`] charged to the network's own counters — the
    /// spelling of the mutating publish and learning paths.
    pub fn lookup_fast_traced<T: TraceSink>(
        &mut self,
        from: RingId,
        key: RingId,
        phase: Phase,
        tick: u64,
        sink: &mut T,
    ) -> Result<LookupLite, ChordError> {
        let (result, hops, failed, lost) = self.walk(from, key, phase, tick, sink, None);
        self.stats
            .charge_route(MsgKind::LookupHop, hops, failed, lost, result.is_ok());
        result
    }

    /// [`Self::charge`] that also emits the matching trace event. Query-path
    /// modules use this so accounting and tracing cannot diverge (the
    /// recorder-equals-bill assertions in `tests/end_to_end.rs` catch a
    /// bypass).
    pub fn charge_traced<T: TraceSink>(
        &mut self,
        kind: MsgKind,
        phase: Phase,
        tick: u64,
        peer: RingId,
        sink: &mut T,
    ) {
        trace::charge(&mut self.stats, sink, tick, peer, kind, phase);
    }

    /// [`Self::charge_n`] that also emits the matching trace events.
    pub fn charge_n_traced<T: TraceSink>(
        &mut self,
        kind: MsgKind,
        phase: Phase,
        tick: u64,
        peer: RingId,
        n: u64,
        sink: &mut T,
    ) {
        trace::charge_n(&mut self.stats, sink, tick, peer, kind, phase, n);
    }

    /// Charge `bytes` payload bytes to `kind`, mirrored into `sink`. Byte
    /// charges ride on messages billed separately via
    /// [`Self::charge_traced`]/[`Self::charge_n_traced`]; this is the only
    /// spelling query-path modules may use, so `NetStats` and recorder byte
    /// totals cannot diverge (checked kind by kind in `tests/end_to_end.rs`).
    pub fn charge_bytes_traced<T: TraceSink>(&mut self, kind: MsgKind, bytes: u64, sink: &mut T) {
        trace::charge_bytes(&mut self.stats, sink, kind, bytes);
    }

    /// Resolve the §7 replica set of a key **by routing**, not the oracle:
    /// starting from the already-routed `owner`, walk successor lists
    /// (node-local state only) and collect the first `n` distinct alive
    /// peers clockwise, owner first. Each alive peer contacted beyond the
    /// owner costs one [`MsgKind::Maintenance`] message (the probe that
    /// confirms it and fetches its successor list); each dead successor
    /// entry probed costs one [`MsgKind::Timeout`], attributed to the
    /// owner. Every charge goes to the caller-owned `stats` delta and, as
    /// the same step, into `sink`, so the read-only query path can resolve
    /// replicas concurrently and merge later via [`Self::absorb_stats`].
    ///
    /// On a converged ring this returns exactly [`Self::oracle_replicas`]
    /// of the owner's key; mid-churn it returns whatever the successor
    /// chain can actually reach, which may be shorter than `n`.
    #[must_use]
    pub fn replicas_from_owner_traced<T: TraceSink>(
        &self,
        owner: RingId,
        n: usize,
        stats: &mut NetStats,
        phase: Phase,
        tick: u64,
        sink: &mut T,
    ) -> Vec<RingId> {
        let want = n.min(self.len());
        let mut out = Vec::with_capacity(want);
        let Some(mut cur) = self.nodes.alive_slot(owner.0) else {
            return out;
        };
        if want == 0 {
            return out;
        }
        out.push(owner);
        while out.len() < want {
            let mut next = None;
            for &s in self.nodes.state(cur).successors() {
                if s == cur {
                    continue; // a lone node (or tiny ring) listing itself
                }
                if !self.nodes.is_alive(s) {
                    trace::charge(stats, sink, tick, owner, MsgKind::Timeout, phase);
                    continue;
                }
                let id = self.nodes.id(s);
                if !out.contains(&id) {
                    next = Some((s, id));
                    break;
                }
                // Already collected (wrap-around on a small ring): keep
                // scanning this list for a fresh peer, free of charge.
            }
            let Some((slot, id)) = next else {
                break; // chain exhausted; degrade to the replicas we have
            };
            trace::charge(stats, sink, tick, id, MsgKind::Maintenance, phase);
            out.push(id);
            cur = slot;
        }
        out
    }

    /// Routing engine of [`Self::lookup`] and the maintenance probes; `kind`
    /// selects the message class charged per step. Hop statistics are only
    /// recorded for application lookups ([`MsgKind::LookupHop`]).
    fn route(&mut self, from: RingId, key: RingId, kind: MsgKind) -> Result<Lookup, ChordError> {
        let mut path = Vec::new();
        let (result, hops, failed, lost) =
            self.walk(from, key, Phase::Lookup, 0, &mut NullTrace, Some(&mut path));
        self.stats
            .charge_route(kind, hops, failed, lost, result.is_ok());
        result.map(|lite| Lookup {
            owner: lite.owner,
            hops: lite.hops,
            path,
        })
    }

    /// The one routing walk behind every lookup flavor: immutable over the
    /// network (which is what lets [`Self::probe`] serve concurrent
    /// readers), optional path recording, trace events emitted as it goes
    /// (see [`Self::probe_traced`]). Returns the outcome plus the (hops,
    /// failed-probe, dropped-transmission) tally for the caller to charge.
    fn walk<T: TraceSink>(
        &self,
        from: RingId,
        key: RingId,
        phase: Phase,
        tick: u64,
        sink: &mut T,
        mut path: Option<&mut Vec<RingId>>,
    ) -> (Result<LookupLite, ChordError>, u32, u64, u64) {
        // The one index probe of the walk: every later pointer is a slot.
        let Some(origin) = self.nodes.alive_slot(from.0) else {
            return (Err(ChordError::UnknownNode(from)), 0, 0, 0);
        };
        let ids = self.nodes.ids();
        let event = |peer, kind| Event {
            tick,
            peer,
            kind,
            phase,
        };
        let mut cur = origin;
        let mut hops: u32 = 0;
        let mut failed: u64 = 0;
        let mut lost: u64 = 0;
        if let Some(p) = path.as_deref_mut() {
            p.push(from);
        }
        let result = loop {
            let node = self.nodes.state(cur);
            let cur_id = node.id();
            // The node's first usable successor (probing a dead entry costs
            // a timeout message).
            let mut succ = None;
            for &s in node.successors() {
                if self.nodes.is_alive(s) {
                    succ = Some(s);
                    break;
                }
                failed += 1;
            }
            let Some(succ) = succ else {
                break Err(ChordError::DeadEnd {
                    at: cur_id,
                    failed_probes: failed,
                });
            };
            let succ_id = RingId(ids[succ as usize]);
            if key.in_open_closed(cur_id, succ_id) {
                break Ok(LookupLite {
                    owner: succ_id,
                    hops,
                });
            }
            let nodes = &self.nodes;
            let next = node
                .closest_preceding(key, ids, |cand| {
                    let ok = nodes.is_alive(cand);
                    if !ok {
                        failed += 1;
                    }
                    ok
                })
                .unwrap_or(succ);
            if next == cur {
                break Err(ChordError::DeadEnd {
                    at: cur_id,
                    failed_probes: failed,
                });
            }
            let next_id = RingId(ids[next as usize]);
            // The hop message `cur → next` transits the network model:
            // every dropped transmission is one real in-flight timeout,
            // and an exhausted retransmission budget abandons the walk.
            // Sampling is a pure function of `(sim seed, cur, next, key,
            // hop index)`, so replaying this walk — memoized or parallel —
            // realizes the same fates.
            if self.sim.lossy() {
                match self.sim.transmit(cur_id, next_id, sim::hop_salt(key, hops)) {
                    Ok((_arrival, drops)) => lost += drops,
                    Err(drops) => {
                        lost += drops;
                        break Err(ChordError::Lost {
                            at: cur_id,
                            to: next_id,
                            dropped: lost,
                        });
                    }
                }
            }
            cur = next;
            hops += 1;
            if T::ENABLED {
                sink.emit(event(next_id, MsgKind::LookupHop));
            }
            if let Some(p) = path.as_deref_mut() {
                p.push(next_id);
            }
            if hops > self.cfg.max_lookup_hops {
                break Err(ChordError::TooManyHops { from, key });
            }
        };
        if T::ENABLED {
            sink.emit_n(event(from, MsgKind::Failed), failed);
            sink.emit_n(event(from, MsgKind::Timeout), lost);
            if result.is_ok() {
                sink.lookup_done(hops);
            }
        }
        (result, hops, failed, lost)
    }

    // ------------------------------------------------------------------
    // Maintenance protocol
    // ------------------------------------------------------------------

    /// One stabilization pass over every node (deterministic ring order):
    /// reconcile successors, notify, and refresh successor lists. Returns
    /// the number of pointer changes made (0 ⇒ successor structure stable).
    pub fn stabilize_round(&mut self) -> usize {
        let ids: Vec<u128> = self.sorted.iter().copied().collect();
        let mut changes = 0;
        let mut new_list = Vec::with_capacity(self.cfg.succ_list_len);
        for idv in ids {
            let Some(me) = self.nodes.alive_slot(idv) else {
                continue; // failed since the snapshot
            };
            let id = RingId(idv);
            let nodes = &self.nodes;
            // Find the first alive entry of the successor list (or any alive
            // finger as a last resort).
            let (s, failed) = {
                let node = nodes.state(me);
                let mut failed = 0u64;
                let mut found = None;
                // A node may legitimately find itself in its successor list
                // (lone node, or a ring smaller than the list); `self` is
                // always reachable.
                for &cand in node.successors() {
                    if cand == me || nodes.is_alive(cand) {
                        found = Some(cand);
                        break;
                    }
                    failed += 1;
                }
                if found.is_none() {
                    found = node.fingers().find(|&f| f != me && nodes.is_alive(f));
                }
                (found, failed)
            };
            self.stats.record_n(MsgKind::Failed, failed);
            let Some(mut s) = s else {
                continue; // isolated; nothing to stabilize against
            };
            // Ask s for its predecessor (one message); adopt it when closer.
            // With s == id this asks ourselves — how a lone node discovers a
            // newly joined predecessor, since (id, id) is the full circle.
            self.stats.record(MsgKind::Maintenance);
            if let Some(p) = nodes.state(s).pred() {
                if p != me && nodes.is_alive(p) && nodes.id(p).in_open(id, nodes.id(s)) {
                    s = p;
                }
            }
            // Copy s's successor list (one message) and adopt [s] + prefix.
            self.stats.record(MsgKind::Maintenance);
            new_list.clear();
            new_list.push(s);
            for &x in nodes.state(s).successors() {
                if x != me && !new_list.contains(&x) && new_list.len() < self.cfg.succ_list_len {
                    new_list.push(x);
                }
            }
            changes += usize::from(self.nodes.state_mut(me).set_successors(&new_list));
            // Notify s (one message): "I might be your predecessor."
            self.stats.record(MsgKind::Maintenance);
            if s != me {
                let s_id = self.nodes.id(s);
                let s_pred = self.nodes.state(s).pred();
                let adopt = match s_pred {
                    None => true,
                    Some(p) => {
                        p == me || !self.nodes.is_alive(p) || id.in_open(self.nodes.id(p), s_id)
                    }
                };
                if adopt && s_pred != Some(me) {
                    self.nodes.state_mut(s).set_pred(Some(me));
                    changes += 1;
                }
            }
        }
        self.debug_validate();
        changes
    }

    /// One finger-refresh pass over every node: each finger is re-resolved
    /// by routing (charged as maintenance traffic). Consecutive fingers that
    /// provably share an owner reuse the previous answer, the standard Chord
    /// optimization. Returns the number of finger entries changed.
    pub fn fix_fingers_round(&mut self) -> usize {
        let ids: Vec<u128> = self.sorted.iter().copied().collect();
        let mut changes = 0;
        for idv in ids {
            let Some(me) = self.nodes.alive_slot(idv) else {
                continue;
            };
            let id = RingId(idv);
            let mut prev: Option<(RingId, Slot)> = None;
            for k in 0..ID_BITS {
                let start = id.finger_start(k);
                // Reuse the previous finger when the interval start has not
                // passed it yet: owner(start) is then the same node.
                if let Some((pf, slot)) = prev {
                    if pf != id && start.in_open_closed(id, pf) {
                        let node = self.nodes.state_mut(me);
                        changes += usize::from(node.set_finger(k as usize, slot));
                        continue;
                    }
                }
                let resolved = self.route(id, start, MsgKind::Maintenance).map(|l| l.owner);
                if let Ok(owner) = resolved {
                    let slot = self.nodes.alive_slot(owner.0).expect("owner is alive");
                    let node = self.nodes.state_mut(me);
                    changes += usize::from(node.set_finger(k as usize, slot));
                    prev = Some((owner, slot));
                } else {
                    prev = None;
                }
            }
        }
        changes
    }

    /// Structural self-check run after every mutation in debug builds
    /// (free in release). These are the invariants that must hold at *all*
    /// times, even mid-churn — the stronger converged-ring properties
    /// (finger correctness, successor-list prefixes) belong to
    /// `sprite-audit`'s `check_ring`, which is only meaningful on a
    /// quiescent network.
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.nodes.len(),
                self.sorted.len(),
                "node map and sorted index out of sync"
            );
            let interned = self.nodes.interned();
            for slot in self.nodes.alive_slots() {
                let node = self.nodes.state(slot);
                let idv = node.id().0;
                debug_assert!(self.sorted.contains(&idv), "node {idv} missing from index");
                debug_assert_eq!(
                    self.nodes.alive_slot(idv),
                    Some(slot),
                    "node {idv} is not addressable under its own id"
                );
                debug_assert!(
                    !node.successors().is_empty(),
                    "successor list of {idv} is empty"
                );
                debug_assert!(
                    node.successors().len() <= self.cfg.succ_list_len,
                    "successor list of {idv} exceeds configured length"
                );
                debug_assert!(
                    node.is_well_formed(),
                    "finger table of {idv} is not a canonical run table"
                );
                let mut links = (node.successors().iter().copied())
                    .chain(node.pred())
                    .chain(node.runs().map(|(f, _)| f));
                debug_assert!(
                    links.all(|s| (s as usize) < interned),
                    "node {idv} points past the id table"
                );
            }
        }
    }

    /// Run maintenance until quiescent or `max_rounds` exhausted. Returns
    /// the number of rounds executed.
    pub fn converge(&mut self, max_rounds: usize) -> usize {
        for round in 1..=max_rounds {
            let a = self.stabilize_round();
            let b = self.fix_fingers_round();
            if a == 0 && b == 0 {
                return round;
            }
        }
        max_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: usize) -> ChordNet {
        ChordNet::with_random_nodes(ChordConfig::default(), n, 99)
    }

    #[test]
    fn with_nodes_is_converged() {
        let net = ring_of(32);
        assert_eq!(net.len(), 32);
        assert!(net.is_converged());
    }

    #[test]
    fn one_wrong_finger_at_any_position_is_not_converged() {
        let mut net = ring_of(32);
        let victim = net.node_ids()[5];
        for k in 0..ID_BITS as usize {
            let right = net.node(victim).expect("alive").finger(k);
            // With 31 other peers no finger of the victim is the victim.
            net.set_finger(victim, k, victim).expect("alive");
            assert!(!net.is_converged(), "wrong entry {k} went unnoticed");
            net.set_finger(victim, k, right).expect("alive");
        }
        assert!(net.is_converged());
    }

    #[test]
    fn ring_state_occupies_a_seventh_of_its_logical_bytes_at_most() {
        // 128 finger entries of 16 B per peer are counted; ≈ log2 N runs
        // of 4-B slots are stored: ≤ 318 B a peer.
        let net = ring_of(10_000);
        let (resident, logical) = (net.resident_state_bytes(), net.logical_state_bytes());
        assert_eq!(logical, 10_000 * 2_228);
        assert!(
            resident * 7 <= logical,
            "resident {resident} B vs logical {logical} B"
        );
    }

    #[test]
    fn single_node_owns_everything() {
        let mut net = ChordNet::with_nodes(ChordConfig::default(), &[RingId(7)]);
        for key in [0u128, 7, 8, u128::MAX] {
            let l = net.lookup(RingId(7), RingId(key)).expect("lookup");
            assert_eq!(l.owner, RingId(7));
            assert_eq!(l.hops, 0);
        }
    }

    #[test]
    fn two_node_ring() {
        let mut net = ChordNet::with_nodes(ChordConfig::default(), &[RingId(100), RingId(200)]);
        // Key 150 belongs to 200; key 250 wraps to 100.
        assert_eq!(
            net.lookup(RingId(100), RingId(150)).unwrap().owner,
            RingId(200)
        );
        assert_eq!(
            net.lookup(RingId(100), RingId(250)).unwrap().owner,
            RingId(100)
        );
        assert_eq!(
            net.lookup(RingId(200), RingId(150)).unwrap().owner,
            RingId(200)
        );
        assert_eq!(
            net.lookup(RingId(200), RingId(100)).unwrap().owner,
            RingId(100)
        );
    }

    #[test]
    fn probe_via_memo_replays_probe_bit_for_bit() {
        // Converged and damaged rings alike: for every (from, key) pair,
        // the memoized probe must return the same outcome and charge the
        // same stats as a fresh walk — including failed-probe billing on
        // rings with dead successor entries.
        let mut net = ring_of(48);
        let victims: Vec<RingId> = net.node_ids().into_iter().step_by(9).take(4).collect();
        for v in victims {
            net.fail(v).expect("alive node");
        }
        let ids = net.node_ids();
        let keys: Vec<RingId> = (0..24)
            .map(|i| RingId::hash_bytes(format!("memo-key-{i}").as_bytes()))
            .collect();
        let mut pairs: Vec<(RingId, RingId)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            pairs.push((ids[i % ids.len()], key));
            // Duplicates on purpose: the memo must dedup without drift.
            pairs.push((ids[i % ids.len()], key));
        }
        let memo = RouteMemo::build(&net, &pairs);
        assert_eq!(memo.len(), keys.len(), "duplicate pairs must coalesce");
        assert!(!memo.is_empty());
        for &(from, key) in &pairs {
            let mut direct = NetStats::new();
            let mut replayed = NetStats::new();
            let a = net.probe(from, key, &mut direct);
            let b = net.probe_via(&memo, from, key, &mut replayed);
            assert_eq!(a, b, "outcome drift from {from:?} key {key:?}");
            assert_eq!(direct, replayed, "charge drift from {from:?} key {key:?}");
        }
        // A miss falls back to the plain walk.
        let fresh = RingId::hash_bytes(b"not-memoized");
        let mut direct = NetStats::new();
        let mut fallback = NetStats::new();
        assert_eq!(
            net.probe(ids[0], fresh, &mut direct),
            net.probe_via(&memo, ids[0], fresh, &mut fallback)
        );
        assert_eq!(direct, fallback);
    }

    #[test]
    fn lookup_matches_oracle_from_every_node() {
        let mut net = ring_of(64);
        let ids = net.node_ids();
        let keys: Vec<RingId> = (0..50)
            .map(|i| RingId::hash_bytes(format!("key-{i}").as_bytes()))
            .collect();
        for &from in &ids {
            for &key in &keys {
                let want = net.oracle_owner(key).unwrap();
                let got = net.lookup(from, key).expect("lookup");
                assert_eq!(got.owner, want, "from {from:?} key {key:?}");
            }
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let mut net = ring_of(256);
        let ids = net.node_ids();
        net.reset_stats();
        for i in 0..500 {
            let from = ids[i % ids.len()];
            let key = RingId::hash_bytes(format!("probe-{i}").as_bytes());
            net.lookup(from, key).expect("lookup");
        }
        let mean = net.stats().mean_hops();
        // Chord: ~(1/2) log2 N expected, log2 N worst typical. For N=256,
        // log2 N = 8; allow generous slack.
        assert!(mean > 1.0, "mean hops {mean} suspiciously low");
        assert!(mean < 9.0, "mean hops {mean} too high for N=256");
        assert!(net.stats().max_hops() <= 20);
    }

    #[test]
    fn lookup_from_unknown_node_fails() {
        let mut net = ring_of(8);
        let err = net.lookup(RingId(1), RingId(5)).unwrap_err();
        assert!(matches!(err, ChordError::UnknownNode(_)));
    }

    #[test]
    fn explicit_perfect_sim_is_bit_identical_to_default() {
        // A SimConfig with zero latency/jitter/asymmetry/loss must leave the
        // pipeline untouched even with a nonzero seed: the delivery layer
        // short-circuits before sampling.
        let run = |configure: bool| {
            let mut net = ring_of(48);
            if configure {
                net.set_sim(SimConfig {
                    seed: 0xdead_beef,
                    ..SimConfig::default()
                });
            }
            net.reset_stats();
            let ids = net.node_ids();
            let mut owners = Vec::new();
            for i in 0..200 {
                let from = ids[i % ids.len()];
                let key = RingId::hash_bytes(format!("perfect-{i}").as_bytes());
                owners.push(net.lookup_fast(from, key).map(|l| l.owner));
            }
            (owners, net.stats().clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn lossy_walks_bill_real_timeouts_and_replay_identically() {
        let run = || {
            let mut net = ring_of(64);
            net.set_sim(SimConfig {
                seed: 7,
                loss: 0.05,
                ..SimConfig::default()
            });
            net.reset_stats();
            let ids = net.node_ids();
            let mut outcomes = Vec::new();
            for i in 0..300 {
                let from = ids[i % ids.len()];
                let key = RingId::hash_bytes(format!("lossy-{i}").as_bytes());
                outcomes.push(net.lookup_fast(from, key).map(|l| l.owner));
            }
            (outcomes, net.stats().clone())
        };
        let (outcomes, stats) = run();
        assert!(
            stats.count(MsgKind::Timeout) > 0,
            "5% loss over 300 walks must drop some transmissions"
        );
        assert_eq!((outcomes, stats), run(), "same seed, same event order");
    }

    #[test]
    fn total_loss_surfaces_as_lost_with_exhausted_retries() {
        let mut net = ring_of(32);
        net.set_sim(SimConfig {
            seed: 3,
            loss: 1.0,
            max_retries: 2,
            ..SimConfig::default()
        });
        net.reset_stats();
        let ids = net.node_ids();
        let mut lost_seen = false;
        for i in 0..50 {
            let from = ids[i % ids.len()];
            let key = RingId::hash_bytes(format!("drowned-{i}").as_bytes());
            match net.lookup_fast(from, key) {
                // Zero-hop lookups (key owned by the origin's successor)
                // send nothing and legitimately still succeed.
                Ok(l) => assert_eq!(l.hops, 0, "no hop message can survive 100% loss"),
                Err(ChordError::Lost { dropped, .. }) => {
                    lost_seen = true;
                    assert_eq!(dropped, 3, "1 + max_retries transmissions dropped");
                }
                Err(other) => panic!("expected Lost, got {other}"),
            }
        }
        assert!(lost_seen, "some walk must need at least one hop");
        assert!(net.stats().count(MsgKind::Timeout) > 0);
    }

    #[test]
    fn join_then_converge_restores_correctness() {
        let mut net = ring_of(32);
        let ids = net.node_ids();
        let newbie = RingId::hash_bytes(b"late-arrival");
        net.join(newbie, ids[0]).expect("join");
        assert_eq!(net.len(), 33);
        net.converge(40);
        assert!(net.is_converged(), "ring should converge after join");
        // The new node now owns its arc.
        let key = RingId(newbie.0); // its own id
        let l = net.lookup(ids[5], key).expect("lookup");
        assert_eq!(l.owner, newbie);
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut net = ring_of(4);
        let ids = net.node_ids();
        assert_eq!(
            net.join(ids[1], ids[0]).unwrap_err(),
            ChordError::DuplicateNode(ids[1])
        );
    }

    #[test]
    fn graceful_leave_keeps_ring_working() {
        let mut net = ring_of(16);
        let ids = net.node_ids();
        net.leave(ids[3]).expect("leave");
        assert_eq!(net.len(), 15);
        // Immediately after a graceful leave, the spliced neighbors keep the
        // ring routable (fingers may be stale but succ pointers are fixed).
        for i in 0..20 {
            let key = RingId::hash_bytes(format!("after-leave-{i}").as_bytes());
            let want = net.oracle_owner(key).unwrap();
            let from = ids[(i * 5) % ids.len()];
            if from == ids[3] {
                continue;
            }
            let got = net.lookup(from, key).expect("lookup after leave");
            assert_eq!(got.owner, want);
        }
        net.converge(40);
        assert!(net.is_converged());
    }

    #[test]
    fn abrupt_failure_repaired_by_maintenance() {
        let mut net = ring_of(32);
        let ids = net.node_ids();
        // Kill three scattered nodes without warning.
        for &victim in [ids[2], ids[10], ids[25]].iter() {
            net.fail(victim).expect("fail");
        }
        assert_eq!(net.len(), 29);
        net.converge(60);
        assert!(net.is_converged(), "maintenance should repair the ring");
        let from = net.node_ids()[0];
        for i in 0..30 {
            let key = RingId::hash_bytes(format!("post-churn-{i}").as_bytes());
            let want = net.oracle_owner(key).unwrap();
            assert_eq!(net.lookup(from, key).unwrap().owner, want);
        }
    }

    #[test]
    fn lookups_survive_failures_via_successor_lists() {
        let mut net = ring_of(64);
        let ids = net.node_ids();
        // Fail 4 nodes, no repair at all.
        for &v in &[ids[1], ids[20], ids[40], ids[60]] {
            net.fail(v).unwrap();
        }
        let alive = net.node_ids();
        let mut ok = 0;
        let mut total = 0;
        for i in 0..100 {
            let key = RingId::hash_bytes(format!("dodgy-{i}").as_bytes());
            let from = alive[i % alive.len()];
            total += 1;
            if let Ok(l) = net.lookup(from, key) {
                // Owner must at least be alive.
                assert!(net.contains(l.owner));
                ok += 1;
            }
        }
        // With r=8 successor lists and 4/64 failures, virtually every lookup
        // must still complete.
        assert!(ok >= total - 2, "only {ok}/{total} lookups survived");
    }

    #[test]
    fn oracle_replicas_wrap_and_dedup() {
        let net = ChordNet::with_nodes(
            ChordConfig::default(),
            &[RingId(10), RingId(20), RingId(30)],
        );
        assert_eq!(
            net.oracle_replicas(RingId(25), 2),
            vec![RingId(30), RingId(10)]
        );
        // Asking for more replicas than nodes returns each node once.
        assert_eq!(net.oracle_replicas(RingId(0), 10).len(), 3);
        assert!(net.oracle_replicas(RingId(0), 0).is_empty());
    }

    #[test]
    fn create_and_grow_from_scratch() {
        let mut net = ChordNet::new(ChordConfig::default());
        let first = RingId::hash_bytes(b"genesis");
        net.create(first).expect("create");
        for i in 0..15 {
            let id = RingId::hash_bytes(format!("grower-{i}").as_bytes());
            net.join(id, first).expect("join");
            net.converge(50);
        }
        assert_eq!(net.len(), 16);
        assert!(net.is_converged());
        // All lookups correct from everywhere.
        let ids = net.node_ids();
        for (i, &from) in ids.iter().enumerate() {
            let key = RingId::hash_bytes(format!("check-{i}").as_bytes());
            assert_eq!(
                net.lookup(from, key).unwrap().owner,
                net.oracle_owner(key).unwrap()
            );
        }
    }

    #[test]
    fn maintenance_traffic_is_charged() {
        let mut net = ring_of(16);
        net.reset_stats();
        net.stabilize_round();
        assert!(net.stats().count(MsgKind::Maintenance) >= 16 * 3);
        let before = net.stats().count(MsgKind::Maintenance);
        net.fix_fingers_round();
        assert!(net.stats().count(MsgKind::Maintenance) >= before);
        // Lookup stats untouched by maintenance routing.
        assert_eq!(net.stats().lookups(), 0);
    }

    #[test]
    fn absorb_stats_merges_probe_deltas() {
        let mut net = ring_of(16);
        net.reset_stats();
        let from = net.node_ids()[0];
        let mut delta = NetStats::new();
        net.probe(from, RingId::hash_bytes(b"absorbed"), &mut delta)
            .expect("probe");
        assert_eq!(net.stats().lookups(), 0, "probe must not touch the net");
        net.absorb_stats(&delta);
        assert_eq!(net.stats().lookups(), 1);
        assert_eq!(net.stats(), &delta);
    }

    #[test]
    fn routed_replicas_match_oracle_on_converged_ring() {
        let net = ring_of(64);
        for i in 0..40 {
            let key = RingId::hash_bytes(format!("replica-key-{i}").as_bytes());
            let owner = net.oracle_owner(key).unwrap();
            let mut delta = NetStats::new();
            for n in [1usize, 3, 8] {
                let routed = net.replicas_from_owner(owner, n, &mut delta);
                assert_eq!(routed, net.oracle_replicas(key, n), "key {i}, n {n}");
            }
            // A healthy chain never times out.
            assert_eq!(delta.count(MsgKind::Timeout), 0);
        }
    }

    #[test]
    fn routed_replicas_charge_per_contact_and_timeout() {
        let mut net = ring_of(32);
        let key = RingId::hash_bytes(b"charged-key");
        let owner = net.oracle_owner(key).unwrap();
        // Kill the owner's immediate successor so the chain walk must probe
        // a dead entry.
        let victim = net.oracle_replicas(key, 2)[1];
        net.fail(victim).unwrap();
        let mut delta = NetStats::new();
        let routed = net.replicas_from_owner(owner, 3, &mut delta);
        assert_eq!(routed.len(), 3);
        assert!(!routed.contains(&victim));
        assert!(routed.iter().all(|&p| net.contains(p)));
        assert_eq!(
            delta.count(MsgKind::Maintenance),
            2,
            "one contact per replica beyond the owner"
        );
        assert!(
            delta.count(MsgKind::Timeout) >= 1,
            "the dead successor entry must be charged as a timeout"
        );
    }

    #[test]
    fn traced_walks_emit_exactly_what_they_bill() {
        // Dead successor entries and a lossy network at once, so walks
        // complete, get `Lost` and probe dead peers in one run. Every
        // flavor of the one walk — traced, `NullTrace` wrapper, full-path
        // `lookup`, memo replay — must return and bill the same, and a
        // recorder must count, kind by kind, that same bill.
        use crate::trace::TraceRecorder;
        let agree = |rec: &TraceRecorder, bill: &NetStats| {
            for kind in MsgKind::all() {
                assert_eq!(rec.kind_count(kind), bill.count(kind), "{kind:?}");
            }
            assert_eq!(rec.hops_per_lookup().count(), bill.lookups());
        };
        let mut net = ring_of(64);
        for v in net.node_ids().into_iter().step_by(7).take(6) {
            net.fail(v).expect("alive node");
        }
        net.set_sim(SimConfig {
            seed: 5,
            loss: 0.3,
            max_retries: 1,
            ..SimConfig::default()
        });
        let ids = net.node_ids();
        let pairs: Vec<(RingId, RingId)> = (0..200)
            .map(|i| {
                let key = RingId::hash_bytes(format!("traced-{i}").as_bytes());
                (ids[i % ids.len()], key)
            })
            .collect();
        let memo = RouteMemo::build(&net, &pairs);
        let (mut lost_walks, mut dead_probes, mut chain_timeouts) = (0, 0, 0);
        for (from, key) in pairs {
            let (mut plain, mut traced) = (NetStats::new(), NetStats::new());
            let mut rec = TraceRecorder::new();
            let want = net.probe(from, key, &mut plain);
            let got = net.probe_traced(from, key, &mut traced, Phase::Query, 0, &mut rec, None);
            assert_eq!(got, want);
            assert_eq!(traced, plain);
            agree(&rec, &traced);
            lost_walks += u64::from(matches!(want, Err(ChordError::Lost { .. })));
            dead_probes += plain.count(MsgKind::Failed);

            let mut rec = TraceRecorder::new();
            net.reset_stats();
            let got = net.lookup_fast_traced(from, key, Phase::Publish, 0, &mut rec);
            assert_eq!(got, want);
            assert_eq!(net.stats(), &plain);
            agree(&rec, net.stats());
            net.reset_stats();
            assert_eq!(net.lookup_fast(from, key), want);
            assert_eq!(net.stats(), &plain);
            net.reset_stats();
            let full = net.lookup(from, key);
            assert_eq!(net.stats(), &plain);
            assert!(full.iter().all(|l| l.path.len() as u32 == l.hops + 1));
            assert_eq!(
                full.map(|Lookup { owner, hops, .. }| LookupLite { owner, hops }),
                want
            );
            let mut replayed = NetStats::new();
            assert_eq!(net.probe_via(&memo, from, key, &mut replayed), want);
            assert_eq!(replayed, plain);

            let Ok(found) = want else { continue };
            let (mut plain, mut traced) = (NetStats::new(), NetStats::new());
            let mut rec = TraceRecorder::new();
            let want = net.replicas_from_owner(found.owner, 4, &mut plain);
            let got = net.replicas_from_owner_traced(
                found.owner,
                4,
                &mut traced,
                Phase::Query,
                0,
                &mut rec,
            );
            assert_eq!(got, want);
            assert_eq!(traced, plain);
            agree(&rec, &traced);
            chain_timeouts += plain.count(MsgKind::Timeout);
        }
        assert!(lost_walks > 0, "30% loss with one retry must drown a walk");
        assert!(dead_probes > 0, "stale successor entries must be probed");
        assert!(chain_timeouts > 0, "replica chains must cross a dead entry");

        // A dead-ended walk emits the probes it burned and no lookup.
        let mut net = ChordNet::with_nodes(ChordConfig::default(), &[RingId(10), RingId(900)]);
        net.fail(RingId(900)).unwrap();
        net.set_successor_list(RingId(10), &[RingId(900)]).unwrap();
        let (mut bill, mut rec) = (NetStats::new(), TraceRecorder::new());
        let dead_end = net.probe_traced(
            RingId(10),
            RingId(500),
            &mut bill,
            Phase::Query,
            0,
            &mut rec,
            None,
        );
        assert!(matches!(dead_end, Err(ChordError::DeadEnd { .. })));
        assert_eq!(rec.kind_count(MsgKind::Failed), 1);
        agree(&rec, &bill);
    }

    #[test]
    fn dead_end_reports_failed_probe_count() {
        // A two-node ring where the survivor's every pointer is dead ends
        // immediately; the error must carry the probes burned.
        let mut net = ChordNet::with_nodes(ChordConfig::default(), &[RingId(10), RingId(900)]);
        net.fail(RingId(900)).unwrap();
        // Re-plant a stale successor so routing has something dead to probe.
        net.set_successor_list(RingId(10), &[RingId(900)]).unwrap();
        let err = net.lookup(RingId(10), RingId(500)).unwrap_err();
        match err {
            ChordError::DeadEnd { at, failed_probes } => {
                assert_eq!(at, RingId(10));
                assert_eq!(failed_probes, 1, "one dead successor entry probed");
            }
            other => panic!("expected DeadEnd, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("1 failed probe"),
            "display surfaces count: {msg}"
        );
    }
}
