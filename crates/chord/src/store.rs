//! Node-state storage for [`crate::ring::ChordNet`].
//!
//! The store **interns** every ring id the network is ever told about —
//! each member, alive or dead, and any id a corruption injection points
//! at — at a permanent `u32` slot. The slot indexes three dense tables:
//! the id itself, an alive bit, and the peer's [`NodeState`], whose every
//! pointer is a slot too. So routing resolves a pointer with two array
//! reads and no hashing; the `id → slot` index ([`IdMap`]: ids are MD5
//! output and are folded, not SipHashed) is asked once per walk, at its
//! origin, and on writes.
//!
//! Slots are never reused and never tagged with a generation: a failed id
//! that rejoins gets its old slot back, so a stale pointer to it reads
//! alive again, exactly as a pointer holding the id itself would.
//!
//! Nothing about slot order is observable — the ring-order source of truth
//! stays the sorted id set in `ChordNet` — so the slot a node lands in
//! never reaches a fingerprint.

use sprite_util::{IdMap, RingId};

use crate::node::{NodeState, Slot};

/// Interned ids and their routing states, one slot each. All accessors
/// are O(1); by-slot ones read arrays only.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeStore {
    /// Every interned id → its slot.
    index: IdMap<Slot>,
    /// Slot → id: the table every pointer resolves through.
    ids: Vec<u128>,
    /// Slot → alive, 64 slots a word.
    alive: Vec<u64>,
    /// Slot → routing state; a dead slot's state is vacant.
    nodes: Vec<NodeState>,
    /// Alive slots.
    live: usize,
}

impl NodeStore {
    /// Alive nodes.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Interned ids, alive or dead.
    pub(crate) fn interned(&self) -> usize {
        self.ids.len()
    }

    /// The slot of an interned id, alive or dead.
    pub(crate) fn slot(&self, id: u128) -> Option<Slot> {
        self.index.get(&id).copied()
    }

    /// The slot of an alive node.
    pub(crate) fn alive_slot(&self, id: u128) -> Option<Slot> {
        self.slot(id).filter(|&s| self.is_alive(s))
    }

    pub(crate) fn contains(&self, id: u128) -> bool {
        self.alive_slot(id).is_some()
    }

    /// The slot of `id`, interning it as a dead slot when it is new.
    pub(crate) fn intern(&mut self, id: u128) -> Slot {
        if let Some(slot) = self.slot(id) {
            return slot;
        }
        let slot = Slot::try_from(self.ids.len())
            .ok()
            .filter(|&s| s < Slot::MAX)
            .expect("slot index overflow");
        self.index.insert(id, slot);
        self.ids.push(id);
        self.nodes.push(NodeState::vacant(RingId(id)));
        if self.alive.len() * 64 < self.ids.len() {
            self.alive.push(0);
        }
        slot
    }

    /// The id table: `ids()[slot]` is the id interned at `slot`.
    pub(crate) fn ids(&self) -> &[u128] {
        &self.ids
    }

    pub(crate) fn id(&self, slot: Slot) -> RingId {
        RingId(self.ids[slot as usize])
    }

    pub(crate) fn is_alive(&self, slot: Slot) -> bool {
        self.alive[slot as usize / 64] >> (slot % 64) & 1 == 1
    }

    pub(crate) fn state(&self, slot: Slot) -> &NodeState {
        &self.nodes[slot as usize]
    }

    pub(crate) fn state_mut(&mut self, slot: Slot) -> &mut NodeState {
        &mut self.nodes[slot as usize]
    }

    /// Make `slot` alive with `node` as its state.
    pub(crate) fn revive(&mut self, slot: Slot, node: NodeState) {
        debug_assert_eq!(node.id(), self.id(slot), "state filed under a foreign slot");
        if !self.is_alive(slot) {
            self.alive[slot as usize / 64] |= 1 << (slot % 64);
            self.live += 1;
        }
        self.nodes[slot as usize] = node;
    }

    /// Mark an alive node dead, returning its slot and last state; the
    /// slot stays interned.
    pub(crate) fn remove(&mut self, id: u128) -> Option<(Slot, NodeState)> {
        let slot = self.alive_slot(id)?;
        self.alive[slot as usize / 64] &= !(1 << (slot % 64));
        self.live -= 1;
        let node = std::mem::replace(
            &mut self.nodes[slot as usize],
            NodeState::vacant(RingId(id)),
        );
        Some((slot, node))
    }

    /// Alive slots in **slot order** — only for order-free consumers
    /// (convergence checks, structural validation, memory accounting).
    /// Ring-ordered walks go through the sorted id set, never this.
    pub(crate) fn alive_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.ids.len() as Slot).filter(|&s| self.is_alive(s))
    }

    /// Deterministic *logical* bytes of all stored routing state: the sum
    /// of each alive node's [`NodeState::logical_bytes`] plus the per-node
    /// index cost (16-byte id key + 4-byte slot). Length-based — never
    /// capacity, never allocator overhead — so the number is a pure
    /// function of the ring's contents and safe to gate exactly.
    pub(crate) fn logical_bytes(&self) -> u64 {
        self.alive_slots()
            .map(|s| self.state(s).logical_bytes() + 16 + 4)
            .sum()
    }

    /// Bytes the store occupies, by capacity: the state arena and every
    /// state's link block, the id table, the alive bits, and the index (a
    /// padded `(id, slot)` pair plus one control byte per bucket; the
    /// table keeps ⅞ of its buckets usable).
    pub(crate) fn resident_bytes(&self) -> u64 {
        let buckets = (self.index.capacity() * 8).div_ceil(7);
        self.nodes.iter().map(NodeState::heap_bytes).sum::<u64>()
            + (self.nodes.capacity() * std::mem::size_of::<NodeState>()
                + self.ids.capacity() * std::mem::size_of::<u128>()
                + self.alive.capacity() * std::mem::size_of::<u64>()
                + buckets * (std::mem::size_of::<(u128, Slot)>() + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(store: &mut NodeStore, id: u128) -> Slot {
        let slot = store.intern(id);
        store.revive(slot, NodeState::solitary(RingId(id), slot));
        slot
    }

    #[test]
    fn slots_are_permanent_and_a_rejoin_reuses_its_own() {
        let mut store = NodeStore::default();
        let slots: Vec<Slot> = [10u128, 20, 30, 40].map(|id| join(&mut store, id)).to_vec();
        assert_eq!(slots, [0, 1, 2, 3]);
        assert_eq!(store.len(), 4);
        let (slot, removed) = store.remove(20).expect("alive");
        assert_eq!((slot, removed.id()), (1, RingId(20)));
        assert!(!store.contains(20) && !store.is_alive(1));
        assert_eq!((store.len(), store.interned()), (3, 4));
        // The others keep their slots; nothing moves.
        for (id, slot) in [(10u128, 0), (30, 2), (40, 3)] {
            assert_eq!(store.alive_slot(id), Some(slot));
            assert_eq!(store.state(slot).id(), RingId(id));
        }
        assert!(store.remove(20).is_none());
        // A never-seen id interns dead, past the end.
        assert_eq!(store.intern(99), 4);
        assert!(!store.contains(99));
        assert_eq!((store.len(), store.interned()), (3, 5));
        // 20 rejoins at slot 1.
        assert_eq!(join(&mut store, 20), 1);
        assert_eq!(store.id(1), RingId(20));
        assert_eq!(store.alive_slots().collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn alive_bits_span_words() {
        let mut store = NodeStore::default();
        for id in 0..130u128 {
            join(&mut store, id);
        }
        store.remove(64).expect("alive");
        store.remove(129).expect("alive");
        assert_eq!(store.len(), 128);
        assert!(store.is_alive(63) && !store.is_alive(64) && store.is_alive(65));
        assert!(!store.is_alive(129));
    }

    #[test]
    fn logical_bytes_count_state_not_capacity() {
        let mut store = NodeStore::default();
        assert_eq!(store.logical_bytes(), 0);
        join(&mut store, 1);
        let one = store.logical_bytes();
        assert!(one > 0);
        join(&mut store, 2);
        assert_eq!(store.logical_bytes(), 2 * one, "identical states sum");
        store.remove(2).expect("alive");
        store.intern(3);
        assert_eq!(store.logical_bytes(), one, "dead slots count nothing");
    }
}
