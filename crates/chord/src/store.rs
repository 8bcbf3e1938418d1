//! Node-state storage for [`crate::ring::ChordNet`].
//!
//! Every peer's [`NodeState`] lives in one dense **arena**: states sit
//! contiguously in a `Vec`, and a compact `id → slot` index gives O(1)
//! access while successor/finger chasing walks contiguous memory — at
//! 100k+ peers a map holding the states themselves scatters them across
//! the heap. A walk asks the index about three ids per hop, so it
//! is an [`IdMap`]: ids are MD5 output and are folded, not SipHashed.
//!
//! Nothing about iteration order is observable — the ring-order source of
//! truth stays the sorted id set in `ChordNet` — so the slot a node lands
//! in never reaches a fingerprint.

use sprite_util::IdMap;

use crate::node::NodeState;

/// Dense arena of node states: states live contiguously in `nodes`, and
/// `index` maps a ring id to its slot. Removal is `swap_remove` plus one
/// index fixup, so slots stay dense forever. All accessors are O(1).
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeStore {
    index: IdMap<u32>,
    nodes: Vec<NodeState>,
}

impl NodeStore {
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn contains(&self, id: u128) -> bool {
        self.index.contains_key(&id)
    }

    pub(crate) fn get(&self, id: u128) -> Option<&NodeState> {
        self.index.get(&id).map(|&slot| &self.nodes[slot as usize])
    }

    pub(crate) fn get_mut(&mut self, id: u128) -> Option<&mut NodeState> {
        let slot = *self.index.get(&id)?;
        Some(&mut self.nodes[slot as usize])
    }

    /// The state of an alive node; panics when `id` is dead (callers hold
    /// ids they just verified alive).
    pub(crate) fn alive(&self, id: u128) -> &NodeState {
        self.get(id).expect("node is alive")
    }

    pub(crate) fn insert(&mut self, id: u128, node: NodeState) {
        match self.index.get(&id) {
            Some(&slot) => self.nodes[slot as usize] = node,
            None => {
                assert!(
                    self.nodes.len() < u32::MAX as usize,
                    "arena slot index overflow"
                );
                self.index.insert(id, self.nodes.len() as u32);
                self.nodes.push(node);
            }
        }
    }

    pub(crate) fn remove(&mut self, id: u128) -> Option<NodeState> {
        let slot = self.index.remove(&id)? as usize;
        let node = self.nodes.swap_remove(slot);
        if slot < self.nodes.len() {
            let moved = self.nodes[slot].id().0;
            self.index.insert(moved, slot as u32);
        }
        Some(node)
    }

    /// Node states in **unspecified order** — only for order-free
    /// consumers (convergence `all()`, structural validation, memory
    /// accounting). Ring-ordered walks go through the sorted id set,
    /// never this.
    pub(crate) fn values(&self) -> impl Iterator<Item = &NodeState> {
        self.nodes.iter()
    }

    /// Deterministic *logical* bytes of all stored routing state: the sum
    /// of each node's [`NodeState::logical_bytes`] plus the per-slot index
    /// cost (16-byte id key + 4-byte slot). Length-based — never capacity,
    /// never allocator overhead — so the number is a pure function of the
    /// ring's contents and safe to gate exactly.
    pub(crate) fn logical_bytes(&self) -> u64 {
        self.values().map(|n| n.logical_bytes() + 16 + 4).sum()
    }

    /// Bytes the store occupies, by capacity: arena slots, each node's
    /// heap blocks, and the index (a padded `(id, slot)` pair plus one
    /// control byte per bucket; the table keeps ⅞ of its buckets usable).
    pub(crate) fn resident_bytes(&self) -> u64 {
        let spare_slots = self.nodes.capacity() - self.nodes.len();
        let buckets = (self.index.capacity() * 8).div_ceil(7);
        self.values().map(NodeState::resident_bytes).sum::<u64>()
            + (spare_slots * std::mem::size_of::<NodeState>()
                + buckets * (std::mem::size_of::<(u128, u32)>() + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_util::RingId;

    fn solitary(id: u128) -> NodeState {
        NodeState::solitary(RingId(id))
    }

    #[test]
    fn arena_insert_get_remove_with_swap_fixup() {
        let mut store = NodeStore::default();
        for id in [10u128, 20, 30, 40] {
            store.insert(id, solitary(id));
        }
        assert_eq!(store.len(), 4);
        assert!(store.contains(20));
        // Removing a middle slot swaps the tail in; the moved node must
        // stay addressable by id.
        let removed = store.remove(20).expect("alive");
        assert_eq!(removed.id(), RingId(20));
        assert!(!store.contains(20));
        assert_eq!(store.len(), 3);
        for id in [10u128, 30, 40] {
            assert_eq!(store.get(id).expect("alive").id(), RingId(id));
        }
        assert!(store.remove(20).is_none());
        // Re-insert over an existing id replaces in place.
        store.insert(30, solitary(30));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn logical_bytes_count_state_not_capacity() {
        let mut store = NodeStore::default();
        assert_eq!(store.logical_bytes(), 0);
        store.insert(1, solitary(1));
        let one = store.logical_bytes();
        assert!(one > 0);
        store.insert(2, solitary(2));
        assert_eq!(store.logical_bytes(), 2 * one, "identical states sum");
    }
}
