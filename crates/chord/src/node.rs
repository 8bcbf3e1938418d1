//! Per-node Chord routing state.
//!
//! Each peer keeps exactly what the Chord paper prescribes: a predecessor
//! pointer, a successor list (for fault tolerance), and a finger table with
//! one entry per identifier bit. Every entry names its peer by **slot**: a
//! permanent `u32` handle into the network's id table (`NodeStore`), which
//! interns every ring id the network has been told about, alive or dead.
//! Whether the peer behind a slot is still alive is a bit beside its id
//! there — a question only the network ([`crate::ring::ChordNet`]) can
//! answer. [`NodeView`] is the public read view, every slot resolved to its
//! [`RingId`].
//!
//! The table has [`ID_BITS`] entries but few distinct ones (≈ log2 N: a
//! mean of 17 at 100,000 peers), so it is stored as its **runs** of equal
//! consecutive entries (`FingerTable`); every reader still sees 128
//! positions. The successor slots and one target slot per run share one
//! boxed `[u32]`, so a routing hop reads the state, that block and the id
//! table — no hash index.

use sprite_util::{RingId, ID_BITS};

/// Entries in a finger table, as an index bound.
const ENTRIES: usize = ID_BITS as usize;

/// A peer's permanent handle: the index of its id in the network's id
/// table.
pub(crate) type Slot = u32;

/// `pred` of a node that has none.
const NO_PRED: Slot = Slot::MAX;

/// Index into a run table's targets of the run covering entry `k`.
fn run_of(starts: u128, k: usize) -> usize {
    assert!(k < ENTRIES, "finger index {k} out of range");
    (starts & (u128::MAX >> (ENTRIES - 1 - k))).count_ones() as usize - 1
}

/// `(target, entries covered)` of each run of a run table, low → high.
fn runs(starts: u128, targets: &[Slot]) -> impl Iterator<Item = (Slot, u32)> + '_ {
    let mut rest = starts;
    targets.iter().map(move |&target| {
        let start = rest.trailing_zeros();
        rest &= rest - 1;
        (target, rest.trailing_zeros() - start)
    })
}

/// A finger table stored as its distinct runs: `starts` has bit `k` set
/// when entry `k` begins a run (bit 0 always), and `targets` holds one slot
/// per run, low → high. No two adjacent runs share a target, so equal
/// tables have equal representations. This is the editing form; a
/// [`NodeState`] keeps the same two fields packed beside its successors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FingerTable {
    starts: u128,
    targets: Vec<Slot>,
}

impl FingerTable {
    /// All [`ID_BITS`] entries point at `target`.
    pub(crate) fn filled(target: Slot) -> Self {
        FingerTable {
            starts: 1,
            targets: vec![target],
        }
    }

    /// The converged table of node `id` on the ring whose members are
    /// `ids` (sorted, `id` among them) with slots `slots` (`slots[i]` is
    /// the slot of `ids[i]`): entry `k` is the first member at or clockwise
    /// after `id + 2^k`. One binary search per distinct finger — an owner
    /// at clockwise distance `d` also owns every later start with
    /// `2^k ≤ d`, so the next search begins at the first `k` past that.
    pub(crate) fn ideal(id: RingId, ids: &[u128], slots: &[Slot]) -> Self {
        let mut starts = 0u128;
        let mut targets = Vec::new();
        let mut k = 0;
        while k < ID_BITS {
            let at = ids.partition_point(|&v| v < id.finger_start(k).0);
            let at = if at == ids.len() { 0 } else { at };
            starts |= 1 << k;
            targets.push(slots[at]);
            // Distance 0 is `id` itself, the whole way round: it owns every
            // remaining start.
            k = match id.distance_cw(RingId(ids[at])) {
                0 => ID_BITS,
                d => ID_BITS - d.leading_zeros(),
            };
        }
        FingerTable { starts, targets }
    }

    pub(crate) fn get(&self, k: usize) -> Slot {
        self.targets[run_of(self.starts, k)]
    }

    /// Overwrite entry `k` in place, splitting and merging runs as needed.
    /// Returns whether the entry changed.
    pub(crate) fn set(&mut self, k: usize, target: Slot) -> bool {
        if self.get(k) == target {
            return false;
        }
        // Give entry `k` a run of its own, retarget it, then drop whichever
        // of its two boundaries no longer separates different targets.
        self.split_at(k);
        self.split_at(k + 1);
        let run = run_of(self.starts, k);
        self.targets[run] = target;
        self.merge_at(k + 1);
        self.merge_at(k);
        true
    }

    /// Make entry `k` the first of its run.
    fn split_at(&mut self, k: usize) {
        if k < ENTRIES && self.starts >> k & 1 == 0 {
            let run = run_of(self.starts, k);
            self.targets.insert(run + 1, self.targets[run]);
            self.starts |= 1 << k;
        }
    }

    /// Join the run starting at entry `k` to the one before it when both
    /// have the same target.
    fn merge_at(&mut self, k: usize) {
        if (1..ENTRIES).contains(&k) && self.starts >> k & 1 == 1 {
            let run = run_of(self.starts, k);
            if self.targets[run - 1] == self.targets[run] {
                self.targets.remove(run);
                self.starts &= !(1 << k);
            }
        }
    }

    /// `(target, entries covered)` of each run, low → high.
    #[cfg(test)]
    fn runs(&self) -> impl Iterator<Item = (Slot, u32)> + '_ {
        runs(self.starts, &self.targets)
    }
}

/// Routing state of a single Chord node, every pointer a [`Slot`]. One
/// cache line: the id, the finger runs' start mask, and one boxed block
/// holding the successor list then one target per finger run.
#[derive(Clone, Debug)]
#[repr(align(64))]
pub(crate) struct NodeState {
    /// This node's ring identifier.
    id: RingId,
    /// Bit `k` set when finger entry `k` begins a run (see [`FingerTable`]).
    starts: u128,
    /// `succ_len` successor slots (entry 0 the immediate successor), then
    /// one target slot per finger run, low → high.
    links: Box<[Slot]>,
    /// Predecessor slot, [`NO_PRED`] right after an un-stabilized join.
    pred: Slot,
    /// Length of the successor list: never 0 for a node that has joined (a
    /// lone node lists itself), 0 only for a vacant slot.
    succ_len: u32,
}

impl NodeState {
    pub(crate) fn new(
        id: RingId,
        pred: Option<Slot>,
        succ: &[Slot],
        fingers: &FingerTable,
    ) -> Self {
        let mut state = NodeState::vacant(id);
        state.pred = pred.unwrap_or(NO_PRED);
        state.relink(succ, fingers);
        state
    }

    /// A lone node at `slot`: every pointer refers to itself.
    pub(crate) fn solitary(id: RingId, slot: Slot) -> Self {
        NodeState::new(id, Some(slot), &[slot], &FingerTable::filled(slot))
    }

    /// The state of a dead slot: no pointers, nothing on the heap.
    pub(crate) fn vacant(id: RingId) -> Self {
        NodeState {
            id,
            starts: 0,
            links: Box::default(),
            pred: NO_PRED,
            succ_len: 0,
        }
    }

    pub(crate) fn id(&self) -> RingId {
        self.id
    }

    pub(crate) fn pred(&self) -> Option<Slot> {
        (self.pred != NO_PRED).then_some(self.pred)
    }

    /// The successor list (entry 0 first).
    pub(crate) fn successors(&self) -> &[Slot] {
        &self.links[..self.succ_len as usize]
    }

    /// One target per finger run, low → high.
    fn targets(&self) -> &[Slot] {
        &self.links[self.succ_len as usize..]
    }

    /// Finger-table entry `k` (`k < ID_BITS`).
    pub(crate) fn finger(&self, k: usize) -> Slot {
        self.targets()[run_of(self.starts, k)]
    }

    /// `(target, entries covered)` of each finger run, low → high.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (Slot, u32)> + '_ {
        runs(self.starts, self.targets())
    }

    /// All [`ID_BITS`] finger-table entries, entry 0 first.
    pub(crate) fn fingers(&self) -> impl Iterator<Item = Slot> + '_ {
        self.runs()
            .flat_map(|(target, len)| std::iter::repeat_n(target, len as usize))
    }

    /// Is the finger table exactly `table`?
    pub(crate) fn has_fingers(&self, table: &FingerTable) -> bool {
        self.starts == table.starts && self.targets() == table.targets
    }

    pub(crate) fn set_pred(&mut self, pred: Option<Slot>) {
        self.pred = pred.unwrap_or(NO_PRED);
    }

    /// Replace the successor list; returns whether it changed.
    pub(crate) fn set_successors(&mut self, succ: &[Slot]) -> bool {
        if self.successors() == succ {
            return false;
        }
        let fingers = self.finger_table();
        self.relink(succ, &fingers);
        true
    }

    /// Overwrite finger `k`; returns whether the entry changed.
    pub(crate) fn set_finger(&mut self, k: usize, target: Slot) -> bool {
        if self.finger(k) == target {
            return false;
        }
        let mut fingers = self.finger_table();
        fingers.set(k, target);
        let succ = self.successors().to_vec();
        self.relink(&succ, &fingers);
        true
    }

    fn finger_table(&self) -> FingerTable {
        FingerTable {
            starts: self.starts,
            targets: self.targets().to_vec(),
        }
    }

    /// Pack `succ` and the runs of `fingers` into a fresh link block.
    fn relink(&mut self, succ: &[Slot], fingers: &FingerTable) {
        self.links = [succ, &fingers.targets].concat().into_boxed_slice();
        self.succ_len = u32::try_from(succ.len()).expect("successor list fits a u32");
        self.starts = fingers.starts;
    }

    /// Best local candidate strictly preceding `key` (closer than this
    /// node), chosen among fingers and the successor list, subject to
    /// `is_usable` (the network's aliveness check). `ids` is the id table
    /// the slots index. Returns `None` when no usable entry makes progress.
    pub(crate) fn closest_preceding<F>(
        &self,
        key: RingId,
        ids: &[u128],
        mut is_usable: F,
    ) -> Option<Slot>
    where
        F: FnMut(Slot) -> bool,
    {
        // Fingers, highest (farthest) first — the classic Chord scan, one
        // run at a time. A dead finger is probed once per table entry it
        // occupies: that is what the flat 128-entry scan billed.
        for (run, &f) in self.targets().iter().enumerate().rev() {
            let target = RingId(ids[f as usize]);
            if target != self.id && target.in_open(self.id, key) {
                if is_usable(f) {
                    return Some(f);
                }
                let (_, entries) = self.runs().nth(run).expect("run of a target");
                for _ in 1..entries {
                    is_usable(f);
                }
            }
        }
        // Fall back to the successor list: take the farthest usable entry
        // that still precedes the key.
        let mut best: Option<Slot> = None;
        let mut best_dist = 0u128;
        for &s in self.successors() {
            let succ = RingId(ids[s as usize]);
            if succ != self.id && succ.in_open(self.id, key) && is_usable(s) {
                let d = self.id.distance_cw(succ);
                if d > best_dist {
                    best_dist = d;
                    best = Some(s);
                }
            }
        }
        best
    }

    /// Deterministic *logical* bytes of this node's routing state: 16 per
    /// ring id the state denotes (the id itself, the predecessor when
    /// present, every successor-list entry, all [`ID_BITS`] finger entries
    /// however few runs store them). Length-based, never capacity, so the
    /// number depends only on the state's contents — the memory-per-peer
    /// metric gates on it exactly; what the state actually occupies is
    /// [`crate::ring::ChordNet::resident_state_bytes`].
    pub(crate) fn logical_bytes(&self) -> u64 {
        let ids =
            1 + u64::from(self.pred().is_some()) + u64::from(self.succ_len) + u64::from(ID_BITS);
        ids * 16
    }

    /// Bytes of this state's heap block (the struct itself lives in the
    /// store's arena).
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.links.len() * std::mem::size_of::<Slot>()) as u64
    }

    /// Is the finger table a canonical run table (what `FingerTable::set`
    /// and `FingerTable::ideal` produce)?
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn is_well_formed(&self) -> bool {
        let targets = self.targets();
        self.starts & 1 == 1
            && self.starts.count_ones() as usize == targets.len()
            && targets.windows(2).all(|w| w[0] != w[1])
    }
}

/// Read view of one alive peer's routing state, every slot resolved
/// through the network's id table — what [`crate::ring::ChordNet::node`]
/// returns. The `*_slot(s)` accessors expose the handles themselves, for
/// audits of the table.
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    state: &'a NodeState,
    slot: Slot,
    ids: &'a [u128],
}

impl<'a> NodeView<'a> {
    pub(crate) fn new(state: &'a NodeState, slot: Slot, ids: &'a [u128]) -> Self {
        NodeView { state, slot, ids }
    }

    fn resolve(&self, slot: Slot) -> RingId {
        RingId(self.ids[slot as usize])
    }

    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> RingId {
        self.state.id
    }

    /// Immediate successor as currently believed.
    #[must_use]
    pub fn successor(&self) -> RingId {
        self.resolve(self.state.successors()[0])
    }

    /// Current predecessor pointer.
    #[must_use]
    pub fn predecessor(&self) -> Option<RingId> {
        self.state.pred().map(|p| self.resolve(p))
    }

    /// The successor list (entry 0 first).
    #[must_use]
    pub fn successor_list(&self) -> Vec<RingId> {
        self.state
            .successors()
            .iter()
            .map(|&s| self.resolve(s))
            .collect()
    }

    /// Finger-table entry `k` (`k < ID_BITS`).
    #[must_use]
    pub fn finger(&self, k: usize) -> RingId {
        self.resolve(self.state.finger(k))
    }

    /// All [`ID_BITS`] finger-table entries, entry 0 first.
    pub fn fingers(&self) -> impl Iterator<Item = RingId> + 'a {
        let ids = self.ids;
        self.state.fingers().map(move |s| RingId(ids[s as usize]))
    }

    /// Deterministic *logical* bytes of this node's routing state: 16 per
    /// ring id it denotes (see [`crate::ring::ChordNet::logical_state_bytes`]).
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.state.logical_bytes()
    }

    /// Number of *distinct* peers this node references (ring-degree metric).
    #[must_use]
    pub fn distinct_neighbors(&self) -> usize {
        let mut seen: Vec<Slot> = self.state.runs().map(|(f, _)| f).collect();
        seen.extend(self.state.successors());
        seen.extend(self.state.pred());
        seen.sort_unstable();
        seen.dedup();
        seen.len() - usize::from(seen.binary_search(&self.slot).is_ok())
    }

    /// This node's slot in the id table.
    #[must_use]
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Slot of the predecessor pointer.
    #[must_use]
    pub fn predecessor_slot(&self) -> Option<u32> {
        self.state.pred()
    }

    /// Slots of the successor list (entry 0 first).
    #[must_use]
    pub fn successor_slots(&self) -> &'a [u32] {
        self.state.successors()
    }

    /// Slots of all [`ID_BITS`] finger-table entries, entry 0 first.
    pub fn finger_slots(&self) -> impl Iterator<Item = u32> + 'a {
        self.state.fingers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_util::derive_rng;

    /// An id table where slot `s` holds id `s`, so tests can name peers by
    /// either.
    fn identity() -> Vec<u128> {
        (0..200).collect()
    }

    /// A node at 0 whose only non-self fingers are 3 → 8 and 6 → 64.
    fn two_finger_node() -> NodeState {
        let mut n = NodeState::solitary(RingId(0), 0);
        n.set_finger(3, 8); // id + 8
        n.set_finger(6, 64); // id + 64
        n
    }

    #[test]
    fn solitary_points_to_self() {
        let ids = identity();
        let state = NodeState::solitary(RingId(42), 42);
        let n = NodeView::new(&state, 42, &ids);
        assert_eq!(n.successor(), RingId(42));
        assert_eq!(n.predecessor(), Some(RingId(42)));
        assert_eq!(n.fingers().count(), ID_BITS as usize);
        assert!(n.fingers().all(|f| f == RingId(42)));
        assert_eq!(n.distinct_neighbors(), 0);
    }

    #[test]
    fn view_resolves_every_slot_through_the_id_table() {
        // Slots and ids deliberately unrelated: 10 sits at slot 1, its
        // successors 99 and 500 at slots 2 and 0, its predecessor 7 at 3.
        let ids = [500u128, 10, 99, 7];
        let mut fingers = FingerTable::filled(2);
        fingers.set(100, 0);
        let state = NodeState::new(RingId(10), Some(3), &[2, 0], &fingers);
        let n = NodeView::new(&state, 1, &ids);
        assert_eq!(n.id(), RingId(10));
        assert_eq!(n.successor(), RingId(99));
        assert_eq!(n.successor_list(), [RingId(99), RingId(500)]);
        assert_eq!(n.predecessor(), Some(RingId(7)));
        assert_eq!(n.finger(99), RingId(99));
        assert_eq!(n.finger(100), RingId(500));
        assert_eq!(n.successor_slots(), [2, 0]);
        assert_eq!(n.predecessor_slot(), Some(3));
        assert!(n
            .finger_slots()
            .map(|s| RingId(ids[s as usize]))
            .eq(n.fingers()));
        assert_eq!(n.distinct_neighbors(), 3);
        assert_eq!(n.logical_bytes(), (1 + 1 + 2 + 128) * 16);
    }

    #[test]
    fn joining_knows_only_successor() {
        let ids = identity();
        let state = NodeState::new(RingId(10), None, &[99], &FingerTable::filled(99));
        let n = NodeView::new(&state, 10, &ids);
        assert_eq!(n.successor(), RingId(99));
        assert_eq!(n.predecessor(), None);
        assert_eq!(n.successor_list(), [RingId(99)]);
        assert_eq!(n.distinct_neighbors(), 1);
    }

    #[test]
    fn closest_preceding_prefers_far_fingers() {
        let ids = identity();
        let n = two_finger_node();
        // Key 100: finger 64 precedes it and is farther than 8.
        assert_eq!(n.closest_preceding(RingId(100), &ids, |_| true), Some(64));
        // Key 50: only finger 8 precedes it.
        assert_eq!(n.closest_preceding(RingId(50), &ids, |_| true), Some(8));
    }

    #[test]
    fn closest_preceding_skips_dead_fingers() {
        let ids = identity();
        let n = two_finger_node();
        let alive = |s: Slot| s != 64;
        assert_eq!(n.closest_preceding(RingId(100), &ids, alive), Some(8));
    }

    #[test]
    fn closest_preceding_uses_successor_list_as_fallback() {
        let ids = identity();
        let mut n = NodeState::solitary(RingId(0), 0);
        n.set_successors(&[5, 9]);
        assert_eq!(n.closest_preceding(RingId(100), &ids, |_| true), Some(9));
        // Key 7: only succ 5 precedes.
        assert_eq!(n.closest_preceding(RingId(7), &ids, |_| true), Some(5));
    }

    #[test]
    fn closest_preceding_none_when_no_progress() {
        let ids = identity();
        let n = NodeState::solitary(RingId(0), 0);
        assert_eq!(n.closest_preceding(RingId(100), &ids, |_| true), None);
    }

    #[test]
    fn dead_run_is_probed_once_per_entry_and_a_live_one_once() {
        // Entries 10..=14 → 64 (a run of 5), entries 3..=4 → 8.
        let ids = identity();
        let mut n = NodeState::solitary(RingId(0), 0);
        for k in 10..15 {
            n.set_finger(k, 64);
        }
        n.set_finger(3, 8);
        n.set_finger(4, 8);
        let mut probes = Vec::new();
        let next = n.closest_preceding(RingId(100), &ids, |f| {
            probes.push(f);
            f != 64
        });
        assert_eq!(next, Some(8));
        assert_eq!(probes, [[64; 5].as_slice(), &[8]].concat());
    }

    #[test]
    fn set_finger_inside_a_run_splits_it_in_three_and_back() {
        let mut n = NodeState::new(RingId(1), None, &[9], &FingerTable::filled(9));
        let original = n.finger_table();
        n.set_finger(64, 5);
        let runs: Vec<_> = n.runs().collect();
        assert_eq!(
            runs,
            [(9, 64), (5, 1), (9, 63)],
            "one run of 128 becomes 64 + 1 + 63"
        );
        assert_eq!(n.finger(63), 9);
        assert_eq!(n.finger(64), 5);
        assert_eq!(n.finger(65), 9);
        assert_eq!(n.successors(), [9], "the successors share the block");
        n.set_finger(64, 9);
        assert!(
            n.has_fingers(&original),
            "setting it back restores the table"
        );
    }

    #[test]
    fn run_table_matches_the_flat_table_it_replaces() {
        // Random writes over a small alphabet (so runs split and merge
        // constantly), mirrored into a flat 128-entry array.
        let alphabet: Vec<Slot> = (0..4).map(|i| 100 + i).collect();
        for seed in 0..20u64 {
            let mut rng = derive_rng(seed, "run-table");
            let mut flat = [alphabet[0]; ENTRIES];
            let mut table = FingerTable::filled(alphabet[0]);
            for _ in 0..400 {
                let k = rng.gen_range(0..ENTRIES);
                let target = alphabet[rng.gen_range(0..alphabet.len())];
                let changed = table.set(k, target);
                assert_eq!(changed, flat[k] != target, "change report at {k}");
                flat[k] = target;

                // Mask bit 0 set, one target per mask bit, no two adjacent
                // runs equal.
                let node = NodeState::new(RingId(0), None, &[7, 8], &table);
                assert!(node.is_well_formed());
                let runs: Vec<(Slot, u32)> = table.runs().collect();
                assert_eq!(runs.iter().map(|r| r.1).sum::<u32>(), ID_BITS);
                for (k, &want) in flat.iter().enumerate() {
                    assert_eq!(table.get(k), want, "entry {k}");
                    assert_eq!(node.finger(k), want, "packed entry {k}");
                }
                assert!(
                    node.fingers().eq(flat.iter().copied()),
                    "low → high iteration"
                );
            }
        }
    }

    #[test]
    fn ideal_table_is_the_oracle_at_every_entry() {
        let mut rng = derive_rng(3, "ideal-table");
        for n in [1usize, 2, 3, 17, 200] {
            // Ids spread over the whole circle plus a tight cluster, so both
            // long runs and wrap-around owners occur.
            let mut ids: Vec<u128> = (0..n)
                .map(|i| match i % 3 {
                    0 => u128::from(rng.gen_u64()),
                    _ => u128::from(rng.gen_u64()) << 64 | u128::from(rng.gen_u64()),
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            // Slots in reverse ring order, so a slot is never its index.
            let table: Vec<u128> = ids.iter().rev().copied().collect();
            let slots: Vec<Slot> = (0..ids.len() as Slot).rev().collect();
            for &idv in &ids {
                let id = RingId(idv);
                let fingers = FingerTable::ideal(id, &ids, &slots);
                assert!(NodeState::new(id, None, &[0], &fingers).is_well_formed());
                for k in 0..ID_BITS {
                    let start = id.finger_start(k).0;
                    let want = ids.iter().find(|&&v| v >= start).unwrap_or(&ids[0]);
                    assert_eq!(
                        table[fingers.get(k as usize) as usize],
                        *want,
                        "n {n} id {id:?} entry {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_state_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<NodeState>(), 64);
        assert_eq!(std::mem::align_of::<NodeState>(), 64);
    }
}
