//! Per-node Chord routing state.
//!
//! Each peer keeps exactly what the Chord paper prescribes: a predecessor
//! pointer, a successor list (for fault tolerance), and a finger table with
//! one entry per identifier bit. All entries are plain [`RingId`]s — whether
//! the referenced peer is still alive is a question only the network
//! ([`crate::ring::ChordNet`]) can answer.
//!
//! The table has [`ID_BITS`] entries but few distinct ones (≈ log2 N: a
//! mean of 17 at 100,000 peers), so it is stored as its **runs** of equal
//! consecutive entries (`FingerTable`); every reader still sees 128
//! positions.

use sprite_util::{RingId, ID_BITS};

/// Entries in a finger table, as an index bound.
const ENTRIES: usize = ID_BITS as usize;

/// A finger table stored as its distinct runs: `starts` has bit `k` set
/// when entry `k` begins a run (bit 0 always), and `targets` holds one id
/// per run, low → high. No two adjacent runs share a target, so equal
/// tables have equal representations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FingerTable {
    starts: u128,
    targets: Vec<RingId>,
}

impl FingerTable {
    /// All [`ID_BITS`] entries point at `target`.
    pub(crate) fn filled(target: RingId) -> Self {
        FingerTable {
            starts: 1,
            targets: vec![target],
        }
    }

    /// The converged table of node `id` on the ring whose members are
    /// `ids` (sorted, `id` among them): entry `k` is the first member at or
    /// clockwise after `id + 2^k`. One binary search per distinct finger —
    /// an owner at clockwise distance `d` also owns every later start with
    /// `2^k ≤ d`, so the next search begins at the first `k` past that.
    pub(crate) fn ideal(id: RingId, ids: &[u128]) -> Self {
        let mut starts = 0u128;
        let mut targets = [id; ENTRIES];
        let mut runs = 0;
        let mut k = 0;
        while k < ID_BITS {
            let at = ids.partition_point(|&v| v < id.finger_start(k).0);
            let owner = RingId(ids[if at == ids.len() { 0 } else { at }]);
            starts |= 1 << k;
            targets[runs] = owner;
            runs += 1;
            // Distance 0 is `id` itself, the whole way round: it owns every
            // remaining start.
            k = match id.distance_cw(owner) {
                0 => ID_BITS,
                d => ID_BITS - d.leading_zeros(),
            };
        }
        FingerTable {
            starts,
            targets: targets[..runs].to_vec(),
        }
    }

    /// Index into `targets` of the run covering entry `k`.
    fn run_of(&self, k: usize) -> usize {
        assert!(k < ENTRIES, "finger index {k} out of range");
        (self.starts & (u128::MAX >> (ENTRIES - 1 - k))).count_ones() as usize - 1
    }

    pub(crate) fn get(&self, k: usize) -> RingId {
        self.targets[self.run_of(k)]
    }

    /// Overwrite entry `k` in place, splitting and merging runs as needed.
    /// Returns whether the entry changed.
    pub(crate) fn set(&mut self, k: usize, target: RingId) -> bool {
        if self.get(k) == target {
            return false;
        }
        // Give entry `k` a run of its own, retarget it, then drop whichever
        // of its two boundaries no longer separates different targets.
        self.split_at(k);
        self.split_at(k + 1);
        let run = self.run_of(k);
        self.targets[run] = target;
        self.merge_at(k + 1);
        self.merge_at(k);
        true
    }

    /// Make entry `k` the first of its run.
    fn split_at(&mut self, k: usize) {
        if k < ENTRIES && self.starts >> k & 1 == 0 {
            let run = self.run_of(k);
            self.targets.insert(run + 1, self.targets[run]);
            self.starts |= 1 << k;
        }
    }

    /// Join the run starting at entry `k` to the one before it when both
    /// have the same target.
    fn merge_at(&mut self, k: usize) {
        if (1..ENTRIES).contains(&k) && self.starts >> k & 1 == 1 {
            let run = self.run_of(k);
            if self.targets[run - 1] == self.targets[run] {
                self.targets.remove(run);
                self.starts &= !(1 << k);
            }
        }
    }

    /// `(target, entries covered)` of each run, low → high.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (RingId, u32)> + '_ {
        let mut rest = self.starts;
        self.targets.iter().map(move |&target| {
            let start = rest.trailing_zeros();
            rest &= rest - 1;
            (target, rest.trailing_zeros() - start)
        })
    }

    /// Is this a canonical run table (what `set` and `ideal` produce)?
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn is_well_formed(&self) -> bool {
        self.starts & 1 == 1
            && self.starts.count_ones() as usize == self.targets.len()
            && self.targets.windows(2).all(|w| w[0] != w[1])
    }
}

/// Routing state of a single Chord node.
#[derive(Clone, Debug)]
pub struct NodeState {
    /// This node's ring identifier.
    pub(crate) id: RingId,
    /// Predecessor pointer (None right after an un-stabilized join).
    pub(crate) pred: Option<RingId>,
    /// Successor list; entry 0 is the immediate successor. Never empty for
    /// a node that has joined (a lone node lists itself).
    pub(crate) succ: Vec<RingId>,
    /// Finger table: entry `k` ≈ successor(id + 2^k), [`ID_BITS`] entries.
    pub(crate) fingers: FingerTable,
}

impl NodeState {
    /// A lone node: every pointer refers to itself.
    #[must_use]
    pub fn solitary(id: RingId) -> Self {
        NodeState {
            id,
            pred: Some(id),
            succ: vec![id],
            fingers: FingerTable::filled(id),
        }
    }

    /// A freshly joining node that only knows its successor. Fingers start
    /// at the successor and are refined by `fix_fingers`.
    #[must_use]
    pub fn joining(id: RingId, successor: RingId, succ_list_len: usize) -> Self {
        NodeState {
            id,
            pred: None,
            succ: {
                let mut s = Vec::with_capacity(succ_list_len);
                s.push(successor);
                s
            },
            fingers: FingerTable::filled(successor),
        }
    }

    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> RingId {
        self.id
    }

    /// Immediate successor as currently believed.
    #[must_use]
    pub fn successor(&self) -> RingId {
        self.succ[0]
    }

    /// Current predecessor pointer.
    #[must_use]
    pub fn predecessor(&self) -> Option<RingId> {
        self.pred
    }

    /// The successor list (entry 0 first).
    #[must_use]
    pub fn successor_list(&self) -> &[RingId] {
        &self.succ
    }

    /// Finger-table entry `k` (`k < ID_BITS`).
    #[must_use]
    pub fn finger(&self, k: usize) -> RingId {
        self.fingers.get(k)
    }

    /// All [`ID_BITS`] finger-table entries, entry 0 first.
    pub fn fingers(&self) -> impl Iterator<Item = RingId> + '_ {
        self.fingers
            .runs()
            .flat_map(|(target, len)| std::iter::repeat_n(target, len as usize))
    }

    /// Overwrite finger `k` — **corruption injection** for audits and tests
    /// only; the simulation itself never calls this. Pairs with
    /// [`crate::ring::ChordNet::node_mut`] so `sprite-audit`'s checkers can
    /// be exercised against known-broken routing state.
    pub fn set_finger(&mut self, k: usize, target: RingId) {
        self.fingers.set(k, target);
    }

    /// Replace the successor list — corruption injection (see
    /// [`Self::set_finger`]). The list must stay non-empty.
    pub fn set_successor_list(&mut self, list: Vec<RingId>) {
        assert!(!list.is_empty(), "successor list must stay non-empty");
        self.succ = list;
    }

    /// Replace the predecessor pointer — corruption injection (see
    /// [`Self::set_finger`]).
    pub fn set_predecessor(&mut self, pred: Option<RingId>) {
        self.pred = pred;
    }

    /// Best local candidate strictly preceding `key` (closer than this
    /// node), chosen among fingers and the successor list, subject to
    /// `is_usable` (the network's aliveness check). Returns `None` when no
    /// usable entry makes progress.
    pub(crate) fn closest_preceding<F>(&self, key: RingId, mut is_usable: F) -> Option<RingId>
    where
        F: FnMut(RingId) -> bool,
    {
        // Fingers, highest (farthest) first — the classic Chord scan, one
        // run at a time. A dead finger is probed once per table entry it
        // occupies: that is what the flat 128-entry scan billed.
        for (run, &f) in self.fingers.targets.iter().enumerate().rev() {
            if f != self.id && f.in_open(self.id, key) {
                if is_usable(f) {
                    return Some(f);
                }
                let (_, entries) = self.fingers.runs().nth(run).expect("run of a target");
                for _ in 1..entries {
                    is_usable(f);
                }
            }
        }
        // Fall back to the successor list: take the farthest usable entry
        // that still precedes the key.
        let mut best: Option<RingId> = None;
        let mut best_dist = 0u128;
        for &s in &self.succ {
            if s != self.id && s.in_open(self.id, key) && is_usable(s) {
                let d = self.id.distance_cw(s);
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
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        let ids = 1 + u64::from(self.pred.is_some()) + self.succ.len() as u64 + u64::from(ID_BITS);
        ids * 16
    }

    /// Bytes this state occupies: the struct plus its heap blocks, by
    /// capacity.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let heap_ids = self.succ.capacity() + self.fingers.targets.capacity();
        (std::mem::size_of::<Self>() + heap_ids * std::mem::size_of::<RingId>()) as u64
    }

    /// Number of *distinct* peers this node references (ring-degree metric).
    #[must_use]
    pub fn distinct_neighbors(&self) -> usize {
        let mut seen: Vec<RingId> = self.fingers.runs().map(|(f, _)| f).collect();
        seen.extend(&self.succ);
        seen.extend(self.pred);
        seen.sort_unstable();
        seen.dedup();
        seen.len() - usize::from(seen.binary_search(&self.id).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_util::derive_rng;

    /// A node at 0 whose only non-self fingers are 3 → 8 and 6 → 64.
    fn two_finger_node() -> NodeState {
        let mut n = NodeState::solitary(RingId(0));
        n.set_finger(3, RingId(8)); // id + 8
        n.set_finger(6, RingId(64)); // id + 64
        n
    }

    #[test]
    fn solitary_points_to_self() {
        let n = NodeState::solitary(RingId(42));
        assert_eq!(n.successor(), RingId(42));
        assert_eq!(n.predecessor(), Some(RingId(42)));
        assert_eq!(n.fingers().count(), ID_BITS as usize);
        assert!(n.fingers().all(|f| f == RingId(42)));
        assert_eq!(n.distinct_neighbors(), 0);
    }

    #[test]
    fn joining_knows_only_successor() {
        let n = NodeState::joining(RingId(10), RingId(99), 4);
        assert_eq!(n.successor(), RingId(99));
        assert_eq!(n.predecessor(), None);
        assert_eq!(n.successor_list(), [RingId(99)]);
        assert_eq!(n.distinct_neighbors(), 1);
    }

    #[test]
    fn closest_preceding_prefers_far_fingers() {
        let n = two_finger_node();
        // Key 100: finger 64 precedes it and is farther than 8.
        assert_eq!(n.closest_preceding(RingId(100), |_| true), Some(RingId(64)));
        // Key 50: only finger 8 precedes it.
        assert_eq!(n.closest_preceding(RingId(50), |_| true), Some(RingId(8)));
    }

    #[test]
    fn closest_preceding_skips_dead_fingers() {
        let n = two_finger_node();
        let alive = |id: RingId| id != RingId(64);
        assert_eq!(n.closest_preceding(RingId(100), alive), Some(RingId(8)));
    }

    #[test]
    fn closest_preceding_uses_successor_list_as_fallback() {
        let mut n = NodeState::solitary(RingId(0));
        n.succ = vec![RingId(5), RingId(9)];
        assert_eq!(n.closest_preceding(RingId(100), |_| true), Some(RingId(9)));
        // Key 7: only succ 5 precedes.
        assert_eq!(n.closest_preceding(RingId(7), |_| true), Some(RingId(5)));
    }

    #[test]
    fn closest_preceding_none_when_no_progress() {
        let n = NodeState::solitary(RingId(0));
        assert_eq!(n.closest_preceding(RingId(100), |_| true), None);
    }

    #[test]
    fn dead_run_is_probed_once_per_entry_and_a_live_one_once() {
        // Entries 10..=14 → 64 (a run of 5), entries 3..=4 → 8.
        let mut n = NodeState::solitary(RingId(0));
        for k in 10..15 {
            n.set_finger(k, RingId(64));
        }
        n.set_finger(3, RingId(8));
        n.set_finger(4, RingId(8));
        let mut probes = Vec::new();
        let next = n.closest_preceding(RingId(100), |f| {
            probes.push(f);
            f != RingId(64)
        });
        assert_eq!(next, Some(RingId(8)));
        assert_eq!(probes, [[RingId(64); 5].as_slice(), &[RingId(8)]].concat());
    }

    #[test]
    fn set_finger_inside_a_run_splits_it_in_three_and_back() {
        let mut n = NodeState::joining(RingId(1), RingId(9), 4);
        let original = n.fingers.clone();
        n.set_finger(64, RingId(5));
        let runs: Vec<_> = n.fingers.runs().collect();
        assert_eq!(
            runs,
            [(RingId(9), 64), (RingId(5), 1), (RingId(9), 63)],
            "one run of 128 becomes 64 + 1 + 63"
        );
        assert_eq!(n.finger(63), RingId(9));
        assert_eq!(n.finger(64), RingId(5));
        assert_eq!(n.finger(65), RingId(9));
        n.set_finger(64, RingId(9));
        assert_eq!(n.fingers, original, "setting it back restores the table");
    }

    #[test]
    fn run_table_matches_the_flat_table_it_replaces() {
        // Random writes over a small alphabet (so runs split and merge
        // constantly), mirrored into a flat 128-entry array.
        let alphabet: Vec<RingId> = (0..4).map(|i| RingId(100 + i)).collect();
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
                assert!(table.is_well_formed());
                let runs: Vec<(RingId, u32)> = table.runs().collect();
                assert_eq!(runs.iter().map(|r| r.1).sum::<u32>(), ID_BITS);
                for (k, &want) in flat.iter().enumerate() {
                    assert_eq!(table.get(k), want, "entry {k}");
                }
                let node = NodeState {
                    fingers: table.clone(),
                    ..NodeState::solitary(RingId(0))
                };
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
            for &idv in &ids {
                let id = RingId(idv);
                let table = FingerTable::ideal(id, &ids);
                assert!(table.is_well_formed());
                for k in 0..ID_BITS {
                    let start = id.finger_start(k).0;
                    let want = ids.iter().find(|&&v| v >= start).unwrap_or(&ids[0]);
                    assert_eq!(
                        table.get(k as usize),
                        RingId(*want),
                        "n {n} id {id:?} entry {k}"
                    );
                }
            }
        }
    }
}
