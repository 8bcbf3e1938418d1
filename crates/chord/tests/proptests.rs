//! Property-style tests for the Chord simulator's routing invariants.
//!
//! Formerly `proptest` suites; now deterministic seeded loops over
//! `DetRng`-generated rings so the workspace builds with an empty registry.

use sprite_chord::{ChordConfig, ChordNet, ChurnConfig, ChurnEngine};
use sprite_util::{derive_rng, DetRng, RingId};

/// Build a ring from arbitrary raw ids (deduplicated inside `with_nodes`).
fn ring(ids: &[u128]) -> ChordNet {
    let ids: Vec<RingId> = ids.iter().map(|&v| RingId(v)).collect();
    ChordNet::with_nodes(ChordConfig::default(), &ids)
}

fn rng(label: &str) -> DetRng {
    derive_rng(0xC0DE, label)
}

fn gen_u128(rng: &mut DetRng) -> u128 {
    (u128::from(rng.gen_u64()) << 64) | u128::from(rng.gen_u64())
}

fn gen_ids(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<u128> {
    let n = rng.gen_range(lo..hi);
    let mut ids: Vec<u128> = (0..n).map(|_| gen_u128(rng)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// On a converged ring, lookups from any member for any key resolve to
/// the oracle owner, within the Chord hop bound.
#[test]
fn lookup_agrees_with_oracle() {
    let mut r = rng("lookup-oracle");
    for _ in 0..64 {
        let ids = gen_ids(&mut r, 1, 40);
        let mut net = ring(&ids);
        let members = net.node_ids();
        let from = members[r.gen_range(0..members.len())];
        let n_keys = r.gen_range(1..20);
        for _ in 0..n_keys {
            let key = RingId(gen_u128(&mut r));
            let want = net.oracle_owner(key).expect("non-empty");
            let got = net.lookup(from, key).expect("converged ring lookup");
            assert_eq!(got.owner, want);
            // Hop bound: fingers halve the remaining distance each step.
            assert!(
                got.hops as usize <= 2 * (members.len().ilog2() as usize + 1) + 2,
                "hops {} too many for {} nodes",
                got.hops,
                members.len()
            );
        }
    }
}

/// The lookup path never revisits a node (progress is strictly
/// monotone along the ring).
#[test]
fn lookup_path_is_simple() {
    let mut r = rng("path-simple");
    for _ in 0..64 {
        let ids = gen_ids(&mut r, 2, 40);
        let mut net = ring(&ids);
        let from = net.node_ids()[0];
        let l = net.lookup(from, RingId(gen_u128(&mut r))).expect("lookup");
        let mut seen = std::collections::HashSet::new();
        for p in &l.path {
            assert!(seen.insert(*p), "path revisits {p:?}");
        }
        assert_eq!(l.path.len() as u32, l.hops + 1);
    }
}

/// Replica sets: correct length, start at the owner, no duplicates.
#[test]
fn replica_sets_well_formed() {
    let mut r = rng("replica-sets");
    for _ in 0..64 {
        let ids = gen_ids(&mut r, 1, 30);
        let key = RingId(gen_u128(&mut r));
        let k = r.gen_range(1..6);
        let net = ring(&ids);
        let reps = net.oracle_replicas(key, k);
        assert_eq!(reps.len(), k.min(ids.len()));
        assert_eq!(reps.first().copied(), net.oracle_owner(key));
        let set: std::collections::HashSet<_> = reps.iter().collect();
        assert_eq!(set.len(), reps.len());
    }
}

/// After arbitrary graceful leaves, maintenance reconverges the ring and
/// lookups still match the oracle.
#[test]
fn leaves_then_converge() {
    let mut r = rng("leaves-converge");
    for _ in 0..64 {
        let ids = gen_ids(&mut r, 4, 24);
        let mut net = ring(&ids);
        let n_leavers = r.gen_range(1..3);
        for _ in 0..n_leavers {
            if net.len() <= 2 {
                break;
            }
            let members = net.node_ids();
            let victim = members[r.gen_range(0..members.len())];
            net.leave(victim).expect("leave");
        }
        net.converge(80);
        assert!(net.is_converged());
        let members = net.node_ids();
        let from = members[0];
        let key = RingId(0xdead_beef);
        assert_eq!(
            net.lookup(from, key).expect("post-leave lookup").owner,
            net.oracle_owner(key).expect("non-empty")
        );
    }
}

/// After abrupt failures (no goodbye), maintenance repairs the ring.
#[test]
fn failures_then_converge() {
    let mut r = rng("failures-converge");
    for _ in 0..64 {
        let ids = gen_ids(&mut r, 6, 24);
        let mut net = ring(&ids);
        let members = net.node_ids();
        let victim = members[r.gen_range(0..members.len())];
        net.fail(victim).expect("fail");
        net.converge(80);
        assert!(net.is_converged());
    }
}

/// The converged-ring invariants, read through the public accessors: every
/// listed id resolves to its own state (slots move on removal — the id
/// index must follow), predecessor and successor list are ring-order
/// neighbours, successor and fingers match the oracle.
fn assert_ring_invariants(net: &ChordNet, when: &str) {
    let ids = net.node_ids();
    let n = ids.len();
    assert_eq!(net.len(), n, "{when}: store and ring order disagree");
    assert!(net.is_converged(), "{when}: not converged");
    for (i, &id) in ids.iter().enumerate() {
        let node = net.node(id).expect("listed node is alive");
        assert_eq!(node.id(), id, "{when}: {id:?} resolves to a foreign state");
        assert_eq!(node.predecessor(), Some(ids[(i + n - 1) % n]), "{when}");
        for (j, &s) in node.successor_list().iter().enumerate() {
            assert_eq!(s, ids[(i + 1 + j) % n], "{when}: successor list of {id:?}");
        }
    }
}

/// The id table behind the accessors: every alive id resolves, through its
/// slot, to its own state; every link of every alive node is a slot whose
/// id is the one the view reports, and the index maps that id back to the
/// same slot; and no more slots are dead than ids were removed or only
/// pointed at (`dead_bound`).
fn assert_store(net: &ChordNet, when: &str, dead_bound: usize) {
    let resolve = |slot: u32| {
        let id = net.id_at(slot).expect("links stay inside the id table");
        assert_eq!(net.slot_of(id), Some(slot), "{when}: {id:?} interned twice");
        id
    };
    for id in net.node_ids() {
        let node = net.node(id).expect("listed node is alive");
        assert_eq!(net.slot_of(id), Some(node.slot()), "{when}: {id:?}");
        assert_eq!(
            resolve(node.slot()),
            id,
            "{when}: {id:?} has a foreign slot"
        );
        assert_eq!(node.id(), id, "{when}: {id:?} resolves to a foreign state");
        let succ: Vec<RingId> = node.successor_slots().iter().map(|&s| resolve(s)).collect();
        assert_eq!(succ, node.successor_list(), "{when}: successors of {id:?}");
        assert_eq!(
            node.predecessor_slot().map(resolve),
            node.predecessor(),
            "{when}"
        );
        assert!(
            node.finger_slots().map(resolve).eq(node.fingers()),
            "{when}: fingers of {id:?}"
        );
    }
    let dead = net.interned() - net.len();
    assert!(
        dead <= dead_bound,
        "{when}: {dead} dead slots for {dead_bound} removals and injections"
    );
}

/// Scheduled failures, rejoins, joins, a planted finger and a leave, then
/// engine-driven churn under bounded maintenance: every repair ends in a
/// well-formed ring whose removed members are gone, whose survivors kept
/// their own state and whose rejoined members got their old slots back.
#[test]
fn ring_invariants_survive_scheduled_and_engine_churn() {
    for n in [1usize, 2, 8, 64] {
        let net = ChordNet::with_random_nodes(ChordConfig::default(), n, 9);
        assert_ring_invariants(&net, "freshly built");
        assert_store(&net, "freshly built", 0);
        assert_eq!(net.interned(), n, "a fresh ring interns its members only");
    }
    let mut net = ChordNet::with_random_nodes(ChordConfig::default(), 48, 17);
    let failed: Vec<RingId> = net.node_ids().into_iter().step_by(7).collect();
    let slots: Vec<Option<u32>> = failed.iter().map(|&id| net.slot_of(id)).collect();
    for &id in &failed {
        net.fail(id).expect("listed node is alive");
    }
    // Removals plus injected ids: the bound on dead interned slots.
    let mut gone = failed.len();
    net.converge(64);
    assert_ring_invariants(&net, "after failures");
    assert_store(&net, "after failures", gone);
    assert!(failed.iter().all(|&id| !net.contains(id)));
    for &id in &failed[..3] {
        let bootstrap = net.node_ids()[0];
        net.join(id, bootstrap).expect("bootstrap is alive");
    }
    gone -= 3;
    assert_eq!(
        failed.iter().map(|&id| net.slot_of(id)).collect::<Vec<_>>(),
        slots,
        "failed ids keep their slots, and rejoin at them"
    );
    net.converge(64);
    assert_ring_invariants(&net, "after rejoins");
    assert_store(&net, "after rejoins", gone);
    for i in 0..6u64 {
        let id = RingId::hash_bytes(format!("arena-join-{i}").as_bytes());
        let bootstrap = net.node_ids()[0];
        net.join(id, bootstrap).expect("bootstrap is alive");
    }
    net.converge(64);
    assert_ring_invariants(&net, "after joins");
    assert_store(&net, "after joins", gone);
    let planter = net.node_ids()[5];
    let never_seen = RingId::hash_bytes(b"arena-never-seen");
    net.set_finger(planter, 90, never_seen)
        .expect("planter is alive");
    gone += 1;
    assert!(!net.contains(never_seen) && net.slot_of(never_seen).is_some());
    assert_store(&net, "after a planted finger", gone);
    net.converge(64);
    assert_ring_invariants(&net, "after repairing the planted finger");
    assert_store(&net, "after repairing the planted finger", gone);
    let victim = net.node_ids()[3];
    net.leave(victim).expect("listed node is alive");
    gone += 1;
    net.converge(64);
    assert_ring_invariants(&net, "after a leave");
    assert_store(&net, "after a leave", gone);

    let mut engine = ChurnEngine::new(ChurnConfig::default(), 24);
    for _ in 0..4 {
        let (_, tick) = engine.tick(&mut net);
        gone += tick.leaves + tick.fails;
        net.stabilize_round();
        net.fix_fingers_round();
        assert_store(&net, "during engine churn", gone);
    }
    net.converge(64);
    assert_ring_invariants(&net, "after engine churn stops");
    assert_store(&net, "after engine churn stops", gone);
}
