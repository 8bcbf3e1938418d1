//! Property-style tests for the tombstoned posting lists.
//!
//! Deterministic seeded loops (the workspace builds with an empty
//! registry, so no `proptest` crate): random interleavings of publish,
//! tombstone, eager-remove, and cleanup are replayed against a naive
//! vector model — every live-facing accessor must agree with the model
//! at every step, the block must pass [`PostingList::check`], and it
//! must never rewrite bytes behind its append watermark except through
//! [`PostingList::cleanup`]. The write kernel,
//! [`PostingList::publish_run`], is held to the same model: a run leaves
//! exactly what its entries published one by one, in any order, leave —
//! and so is the block-level merge, [`PostingList::absorb`]: it leaves
//! what publishing the donor's live entries one by one leaves.
//!
//! Every varint of the block — the document gap and the three metadata
//! fields — is drawn across its 1-, 2-, 3- and 5-byte encodings, so the
//! decoder is exercised past the single-byte case everywhere it runs.

use sprite_core::{IndexEntry, PostingList};
use sprite_ir::DocId;
use sprite_util::{derive_rng, varint_len, DetRng, RingId, SliceRng};

fn rng(label: &str) -> DetRng {
    derive_rng(0xC0DE, label)
}

/// The document id of the `i`-th document of a test's document space.
/// Ascending, with the gap before the next document cycling through 1-,
/// 2-, 3- and 4-byte varints and a 5-byte gap after index 16 of every 64,
/// so a list over any stretch of documents encodes multi-byte gaps, and
/// one that spans or starts past index 16 a 5-byte one. Indices up to 512
/// stay inside `u32`.
fn doc_id(i: u32) -> DocId {
    const GAPS: [u32; 6] = [1, 127, 128, 16_383, 16_384, 1 << 21];
    let gap = |j: u32| match j % 64 {
        16 => 1 << 28,
        _ => GAPS[j as usize % 6],
    };
    DocId((0..i).map(gap).sum())
}

/// An entry for `doc` with random metadata. Each field is, half the time,
/// a varint width boundary — 0, 127, 128, 16,383, 16,384, 2²¹, 2²⁸ or
/// `u32::MAX` — and otherwise a small value.
fn entry(r: &mut DetRng, doc: DocId) -> IndexEntry {
    const EDGES: [u32; 8] = [0, 127, 128, 16_383, 16_384, 1 << 21, 1 << 28, u32::MAX];
    let mut field = |small: std::ops::Range<usize>| {
        if r.gen_range(0..2) == 0 {
            EDGES[r.gen_range(0..EDGES.len())]
        } else {
            r.gen_range(small) as u32
        }
    };
    let (tf, doc_len, distinct) = (field(1..50), field(10..500), field(5..100));
    IndexEntry {
        doc,
        owner: RingId(u128::from(r.gen_u64())),
        tf,
        doc_len,
        distinct,
    }
}

/// Marks, per field (doc gap, tf, doc length, distinct count), which varint
/// widths the stored entries of a block — ascending by document — encode.
fn note_widths(stored: &[(IndexEntry, bool)], seen: &mut [[bool; 6]; 4]) {
    let mut prev = None;
    for (e, _) in stored {
        let gap = prev.map_or(e.doc.0, |p| e.doc.0 - p);
        for (field, v) in [gap, e.tf, e.doc_len, e.distinct].into_iter().enumerate() {
            seen[field][varint_len(u64::from(v))] = true;
        }
        prev = Some(e.doc.0);
    }
}

/// The naive model: every stored entry with its tombstone flag, sorted
/// by document id — the semantics the block must match.
#[derive(Default)]
struct Model {
    stored: Vec<(IndexEntry, bool)>,
}

impl Model {
    fn publish(&mut self, e: IndexEntry) {
        match self.stored.binary_search_by_key(&e.doc, |(s, _)| s.doc) {
            Ok(i) => self.stored[i] = (e, false),
            Err(i) => self.stored.insert(i, (e, false)),
        }
    }
    fn tombstone(&mut self, doc: DocId) -> bool {
        match self.stored.binary_search_by_key(&doc, |(s, _)| s.doc) {
            Ok(i) if !self.stored[i].1 => {
                self.stored[i].1 = true;
                true
            }
            _ => false,
        }
    }
    fn remove(&mut self, doc: DocId) -> bool {
        match self.stored.binary_search_by_key(&doc, |(s, _)| s.doc) {
            Ok(i) => {
                self.stored.remove(i);
                true
            }
            Err(_) => false,
        }
    }
    fn cleanup(&mut self) -> Vec<IndexEntry> {
        let (dead, live): (Vec<_>, Vec<_>) = self.stored.drain(..).partition(|(_, d)| *d);
        self.stored = live;
        dead.into_iter().map(|(e, _)| e).collect()
    }
    fn live(&self) -> Vec<IndexEntry> {
        self.stored
            .iter()
            .filter(|(_, d)| !d)
            .map(|(e, _)| *e)
            .collect()
    }
    fn dead_count(&self) -> usize {
        self.stored.iter().filter(|(_, d)| *d).count()
    }
}

fn check_agreement(list: &PostingList, model: &Model, step: usize) {
    let live = model.live();
    assert_eq!(list.len(), live.len(), "live count diverged at step {step}");
    assert_eq!(list.is_empty(), live.is_empty());
    assert_eq!(
        list.dead_count(),
        model.dead_count(),
        "tombstone debt diverged at step {step}"
    );
    assert_eq!(
        list.to_entries(),
        live,
        "live contents diverged at step {step}"
    );
    assert_eq!(list.check(), Ok(()), "block malformed at step {step}");
    // The iterator is the query path: same entries, already doc-sorted.
    let via_iter: Vec<IndexEntry> = list.iter().collect();
    assert_eq!(via_iter, live);
}

/// Random interleavings of every mutation, replayed against the model:
/// all live-facing accessors agree at every step, every verdict matches,
/// and cleanup reclaims the same entries in the same order.
#[test]
fn random_interleavings_agree_with_the_naive_model() {
    let mut r = rng("interleave");
    let mut widths = [[false; 6]; 4];
    for round in 0..64 {
        let mut list = PostingList::new(true);
        let mut model = Model::default();
        let doc_space = r.gen_range(4..24) as u32;
        let steps = r.gen_range(10..60);
        for step in 0..steps {
            let doc = doc_id(r.gen_range(0..doc_space as usize) as u32);
            match r.gen_range(0..10) {
                // Publishing dominates, mixing in-order appends (fresh
                // high ids) with out-of-order splices and republishes.
                0..=4 => {
                    let e = entry(&mut r, doc);
                    list.publish(e);
                    model.publish(e);
                }
                5..=6 => {
                    let (got, want) = (list.tombstone(doc), model.tombstone(doc));
                    assert_eq!(got, want, "tombstone verdict, round {round} step {step}");
                }
                7 => {
                    let (got, want) = (list.remove(doc), model.remove(doc));
                    assert_eq!(got, want, "remove verdict, round {round} step {step}");
                }
                _ => {
                    let (got, want) = (list.cleanup(), model.cleanup());
                    assert_eq!(got, want, "reclaim set, round {round} step {step}");
                }
            }
            check_agreement(&list, &model, step);
            note_widths(&model.stored, &mut widths);
        }
    }
    let fields = ["doc gap", "tf", "doc length", "distinct"];
    for (field, seen) in fields.iter().zip(widths) {
        for bytes in [1, 2, 3, 5] {
            assert!(
                seen[bytes],
                "no {field} varint of {bytes} bytes was decoded"
            );
        }
    }
}

/// The append-only contract: between cleanups, in-order publishes,
/// appended runs, refresh runs that change nothing and tombstones only
/// ever *extend* the encoded block — every byte behind the watermark
/// stays untouched. Only `cleanup` may rewrite.
#[test]
fn packed_bytes_are_append_only_until_cleanup() {
    let mut r = rng("watermark");
    for _ in 0..64 {
        let mut list = PostingList::new(true);
        let mut next_doc = 0u32;
        let mut snapshot: Vec<u8> = Vec::new();
        for _ in 0..r.gen_range(10..40) {
            match r.gen_range(0..8) {
                // In-order publish: strictly ascending ids, the
                // bulk-publish fast path.
                0..=3 => {
                    next_doc += 1 + r.gen_range(0..3) as u32;
                    list.publish(entry(&mut r, doc_id(next_doc)));
                }
                // A whole run past the last stored document.
                4 => {
                    let mut run = Vec::new();
                    for _ in 0..r.gen_range(1..5) {
                        next_doc += 1 + r.gen_range(0..3) as u32;
                        run.push(entry(&mut r, doc_id(next_doc)));
                    }
                    list.publish_run(&run);
                }
                // A refresh of entries already stored, equal and live.
                5 => {
                    let run: Vec<IndexEntry> =
                        list.iter().filter(|_| r.gen_range(0..2) == 0).collect();
                    list.publish_run(&run);
                }
                // Tombstone an already-published id: marks only.
                _ if next_doc > 0 => {
                    let victim = 1 + r.gen_range(0..next_doc as usize) as u32;
                    list.tombstone(doc_id(victim));
                }
                _ => {}
            }
            let bytes = list.packed_bytes();
            assert!(
                bytes.len() >= snapshot.len() && bytes[..snapshot.len()] == snapshot[..],
                "a non-cleanup operation rewrote bytes behind the watermark"
            );
            snapshot = bytes.to_vec();
        }
        let had_debt = list.dead_count() > 0;
        let reclaimed = list.cleanup();
        assert_eq!(!reclaimed.is_empty(), had_debt);
        assert_eq!(list.dead_count(), 0);
        // After the rewrite the block re-encodes only live entries: a
        // second cleanup is a no-op on an already-clean block.
        let bytes_after = list.packed_bytes().to_vec();
        assert!(list.cleanup().is_empty());
        assert_eq!(list.packed_bytes(), &bytes_after[..]);
    }
}

/// Republishing a tombstoned document revives it in place: the tombstone
/// is shed, the fresh metadata wins, and a later cleanup reclaims
/// nothing for it.
#[test]
fn republish_sheds_a_pending_tombstone() {
    let mut r = rng("revive");
    for _ in 0..64 {
        let mut list = PostingList::new(true);
        let docs = r.gen_range(3..10) as u32;
        for d in 0..docs {
            list.publish(entry(&mut r, doc_id(d)));
        }
        let victim = doc_id(r.gen_range(0..docs as usize) as u32);
        assert!(list.tombstone(victim));
        assert_eq!(list.dead_count(), 1);
        let revived = entry(&mut r, victim);
        list.publish(revived);
        assert_eq!(list.dead_count(), 0, "republish must shed the tombstone");
        assert!(list.to_entries().contains(&revived));
        assert!(list.cleanup().is_empty(), "nothing left to reclaim");
    }
}

/// A list over some documents of `0..doc_space` published in
/// random order, a few of them tombstoned, with the model that mirrors it.
fn random_list(r: &mut DetRng, doc_space: u32) -> (PostingList, Model) {
    let (mut list, mut model) = (PostingList::new(true), Model::default());
    let mut docs: Vec<DocId> = (0..doc_space)
        .filter(|_| r.gen_range(0..3) > 0)
        .map(doc_id)
        .collect();
    docs.shuffle(r);
    for &d in &docs {
        let e = entry(r, d);
        list.publish(e);
        model.publish(e);
    }
    for &d in docs.iter().filter(|_| r.gen_range(0..5) == 0) {
        assert_eq!(list.tombstone(d), model.tombstone(d));
    }
    (list, model)
}

/// `publish_run` is the one-by-one publishes of its entries, in any order:
/// same bytes, same counts, same contents, same wire size — for the empty
/// run, pure appends, refreshes that change nothing, interleaved inserts,
/// replacements, revived tombstones and runs longer than the list.
#[test]
fn publish_run_leaves_what_one_by_one_publishes_leave_in_any_order() {
    let mut r = rng("run");
    for round in 0..350 {
        let doc_space = r.gen_range(1..40) as u32;
        let (base, mut model) = random_list(&mut r, doc_space);
        let stored: Vec<IndexEntry> = model.stored.iter().map(|(e, _)| *e).collect();
        let tombstoned: Vec<DocId> = model
            .stored
            .iter()
            .filter_map(|(e, dead)| dead.then_some(e.doc))
            .collect();
        let mut fresh = |docs: Vec<DocId>| -> Vec<IndexEntry> {
            docs.into_iter().map(|d| entry(&mut r, d)).collect()
        };
        let mut coin = rng(&format!("run-coin-{round}"));
        let run: Vec<IndexEntry> = match round % 7 {
            0 => Vec::new(),
            // All past the last stored document.
            1 => fresh((doc_space..doc_space + 6).map(doc_id).collect()),
            // Entries already stored, byte for byte (live or not).
            2 => {
                let keep = |_: &IndexEntry| coin.gen_range(0..2) == 0;
                stored.iter().copied().filter(keep).collect()
            }
            // New documents between, before and after the stored ones.
            3 => fresh(
                (0..doc_space + 3)
                    .filter(|_| coin.gen_range(0..3) == 0)
                    .map(doc_id)
                    .collect(),
            ),
            // Stored documents with new metadata.
            4 => fresh(stored.iter().map(|e| e.doc).step_by(2).collect()),
            // Exactly the tombstoned documents.
            5 => fresh(tombstoned.clone()),
            // Several times the list: every document, and as many beyond.
            _ => fresh((0..2 * doc_space + 2).map(doc_id).collect()),
        };

        let mut merged = base.clone();
        merged.publish_run(&run);
        for e in &run {
            model.publish(*e);
        }
        check_agreement(&merged, &model, round);

        let mut shuffled = run.clone();
        shuffled.shuffle(&mut coin);
        let reversed: Vec<IndexEntry> = run.iter().rev().copied().collect();
        for order in [&run, &reversed, &shuffled] {
            let mut one_by_one = base.clone();
            for e in order {
                one_by_one.publish(*e);
            }
            assert_eq!(merged.packed_bytes(), one_by_one.packed_bytes(), "{round}");
            assert_eq!(merged.len(), one_by_one.len());
            assert_eq!(merged.dead_count(), one_by_one.dead_count());
            assert_eq!(merged.to_entries(), one_by_one.to_entries());
            assert_eq!(merged.wire_size(), one_by_one.wire_size());
        }
        // The block is canonical: building the live + dead contents from
        // scratch gives the same bytes, so no merge left a stale gap.
        let rebuilt = PostingList::from_entries(model.stored.iter().map(|(e, _)| *e).collect());
        assert_eq!(merged.packed_bytes(), rebuilt.packed_bytes(), "{round}");
    }
}

/// A refresh run whose every entry is already stored, equal and live is a
/// read-only compare: the block keeps its bytes *and its allocation*.
#[test]
fn a_refresh_run_that_changes_nothing_never_touches_the_block() {
    let mut r = rng("refresh");
    let mut checked = 0;
    for _ in 0..128 {
        let doc_space = r.gen_range(1..40) as u32;
        let (mut list, _) = random_list(&mut r, doc_space);
        let run: Vec<IndexEntry> = list.iter().filter(|_| r.gen_range(0..2) == 0).collect();
        if run.is_empty() {
            continue;
        }
        checked += 1;
        let block = list.packed_bytes();
        let (ptr, before) = (block.as_ptr(), block.to_vec());
        let dead = list.dead_count();
        list.publish_run(&run);
        list.publish(run[run.len() / 2]);
        let block = list.packed_bytes();
        assert_eq!(block.as_ptr(), ptr, "the block was reallocated");
        assert_eq!(block, &before[..], "the block was rewritten");
        assert_eq!(list.dead_count(), dead);
    }
    assert!(checked > 64, "only {checked} non-empty refresh runs");
}

/// `absorb` is the one-by-one publishes of the donor's live entries: same
/// bytes, same counts, same contents — whether tombstones are pending on
/// neither side, either or both, and for donors disjoint from the
/// destination, overlapping it, equal to it, inside it or around it, and
/// when either side is empty. It reports a change exactly when there is
/// one.
#[test]
fn absorb_leaves_what_publishing_the_donors_live_entries_one_by_one_leaves() {
    let mut r = rng("absorb");
    let (mut unchanged, mut adopted) = (0, 0);
    for round in 0..640 {
        let doc_space = r.gen_range(1..40) as u32;
        let (mut dest, _) = random_list(&mut r, doc_space);
        let mut coin = rng(&format!("absorb-coin-{round}"));
        let mut donor = match round % 8 {
            // Disjoint: every donor document lies past the destination's.
            0 => {
                let (far, _) = random_list(&mut r, doc_space);
                let shifted = far.to_entries().into_iter().map(|e| IndexEntry {
                    doc: DocId(e.doc.0 + doc_id(doc_space).0),
                    ..e
                });
                PostingList::from_entries(shifted.collect())
            }
            // Overlapping: same documents, other metadata, other tombstones.
            1 => random_list(&mut r, doc_space).0,
            // Equal, tombstones included.
            2 | 3 => dest.clone(),
            // Donor inside the destination.
            4 => {
                let keep = |_: &IndexEntry| coin.gen_range(0..2) == 0;
                PostingList::from_entries(dest.iter().filter(keep).collect())
            }
            // Donor around the destination.
            5 => {
                let mut around = dest.clone();
                for d in (0..doc_space + 4).filter(|_| coin.gen_range(0..4) == 0) {
                    let d = doc_id(d);
                    if !dest.iter().any(|e| e.doc == d) {
                        around.publish(entry(&mut r, d));
                    }
                }
                around
            }
            // Empty destination.
            6 => std::mem::replace(&mut dest, PostingList::new(true)),
            // Empty donor.
            _ => PostingList::new(true),
        };
        // Tombstones pending on neither side, either or both.
        if round / 8 % 2 == 0 {
            dest.cleanup();
        }
        if round / 16 % 2 == 0 {
            donor.cleanup();
        }

        let mut one_by_one = dest.clone();
        let mut live = donor.to_entries();
        live.shuffle(&mut coin);
        for e in live {
            one_by_one.publish(e);
        }
        let (bytes_before, dead_before) = (dest.packed_bytes().to_vec(), dest.dead_count());
        let was_empty = bytes_before.is_empty();
        let changed = dest.absorb(&donor);

        assert_eq!(dest.packed_bytes(), one_by_one.packed_bytes(), "{round}");
        assert_eq!(dest.len(), one_by_one.len(), "{round}");
        assert_eq!(dest.dead_count(), one_by_one.dead_count(), "{round}");
        assert_eq!(dest.to_entries(), one_by_one.to_entries(), "{round}");
        assert_eq!(dest.check(), Ok(()), "{round}");
        assert_eq!(
            changed,
            dest.packed_bytes() != &bytes_before[..] || dest.dead_count() != dead_before,
            "{round}: a change is reported exactly when there is one"
        );
        unchanged += usize::from(!changed);
        adopted += usize::from(changed && was_empty);
        // A later publish past the end still appends to an adopted block.
        let next = dest.iter().last().map_or(0, |e| e.doc.0 + 1);
        let e = entry(&mut r, DocId(next));
        dest.publish(e);
        one_by_one.publish(e);
        assert_eq!(dest.packed_bytes(), one_by_one.packed_bytes(), "{round}");
    }
    assert!(unchanged > 100, "only {unchanged} merges changed nothing");
    assert!(
        adopted > 40,
        "only {adopted} empty destinations adopted a block"
    );
}
