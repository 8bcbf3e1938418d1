//! Corruption-injection tests: deliberately break each invariant class the
//! checkers cover and assert the damage is detected — and that the healthy
//! state is reported clean. The injection points (the `ChordNet` setters,
//! `inject_published`, `inject_raw`) exist for exactly this purpose; the
//! simulation itself never calls them.
//!
//! The last two sections harden the byte formats: posting blocks and the
//! wire codec the byte accounting is built on. Truncated, bit-flipped,
//! non-canonical and random inputs must all come back as a typed
//! [`sprite_util::CodecError`] or a [`Violation`] — never a panic, never a
//! hang, never an unbounded allocation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sprite_audit::{check_index, check_ring, check_system, Violation};
use sprite_chord::{ChordConfig, ChordNet};
use sprite_core::{IndexEntry, SpriteConfig, SpriteSystem};
use sprite_corpus::{CorpusConfig, SyntheticCorpus};
use sprite_ir::{DocId, TermId};
use sprite_util::{
    decode_gap_list, decode_varint, derive_rng, encode_gap_list, encode_varint, varint_len,
    CodecError, RingId,
};

fn ring(n: usize) -> ChordNet {
    let net = ChordNet::with_random_nodes(ChordConfig::default(), n, 99);
    assert!(net.is_converged(), "test precondition: converged ring");
    net
}

/// A small published deployment shared by the index-corruption tests.
fn deployment() -> SpriteSystem {
    deployment_of(CorpusConfig::tiny(7), 16)
}

fn deployment_of(corpus: CorpusConfig, peers: usize) -> SpriteSystem {
    let sc = SyntheticCorpus::generate(&corpus);
    let mut sys = SpriteSystem::build(sc.corpus().clone(), peers, SpriteConfig::default(), 7);
    sys.publish_all();
    assert_eq!(check_system(&sys), Vec::new(), "test precondition: healthy");
    sys
}

/// Some (peer, term) whose posting list has at least `min_len` entries.
fn populated_list(sys: &SpriteSystem, min_len: usize) -> (RingId, TermId, Vec<IndexEntry>) {
    for peer in sys.indexing_peers() {
        let st = sys.indexing_state(peer).expect("listed peer indexes");
        for (term, list) in st.terms() {
            if list.len() >= min_len {
                return (peer, term, list.to_entries());
            }
        }
    }
    panic!("no posting list with >= {min_len} entries in the tiny deployment");
}

/// The posting-block encoding (gap-varint document id, raw owner address,
/// varint tf / doc-length / distinct-count) without the write kernel's
/// preconditions, so a test can spell a block the kernel never would: a
/// repeated document, metadata the corpus disagrees with. `entries` must
/// not descend.
fn encode_block(entries: &[IndexEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0;
    for e in entries {
        encode_varint(u64::from(e.doc.0 - prev), &mut out);
        prev = e.doc.0;
        out.extend_from_slice(&e.owner.0.to_be_bytes());
        for field in [e.tf, e.doc_len, e.distinct] {
            encode_varint(u64::from(field), &mut out);
        }
    }
    out
}

/// Replace the list of `(peer, term)` with the block `entries` encode to.
fn inject(sys: &mut SpriteSystem, peer: RingId, term: TermId, entries: &[IndexEntry]) {
    sys.indexing_state_mut(peer)
        .expect("peer indexes")
        .inject_raw(term, encode_block(entries), entries.len() as u32);
}

#[test]
fn healthy_deployment_is_clean() {
    let mut sys = deployment();
    sys.learning_iteration();
    assert_eq!(check_system(&sys), Vec::new(), "post-learning state");
}

#[test]
fn mutated_finger_is_detected() {
    let mut net = ring(16);
    let ids = net.node_ids();
    let victim = ids[3];
    // Point a mid-table finger at the node itself — with 16 random nodes in
    // a 128-bit space, finger[64]'s true owner is essentially never the
    // node, and the check compares against the live-ring oracle anyway.
    net.set_finger(victim, 64, victim).expect("victim is alive");
    let found = check_ring(&net);
    assert!(
        found
            .iter()
            .any(|v| matches!(v, Violation::WrongFinger { node, k: 64, .. } if *node == victim)),
        "expected WrongFinger on {victim:?}, got {found:?}"
    );
}

#[test]
fn dropped_successor_is_detected() {
    let mut net = ring(16);
    let ids = net.node_ids();
    let victim = ids[0];
    // Drop the real successor: shift the list left by one, as if the node
    // had (wrongly) given up on a live neighbor.
    let mut list = net
        .node(victim)
        .expect("victim is alive")
        .successor_list()
        .to_vec();
    assert!(list.len() >= 2, "test needs a successor list of >= 2");
    list.remove(0);
    net.set_successor_list(victim, &list)
        .expect("victim is alive");
    let found = check_ring(&net);
    assert!(
        found
            .iter()
            .any(|v| matches!(v, Violation::WrongSuccessor { node, .. } if *node == victim)),
        "expected WrongSuccessor on {victim:?}, got {found:?}"
    );
    assert!(
        found.iter().any(
            |v| matches!(v, Violation::BrokenSuccessorList { node, position: 0, .. } if *node == victim)
        ),
        "expected BrokenSuccessorList at position 0, got {found:?}"
    );
}

#[test]
fn corrupt_predecessor_is_detected() {
    let mut net = ring(8);
    let victim = net.node_ids()[5];
    net.set_predecessor(victim, None).expect("victim is alive");
    let found = check_ring(&net);
    assert!(
        found
            .iter()
            .any(|v| matches!(v, Violation::WrongPredecessor { node, found: None, .. } if *node == victim)),
        "expected WrongPredecessor on {victim:?}, got {found:?}"
    );
}

#[test]
fn over_published_terms_are_detected() {
    let mut sys = deployment();
    let doc = sprite_ir::DocId(0);
    let cap = sys.config().max_terms;
    // Publish cap + 3 distinct vocabulary terms behind the owner's back.
    let terms: Vec<TermId> = (0..cap as u32 + 3).map(TermId).collect();
    let published = terms.len();
    sys.inject_published(doc, terms);
    let found = check_index(&sys);
    assert!(
        found.contains(&Violation::TermCapExceeded {
            doc,
            published,
            cap
        }),
        "expected TermCapExceeded, got {found:?}"
    );
    // The injected terms were never routed to indexing peers, so the
    // publish/index agreement check fires too.
    assert!(
        found
            .iter()
            .any(|v| matches!(v, Violation::PublishedButUnindexed { doc: d, .. } if *d == doc)),
        "expected PublishedButUnindexed, got {found:?}"
    );
}

#[test]
fn duplicate_published_term_is_detected() {
    let mut sys = deployment();
    let doc = sprite_ir::DocId(1);
    let first = *sys
        .published_terms(doc)
        .first()
        .expect("published documents have terms");
    let mut terms = sys.published_terms(doc).to_vec();
    terms.push(first);
    sys.inject_published(doc, terms);
    let found = check_index(&sys);
    assert!(
        found.contains(&Violation::DuplicatePublished { doc, term: first }),
        "expected DuplicatePublished, got {found:?}"
    );
}

#[test]
fn malformed_block_is_detected() {
    let mut sys = deployment();
    let (peer, term, list) = populated_list(&sys, 2);
    // A real block that lost its last byte: nothing after that is trusted,
    // so the one finding is the block itself — for that peer and term only.
    let mut bytes = encode_block(&list);
    bytes.pop();
    sys.indexing_state_mut(peer)
        .expect("peer indexes")
        .inject_raw(term, bytes.clone(), list.len() as u32);
    assert_eq!(
        check_index(&sys),
        vec![Violation::MalformedPostings {
            peer,
            term,
            error: CodecError::Truncated {
                offset: bytes.len()
            }
        }]
    );
}

#[test]
fn duplicate_posting_is_detected() {
    let mut sys = deployment();
    let (peer, term, mut list) = populated_list(&sys, 1);
    let doc = list[0].doc;
    // The same document twice: a zero gap, which no publish can encode.
    let dup = list[0];
    list.insert(1, dup);
    inject(&mut sys, peer, term, &list);
    let found = check_index(&sys);
    assert!(
        found.contains(&Violation::DuplicatePosting { peer, term, doc }),
        "expected DuplicatePosting, got {found:?}"
    );
}

#[test]
fn stale_entry_metadata_is_detected() {
    let mut sys = deployment();
    let (peer, term, mut list) = populated_list(&sys, 1);
    let doc = list[0].doc;
    // Corrupt the replicated term frequency: the corpus disagrees now.
    list[0].tf += 1;
    inject(&mut sys, peer, term, &list);
    let found = check_index(&sys);
    assert!(
        found.contains(&Violation::StaleEntryMetadata { peer, term, doc }),
        "expected StaleEntryMetadata, got {found:?}"
    );
}

#[test]
fn bad_weight_is_detected() {
    let mut sys = deployment();
    let (peer, term, mut list) = populated_list(&sys, 1);
    let doc = list[0].doc;
    // A zero document length makes the §4 weight tf/|D| · ln(N/n′) infinite.
    list[0].doc_len = 0;
    inject(&mut sys, peer, term, &list);
    let found = check_index(&sys);
    assert!(
        found.iter().any(
            |v| matches!(v, Violation::BadWeight { peer: p, term: t, doc: d, .. }
                if *p == peer && *t == term && *d == doc)
        ),
        "expected BadWeight, got {found:?}"
    );
}

#[test]
fn indexed_but_unpublished_is_detected() {
    let mut sys = deployment();
    let (peer, term, mut list) = populated_list(&sys, 1);
    // Append an entry for a document that never published the term.
    let doc = (0..sys.corpus().len() as u32)
        .rev()
        .map(DocId)
        .find(|&d| !sys.published_terms(d).contains(&term))
        .expect("no term is published by every document");
    assert!(doc > list[list.len() - 1].doc, "the entry appends");
    list.push(IndexEntry { doc, ..list[0] });
    inject(&mut sys, peer, term, &list);
    let found = check_index(&sys);
    assert!(
        found.contains(&Violation::IndexedButUnpublished { peer, term, doc }),
        "expected IndexedButUnpublished, got {found:?}"
    );
}

#[test]
fn determinism_audit_passes_on_the_real_system() {
    let report = sprite_audit::audit_determinism(41);
    assert!(report.passed, "diverged at {:?}", report.first_divergence);
}

// ---------------------------------------------------------------------
// Posting-block corruption injection.
// ---------------------------------------------------------------------

/// Inject `bytes` as a block of `count` entries at `(peer, term)` and run
/// the whole audit over it, catching panics. Returns what the block's own
/// `check` said; whatever it said, `check_system` must have come back —
/// and must have named the block when `check` refused it.
fn audit_block(
    sys: &mut SpriteSystem,
    peer: RingId,
    term: TermId,
    bytes: Vec<u8>,
    count: u32,
    case: &str,
) -> Result<(), CodecError> {
    sys.indexing_state_mut(peer)
        .expect("peer indexes")
        .inject_raw(term, bytes, count);
    let audited = catch_unwind(AssertUnwindSafe(|| {
        let block = sys.indexing_state(peer).and_then(|st| st.postings(term));
        (block.map_or(Ok(()), |b| b.check()), check_system(sys))
    }));
    let Ok((checked, found)) = audited else {
        panic!("{case}: the audit panicked on a corrupt block");
    };
    if checked.is_err() {
        assert!(
            found.iter().any(|v| matches!(v,
                Violation::MalformedPostings { peer: p, term: t, .. }
                | Violation::DuplicatePosting { peer: p, term: t, .. }
                    if *p == peer && *t == term)),
            "{case}: check() refused the block but check_system did not name it"
        );
    }
    checked
}

#[test]
fn fuzzed_posting_blocks_yield_typed_errors_never_panics() {
    // A few thousand whole-deployment audits: keep the deployment small.
    let few_docs = CorpusConfig {
        n_docs: 24,
        ..CorpusConfig::tiny(7)
    };
    let mut sys = deployment_of(few_docs, 8);
    let (peer, term, list) = populated_list(&sys, 3);
    let st = sys.indexing_state(peer).expect("peer indexes");
    let block = st.postings(term).expect("listed").packed_bytes().to_vec();
    assert_eq!(encode_block(&list), block, "the test encoder is the codec");
    let count = list.len() as u32;

    // Every proper prefix: the count promises more than the bytes hold.
    for cut in 0..block.len() {
        let case = format!("prefix {cut}");
        let checked = audit_block(&mut sys, peer, term, block[..cut].to_vec(), count, &case);
        assert!(
            matches!(checked, Err(CodecError::Truncated { .. })),
            "{case}: {checked:?}"
        );
    }
    // Every single-bit flip: refused, or a list `check_index` then judges.
    for bit in 0..block.len() * 8 {
        let mut flipped = block.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = audit_block(&mut sys, peer, term, flipped, count, &format!("bit {bit}"));
    }
    // Seeded garbage, with counts from plausible to absurd.
    let mut rng = derive_rng(0xBAD_C0DE, "posting-garbage");
    for i in 0..1000 {
        let len = rng.gen_range(0..96);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_u32() as u8).collect();
        let count = rng.gen_u32() >> rng.gen_range(0..32);
        let _ = audit_block(&mut sys, peer, term, bytes, count, &format!("garbage {i}"));
    }
    // A padded first varint decodes to the same document id but would let
    // equal lists bill different byte sizes.
    let first = varint_len(u64::from(list[0].doc.0));
    let mut padded = block.clone();
    padded[first - 1] |= 0x80;
    padded.insert(first, 0x00);
    assert!(matches!(
        audit_block(&mut sys, peer, term, padded, count, "padded varint"),
        Err(CodecError::NonCanonical { .. })
    ));
    // An absurd count fails at the end of the bytes, not after 2^32 steps.
    assert!(matches!(
        audit_block(
            &mut sys,
            peer,
            term,
            block.clone(),
            u32::MAX,
            "absurd count"
        ),
        Err(CodecError::Truncated { .. })
    ));
    // And the intact block still passes.
    assert_eq!(
        audit_block(&mut sys, peer, term, block, count, "intact"),
        Ok(())
    );
    assert_eq!(check_system(&sys), Vec::new());
}

// ---------------------------------------------------------------------
// Wire-codec corruption injection.
// ---------------------------------------------------------------------

/// A seeded pool of valid encoded gap lists (with their source lists).
fn encoded_lists(seed_label: &str, cases: usize) -> Vec<(Vec<u64>, Vec<u8>)> {
    let mut rng = derive_rng(0xBAD_C0DE, seed_label);
    let mut out = Vec::with_capacity(cases);
    for _ in 0..cases {
        let len = rng.gen_range(0..40);
        let mut v = 0u64;
        let list: Vec<u64> = (0..len)
            .map(|_| {
                v += rng.gen_range(1..10_000) as u64;
                v
            })
            .collect();
        let mut buf = Vec::new();
        encode_gap_list(&list, &mut buf).expect("ascending list encodes");
        out.push((list, buf));
    }
    out
}

#[test]
fn truncated_codec_input_is_a_typed_error() {
    // Every proper prefix of a valid encoding must decode to an error (or,
    // for gap lists, a shorter valid stream boundary is impossible since
    // the count byte pins the element count) — and must never panic.
    for (list, buf) in encoded_lists("truncation", 60) {
        for cut in 0..buf.len() {
            match decode_gap_list(&buf[..cut], 0) {
                Ok((got, _)) => panic!("prefix of len {cut} decoded to {got:?} for {list:?}"),
                Err(
                    CodecError::Truncated { .. }
                    | CodecError::Overflow { .. }
                    | CodecError::NonCanonical { .. },
                ) => {}
                Err(e) => panic!("unexpected error class {e:?}"),
            }
        }
    }
    // Varints likewise: chopping the final byte always truncates.
    let mut buf = Vec::new();
    encode_varint(u64::MAX, &mut buf);
    for cut in 0..buf.len() {
        assert_eq!(
            decode_varint(&buf[..cut], 0),
            Err(CodecError::Truncated { offset: cut })
        );
    }
}

#[test]
fn bit_flipped_codec_input_never_panics() {
    // Flip every bit of every byte of valid encodings. The decoder may
    // legitimately succeed (the flip may yield another valid stream) but
    // must never panic, hang, or return through anything but the typed
    // error path.
    for (_, buf) in encoded_lists("bit-flips", 40) {
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                if let Ok((got, end)) = decode_gap_list(&corrupt, 0) {
                    // If it decodes, the result must still be strictly
                    // ascending and the consumed length in bounds.
                    assert!(end <= corrupt.len());
                    assert!(got.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }
}

#[test]
fn random_garbage_codec_input_never_panics() {
    let mut rng = derive_rng(0xBAD_C0DE, "garbage");
    for _ in 0..300 {
        let len = rng.gen_range(0..64);
        let buf: Vec<u8> = (0..len).map(|_| rng.gen_u32() as u8).collect();
        // Both decoders must return, not panic — any Ok must be in bounds.
        if let Ok((_, end)) = decode_varint(&buf, 0) {
            assert!(end <= buf.len());
        }
        if let Ok((got, end)) = decode_gap_list(&buf, 0) {
            assert!(end <= buf.len());
            assert!(got.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

#[test]
fn non_canonical_varints_are_rejected_everywhere() {
    // Padding any varint with a redundant continuation byte must be
    // refused — otherwise equal payloads could bill different byte sizes.
    let mut rng = derive_rng(0xBAD_C0DE, "non-canonical");
    for _ in 0..200 {
        let v = rng.gen_u64() >> rng.gen_range(0..64) as u32;
        let mut buf = Vec::new();
        encode_varint(v, &mut buf);
        if buf.len() >= sprite_util::MAX_VARINT_LEN {
            continue; // no room to pad a 10-byte encoding
        }
        // Re-encode with one redundant group: set the continuation bit on
        // the final byte and append a zero byte.
        let last = buf.len() - 1;
        buf[last] |= 0x80;
        buf.push(0x00);
        assert_eq!(
            decode_varint(&buf, 0),
            Err(CodecError::NonCanonical { offset: last + 1 }),
            "padded encoding of {v} must be rejected"
        );
    }
}

#[test]
fn corrupt_gap_list_count_cannot_overallocate() {
    // A count field claiming 2^50 elements with only a handful of payload
    // bytes must fail fast (bounded by the buffer, not the claim).
    let mut buf = Vec::new();
    encode_varint(1 << 50, &mut buf);
    encode_varint(7, &mut buf);
    encode_varint(3, &mut buf);
    assert!(matches!(
        decode_gap_list(&buf, 0),
        Err(CodecError::Truncated { .. })
    ));
}
