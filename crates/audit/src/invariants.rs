//! Structural invariant checkers.
//!
//! Each checker is a pure function from live simulation state to a list of
//! typed [`Violation`]s — empty means the invariant class holds. They are
//! meant for *quiescent* states (a converged ring, a churn-free index):
//! mid-churn a Chord ring legitimately carries stale pointers, and the
//! checkers would report that staleness faithfully rather than hide it.
//!
//! The invariants checked are the ones the source papers' correctness
//! arguments rest on:
//!
//! * Chord (Stoica et al.): every node's successor is its ring-order
//!   neighbor, predecessors mirror successors, `finger[k] =
//!   successor(n + 2^k)`, and the successor list is a prefix of the ring
//!   order — the properties `stabilize`/`fix_fingers` are proven to
//!   restore.
//! * SPRITE §3–§5: every posting block decodes
//!   ([`sprite_core::PostingList::check`]: typed errors, never a panic) to
//!   one entry per document in document order, entry metadata matches the
//!   corpus, a document never publishes more than `max_terms` global terms
//!   (and never an advisory-excluded one), and every §4 ranking weight
//!   derived from an entry is finite and non-negative.

use std::collections::HashSet;
use std::fmt;

use sprite_chord::ChordNet;
use sprite_core::SpriteSystem;
use sprite_ir::{DocId, TermId};
use sprite_util::{CodecError, RingId, ID_BITS};

/// One broken invariant, with enough context to locate the damage.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A node's successor pointer is not its ring-order neighbor.
    WrongSuccessor {
        /// The node holding the bad pointer.
        node: RingId,
        /// What it points to.
        found: RingId,
        /// The ring-order successor it should point to.
        expected: RingId,
    },
    /// A node's predecessor pointer is not its ring-order neighbor.
    WrongPredecessor {
        /// The node holding the bad pointer.
        node: RingId,
        /// What it points to (possibly nothing).
        found: Option<RingId>,
        /// The ring-order predecessor it should point to.
        expected: RingId,
    },
    /// `finger[k]` is not the successor of `n + 2^k`.
    WrongFinger {
        /// The node holding the bad finger.
        node: RingId,
        /// The finger index `k`.
        k: usize,
        /// The current entry.
        found: RingId,
        /// The owner of `finger_start(k)` on the live ring.
        expected: RingId,
    },
    /// A successor-list entry disagrees with the ring order at its position.
    BrokenSuccessorList {
        /// The node holding the list.
        node: RingId,
        /// The list position (0 = immediate successor).
        position: usize,
        /// The current entry.
        found: RingId,
        /// The ring-order node for that position.
        expected: RingId,
    },
    /// A posting list holds two entries for the same document.
    DuplicatePosting {
        /// The indexing peer.
        peer: RingId,
        /// The term.
        term: TermId,
        /// The duplicated document.
        doc: DocId,
    },
    /// A posting block's bytes are not ones the write kernel could have
    /// produced; nothing further about the list was judged.
    MalformedPostings {
        /// The indexing peer.
        peer: RingId,
        /// The term.
        term: TermId,
        /// Why [`sprite_core::PostingList::check`] rejected the block.
        error: CodecError,
    },
    /// An index entry's metadata disagrees with the corpus.
    StaleEntryMetadata {
        /// The indexing peer.
        peer: RingId,
        /// The term.
        term: TermId,
        /// The document.
        doc: DocId,
    },
    /// A §4 ranking weight derived from an entry is not finite/non-negative.
    BadWeight {
        /// The indexing peer.
        peer: RingId,
        /// The term.
        term: TermId,
        /// The document.
        doc: DocId,
        /// The offending weight.
        weight: f64,
    },
    /// A document publishes more global terms than `max_terms` allows.
    TermCapExceeded {
        /// The document.
        doc: DocId,
        /// How many terms it publishes.
        published: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A document's published list contains a term twice.
    DuplicatePublished {
        /// The document.
        doc: DocId,
        /// The repeated term.
        term: TermId,
    },
    /// A document publishes a term its owner was advised to exclude.
    ExcludedTermPublished {
        /// The document.
        doc: DocId,
        /// The excluded-but-published term.
        term: TermId,
    },
    /// A published term has no entry at its responsible indexing peer.
    PublishedButUnindexed {
        /// The document.
        doc: DocId,
        /// The term.
        term: TermId,
        /// The peer that should index it.
        peer: RingId,
    },
    /// An index entry exists for a term its document no longer publishes.
    IndexedButUnpublished {
        /// The indexing peer.
        peer: RingId,
        /// The term.
        term: TermId,
        /// The document.
        doc: DocId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WrongSuccessor { node, found, expected } => write!(
                f,
                "node {node:?}: successor is {found:?}, ring order says {expected:?}"
            ),
            Violation::WrongPredecessor { node, found, expected } => write!(
                f,
                "node {node:?}: predecessor is {found:?}, ring order says {expected:?}"
            ),
            Violation::WrongFinger { node, k, found, expected } => write!(
                f,
                "node {node:?}: finger[{k}] is {found:?}, live ring says {expected:?}"
            ),
            Violation::BrokenSuccessorList { node, position, found, expected } => write!(
                f,
                "node {node:?}: successor list[{position}] is {found:?}, ring order says {expected:?}"
            ),
            Violation::DuplicatePosting { peer, term, doc } => write!(
                f,
                "peer {peer:?}: posting list of {term:?} lists {doc:?} twice"
            ),
            Violation::MalformedPostings { peer, term, error } => {
                write!(f, "peer {peer:?}: posting block of {term:?} is malformed: {error}")
            }
            Violation::StaleEntryMetadata { peer, term, doc } => write!(
                f,
                "peer {peer:?}: entry ({term:?}, {doc:?}) disagrees with the corpus"
            ),
            Violation::BadWeight { peer, term, doc, weight } => write!(
                f,
                "peer {peer:?}: entry ({term:?}, {doc:?}) yields weight {weight}"
            ),
            Violation::TermCapExceeded { doc, published, cap } => {
                write!(f, "{doc:?} publishes {published} terms, cap is {cap}")
            }
            Violation::DuplicatePublished { doc, term } => {
                write!(f, "{doc:?} publishes {term:?} twice")
            }
            Violation::ExcludedTermPublished { doc, term } => {
                write!(f, "{doc:?} publishes excluded term {term:?}")
            }
            Violation::PublishedButUnindexed { doc, term, peer } => write!(
                f,
                "{doc:?} publishes {term:?} but peer {peer:?} has no entry"
            ),
            Violation::IndexedButUnpublished { peer, term, doc } => write!(
                f,
                "peer {peer:?} indexes ({term:?}, {doc:?}) but the document does not publish it"
            ),
        }
    }
}

/// Check the Chord ring invariants on a (quiescent) network: successor and
/// predecessor pointers against ring order, successor lists as ring-order
/// prefixes, and every finger against the live ring. Returns violations in
/// ring order.
#[must_use]
pub fn check_ring(net: &ChordNet) -> Vec<Violation> {
    let mut out = Vec::new();
    let ids = net.node_ids();
    let n = ids.len();
    for (i, &id) in ids.iter().enumerate() {
        let node = net.node(id).expect("listed node is alive");
        let expected_succ = ids[(i + 1) % n];
        if node.successor() != expected_succ {
            out.push(Violation::WrongSuccessor {
                node: id,
                found: node.successor(),
                expected: expected_succ,
            });
        }
        let expected_pred = ids[(i + n - 1) % n];
        if node.predecessor() != Some(expected_pred) {
            out.push(Violation::WrongPredecessor {
                node: id,
                found: node.predecessor(),
                expected: expected_pred,
            });
        }
        for (j, &s) in node.successor_list().iter().enumerate() {
            let expected = ids[(i + 1 + j) % n];
            if s != expected {
                out.push(Violation::BrokenSuccessorList {
                    node: id,
                    position: j,
                    found: s,
                    expected,
                });
            }
        }
        for k in 0..ID_BITS as usize {
            let expected = net
                .oracle_owner(id.finger_start(k as u32))
                .expect("ring is non-empty here");
            let found = node.finger(k);
            if found != expected {
                out.push(Violation::WrongFinger {
                    node: id,
                    k,
                    found,
                    expected,
                });
            }
        }
    }
    out
}

/// Check the SPRITE index invariants on a (churn-free) deployment: posting
/// blocks well-formed (checked before anything reads them, so hostile
/// bytes yield a violation, not a panic) and duplicate-free with
/// corpus-consistent metadata and finite non-negative §4 weights; every
/// document within its global-term cap, duplicate-free, honoring advisory
/// exclusions; and publish/index agreement in both directions.
#[must_use]
pub fn check_index(sys: &SpriteSystem) -> Vec<Violation> {
    let mut out = Vec::new();
    let assumed_n = sys.config().assumed_n;

    // Indexing-peer side, in deterministic (peer, term) order. A block
    // that fails its check is reported and never read.
    let mut malformed: HashSet<(RingId, TermId)> = HashSet::new();
    for peer in sys.indexing_peers() {
        let Some(st) = sys.indexing_state(peer) else {
            continue;
        };
        for (term, block) in st.terms() {
            if let Err(error) = block.check() {
                malformed.insert((peer, term));
                // A gap encoding can only fail to ascend by a zero gap —
                // the same document twice — and everything up to that
                // entry decoded.
                let twice = match error {
                    CodecError::NotAscending { index } => block.iter().nth(index),
                    _ => None,
                };
                out.push(match twice {
                    Some(e) => Violation::DuplicatePosting {
                        peer,
                        term,
                        doc: e.doc,
                    },
                    None => Violation::MalformedPostings { peer, term, error },
                });
                continue;
            }
            let df = block.len();
            for e in block {
                if e.doc.index() >= sys.corpus().len() {
                    out.push(Violation::StaleEntryMetadata {
                        peer,
                        term,
                        doc: e.doc,
                    });
                    continue;
                }
                let d = sys.corpus().doc(e.doc);
                if e.tf != d.freq(term)
                    || e.doc_len != d.len()
                    || e.distinct != d.distinct_terms() as u32
                    || e.owner != sys.owner_peer(e.doc)
                {
                    out.push(Violation::StaleEntryMetadata {
                        peer,
                        term,
                        doc: e.doc,
                    });
                }
                // The §4 document-side weight this entry produces at ranking
                // time: (tf / |D|) · ln(N / n′_k).
                let weight =
                    (f64::from(e.tf) / f64::from(e.doc_len)) * (assumed_n / df as f64).ln();
                if !weight.is_finite() || weight < 0.0 {
                    out.push(Violation::BadWeight {
                        peer,
                        term,
                        doc: e.doc,
                        weight,
                    });
                }
                if !sys.published_terms(e.doc).contains(&term) {
                    out.push(Violation::IndexedButUnpublished {
                        peer,
                        term,
                        doc: e.doc,
                    });
                }
            }
        }
    }

    // Owner side, per document.
    for i in 0..sys.corpus().len() {
        let doc = DocId(i as u32);
        let owner = sys.owner_state(doc);
        let cap = sys.config().max_terms;
        if owner.published.len() > cap {
            out.push(Violation::TermCapExceeded {
                doc,
                published: owner.published.len(),
                cap,
            });
        }
        let mut seen: HashSet<TermId> = HashSet::new();
        for &t in &owner.published {
            if !seen.insert(t) {
                out.push(Violation::DuplicatePublished { doc, term: t });
            }
            if owner.excluded.contains(&t) {
                out.push(Violation::ExcludedTermPublished { doc, term: t });
            }
            let key = RingId::hash_term(sys.corpus().vocab().term(t));
            let Some(peer) = sys.net().oracle_owner(key) else {
                continue;
            };
            let indexed = malformed.contains(&(peer, t))
                || sys
                    .indexing_state(peer)
                    .is_some_and(|st| st.postings(t).into_iter().flatten().any(|e| e.doc == doc));
            if !indexed {
                out.push(Violation::PublishedButUnindexed { doc, term: t, peer });
            }
        }
    }
    out
}

/// Run every checker that applies to a full deployment: the ring plus the
/// index.
#[must_use]
pub fn check_system(sys: &SpriteSystem) -> Vec<Violation> {
    let mut out = check_ring(sys.net());
    out.extend(check_index(sys));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_chord::{ChordConfig, ChordNet};

    fn ring(n: usize) -> ChordNet {
        ChordNet::with_random_nodes(ChordConfig::default(), n, 17)
    }

    #[test]
    fn healthy_ring_has_no_violations() {
        for n in [1usize, 2, 3, 16] {
            let net = ring(n);
            assert!(net.is_converged());
            assert_eq!(check_ring(&net), Vec::new(), "ring of {n}");
        }
    }

    #[test]
    fn empty_ring_has_no_violations() {
        let net = ChordNet::new(ChordConfig::default());
        assert!(check_ring(&net).is_empty());
    }
}
