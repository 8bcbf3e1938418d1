//! §7 robustness extensions: peer failure, successor replication of
//! indexes, and the hot-term advisory for load balancing.
//!
//! The paper's argument: with periodic index replication to successors,
//! "peer failure will have little impact in SPRITE … only a small number of
//! terms are replicated." The churn experiment (bench `churn`) measures
//! exactly that: retrieval quality after abrupt indexing-peer failures,
//! with and without replication.

use std::collections::BTreeMap;
use std::rc::Rc;

use sprite_chord::{sim, ChurnEngine, ChurnEvent, MsgKind, NetStats, NullTrace, Phase, TickReport};
use sprite_ir::{DocId, TermId};
use sprite_util::{derive_rng, RingId};

use crate::postings::PostingList;
use crate::system::{Message, OpTrace, SpriteSystem};

/// The transfers of one maintenance pass: per destination, the one
/// message carrying every `(term, list)` the pass ships there
/// (`BTreeMap`: deterministic send order). A list travels as the holder's
/// packed block, one copy shared by every replica it is bound for.
type Transfers = BTreeMap<u128, Message<(TermId, Rc<PostingList>)>>;

/// Add the `list` of `term`, `bytes` on the wire, to the message bound
/// for `dest`. That message merges records from many holders, so the
/// sender is collapsed onto the destination for link sampling.
fn add_transfer(
    transfers: &mut Transfers,
    dest: RingId,
    term: TermId,
    list: Rc<PostingList>,
    bytes: u64,
) {
    let m = transfers.entry(dest.0).or_insert_with(|| Message {
        origin: dest,
        dest,
        kind: MsgKind::Replication,
        salt: sim::message_salt(dest.0 as u64, (dest.0 >> 64) as u64, 0x6d61_696e),
        bytes: 0,
        records: Vec::new(),
    });
    m.bytes += bytes;
    m.records.push((term, list));
}

/// Report of a [`SpriteSystem::hot_term_advisory`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvisoryReport {
    /// Hot terms detected across all indexing peers.
    pub hot_terms: usize,
    /// (doc, term) pairs retracted from the index.
    pub retractions: usize,
    /// Replacement terms published.
    pub replacements: usize,
}

/// Report of one [`SpriteSystem::churn_tick`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// The ring-level outcome (events applied, bounded-maintenance changes).
    pub tick: TickReport,
    /// Inverted-list entries handed over by gracefully leaving peers.
    pub handed_over: usize,
    /// Indexing states dropped with abruptly failing peers.
    pub states_lost: usize,
}

/// Report of one [`SpriteSystem::maintenance_round`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Tombstoned entries physically reclaimed by the cleanup pass.
    pub tombstones_reclaimed: usize,
    /// Entries re-homed from peers that are no longer responsible.
    pub orphans_moved: usize,
    /// Entries copied by the replication pass.
    pub replicated: usize,
    /// Inverted lists that reached their destination, orphan and
    /// replication passes together.
    pub lists_shipped: usize,
    /// Of those, the lists that left the destination as it was: it already
    /// held every entry shipped.
    pub lists_unchanged: usize,
}

impl SpriteSystem {
    /// Abruptly fail `peer`: it vanishes from the ring and all its indexing
    /// state (inverted lists *and* cached queries) is lost. The ring is
    /// repaired afterwards; lost index entries come back only through
    /// [`Self::replicate_indexes`]-style replication or future re-publishes.
    pub fn fail_peer(&mut self, peer: RingId) -> bool {
        if self.net_mut().fail(peer).is_err() {
            return false;
        }
        self.indexing_mut().remove(&peer.0);
        self.net_mut().converge(64);
        self.refresh_peers();
        true
    }

    /// Fail `n` random indexing peers (deterministic in `seed`). Returns
    /// only the peers the network actually removed: the cached peer list
    /// can be stale after direct ring churn, and a peer that was already
    /// dead must not be reported as a fresh casualty to callers doing
    /// failure accounting.
    pub fn fail_random_peers(&mut self, n: usize, seed: u64) -> Vec<RingId> {
        use sprite_util::SliceRng;
        let mut rng = derive_rng(seed, "peer-failures");
        let mut candidates = self.peers().to_vec();
        candidates.shuffle(&mut rng);
        let limit = n.min(self.peers().len().saturating_sub(1));
        let mut victims: Vec<RingId> = Vec::with_capacity(limit);
        for v in candidates {
            if victims.len() >= limit || self.net().len() <= 1 {
                break;
            }
            if self.net_mut().fail(v).is_ok() {
                self.indexing_mut().remove(&v.0);
                victims.push(v);
            }
        }
        self.net_mut().converge(64);
        self.refresh_peers();
        victims
    }

    /// One tick of continuous churn (§7 under realistic maintenance): plan
    /// the tick's events, let gracefully leaving peers hand their inverted
    /// lists to a live successor *before* departing (their routing state is
    /// still intact), drop the state of abrupt failures, then apply the
    /// membership changes with the engine's bounded stabilization budget.
    /// No `converge`, no oracle — staleness the budget leaves behind is
    /// what the churn experiments measure.
    pub fn churn_tick(&mut self, engine: &mut ChurnEngine) -> ChurnReport {
        let span = self.trace_span_start();
        let mut report = ChurnReport::default();
        let events = engine.plan(self.net());
        for ev in &events {
            match *ev {
                ChurnEvent::Leave { id } => {
                    report.handed_over += self.hand_over_indexing(id);
                }
                ChurnEvent::Fail { id } => {
                    if self.indexing_mut().remove(&id.0).is_some() {
                        report.states_lost += 1;
                    }
                }
                ChurnEvent::Join { .. } => {}
            }
        }
        report.tick = engine.apply(self.net_mut(), &events);
        self.refresh_peers();
        self.trace_span_end(Phase::ChurnRepair, span);
        report
    }

    /// A gracefully leaving peer ships its inverted lists to its first
    /// alive successor before departing (§7's handover). Returns entries
    /// copied; 0 when the peer held no state or has no live successor (the
    /// state is then lost with the departure).
    fn hand_over_indexing(&mut self, leaving: RingId) -> usize {
        let Some(state) = self.indexing_mut().remove(&leaving.0) else {
            return 0;
        };
        let mut delta = NetStats::new();
        let chain = self.net().replicas_from_owner(leaving, 2, &mut delta);
        self.net_mut().absorb_stats(&delta);
        let Some(&heir) = chain.get(1) else {
            return 0; // no live successor: the state leaves with the peer
        };
        // The leaver ships its full holdings over the wire, whether or not
        // the heir already mirrors some of them — bill the shipped payload.
        let shipped_bytes: u64 = state
            .terms()
            .map(|(t, list)| list.records_wire_size(t))
            .sum();
        let copied = self.indexing_entry(heir).absorb_replica(&state);
        self.net_mut().charge_n(MsgKind::Replication, copied as u64);
        self.net_mut()
            .charge_bytes(MsgKind::Replication, shipped_bytes);
        copied
    }

    /// The periodic maintenance hook run between churn ticks: reclaim
    /// tombstoned entries, re-home entries orphaned by ownership
    /// transfer, then refresh successor replicas. Intended cadence:
    /// every few [`Self::churn_tick`]s.
    pub fn maintenance_round(&mut self) -> MaintenanceReport {
        let span = self.trace_span_start();
        let mut report = MaintenanceReport {
            tombstones_reclaimed: self.reclaim_tombstones(),
            ..MaintenanceReport::default()
        };
        self.republish_orphans(&mut report);
        self.replication_pass(&mut report);
        self.trace_span_end(Phase::Maintenance, span);
        report
    }

    /// Lazy tombstone reclamation: every indexing peer compacts its
    /// inverted lists, physically dropping entries that earlier removal
    /// records marked dead (document delete, update and republish always
    /// tombstone). The per-entry wire accounting — one
    /// [`MsgKind::IndexRemove`] plus the removal record's exact bytes at
    /// the owner and every replica — happened when the record landed;
    /// reclamation itself is local compaction and charges nothing. The
    /// compacted live lists then flow to successor replicas through this
    /// same round's replication pass (per-entry
    /// [`MsgKind::Replication`], delivery-gated through
    /// [`Self::deliver`]), so a reclaimed entry cannot come back from a
    /// member of its replica set (a copy a join pushed *out* of the set
    /// still can — ROADMAP item 1). Runs first in the round, so no
    /// tombstone survives a single `maintenance_round` at a live peer.
    /// Returns entries reclaimed across all peers.
    fn reclaim_tombstones(&mut self) -> usize {
        // Peers are visited in sorted order: cleanup may drop emptied
        // lists, so iteration order would otherwise leak HashMap
        // randomness into subsequent maintenance passes.
        let mut dirty: Vec<u128> = self
            .indexing_mut()
            .iter()
            .filter(|(_, st)| st.pending_tombstones() > 0)
            .map(|(&p, _)| p)
            .collect();
        dirty.sort_unstable();
        let mut reclaimed = 0;
        for p in dirty {
            if let Some(st) = self.indexing_mut().get_mut(&p) {
                reclaimed += st.cleanup_tombstones().len();
            }
        }
        reclaimed
    }

    /// Re-home entries orphaned by ownership transfer: after joins, a peer
    /// may hold a term whose arc now belongs to a newcomer. Each holder
    /// verifies responsibility with a routed lookup; when the owner
    /// differs it is charged one digest probe and ships the term's list
    /// over (the old holder keeps its copy, which now acts as a replica).
    /// The probe is billed but gates nothing: the list ships whatever a
    /// digest would have said, so every replica re-sends every list to its
    /// owner every round and almost all of them land unchanged
    /// ([`MaintenanceReport::lists_unchanged`] counts them). Adds the
    /// entries newly stored at their proper owners to
    /// `report.orphans_moved`.
    fn republish_orphans(&mut self, report: &mut MaintenanceReport) {
        let mut transfers = Transfers::new();
        for (holder, terms) in self.holder_snapshot() {
            if !self.net().contains(holder) {
                continue;
            }
            for term in terms {
                let key = self.term_ring(term);
                let Ok(lookup) = self.net_mut().lookup_fast(holder, key) else {
                    continue;
                };
                if lookup.owner == holder {
                    continue;
                }
                self.net_mut().charge(MsgKind::Maintenance);
                if let Some((list, bytes)) = self.held_list(holder, term) {
                    add_transfer(&mut transfers, lookup.owner, term, list, bytes);
                }
            }
        }
        report.orphans_moved += self.send_transfers(transfers, true, report);
    }

    /// The list `holder` ships for `term` — its packed block as it stands,
    /// of which only the live entries travel — and those entries' size on
    /// the wire as `(term, entry)` records. `None` when it holds no live
    /// entry under `term`.
    fn held_list(&self, holder: RingId, term: TermId) -> Option<(Rc<PostingList>, u64)> {
        let list = self.indexing_state(holder)?.postings(term)?;
        (!list.is_empty()).then(|| (Rc::new(list.clone()), list.records_wire_size(term)))
    }

    /// Send a maintenance pass's transfers through [`Self::deliver`] and
    /// merge every list that arrives into its destination's
    /// ([`IndexingState::absorb_list`]), tallying lists shipped and
    /// unchanged in `report`. The round's trace is the span diff of
    /// `NetStats`, so the delivery itself runs untraced. Returns installed
    /// entries: only newly-added ones when `count_new` (the orphan pass),
    /// else every delivered record (the replication pass bills data
    /// moved).
    fn send_transfers(
        &mut self,
        transfers: Transfers,
        count_new: bool,
        report: &mut MaintenanceReport,
    ) -> usize {
        let mut op = OpTrace {
            phase: Phase::Maintenance,
            tick: 0,
            sink: &mut NullTrace,
        };
        let mut arrived = BTreeMap::new();
        self.deliver(transfers.into_values(), &mut op, &mut arrived);
        let mut installed = 0;
        for (dest, records) in arrived {
            let st = self.indexing_entry(RingId(dest));
            for (term, list) in records {
                let before = st.indexed_df(term);
                report.lists_shipped += 1;
                if !st.absorb_list(term, &list) {
                    report.lists_unchanged += 1;
                }
                installed += if count_new {
                    st.indexed_df(term) - before
                } else {
                    list.len()
                };
            }
        }
        installed
    }

    /// Snapshot which peers hold which terms, both levels sorted so every
    /// maintenance pass walks the index in a reproducible order.
    fn holder_snapshot(&self) -> Vec<(RingId, Vec<TermId>)> {
        self.indexing_peers()
            .into_iter()
            .filter_map(|p| {
                let terms = self.indexing_state(p)?.term_dfs().map(|(t, _)| t);
                Some((p, terms.collect()))
            })
            .collect()
    }

    /// The periodic successor replication of §7: every responsible indexing
    /// peer copies each of its inverted lists to the `replication − 1`
    /// peers succeeding the *term's* ring position. A no-op when
    /// [`crate::SpriteConfig::replication`] is 1. Returns entries copied.
    ///
    /// Responsibility and the replica set are both resolved by routed
    /// walks (a `lookup_fast` from the holder, then the owner's successor
    /// chain), and replication is charged per entry shipped, not per peer
    /// contacted — the bill scales with the data moved, matching the
    /// paper's per-message cost model.
    pub fn replicate_indexes(&mut self) -> usize {
        let mut report = MaintenanceReport::default();
        self.replication_pass(&mut report);
        report.replicated
    }

    /// [`Self::replicate_indexes`], tallied into `report`.
    fn replication_pass(&mut self, report: &mut MaintenanceReport) {
        let degree = self.config().replication;
        if degree <= 1 {
            return;
        }
        let mut transfers = Transfers::new();
        for (holder, terms) in self.holder_snapshot() {
            if !self.net().contains(holder) {
                continue;
            }
            for term in terms {
                let key = self.term_ring(term);
                // Only the current responsible peer fans out; replicas do
                // not re-replicate. Responsibility is established by a
                // routed lookup from the holder itself.
                let Ok(lookup) = self.net_mut().lookup_fast(holder, key) else {
                    continue;
                };
                if lookup.owner != holder {
                    continue;
                }
                let Some((list, bytes)) = self.held_list(holder, term) else {
                    continue;
                };
                let mut delta = NetStats::new();
                let replicas = self.net().replicas_from_owner(holder, degree, &mut delta);
                self.net_mut().absorb_stats(&delta);
                for &replica in replicas.iter().skip(1) {
                    add_transfer(&mut transfers, replica, term, Rc::clone(&list), bytes);
                }
            }
        }
        report.replicated += self.send_transfers(transfers, false, report);
    }

    /// §7 load balancing: indexing peers report terms whose indexed
    /// document frequency exceeds `df_threshold`; every owner indexing such
    /// a term retracts it (one advisory message each) and publishes its
    /// next-best term instead. High-df terms "contribute little in the
    /// similarity calculation" anyway (tiny IDF).
    pub fn hot_term_advisory(&mut self, df_threshold: usize) -> AdvisoryReport {
        let mut report = AdvisoryReport::default();
        // Collect (term, affected docs) across all peers. Peers and terms
        // are visited in sorted order: advisory application mutates owner
        // state (exclusions, replacements), so iteration order would
        // otherwise leak HashMap randomness into published indexes.
        let mut hot: Vec<(TermId, Vec<DocId>)> = {
            let index = self.indexing_mut();
            let mut peers: Vec<&u128> = index.keys().collect();
            peers.sort_unstable();
            peers
                .into_iter()
                .map(|p| &index[p])
                .flat_map(|st| {
                    st.term_dfs()
                        .filter(|&(_, df)| df > df_threshold)
                        .map(|(t, _)| {
                            (
                                t,
                                st.postings(t)
                                    .into_iter()
                                    .flatten()
                                    .map(|e| e.doc)
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        hot.sort_unstable_by_key(|&(t, _)| t);
        report.hot_terms = hot.len();
        for (term, docs) in hot {
            for doc in docs {
                // One advisory message from the indexing peer to the owner.
                self.net_mut().charge(MsgKind::Maintenance);
                if self.apply_advisory(doc, term) {
                    report.replacements += 1;
                }
                report.retractions += 1;
            }
        }
        report
    }

    /// Apply one advisory: the owner of `doc` excludes `term` from its
    /// future selections and, if it publishes it, replaces it by its
    /// next-best candidate. Returns true if a replacement was published.
    fn apply_advisory(&mut self, doc: DocId, term: TermId) -> bool {
        self.owner_mut(doc).excluded.insert(term);
        let mut terms = self.published_terms(doc).to_vec();
        let held = terms.len();
        terms.retain(|&t| t != term);
        if terms.len() == held {
            return false; // stale advisory: the owner already replaced the term
        }
        let candidates = self.select_terms(doc, held);
        terms.extend(candidates.into_iter().find(|t| !terms.contains(t)));
        let (added, _) = self.set_published_now(doc, terms, false, self.op_tick);
        added > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexEntry, SpriteConfig};
    use sprite_corpus::{CorpusConfig, SyntheticCorpus};
    use sprite_ir::Query;

    fn system(replication: usize) -> SpriteSystem {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(13));
        let cfg = SpriteConfig {
            replication,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 13);
        sys.publish_all();
        sys
    }

    #[test]
    fn failure_without_replication_loses_entries() {
        let mut sys = system(1);
        let before = sys.total_index_entries();
        let victims = sys.fail_random_peers(4, 1);
        assert_eq!(victims.len(), 4);
        assert!(
            sys.total_index_entries() < before,
            "some index entries must be lost"
        );
        // Queries still run (terms on dead peers are simply discarded, §7).
        let t = sys.published_terms(DocId(0)).first().copied();
        if let Some(t) = t {
            let _ = sys.issue_query(&Query::new(vec![t]), 10);
        }
    }

    #[test]
    fn replication_preserves_retrieval_after_failure() {
        let mut sys = system(3);
        sys.replicate_indexes();
        // Pick a (doc, term) pair and kill its responsible indexing peer.
        let doc = DocId(0);
        let term = sys.published_terms(doc)[0];
        let key = sys.term_ring(term);
        let victim = sys.net().oracle_owner(key).unwrap();
        assert!(sys.fail_peer(victim));
        // The replicas answer: doc 0 is still retrievable by that term.
        let all = sys.corpus().len();
        let hits = sys.issue_query(&Query::new(vec![term]), all);
        assert!(
            hits.iter().any(|h| h.doc == doc),
            "replication must keep doc retrievable"
        );
    }

    #[test]
    fn replicate_is_noop_at_degree_one() {
        let mut sys = system(1);
        assert_eq!(sys.replicate_indexes(), 0);
    }

    #[test]
    fn replicate_copies_every_entry_once_per_replica() {
        let mut sys = system(2);
        let copied = sys.replicate_indexes();
        // Degree 2 ⇒ one extra copy per (doc, term) entry.
        assert_eq!(copied, sys.corpus().len() * 5);
        // Re-running re-publishes the same copies (idempotent state).
        let entries_before = sys.total_index_entries();
        sys.replicate_indexes();
        assert_eq!(sys.total_index_entries(), entries_before);
    }

    #[test]
    fn fail_unknown_peer_is_false() {
        let mut sys = system(1);
        assert!(!sys.fail_peer(RingId(12345)));
    }

    #[test]
    fn fail_random_peers_reports_only_actual_removals() {
        let mut sys = system(1);
        // Make the cached peer list stale: kill six peers directly at the
        // ring, bypassing refresh_peers, so peers() still lists them.
        let stale: Vec<RingId> = sys.peers().iter().copied().take(6).collect();
        for &v in &stale {
            sys.net_mut().fail(v).unwrap();
        }
        // Ask for more failures than there are live peers: the stale six
        // must not be double-counted, and the ring must keep one survivor.
        let victims = sys.fail_random_peers(20, 99);
        assert!(
            victims.iter().all(|v| !stale.contains(v)),
            "already-dead peer reported as a fresh casualty"
        );
        assert!(victims.iter().all(|v| !sys.net().contains(*v)));
        let mut dedup = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), victims.len(), "victims must be distinct");
        // 24 peers − 6 stale = 18 alive; the guard keeps the last one.
        assert_eq!(victims.len(), 17);
        assert_eq!(sys.net().len(), 1);
    }

    #[test]
    fn graceful_leave_hands_indexes_to_a_successor() {
        // Degree 1 so the heir holds no mirrored copies: the handover's
        // entry conservation is then exact.
        let mut sys = system(1);
        let holder = sys.indexing_peers()[0];
        let entries = sys.indexing_state(holder).unwrap().total_entries();
        assert!(entries > 0);
        let before_total = sys.total_index_entries();
        let copied = sys.hand_over_indexing(holder);
        assert_eq!(copied, entries, "every entry reaches the heir");
        assert!(sys.indexing_state(holder).is_none());
        assert_eq!(
            sys.total_index_entries(),
            before_total,
            "handover may merge lists but never lose entries"
        );
        assert_eq!(
            sys.net().stats().count(MsgKind::Replication) as usize,
            copied,
            "one replication message per entry shipped"
        );
    }

    #[test]
    fn maintenance_rehomes_entries_after_ownership_transfer() {
        let mut sys = system(1);
        // Join a newcomer exactly at a held term's ring position so
        // ownership of that term transfers away from its current holder.
        let holder = sys.indexing_peers()[0];
        let term = {
            let mut ts: Vec<TermId> = sys
                .indexing_state(holder)
                .unwrap()
                .term_dfs()
                .map(|(t, _)| t)
                .collect();
            ts.sort_unstable();
            ts[0]
        };
        let key = sys.term_ring(term);
        let bootstrap = sys.peers()[0];
        sys.net_mut().join(RingId(key.0), bootstrap).unwrap();
        sys.net_mut().converge(64);
        sys.refresh_peers();
        let report = sys.maintenance_round();
        assert!(report.orphans_moved >= 1, "orphaned entries must move");
        assert!(
            sys.indexed_df(term) >= 1,
            "the newcomer answers for the transferred term"
        );
    }

    #[test]
    fn the_later_of_two_holders_wins_a_repeated_record_in_one_pass() {
        let mut sys = system(1);
        // Two holders of one term, disagreeing on a document's `tf`.
        let first = sys.indexing_peers()[0];
        let (term, list) = {
            let (t, l) = sys.indexing_state(first).unwrap().terms().next().unwrap();
            (t, l.clone())
        };
        let second = *sys.indexing_peers().last().unwrap();
        assert!(first < second, "holders ship in ring-id order");
        let shipped = list.to_entries();
        let stale = shipped[0];
        let fresh = IndexEntry {
            tf: stale.tf + 9,
            ..stale
        };
        sys.indexing_entry(second).publish(term, fresh);
        // A newcomer exactly at the term's ring position now owns it: both
        // holders re-home their copy in the same orphan pass.
        let key = sys.term_ring(term);
        let bootstrap = sys.peers()[0];
        sys.net_mut().join(RingId(key.0), bootstrap).unwrap();
        sys.net_mut().converge(64);
        sys.refresh_peers();
        let report = sys.maintenance_round();
        assert!(report.lists_shipped >= 2);
        assert!(report.lists_unchanged < report.lists_shipped);
        let stored = sys.indexing_state(RingId(key.0)).unwrap().entries(term);
        assert_eq!(stored[0], fresh, "the later arrival wins the document");
        assert_eq!(stored[1..], shipped[1..], "the rest came from the first");
        assert_eq!(stored.len(), shipped.len(), "one entry per document");
    }

    #[test]
    fn churn_tick_is_deterministic_and_keeps_the_system_queryable() {
        use sprite_chord::ChurnConfig;
        let run = || {
            let mut sys = system(3);
            sys.replicate_indexes();
            let mut engine = ChurnEngine::new(ChurnConfig::default(), 21);
            let mut reports = Vec::new();
            for _ in 0..4 {
                reports.push(sys.churn_tick(&mut engine));
                sys.maintenance_round();
            }
            let t = sys.published_terms(DocId(0))[0];
            let hits = sys.issue_query(&Query::new(vec![t]), sys.corpus().len());
            (reports, sys.peers().to_vec(), hits)
        };
        let (ra, pa, ha) = run();
        let (rb, pb, hb) = run();
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
        assert_eq!(ha.len(), hb.len());
        for (a, b) in ha.iter().zip(&hb) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn maintenance_reclaims_tombstones_at_owner_and_replicas() {
        let mut sys = system(3);
        sys.replicate_indexes();
        let doc = DocId(0);
        let term = sys.published_terms(doc)[0];
        let retracted = sys.delete_document(doc);
        assert!(retracted > 0);
        // Lazy tombstones landed at the responsible peer and every replica.
        assert!(sys.pending_tombstones() >= retracted);
        let report = sys.maintenance_round();
        assert!(report.tombstones_reclaimed >= retracted);
        assert_eq!(sys.pending_tombstones(), 0, "one round clears all debt");
        // Replica repair after the reclaim must not resurrect the doc: kill
        // the responsible peer so queries fail over to replicas.
        sys.maintenance_round();
        let key = sys.term_ring(term);
        let victim = sys.net().oracle_owner(key).unwrap();
        assert!(sys.fail_peer(victim));
        sys.maintenance_round();
        let hits = sys.issue_query(&Query::new(vec![term]), sys.corpus().len());
        assert!(
            hits.iter().all(|h| h.doc != doc),
            "deleted doc resurrected through replica repair"
        );
    }

    #[test]
    fn hot_term_advisory_retracts_and_replaces() {
        let mut sys = system(1);
        // Find the hottest indexed df so the advisory flags only the top.
        let max_df = {
            let mut m = 0;
            for p in sys.peers().to_vec() {
                if let Some(st) = sys.indexing_state(p) {
                    for (_, df) in st.term_dfs() {
                        m = m.max(df);
                    }
                }
            }
            m
        };
        assert!(max_df >= 2, "tiny corpus should share some frequent terms");
        let report = sys.hot_term_advisory(max_df - 1);
        assert!(report.hot_terms >= 1);
        assert!(report.retractions >= report.hot_terms);
        assert!(report.replacements <= report.retractions);
        for i in 0..sys.corpus().len() {
            let doc = DocId(i as u32);
            let owner = sys.owner_state(doc);
            for t in &owner.excluded {
                assert!(
                    !owner.published.contains(t),
                    "excluded term still published"
                );
            }
        }
    }

    #[test]
    fn excluded_terms_stay_out_after_learning() {
        let mut sys = system(1);
        sys.hot_term_advisory(10);
        sys.learn(2);
        for i in 0..sys.corpus().len() {
            let doc = DocId(i as u32);
            let owner = sys.owner_state(doc);
            for t in &owner.excluded {
                assert!(
                    !owner.published.contains(t),
                    "excluded term republished for doc {i}"
                );
            }
        }
    }
}
