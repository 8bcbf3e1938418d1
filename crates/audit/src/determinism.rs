//! The determinism auditor.
//!
//! The whole workspace is built on one promise: the same seed replays the
//! same experiment, bit for bit. That promise is easy to break silently —
//! one `HashMap` iteration leaking into published state, one wall-clock
//! read — so this module *tests* it end to end: [`run_trace`] executes a
//! small but complete SPRITE experiment (build, publish, query, learn,
//! churn, re-query) and fingerprints the state after every stage with MD5;
//! [`audit_determinism`] runs the trace twice from the same seed and
//! reports the first stage whose fingerprint diverges, which localizes the
//! nondeterminism to the subsystem that stage exercised.

use sprite_chord::{
    ChordNet, ChurnConfig, ChurnEngine, MsgKind, NetStats, Phase, SimConfig, TraceRecorder,
};
use sprite_core::{RankScratch, SpriteConfig, SpriteSystem};
use sprite_corpus::{CorpusConfig, DocChurnConfig, DocChurnEngine, SyntheticCorpus};
use sprite_ir::{Hit, Query, TermId};
use sprite_util::{override_threads, par_map_init, Md5};

/// A fingerprinted experiment run: `(stage name, MD5)` pairs in execution
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Stage fingerprints, chronological.
    pub stages: Vec<(&'static str, u128)>,
}

/// Outcome of a two-run determinism audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeterminismReport {
    /// True when every stage fingerprint matched.
    pub passed: bool,
    /// The first stage whose fingerprints differed, if any.
    pub first_divergence: Option<&'static str>,
    /// Number of stages compared.
    pub stages: usize,
}

fn feed_u128(h: &mut Md5, v: u128) {
    h.update(&v.to_be_bytes());
}

fn feed_u64(h: &mut Md5, v: u64) {
    h.update(&v.to_be_bytes());
}

/// MD5 over a network's complete routing state, in ring order.
#[must_use]
pub fn fingerprint_ring(net: &ChordNet) -> u128 {
    let mut h = Md5::new();
    for id in net.node_ids() {
        let node = net.node(id).expect("listed node is alive");
        feed_u128(&mut h, id.0);
        match node.predecessor() {
            Some(p) => {
                h.update(b"P");
                feed_u128(&mut h, p.0);
            }
            None => h.update(b"-"),
        }
        feed_u64(&mut h, node.successor_list().len() as u64);
        for s in node.successor_list() {
            feed_u128(&mut h, s.0);
        }
        for f in node.finger_table() {
            feed_u128(&mut h, f.0);
        }
    }
    h.finalize().as_u128()
}

/// MD5 over every inverted list in the deployment, in `(peer, term, doc)`
/// order.
#[must_use]
pub fn fingerprint_index(sys: &SpriteSystem) -> u128 {
    let mut h = Md5::new();
    for peer in sys.indexing_peers() {
        let Some(st) = sys.indexing_state(peer) else {
            continue;
        };
        feed_u128(&mut h, peer.0);
        let mut terms: Vec<TermId> = st.terms().map(|(t, _)| t).collect();
        terms.sort_unstable();
        for t in terms {
            feed_u64(&mut h, u64::from(t.0));
            for e in st.postings(t).into_iter().flatten() {
                feed_u64(&mut h, u64::from(e.doc.0));
                feed_u128(&mut h, e.owner.0);
                feed_u64(&mut h, u64::from(e.tf));
                feed_u64(&mut h, u64::from(e.doc_len));
                feed_u64(&mut h, u64::from(e.distinct));
            }
        }
    }
    h.finalize().as_u128()
}

/// MD5 over the owner-side learning state: published terms (rank order)
/// and per-term statistics (term order, exact float bits).
#[must_use]
pub fn fingerprint_owners(sys: &SpriteSystem) -> u128 {
    let mut h = Md5::new();
    for i in 0..sys.corpus().len() {
        let doc = sprite_ir::DocId(i as u32);
        let owner = sys.owner_state(doc);
        for &t in &owner.published {
            feed_u64(&mut h, u64::from(t.0));
        }
        h.update(b"|");
        let mut stat_terms: Vec<TermId> = owner.stats.keys().copied().collect();
        stat_terms.sort_unstable();
        for t in stat_terms {
            let s = owner.stats[&t];
            feed_u64(&mut h, u64::from(t.0));
            feed_u64(&mut h, s.qf);
            feed_u64(&mut h, s.qs.to_bits());
        }
        h.update(b";");
    }
    h.finalize().as_u128()
}

/// MD5 over a ranked result list (doc order and exact score bits).
#[must_use]
pub fn fingerprint_hits(hits: &[Hit]) -> u128 {
    let mut h = Md5::new();
    for hit in hits {
        feed_u64(&mut h, u64::from(hit.doc.0));
        feed_u64(&mut h, hit.score.to_bits());
    }
    h.finalize().as_u128()
}

/// MD5 over every [`NetStats`] counter (message counts and payload bytes
/// per kind in index order, completed lookups, exact mean-hops bits, max
/// hops).
#[must_use]
pub fn fingerprint_stats(stats: &NetStats) -> u128 {
    let mut h = Md5::new();
    for kind in MsgKind::all() {
        feed_u64(&mut h, stats.count(kind));
    }
    for kind in MsgKind::all() {
        feed_u64(&mut h, stats.bytes(kind));
    }
    feed_u64(&mut h, stats.lookups());
    feed_u64(&mut h, stats.mean_hops().to_bits());
    feed_u64(&mut h, u64::from(stats.max_hops()));
    h.finalize().as_u128()
}

/// Fingerprint of a **parallel** read-only evaluation: `queries` fan out
/// over `threads` pool workers against a frozen [`sprite_core::QueryView`],
/// each charging a private [`NetStats`] delta; the hash covers every
/// ranked list (exact float bits) plus the in-input-order merge of the
/// deltas. Bit-identical across thread counts by the engine's contract —
/// the companion test pins `threads = 1` against `threads = 4`.
#[must_use]
pub fn parallel_results_fingerprint(
    sys: &mut SpriteSystem,
    queries: &[Query],
    threads: usize,
) -> u128 {
    let prev = override_threads(threads);
    let fp = {
        let view = sys.query_view();
        let peers = view.peers();
        let per: Vec<(u128, NetStats)> =
            par_map_init(queries, RankScratch::new, |scratch, i, q| {
                let mut delta = NetStats::new();
                let hits = view.query(peers[i % peers.len()], q, 10, &mut delta, scratch);
                (fingerprint_hits(&hits), delta)
            });
        let mut h = Md5::new();
        let mut total = NetStats::new();
        for (hits_fp, delta) in &per {
            feed_u128(&mut h, *hits_fp);
            total.merge(delta);
        }
        feed_u128(&mut h, fingerprint_stats(&total));
        h.finalize().as_u128()
    };
    override_threads(prev);
    fp
}

/// Fingerprint of the **batched** query pipeline: the same frozen-view
/// fan-out as [`parallel_results_fingerprint`], but every query is served
/// through [`sprite_core::QueryView::query_batched`] against one shared
/// [`sprite_chord::RouteMemo`] covering the whole batch. The hash covers
/// every ranked list (exact float bits) plus the in-input-order merge of
/// the [`NetStats`] deltas — the same shape as the unbatched fingerprint,
/// so the two are directly comparable. The batching contract says the
/// memoized destination replay charges exactly what a live walk would
/// have, so this must equal `parallel_results_fingerprint` bit for bit.
#[must_use]
pub fn batched_results_fingerprint(
    sys: &mut SpriteSystem,
    queries: &[Query],
    threads: usize,
) -> u128 {
    let prev = override_threads(threads);
    let fp = {
        let view = sys.query_view();
        let peers = view.peers();
        let memo = view.resolve_routes(
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| (peers[i % peers.len()], q)),
        );
        let per: Vec<(u128, NetStats)> =
            par_map_init(queries, RankScratch::new, |scratch, i, q| {
                let mut delta = NetStats::new();
                let hits =
                    view.query_batched(peers[i % peers.len()], q, 10, &memo, &mut delta, scratch);
                (fingerprint_hits(&hits), delta)
            });
        let mut h = Md5::new();
        let mut total = NetStats::new();
        for (hits_fp, delta) in &per {
            feed_u128(&mut h, *hits_fp);
            total.merge(delta);
        }
        feed_u128(&mut h, fingerprint_stats(&total));
        h.finalize().as_u128()
    };
    override_threads(prev);
    fp
}

/// MD5 over a merged [`TraceRecorder`]: per-phase and per-kind event
/// counts, per-kind payload bytes, query totals, and all three cost
/// histograms (bucket layout, every bucket, count/sum/max — exact
/// integers, no summarization).
#[must_use]
pub fn fingerprint_recorder(rec: &TraceRecorder) -> u128 {
    let mut h = Md5::new();
    for phase in Phase::all() {
        feed_u64(&mut h, rec.phase_count(phase));
    }
    for kind in MsgKind::all() {
        feed_u64(&mut h, rec.kind_count(kind));
    }
    for kind in MsgKind::all() {
        feed_u64(&mut h, rec.kind_bytes(kind));
    }
    feed_u64(&mut h, rec.events());
    feed_u64(&mut h, rec.queries());
    for hist in [
        rec.hops_per_lookup(),
        rec.messages_per_query(),
        rec.replicas_probed(),
    ] {
        feed_u64(&mut h, hist.len() as u64);
        for &b in hist.buckets() {
            feed_u64(&mut h, b);
        }
        feed_u64(&mut h, hist.count());
        feed_u64(&mut h, hist.sum());
        feed_u64(&mut h, hist.max());
    }
    h.finalize().as_u128()
}

/// The traced twin of [`parallel_results_fingerprint`]: the same
/// frozen-view fan-out with a private [`TraceRecorder`] per query, merged
/// in input order alongside the stats deltas. Returns
/// `(results fingerprint, recorder fingerprint)`.
///
/// The observability contract this function audits: the first element must
/// equal the *untraced* fingerprint exactly (tracing only observes — every
/// traced helper charges through the same code path as its untraced twin),
/// and both elements must be bit-identical at any worker count (the
/// recorder's merge is commutative and the fold order is fixed).
#[must_use]
pub fn traced_parallel_fingerprints(
    sys: &mut SpriteSystem,
    queries: &[Query],
    threads: usize,
) -> (u128, u128) {
    let prev = override_threads(threads);
    let out = {
        let view = sys.query_view();
        let peers = view.peers();
        let per: Vec<(u128, NetStats, TraceRecorder)> =
            par_map_init(queries, RankScratch::new, |scratch, i, q| {
                let mut delta = NetStats::new();
                let mut rec = TraceRecorder::new();
                let hits = view.query_traced(
                    peers[i % peers.len()],
                    q,
                    10,
                    &mut delta,
                    scratch,
                    i as u64,
                    &mut rec,
                );
                (fingerprint_hits(&hits), delta, rec)
            });
        let mut h = Md5::new();
        let mut total = NetStats::new();
        let mut trace = TraceRecorder::new();
        for (hits_fp, delta, rec) in &per {
            feed_u128(&mut h, *hits_fp);
            total.merge(delta);
            trace.merge(rec);
        }
        feed_u128(&mut h, fingerprint_stats(&total));
        (h.finalize().as_u128(), fingerprint_recorder(&trace))
    };
    override_threads(prev);
    out
}

/// Outcome of the network-model simulation audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimAudit {
    /// An explicitly-installed perfect model (different sim seed, bigger
    /// retry budget — none of which a perfect link ever samples)
    /// reproduced the default lockstep deployment bit for bit.
    pub zero_loss_match: bool,
    /// Two lossy runs from the same seed produced identical indexes,
    /// ranked lists, and stats.
    pub lossy_replay_match: bool,
    /// The lossy evaluation is bit-identical at 1 vs 4 pool workers (the
    /// link fate is a pure hash of the endpoints, not an RNG stream).
    pub lossy_parallel_match: bool,
    /// The lossy run billed at least one real [`MsgKind::Timeout`].
    pub timeouts_fired: bool,
    /// Replay fingerprint over the baseline, perfect, and lossy runs.
    pub fingerprint: u128,
}

impl SimAudit {
    /// True when every clause of the delivery-layer contract holds.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.zero_loss_match
            && self.lossy_replay_match
            && self.lossy_parallel_match
            && self.timeouts_fired
    }
}

/// Audit the event-driven delivery layer: build and evaluate one
/// deployment per network model — the default (no model), an explicit
/// perfect model, and a lossy latency/jitter/asymmetry model — and check
/// the two halves of the tentpole contract: a perfect model changes
/// *nothing* (bit-identity with the default lockstep run), and a lossy
/// model changes things *deterministically* (same seed ⇒ same drops, same
/// retries, same partial results, at any worker count) while billing real
/// timeouts.
#[must_use]
pub fn audit_sim(seed: u64) -> SimAudit {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(seed));
    let queries: Vec<Query> = sc
        .seed_queries()
        .iter()
        .take(8)
        .map(|s| s.query.clone())
        .collect();
    let run = |sim: SimConfig, threads: usize| -> (u128, u64) {
        let cfg = SpriteConfig {
            replication: 2,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, seed);
        sys.net_mut().set_sim(sim);
        sys.publish_all();
        sys.replicate_indexes();
        let mut h = Md5::new();
        feed_u128(&mut h, fingerprint_index(&sys));
        feed_u128(
            &mut h,
            parallel_results_fingerprint(&mut sys, &queries, threads),
        );
        feed_u128(&mut h, fingerprint_stats(sys.net().stats()));
        (
            h.finalize().as_u128(),
            sys.net().stats().count(MsgKind::Timeout),
        )
    };
    let baseline = run(SimConfig::default(), 4);
    let perfect = run(
        SimConfig {
            seed: seed ^ 0xab5e,
            max_retries: 7,
            ..SimConfig::default()
        },
        4,
    );
    let lossy_cfg = SimConfig {
        seed,
        latency: 2,
        jitter: 3,
        asymmetry: 1,
        loss: 0.05,
        max_retries: 3,
    };
    let lossy_seq = run(lossy_cfg, 1);
    let lossy_a = run(lossy_cfg, 4);
    let lossy_b = run(lossy_cfg, 4);
    let mut h = Md5::new();
    for fp in [baseline.0, perfect.0, lossy_a.0] {
        feed_u128(&mut h, fp);
    }
    SimAudit {
        zero_loss_match: baseline.0 == perfect.0,
        lossy_replay_match: lossy_a.0 == lossy_b.0,
        lossy_parallel_match: lossy_seq.0 == lossy_a.0,
        timeouts_fired: lossy_a.1 > 0,
        fingerprint: h.finalize().as_u128(),
    }
}

/// Fingerprint of a replicated deployment driven through every path that
/// writes a posting list — bulk publish, successor replication, a learning
/// iteration, abrupt failure with hand-over and repair — then queried by
/// four pool workers: index contents plus ranked lists and their bill.
fn replicated_index_fingerprint(sc: &SyntheticCorpus, queries: &[Query], seed: u64) -> u128 {
    let cfg = SpriteConfig {
        replication: 2,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, seed);
    sys.publish_all();
    sys.replicate_indexes();
    sys.learning_iteration();
    sys.fail_random_peers(2, seed.wrapping_add(1));
    let mut h = Md5::new();
    feed_u128(&mut h, fingerprint_index(&sys));
    feed_u128(&mut h, parallel_results_fingerprint(&mut sys, queries, 4));
    h.finalize().as_u128()
}

/// Outcome of the live-corpus lifecycle audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecycleAudit {
    /// Two full document-churn runs from the same seed replayed bit for
    /// bit (index, owner state, ranked lists, stats).
    pub replay_match: bool,
    /// The post-churn evaluation is bit-identical at 1 vs 4 pool workers.
    pub parallel_match: bool,
    /// No query — issued mid-churn with tombstones still pending, or
    /// after the closing maintenance round — surfaced a deleted document.
    pub no_resurrection: bool,
    /// The closing maintenance round reclaimed every pending tombstone.
    pub tombstones_cleared: bool,
    /// Replay fingerprint over the default run.
    pub fingerprint: u128,
}

impl LifecycleAudit {
    /// True when every clause of the lifecycle contract holds.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.replay_match && self.parallel_match && self.no_resurrection && self.tombstones_cleared
    }
}

/// Audit the live-corpus lifecycle: a seeded document-churn run
/// (topic-shaped inserts, incremental updates, lazy deletions) over a
/// replicated deployment, with maintenance rounds interleaved and queries
/// issued between mutations. The contract has two halves: the mutation
/// stream is *deterministic* (same seed ⇒ same mutated index, ranked
/// lists, and stats, at any worker count), and deletion is *airtight*
/// (no query ever surfaces a deleted document — not while its tombstones
/// are pending, not after replica repair — and the closing maintenance
/// round clears every tombstone).
#[must_use]
pub fn audit_lifecycle(seed: u64) -> LifecycleAudit {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(seed));
    let queries: Vec<Query> = sc
        .seed_queries()
        .iter()
        .take(8)
        .map(|s| s.query.clone())
        .collect();
    let run = |threads: usize| -> (u128, u64, u64) {
        let cfg = SpriteConfig {
            replication: 2,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, seed);
        sys.publish_all();
        sys.replicate_indexes();
        let mut engine = DocChurnEngine::new(
            DocChurnConfig {
                insert_rate: 1.0,
                update_rate: 2.0,
                delete_rate: 1.0,
                min_docs: 8,
            },
            seed.wrapping_add(3),
            &sc,
        );
        let mut deleted_hits = 0u64;
        for tick in 0..4 {
            let live = sys.live_docs();
            let events = engine.plan(&live, sys.corpus().len());
            sys.apply_doc_events(&events);
            if tick % 2 == 1 {
                sys.maintenance_round();
            }
            // Query between mutations: even with tombstones still
            // pending, no deleted document may surface.
            for q in &queries {
                for hit in sys.issue_query(q, 10) {
                    deleted_hits += u64::from(sys.is_deleted(hit.doc));
                }
            }
        }
        sys.maintenance_round();
        let pending = sys.pending_tombstones() as u64;
        let mut h = Md5::new();
        feed_u128(&mut h, fingerprint_index(&sys));
        feed_u128(&mut h, fingerprint_owners(&sys));
        feed_u128(
            &mut h,
            parallel_results_fingerprint(&mut sys, &queries, threads),
        );
        feed_u128(&mut h, fingerprint_stats(sys.net().stats()));
        (h.finalize().as_u128(), deleted_hits, pending)
    };
    let parallel_a = run(4);
    let parallel_b = run(4);
    let sequential = run(1);
    LifecycleAudit {
        replay_match: parallel_a == parallel_b,
        parallel_match: sequential.0 == parallel_a.0,
        no_resurrection: parallel_a.1 == 0,
        tombstones_cleared: parallel_a.2 == 0,
        fingerprint: parallel_a.0,
    }
}

/// Run the reference experiment once, fingerprinting after every stage.
///
/// The experiment is deliberately small (a tiny corpus on 24 peers) but
/// crosses every subsystem whose determinism matters: ring construction,
/// initial publishing, distributed ranking, a learning iteration, abrupt
/// peer failure with repair, and post-churn ranking.
#[must_use]
pub fn run_trace(seed: u64) -> Trace {
    let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(seed));
    let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, SpriteConfig::default(), seed);
    let mut stages = Vec::new();
    stages.push(("ring/built", fingerprint_ring(sys.net())));

    sys.publish_all();
    stages.push(("index/published", fingerprint_index(&sys)));

    let queries: Vec<Query> = sc
        .seed_queries()
        .iter()
        .take(8)
        .map(|s| s.query.clone())
        .collect();
    let run_queries = |sys: &mut SpriteSystem| {
        let mut h = Md5::new();
        for q in &queries {
            feed_u128(&mut h, fingerprint_hits(&sys.issue_query(q, 10)));
        }
        h.finalize().as_u128()
    };
    stages.push(("results/initial", run_queries(&mut sys)));

    sys.learning_iteration();
    stages.push(("owners/learned", fingerprint_owners(&sys)));
    stages.push(("index/learned", fingerprint_index(&sys)));
    stages.push(("results/learned", run_queries(&mut sys)));

    sys.fail_random_peers(2, seed.wrapping_add(1));
    stages.push(("ring/churned", fingerprint_ring(sys.net())));
    stages.push(("results/churned", run_queries(&mut sys)));

    // Ninth stage: the parallel experiment engine. Four pool workers rank
    // the same queries against a frozen view; any scheduling leak into
    // results or merged stats diverges here.
    stages.push((
        "results/parallel",
        parallel_results_fingerprint(&mut sys, &queries, 4),
    ));

    // Tenth stage: the batched query pipeline. The same queries fan out
    // over four workers, but lookup destinations are resolved once for
    // the whole batch through a shared route memo and replayed into each
    // query's private stats delta. The throughput path earns its speedup
    // only if this fingerprint equals `results/parallel` exactly — the
    // auditor enforces that within-run, below.
    stages.push((
        "query/batched",
        batched_results_fingerprint(&mut sys, &queries, 4),
    ));

    // Eleventh and twelfth stages: the same parallel evaluation with the
    // observability layer switched on. Tracing is observation only, so
    // `results/traced` must equal `results/parallel` exactly — a
    // divergence means a traced helper charged differently from its
    // untraced twin. `trace/histograms` fingerprints the merged recorder
    // itself (phase/kind counts and all three cost histograms) at four
    // workers; the companion tests pin it against a one-thread run.
    let (traced_fp, recorder_fp) = traced_parallel_fingerprints(&mut sys, &queries, 4);
    stages.push(("results/traced", traced_fp));
    stages.push(("trace/histograms", recorder_fp));

    // Thirteenth stage: continuous churn with bounded stabilization and routed
    // failover. Three engine ticks interleaved with maintenance rounds
    // leave the ring deliberately unconverged; a parallel evaluation over
    // that damaged state must still be bit-reproducible.
    let mut engine = ChurnEngine::new(ChurnConfig::default(), seed.wrapping_add(2));
    for _ in 0..3 {
        sys.churn_tick(&mut engine);
        sys.maintenance_round();
    }
    stages.push((
        "results/churn-routed",
        parallel_results_fingerprint(&mut sys, &queries, 4),
    ));

    // Fourteenth stage: the event-driven delivery layer. Three fresh
    // deployments — default, explicit perfect model, lossy model — whose
    // fingerprint covers all three runs' indexes, ranked lists, and stats.
    // Nondeterministic drop sampling, a retry that consumes shared RNG
    // state, or a perfect model that perturbs the lockstep run all
    // diverge here.
    stages.push(("sim/loss", audit_sim(seed).fingerprint));

    // Fifteenth stage: a fresh replication-2 deployment through every
    // path that writes a posting list (batched publish, successor
    // replication, learning, abrupt failure with hand-over and repair),
    // then four-worker ranking. A batch flush, transfer or hand-over that
    // installs in hash order diverges here.
    stages.push((
        "index/replicated",
        replicated_index_fingerprint(&sc, &queries, seed),
    ));

    // Sixteenth stage: live corpus dynamics. A seeded document-churn
    // run — topic-shaped inserts, incremental updates, lazy deletions
    // with interleaved maintenance — whose fingerprint covers the mutated
    // index, owner state, ranked lists, and stats. A victim pool drawn in
    // hash order, a tombstone that survives reclamation, or an update
    // diff that publishes differently across runs all diverge here.
    stages.push(("corpus/lifecycle", audit_lifecycle(seed).fingerprint));

    Trace { stages }
}

/// Run [`run_trace`] twice from the same seed and compare stage by stage.
///
/// Besides the replay check, the auditor enforces the observability
/// contract *within* each trace: the `results/traced` fingerprint must
/// equal `results/parallel` (tracing on vs off changes nothing), else the
/// report fails with `results/traced` as the divergent stage.
#[must_use]
pub fn audit_determinism(seed: u64) -> DeterminismReport {
    let a = run_trace(seed);
    let b = run_trace(seed);
    debug_assert_eq!(a.stages.len(), b.stages.len(), "traces have fixed shape");
    let replay_divergence = a
        .stages
        .iter()
        .zip(&b.stages)
        .find(|((_, ha), (_, hb))| ha != hb)
        .map(|(&(name, _), _)| name);
    let stage = |name: &str| {
        a.stages
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, fp)| fp)
    };
    let tracing_divergence = match (stage("results/parallel"), stage("results/traced")) {
        (Some(plain), Some(traced)) if plain != traced => Some("results/traced"),
        _ => None,
    };
    // The batched-pipeline contract is also within-run: serving a query
    // through the shared route memo must reproduce the unbatched ranked
    // lists and stats exactly, else the throughput path is buying speed
    // with changed answers.
    let batched_divergence = match (stage("results/parallel"), stage("query/batched")) {
        (Some(plain), Some(batched)) if plain != batched => Some("query/batched"),
        _ => None,
    };
    // The delivery-layer contract too: perfect ⇒ bit-identical to the
    // default run, lossy ⇒ deterministic drops billed as real timeouts.
    let sim_divergence = (!audit_sim(seed).passed()).then_some("sim/loss");
    // And the lifecycle contract: a document-churn run whose replays
    // agree but that resurrects a deleted document, strands a tombstone,
    // or drifts across worker counts fails the audit.
    let lifecycle_divergence = (!audit_lifecycle(seed).passed()).then_some("corpus/lifecycle");
    let first_divergence = replay_divergence
        .or(batched_divergence)
        .or(tracing_divergence)
        .or(sim_divergence)
        .or(lifecycle_divergence);
    DeterminismReport {
        passed: first_divergence.is_none(),
        first_divergence,
        stages: a.stages.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_runs_from_one_seed_agree() {
        let report = audit_determinism(2026);
        assert!(
            report.passed,
            "first divergent stage: {:?}",
            report.first_divergence
        );
        assert_eq!(report.stages, 16);
    }

    #[test]
    fn lifecycle_audit_upholds_the_lifecycle_contract() {
        let audit = audit_lifecycle(2026);
        assert!(audit.replay_match, "document-churn replay diverged");
        assert!(
            audit.parallel_match,
            "the post-churn evaluation depends on the worker count"
        );
        assert!(audit.no_resurrection, "a query surfaced a deleted document");
        assert!(
            audit.tombstones_cleared,
            "tombstones survived the closing maintenance round"
        );
    }

    #[test]
    fn sim_audit_upholds_the_delivery_contract() {
        let audit = audit_sim(2026);
        assert!(
            audit.zero_loss_match,
            "an explicit perfect model perturbed the lockstep run"
        );
        assert!(audit.lossy_replay_match, "lossy replay diverged");
        assert!(
            audit.lossy_parallel_match,
            "lossy evaluation depends on the worker count"
        );
        assert!(audit.timeouts_fired, "the lossy run billed no timeouts");
    }

    #[test]
    fn tracing_on_matches_tracing_off_fingerprints() {
        // The observability contract, stated directly: within one trace,
        // the traced parallel evaluation fingerprints exactly like the
        // untraced one — same ranked lists, same merged stats.
        let trace = run_trace(2026);
        let get = |name: &str| {
            trace
                .stages
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, fp)| fp)
                .expect("stage present")
        };
        assert_eq!(
            get("results/parallel"),
            get("results/traced"),
            "enabling tracing changed results or stats"
        );
    }

    #[test]
    fn tracing_histograms_are_thread_count_invariant() {
        // One pool worker vs four: the merged recorder (phase/kind counts
        // and every histogram bucket) must be bit-identical, and so must
        // the traced results fingerprint.
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(55));
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, SpriteConfig::default(), 55);
        sys.publish_all();
        let queries: Vec<Query> = sc
            .seed_queries()
            .iter()
            .take(12)
            .map(|s| s.query.clone())
            .collect();
        let (res1, rec1) = traced_parallel_fingerprints(&mut sys, &queries, 1);
        let (res4, rec4) = traced_parallel_fingerprints(&mut sys, &queries, 4);
        assert_eq!(res1, res4, "worker count leaked into traced results");
        assert_eq!(rec1, rec4, "worker count leaked into the recorder");
    }

    #[test]
    fn parallel_evaluation_matches_sequential_bit_for_bit() {
        // threads = 1 is the plain sequential loop (no threads spawned);
        // threads = 4 must reproduce its results and merged stats exactly.
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(77));
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, SpriteConfig::default(), 77);
        sys.publish_all();
        let queries: Vec<Query> = sc
            .seed_queries()
            .iter()
            .take(12)
            .map(|s| s.query.clone())
            .collect();
        let seq = parallel_results_fingerprint(&mut sys, &queries, 1);
        let par = parallel_results_fingerprint(&mut sys, &queries, 4);
        assert_eq!(seq, par, "worker count leaked into results or stats");
    }

    #[test]
    fn churned_parallel_evaluation_matches_sequential_bit_for_bit() {
        // The churn acceptance bar: after continuous churn with bounded
        // stabilization (stale fingers, dead successor entries) and routed
        // failover, evaluation is still bit-identical at 1 vs 4 workers.
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(91));
        let cfg = SpriteConfig {
            replication: 3,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 91);
        sys.publish_all();
        sys.replicate_indexes();
        let mut engine = ChurnEngine::new(ChurnConfig::default(), 92);
        for _ in 0..4 {
            sys.churn_tick(&mut engine);
            sys.maintenance_round();
        }
        let queries: Vec<Query> = sc
            .seed_queries()
            .iter()
            .take(12)
            .map(|s| s.query.clone())
            .collect();
        let seq = parallel_results_fingerprint(&mut sys, &queries, 1);
        let par = parallel_results_fingerprint(&mut sys, &queries, 4);
        assert_eq!(seq, par, "churned evaluation depends on worker count");
    }

    #[test]
    fn batched_pipeline_matches_unbatched_bit_for_bit() {
        // The `query/batched` contract, stated directly: serving every
        // query through one shared route memo reproduces the unbatched
        // fan-out exactly — ranked lists and merged stats — at any worker
        // count, including over a churned ring where some walks fail.
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(83));
        let cfg = SpriteConfig {
            replication: 2,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 83);
        sys.publish_all();
        sys.replicate_indexes();
        let queries: Vec<Query> = sc
            .seed_queries()
            .iter()
            .take(12)
            .map(|s| s.query.clone())
            .collect();
        let plain = parallel_results_fingerprint(&mut sys, &queries, 4);
        assert_eq!(
            batched_results_fingerprint(&mut sys, &queries, 1),
            plain,
            "batched pipeline diverged at one worker"
        );
        assert_eq!(
            batched_results_fingerprint(&mut sys, &queries, 4),
            plain,
            "batched pipeline diverged at four workers"
        );
        sys.fail_random_peers(3, 84);
        let churned_plain = parallel_results_fingerprint(&mut sys, &queries, 4);
        assert_eq!(
            batched_results_fingerprint(&mut sys, &queries, 4),
            churned_plain,
            "batched pipeline diverged over a churned ring"
        );
    }

    #[test]
    fn batched_stage_is_present_and_agrees_within_a_run() {
        let trace = run_trace(2026);
        let get = |name: &str| {
            trace
                .stages
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, fp)| fp)
                .expect("stage present")
        };
        assert_eq!(
            get("query/batched"),
            get("results/parallel"),
            "batched pipeline changed results or stats"
        );
    }

    #[test]
    fn different_seeds_diverge_at_the_start() {
        let a = run_trace(1);
        let b = run_trace(2);
        assert_ne!(a.stages[0].1, b.stages[0].1, "ring should differ by seed");
    }
}
