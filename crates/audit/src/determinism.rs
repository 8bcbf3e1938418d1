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
use sprite_core::{QueryView, RankScratch, SpriteConfig, SpriteSystem};
use sprite_corpus::{CorpusConfig, DocChurnConfig, DocChurnEngine, SyntheticCorpus};
use sprite_ir::{Hit, Query, TermId};
use sprite_util::{override_threads, par_map_init, Md5, RingId};

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
        for f in node.fingers() {
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
        for (t, list) in st.terms() {
            feed_u64(&mut h, u64::from(t.0));
            for e in list {
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

/// The one frozen-view fan-out behind the three public fingerprints:
/// `queries` fan out over `threads` pool workers, query `i` issued from
/// peer `i mod peers` and answered by `serve` into a private [`NetStats`]
/// delta and a private [`TraceRecorder`]. Returns `(results fingerprint,
/// recorder fingerprint)`: the first hashes every ranked list (exact float
/// bits) plus the in-input-order merge of the deltas, the second the
/// in-input-order merge of the recorders. Both are bit-identical across
/// thread counts by the engine's contract (the merges are commutative and
/// the fold order is fixed).
fn fan_out_fingerprints<F>(
    view: &QueryView<'_>,
    queries: &[Query],
    threads: usize,
    serve: F,
) -> (u128, u128)
where
    F: Fn(RingId, u64, &Query, &mut NetStats, &mut TraceRecorder, &mut RankScratch) -> Vec<Hit>
        + Sync,
{
    let peers = view.peers();
    let prev = override_threads(threads);
    let per: Vec<(u128, NetStats, TraceRecorder)> =
        par_map_init(queries, RankScratch::new, |scratch, i, q| {
            let (mut delta, mut rec) = (NetStats::new(), TraceRecorder::new());
            let from = peers[i % peers.len()];
            let hits = serve(from, i as u64, q, &mut delta, &mut rec, scratch);
            (fingerprint_hits(&hits), delta, rec)
        });
    override_threads(prev);
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
}

/// Fingerprint of a **parallel** read-only evaluation: every query served
/// by [`QueryView::query`] into a private [`NetStats`] delta; the hash
/// covers every ranked list (exact float bits) plus the in-input-order
/// merge of the deltas. The companion test pins `threads = 1` against
/// `threads = 4`.
#[must_use]
pub fn parallel_results_fingerprint(
    sys: &mut SpriteSystem,
    queries: &[Query],
    threads: usize,
) -> u128 {
    let view = sys.query_view();
    fan_out_fingerprints(&view, queries, threads, |from, _, q, delta, _, scratch| {
        view.query(from, q, 10, delta, scratch)
    })
    .0
}

/// Fingerprint of the **batched** query pipeline: the same fan-out, but
/// every query is served through [`QueryView::query_batched`] against one
/// shared [`sprite_chord::RouteMemo`] covering the whole batch. The
/// batching contract says the memoized destination replay charges exactly
/// what a live walk would have, so this must equal
/// [`parallel_results_fingerprint`] bit for bit.
#[must_use]
pub fn batched_results_fingerprint(
    sys: &mut SpriteSystem,
    queries: &[Query],
    threads: usize,
) -> u128 {
    let view = sys.query_view();
    let peers = view.peers();
    let jobs = queries.iter().enumerate();
    let memo = view.resolve_routes(jobs.map(|(i, q)| (peers[i % peers.len()], q)));
    fan_out_fingerprints(&view, queries, threads, |from, _, q, delta, _, scratch| {
        view.query_batched(from, q, 10, &memo, delta, scratch)
    })
    .0
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

/// The traced twin of [`parallel_results_fingerprint`]: every query served
/// by [`QueryView::query_traced`] into its private recorder. Returns
/// `(results fingerprint, recorder fingerprint)`.
///
/// The observability contract this function audits: the first element must
/// equal the *untraced* fingerprint exactly (tracing only observes — every
/// traced helper charges through the same code path as its untraced
/// spelling), and both elements must be bit-identical at any worker count.
#[must_use]
pub fn traced_parallel_fingerprints(
    sys: &mut SpriteSystem,
    queries: &[Query],
    threads: usize,
) -> (u128, u128) {
    let view = sys.query_view();
    fan_out_fingerprints(
        &view,
        queries,
        threads,
        |from, tick, q, delta, rec, scratch| {
            view.query_traced(from, q, 10, delta, scratch, tick, rec)
        },
    )
}

/// The audit workload: the corpus's first `n` seed queries.
fn first_queries(sc: &SyntheticCorpus, n: usize) -> Vec<Query> {
    let seeds = sc.seed_queries().into_iter().take(n);
    seeds.map(|s| s.query).collect()
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
    let queries = first_queries(&sc, 8);
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
    SimAudit {
        zero_loss_match: baseline.0 == perfect.0,
        lossy_replay_match: lossy_a.0 == lossy_b.0,
        lossy_parallel_match: lossy_seq.0 == lossy_a.0,
        timeouts_fired: lossy_a.1 > 0,
    }
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
    let queries = first_queries(&sc, 8);
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

    let queries = first_queries(&sc, 8);
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

    // The parallel experiment engine: four pool workers rank the same
    // queries against a frozen view, the observability layer recording.
    // Any scheduling leak into results, merged stats or the merged
    // recorder (phase/kind counts and all three cost histograms) diverges
    // here. `results/parallel` is the *untraced* evaluation; that tracing
    // and batching reproduce it is pinned by this module's direct tests.
    stages.push((
        "results/parallel",
        parallel_results_fingerprint(&mut sys, &queries, 4),
    ));
    let (_, recorder_fp) = traced_parallel_fingerprints(&mut sys, &queries, 4);
    stages.push(("trace/histograms", recorder_fp));

    // Continuous churn with bounded stabilization and routed failover.
    // Three engine ticks interleaved with maintenance rounds leave the
    // ring deliberately unconverged; a parallel evaluation over that
    // damaged state must still be bit-reproducible.
    let mut engine = ChurnEngine::new(ChurnConfig::default(), seed.wrapping_add(2));
    for _ in 0..3 {
        sys.churn_tick(&mut engine);
        sys.maintenance_round();
    }
    stages.push((
        "results/churn-routed",
        parallel_results_fingerprint(&mut sys, &queries, 4),
    ));

    Trace { stages }
}

/// Run [`run_trace`] twice from the same seed and compare stage by stage,
/// then hold the two contracts that are not one deployment's progression:
/// the delivery layer's ([`audit_sim`]: perfect ⇒ bit-identical to the
/// default run, lossy ⇒ deterministic drops billed as real timeouts) and
/// the document lifecycle's ([`audit_lifecycle`]: replays agree, nothing
/// resurrects, no tombstone is stranded). Each replays itself, so each
/// runs once; a failure is reported as `sim/loss` or `corpus/lifecycle`.
#[must_use]
pub fn audit_determinism(seed: u64) -> DeterminismReport {
    let a = run_trace(seed);
    let b = run_trace(seed);
    debug_assert_eq!(a.stages.len(), b.stages.len(), "traces have fixed shape");
    let first_divergence = a
        .stages
        .iter()
        .zip(&b.stages)
        .find(|((_, ha), (_, hb))| ha != hb)
        .map(|(&(name, _), _)| name)
        .or_else(|| (!audit_sim(seed).passed()).then_some("sim/loss"))
        .or_else(|| (!audit_lifecycle(seed).passed()).then_some("corpus/lifecycle"));
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
        assert_eq!(report.stages, 11);
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
        // The observability contract, stated directly: on the churned ring
        // the audit trace evaluates, the traced parallel evaluation
        // fingerprints exactly like the untraced one — same ranked lists,
        // same merged stats.
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(2026));
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, SpriteConfig::default(), 2026);
        sys.publish_all();
        sys.learning_iteration();
        sys.fail_random_peers(2, 2027);
        let queries = first_queries(&sc, 8);
        assert_eq!(
            traced_parallel_fingerprints(&mut sys, &queries, 4).0,
            parallel_results_fingerprint(&mut sys, &queries, 4),
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
        let queries = first_queries(&sc, 12);
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
        let queries = first_queries(&sc, 12);
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
        let queries = first_queries(&sc, 12);
        let seq = parallel_results_fingerprint(&mut sys, &queries, 1);
        let par = parallel_results_fingerprint(&mut sys, &queries, 4);
        assert_eq!(seq, par, "churned evaluation depends on worker count");
    }

    #[test]
    fn batched_pipeline_matches_unbatched_bit_for_bit() {
        // The batching contract, stated directly: serving every
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
        let queries = first_queries(&sc, 12);
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
    fn different_seeds_diverge_at_the_start() {
        let a = run_trace(1);
        let b = run_trace(2);
        assert_ne!(a.stages[0].1, b.stages[0].1, "ring should differ by seed");
    }
}
