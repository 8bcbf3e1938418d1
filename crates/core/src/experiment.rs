//! The experiment driver behind every figure of §6.
//!
//! A [`World`] packages the full §6.1/§6.2 setup: synthetic corpus,
//! centralized reference engine, the generated 630-query workload, and the
//! 50/50 train/test split. The `fig4*` functions reproduce the three panels
//! of Figure 4; `sprite-bench`'s results table collects them as rows.

use sprite_chord::{MsgKind, NetStats, SimConfig, TraceRecorder};
use sprite_corpus::{
    generate_workload, issue_order, split_train_test, CorpusConfig, DocChurnConfig, DocChurnEngine,
    DocEvent, GenConfig, GeneratedQuery, Schedule, SyntheticCorpus,
};
use sprite_ir::{
    evaluate_hits_at_k, CentralizedEngine, DocId, PrEval, RatioAccumulator, RatioEval,
    SearchScratch,
};
use sprite_util::{par_map, par_map_init};

use crate::config::SpriteConfig;
use crate::system::SpriteSystem;
use crate::view::RankScratch;

/// Per-worker scratch for the evaluation fan-out: the distributed ranking
/// buffers plus the centralized reference engine's accumulator, both
/// reused across every query the worker claims instead of being allocated
/// per query.
#[derive(Default)]
struct EvalScratch {
    rank: RankScratch,
    engine: SearchScratch,
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Query-generator parameters (§6.1).
    pub gen: GenConfig,
    /// Network size.
    pub n_peers: usize,
    /// Seed for splits, schedules, and system construction.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            corpus: CorpusConfig::default(),
            gen: GenConfig::default(),
            n_peers: 64,
            seed: 42,
        }
    }
}

impl WorldConfig {
    /// Integration-test scale (seconds, not minutes).
    #[must_use]
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            corpus: CorpusConfig::small(seed),
            gen: GenConfig {
                top_e: 400,
                ..GenConfig::default()
            },
            n_peers: 32,
            seed,
        }
    }

    /// DHT-realistic population scale: 100,000 peers over the small
    /// corpus. The point is the *ring* — per-peer memory, build time,
    /// and routing at log₂(100k) ≈ 17 hops — so the retrieval workload
    /// stays at integration size while the peer count does not. Needs
    /// the arena-backed node store and compressed postings to fit a CI
    /// runner; the nightly `huge` smoke job runs it under a wall-clock
    /// budget.
    #[must_use]
    pub fn huge(seed: u64) -> Self {
        WorldConfig {
            n_peers: 100_000,
            ..WorldConfig::small(seed)
        }
    }

    /// Unit-test scale (sub-second).
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            corpus: CorpusConfig::tiny(seed),
            gen: GenConfig {
                top_e: 150,
                ..GenConfig::default()
            },
            n_peers: 16,
            seed,
        }
    }

    /// The scale a command line names — `tiny`, `small`, `full` (the
    /// default scale) or `huge` — at `seed`; `None` for any other name.
    #[must_use]
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny(seed)),
            "small" => Some(Self::small(seed)),
            "full" => Some(WorldConfig {
                seed,
                ..Self::default()
            }),
            "huge" => Some(Self::huge(seed)),
            _ => None,
        }
    }
}

/// The answer-list depth to which [`World::build`] precomputes the
/// centralized reference ranking of every workload query. The workload and
/// the engine are both fixed at build time, so these rankings are pure
/// data; [`World::evaluate`] slices the cached prefix instead of
/// re-searching the corpus on every evaluation pass, for any `k` up to
/// this depth (deeper requests fall back to a live search).
pub const CENTRAL_CACHE_K: usize = 50;

/// Everything an experiment needs, built once and shared across systems.
pub struct World {
    /// The corpus with its latent topics.
    pub synthetic: SyntheticCorpus,
    /// The ideal centralized reference (§6: classic TF·IDF).
    pub engine: CentralizedEngine,
    /// The generated workload (originals + derived queries).
    pub workload: Vec<GeneratedQuery>,
    /// Workload indices used for training (inserted into the system).
    pub train: Vec<usize>,
    /// Workload indices used for testing (evaluated).
    pub test: Vec<usize>,
    /// Per-workload-query centralized reference rankings, top
    /// [`CENTRAL_CACHE_K`], in workload order. Precomputed once — the
    /// exact prefix any `engine.search(query, k ≤ CENTRAL_CACHE_K)` would
    /// return.
    pub central: Vec<Vec<sprite_ir::Hit>>,
    /// The configuration that built this world.
    pub config: WorldConfig,
}

impl World {
    /// Build the §6.2 setup: generate the corpus, derive the workload,
    /// split it 50/50 into train and test, and precompute the centralized
    /// reference rankings the evaluation pipeline scores against.
    #[must_use]
    pub fn build(config: WorldConfig) -> Self {
        let synthetic = SyntheticCorpus::generate(&config.corpus);
        let engine = CentralizedEngine::build(synthetic.corpus());
        let seeds = synthetic.seed_queries();
        let workload = generate_workload(synthetic.corpus(), &engine, &seeds, &config.gen);
        let (train, test) = split_train_test(workload.len(), config.seed);
        let central = par_map_init(&workload, SearchScratch::new, |scratch, _, gq| {
            engine.search_with(&gq.query, CENTRAL_CACHE_K, scratch)
        });
        World {
            synthetic,
            engine,
            workload,
            train,
            test,
            central,
            config,
        }
    }

    /// The centralized reference's [`PrEval`] for workload query `qi` at
    /// answer-list size `k`: served from the build-time cache when `k` fits
    /// [`CENTRAL_CACHE_K`], recomputed (into `scratch`) otherwise. Either
    /// way the evaluated prefix is bit-identical to a live
    /// `engine.search(query, k)`.
    fn central_pr(&self, qi: usize, k: usize, scratch: &mut SearchScratch) -> PrEval {
        let gq = &self.workload[qi];
        if k <= CENTRAL_CACHE_K {
            evaluate_hits_at_k(&self.central[qi], &gq.relevant, k)
        } else {
            let cen_hits = self.engine.search_with(&gq.query, k, scratch);
            evaluate_hits_at_k(&cen_hits, &gq.relevant, k)
        }
    }

    /// A fresh, empty SPRITE deployment over this world's corpus.
    #[must_use]
    pub fn new_system(&self, cfg: SpriteConfig) -> SpriteSystem {
        SpriteSystem::build(
            self.synthetic.corpus().clone(),
            self.config.n_peers,
            cfg,
            self.config.seed,
        )
    }

    /// Issue workload queries into `sys` following `schedule` (restricted
    /// to the given workload indices).
    ///
    /// Deliberately **sequential**: training queries mutate learning state
    /// (the bounded query caches at indexing peers, the global query
    /// sequence) and those side effects are order-dependent by design —
    /// SPRITE learns from the *stream* of queries, so the stream must
    /// replay in schedule order. Only evaluation parallelizes.
    pub fn issue(&self, sys: &mut SpriteSystem, indices: &[usize], schedule: Schedule) {
        let order = issue_order(indices.len(), schedule, self.config.seed);
        for oi in order {
            let q = &self.workload[indices[oi]].query;
            // Issue for its side effects (caching at indexing peers); the
            // answers are irrelevant during training.
            let _ = sys.issue_query(q, 20);
        }
    }

    /// Evaluate `sys` on the given workload indices at answer-list size
    /// `k`, reporting the precision **ratio over the centralized
    /// reference** (§6's metric; the recall ratio equals it, see
    /// [`RatioEval`]).
    ///
    /// Evaluation is a *measurement*, not training: it runs on a frozen
    /// [`crate::QueryView`] snapshot, fanned out over the `sprite-util`
    /// pool (worker count from `SPRITE_THREADS`). Each query is issued
    /// from the peer its position selects (`peers[i % peers.len()]`),
    /// charges its message bill into a private [`NetStats`] delta, and the
    /// deltas are merged into the network **in input order**, so ratios
    /// and stats are bit-identical at any thread count. Evaluation queries
    /// are *not* cached at indexing peers — caching them would leak the
    /// test set into the next learning iteration.
    ///
    /// This is the **batched** pipeline: every distinct `(issuing peer,
    /// keyword)` route of the batch is resolved once up front
    /// ([`crate::QueryView::resolve_routes`]) and replayed per query with
    /// its exact message bill, each pool worker reuses one set of ranking
    /// buffers across every query it claims, and the centralized reference
    /// score comes from the build-time [`World::central`] cache instead of
    /// a per-query corpus search. Results and absorbed stats are
    /// bit-identical to walking every route live and searching the
    /// reference per query: `sprite-audit`'s
    /// `batched_pipeline_matches_unbatched_bit_for_bit` and
    /// `traced_evaluate_is_bit_identical_to_untraced` pin the memo half,
    /// `central_cache_is_the_prefix_of_a_live_search` the cache half.
    pub fn evaluate(&self, sys: &mut SpriteSystem, indices: &[usize], k: usize) -> RatioEval {
        sys.warm_query_terms(indices.iter().map(|&qi| &self.workload[qi].query));
        let per_query: Vec<(PrEval, PrEval, NetStats)> = {
            let view = sys.query_view();
            let peers = view.peers();
            let memo = view.resolve_routes(
                indices
                    .iter()
                    .enumerate()
                    .map(|(i, &qi)| (peers[i % peers.len()], &self.workload[qi].query)),
            );
            par_map_init(indices, EvalScratch::default, |scratch, i, &qi| {
                let gq = &self.workload[qi];
                let from = peers[i % peers.len()];
                let mut delta = NetStats::new();
                let sys_hits =
                    view.query_batched(from, &gq.query, k, &memo, &mut delta, &mut scratch.rank);
                (
                    evaluate_hits_at_k(&sys_hits, &gq.relevant, k),
                    self.central_pr(qi, k, &mut scratch.engine),
                    delta,
                )
            })
        };
        Self::absorb_evaluation(sys, &per_query)
    }

    /// Fold per-query evaluations in input order (the merge that makes
    /// parallel evaluation bit-identical) and absorb the message bill.
    fn absorb_evaluation(
        sys: &mut SpriteSystem,
        per_query: &[(PrEval, PrEval, NetStats)],
    ) -> RatioEval {
        let mut acc = RatioAccumulator::new();
        let mut total = NetStats::new();
        for (sys_pr, cen_pr, delta) in per_query {
            acc.add(*sys_pr, *cen_pr);
            total.merge(delta);
        }
        sys.net_mut().absorb_stats(&total);
        acc.finish()
    }

    /// [`World::evaluate`] with the observability layer switched on: every
    /// query runs through the traced ranking path with a **private**
    /// [`TraceRecorder`], and the per-query recorders are merged in input
    /// order alongside the [`NetStats`] deltas. Because the recorder's
    /// merge is commutative and the fold order is fixed, the returned
    /// histograms are bit-identical at any `SPRITE_THREADS` worker count —
    /// and because tracing only *observes* (every traced helper charges
    /// through the same code path as its untraced twin), the
    /// [`RatioEval`] and the absorbed stats are bit-identical to an
    /// untraced [`World::evaluate`] run.
    pub fn evaluate_traced(
        &self,
        sys: &mut SpriteSystem,
        indices: &[usize],
        k: usize,
    ) -> (RatioEval, TraceRecorder) {
        sys.warm_query_terms(indices.iter().map(|&qi| &self.workload[qi].query));
        let per_query: Vec<(PrEval, PrEval, NetStats, TraceRecorder)> = {
            let view = sys.query_view();
            let peers = view.peers();
            par_map_init(indices, EvalScratch::default, |scratch, i, &qi| {
                let gq = &self.workload[qi];
                let from = peers[i % peers.len()];
                let mut delta = NetStats::new();
                let mut recorder = TraceRecorder::new();
                let sys_hits = view.query_traced(
                    from,
                    &gq.query,
                    k,
                    &mut delta,
                    &mut scratch.rank,
                    i as u64,
                    &mut recorder,
                );
                (
                    evaluate_hits_at_k(&sys_hits, &gq.relevant, k),
                    self.central_pr(qi, k, &mut scratch.engine),
                    delta,
                    recorder,
                )
            })
        };
        let mut acc = RatioAccumulator::new();
        let mut total = NetStats::new();
        let mut trace = TraceRecorder::new();
        for (sys_pr, cen_pr, delta, recorder) in &per_query {
            acc.add(*sys_pr, *cen_pr);
            total.merge(delta);
            trace.merge(recorder);
        }
        sys.net_mut().absorb_stats(&total);
        (acc.finish(), trace)
    }

    /// The §6.2 standard pipeline: insert the training queries, publish all
    /// documents, then run enough learning iterations to reach
    /// `cfg.max_terms` (e.g. 5 initial + 3 × 5 = 20). Static (eSearch)
    /// configurations skip training and learning entirely.
    #[must_use]
    pub fn standard_system(&self, cfg: SpriteConfig, schedule: Schedule) -> SpriteSystem {
        self.standard_system_with_sim(cfg, schedule, SimConfig::default())
    }

    /// [`World::standard_system`] with a network model installed *before*
    /// any message flows: training, publication, learning, and every later
    /// message all traverse the configured delivery layer. A lossy model
    /// therefore punches real holes in the published indexes — holes only
    /// replication and the per-keyword retry/failover machinery can paper
    /// over, which is exactly what the loss sweep measures.
    #[must_use]
    pub fn standard_system_with_sim(
        &self,
        cfg: SpriteConfig,
        schedule: Schedule,
        sim: SimConfig,
    ) -> SpriteSystem {
        let iterations = if cfg.is_static() {
            0
        } else {
            cfg.max_terms
                .saturating_sub(cfg.initial_terms)
                .div_ceil(cfg.terms_per_iteration)
        };
        let mut sys = self.new_system(cfg);
        sys.net_mut().set_sim(sim);
        if iterations > 0 {
            self.issue(&mut sys, &self.train, schedule);
        }
        sys.publish_all();
        sys.learn(iterations);
        sys
    }
}

/// One point of a figure series.
#[derive(Clone, Copy, Debug)]
pub struct SeriesPoint {
    /// Precision ratio over the centralized system.
    pub precision: f64,
}

/// Figure 4(a): precision ratio vs number of answers, SPRITE
/// (20 learned terms) vs eSearch (20 static terms).
#[derive(Clone, Debug)]
pub struct Fig4a {
    /// SPRITE series, one point per K.
    pub sprite: Vec<SeriesPoint>,
    /// eSearch series, one point per K.
    pub esearch: Vec<SeriesPoint>,
}

/// Run Figure 4(a): `answers` is the x-axis (paper: 5..30 step 5).
///
/// The two deployments (SPRITE learned, eSearch static) are independent
/// worlds, so they build in parallel; each evaluation then fans out over
/// the pool internally (nested maps run inline, so the machine is never
/// oversubscribed).
#[must_use]
pub fn fig4a(world: &World, answers: &[usize]) -> Fig4a {
    let configs = [SpriteConfig::default(), SpriteConfig::esearch(20)];
    let mut systems = par_map(&configs, |_, cfg| {
        world.standard_system(cfg.clone(), Schedule::WithoutRepeats)
    });
    let mut eval = |i: usize| -> Vec<SeriesPoint> {
        answers
            .iter()
            .map(|&k| {
                let r = world.evaluate(&mut systems[i], &world.test, k);
                SeriesPoint {
                    precision: r.precision_ratio,
                }
            })
            .collect()
    };
    Fig4a {
        sprite: eval(0),
        esearch: eval(1),
    }
}

/// One point of the churn study (§7): a deployment evaluated after a run
/// of continuous churn at a given rate and replication degree.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPoint {
    /// Per-tick churn intensity as a fraction of the network size.
    pub churn_rate: f64,
    /// Replication degree of the deployment.
    pub replication: usize,
    /// Precision ratio over the centralized reference, post-churn.
    pub precision: f64,
    /// Precision relative to the same-replication zero-churn baseline.
    pub retention: f64,
    /// Mean messages per evaluation query (the §6 cost axis).
    pub messages_per_query: f64,
    /// Network size after the churn run.
    pub peers_after: usize,
}

/// The churn figure: one [`ChurnPoint`] per (replication, rate) pair,
/// replication-major in the order the inputs were given.
#[derive(Clone, Debug)]
pub struct ChurnFigure {
    /// All sweep points.
    pub points: Vec<ChurnPoint>,
}

/// Run the churn study: for every replication degree × churn rate, build a
/// standard deployment, replicate its indexes, subject it to `ticks` ticks
/// of continuous churn (bounded stabilization only — no `converge`, no
/// oracle repair) with a maintenance round every second tick, then evaluate
/// on the test split at K = 20.
///
/// `rates` are per-tick event volumes as a fraction of the network size: a
/// rate `c` yields an expected `c·n/2` joins, `c·n/4` graceful leaves, and
/// `c·n/4` abrupt failures per tick, so the expected membership is stable.
/// Include 0.0 to anchor each replication's retention baseline.
#[must_use]
pub fn churn_figure(
    world: &World,
    rates: &[f64],
    replications: &[usize],
    ticks: usize,
) -> ChurnFigure {
    use sprite_chord::{ChurnConfig, ChurnEngine};
    let jobs: Vec<(usize, f64)> = replications
        .iter()
        .flat_map(|&r| rates.iter().map(move |&c| (r, c)))
        .collect();
    let mut points: Vec<ChurnPoint> = par_map(&jobs, |j, &(replication, rate)| {
        let cfg = SpriteConfig {
            replication,
            ..SpriteConfig::default()
        };
        let mut sys = world.standard_system(cfg, Schedule::WithoutRepeats);
        if replication > 1 {
            sys.replicate_indexes();
        }
        let n = world.config.n_peers as f64;
        let mut engine = ChurnEngine::new(
            ChurnConfig {
                join_rate: rate * n / 2.0,
                leave_rate: rate * n / 4.0,
                fail_rate: rate * n / 4.0,
                ..ChurnConfig::default()
            },
            world.config.seed.wrapping_add(j as u64 + 1),
        );
        for tick in 0..ticks {
            sys.churn_tick(&mut engine);
            if tick % 2 == 1 {
                sys.maintenance_round();
            }
        }
        sys.net_mut().reset_stats();
        let r = world.evaluate(&mut sys, &world.test, 20);
        let msgs = sys.net().stats().total_messages() as f64 / world.test.len().max(1) as f64;
        ChurnPoint {
            churn_rate: rate,
            replication,
            precision: r.precision_ratio,
            retention: 1.0, // filled below against the zero-churn baseline
            messages_per_query: msgs,
            peers_after: sys.peers().len(),
        }
    });
    // Retention: precision relative to the same-replication point with the
    // lowest churn rate (the sweep's baseline, normally 0.0).
    for &replication in replications {
        let base = points
            .iter()
            .filter(|p| p.replication == replication)
            .fold(None::<(f64, f64)>, |acc, p| match acc {
                Some(b) if b.0 <= p.churn_rate => Some(b),
                _ => Some((p.churn_rate, p.precision)),
            })
            .map_or(0.0, |(_, prec)| prec);
        for p in points.iter_mut().filter(|p| p.replication == replication) {
            p.retention = if base > 0.0 { p.precision / base } else { 0.0 };
        }
    }
    ChurnFigure { points }
}

/// One point of the loss study: a deployment built and queried over a
/// lossy network model, at a given Bernoulli loss rate and replication
/// degree.
#[derive(Clone, Copy, Debug)]
pub struct LossPoint {
    /// Per-transmission Bernoulli loss probability.
    pub loss: f64,
    /// Replication degree of the deployment.
    pub replication: usize,
    /// Precision ratio over the centralized reference.
    pub precision: f64,
    /// Mean messages per evaluation query (the §6 cost axis).
    pub messages_per_query: f64,
    /// Timeout charges billed during evaluation — dropped in-flight
    /// transmissions, each one a retry the sender had to wait out.
    pub timeouts: u64,
}

/// The loss figure: one [`LossPoint`] per (replication, loss) pair,
/// replication-major in the order the inputs were given.
#[derive(Clone, Debug)]
pub struct LossFigure {
    /// All sweep points.
    pub points: Vec<LossPoint>,
}

/// Run the loss study: for every replication degree × loss rate, build a
/// standard deployment over a lossy network model (loss applies to
/// publication too, so the indexes themselves carry real holes), then
/// evaluate on the test split at K = 20.
///
/// Dropped transmissions surface as [`MsgKind::Timeout`] charges: during
/// routing each drop costs a retransmission, and an exhausted retry budget
/// fails the hop, driving the per-keyword failover that replication
/// exists to absorb. Include 0.0 to anchor the lossless baseline.
#[must_use]
pub fn loss_figure(world: &World, losses: &[f64], replications: &[usize]) -> LossFigure {
    let jobs: Vec<(usize, f64)> = replications
        .iter()
        .flat_map(|&r| losses.iter().map(move |&l| (r, l)))
        .collect();
    let points = par_map(&jobs, |j, &(replication, loss)| {
        let cfg = SpriteConfig {
            replication,
            ..SpriteConfig::default()
        };
        let sim = SimConfig {
            seed: world.config.seed.wrapping_add(j as u64 + 1),
            loss,
            ..SimConfig::default()
        };
        let mut sys = world.standard_system_with_sim(cfg, Schedule::WithoutRepeats, sim);
        if replication > 1 {
            sys.replicate_indexes();
        }
        sys.net_mut().reset_stats();
        let r = world.evaluate(&mut sys, &world.test, 20);
        let stats = sys.net().stats();
        let msgs = stats.total_messages() as f64 / world.test.len().max(1) as f64;
        LossPoint {
            loss,
            replication,
            precision: r.precision_ratio,
            messages_per_query: msgs,
            timeouts: stats.count(MsgKind::Timeout),
        }
    });
    LossFigure { points }
}

/// One point of the freshness study: a deployment evaluated after a run
/// of continuous *document* churn (inserts, incremental updates, lazy
/// deletions) at a given event rate and replication degree.
#[derive(Clone, Copy, Debug)]
pub struct FreshnessPoint {
    /// Expected document events per tick (inserts = deletes = this rate,
    /// updates = twice it, so the live set stays roughly stable).
    pub doc_churn: f64,
    /// Replication degree of the deployment.
    pub replication: usize,
    /// Precision ratio over a centralized reference **rebuilt over the
    /// mutated corpus** — the reference always sees fresh content, so the
    /// ratio prices exactly the staleness the distributed index carries.
    pub precision: f64,
    /// Documents inserted over the run.
    pub inserted: u64,
    /// Documents updated over the run.
    pub updated: u64,
    /// Documents deleted over the run.
    pub deleted: u64,
    /// Tombstoned entries reclaimed by the maintenance rounds.
    pub tombstones_reclaimed: u64,
    /// Tombstones still pending after the closing maintenance round —
    /// the lifecycle invariant requires **zero**.
    pub pending_tombstones: u64,
    /// Evaluation hits pointing at deleted documents — the lifecycle
    /// invariant requires **zero** (a live query must never surface a
    /// deleted document, tombstoned or reclaimed).
    pub deleted_doc_hits: u64,
    /// Live index entries whose stored metadata no longer matches the
    /// document's current content (the staleness window, §
    /// [`crate::system::UpdateReport::terms_kept`]).
    pub stale_entries: u64,
    /// Total live index entries at evaluation time.
    pub live_entries: u64,
    /// Live documents at evaluation time.
    pub live_docs: u64,
    /// Mean messages per evaluation query.
    pub messages_per_query: f64,
}

/// The incremental-vs-full update cost comparison: the same planned edit
/// stream applied to two identical deployments, one through
/// [`crate::system::SpriteSystem::update_document`] (diff-only
/// publication) and one through
/// [`crate::system::SpriteSystem::republish_document`] (retract
/// everything, publish everything).
#[derive(Clone, Copy, Debug)]
pub struct UpdateCost {
    /// Edits applied to each deployment.
    pub updates: u64,
    /// Publication bytes ([`MsgKind::IndexPublish`] +
    /// [`MsgKind::IndexRemove`]) billed by the incremental path.
    pub incremental_bytes: u64,
    /// The same bill for the delete+republish path.
    pub republish_bytes: u64,
    /// `1 − incremental/republish`: the fraction of publication bytes the
    /// diff saves. The acceptance bar is ≥ 0.30.
    pub savings_ratio: f64,
}

/// The freshness figure: one [`FreshnessPoint`] per (replication, rate)
/// pair, replication-major in input order, plus the update-cost
/// comparison.
#[derive(Clone, Debug)]
pub struct FreshnessFigure {
    /// All sweep points.
    pub points: Vec<FreshnessPoint>,
    /// The incremental-vs-full publication cost comparison.
    pub cost: UpdateCost,
}

/// Run the freshness study: for every replication degree × document-churn
/// rate, build a standard deployment, subject it to `ticks` ticks of
/// seeded document churn (topic-shaped inserts, incremental updates, lazy
/// deletions) with a maintenance round every second tick plus a closing
/// round, then evaluate the test split at K = 20 against a centralized
/// reference **rebuilt over the mutated corpus** (deleted slots emptied,
/// relevance judgments filtered to live documents). Include 0.0 to anchor
/// the frozen-corpus baseline.
#[must_use]
pub fn freshness_figure(
    world: &World,
    rates: &[f64],
    replications: &[usize],
    ticks: usize,
) -> FreshnessFigure {
    let jobs: Vec<(usize, f64)> = replications
        .iter()
        .flat_map(|&r| rates.iter().map(move |&c| (r, c)))
        .collect();
    let points = par_map(&jobs, |j, &(replication, rate)| {
        let cfg = SpriteConfig {
            replication,
            ..SpriteConfig::default()
        };
        let mut sys = world.standard_system(cfg, Schedule::WithoutRepeats);
        if replication > 1 {
            sys.replicate_indexes();
        }
        let mut engine = DocChurnEngine::new(
            DocChurnConfig {
                insert_rate: rate,
                update_rate: 2.0 * rate,
                delete_rate: rate,
                min_docs: 8,
            },
            world.config.seed.wrapping_add(j as u64 + 1),
            &world.synthetic,
        );
        let (mut inserted, mut updated, mut deleted) = (0u64, 0u64, 0u64);
        let mut reclaimed = 0u64;
        for tick in 0..ticks {
            let live = sys.live_docs();
            let events = engine.plan(&live, sys.corpus().len());
            let r = sys.apply_doc_events(&events);
            inserted += r.inserted as u64;
            updated += r.updated as u64;
            deleted += r.deleted as u64;
            if tick % 2 == 1 {
                reclaimed += sys.maintenance_round().tombstones_reclaimed as u64;
            }
        }
        // Close the run: the invariant is zero pending debt afterwards.
        reclaimed += sys.maintenance_round().tombstones_reclaimed as u64;
        let pending = sys.pending_tombstones() as u64;
        let (stale_entries, live_entries) = sys.stale_index_entries();
        let live_docs = sys.live_docs().len() as u64;

        // The fresh centralized reference: the mutated corpus with deleted
        // slots emptied (ids must stay aligned; an empty document can
        // never be retrieved), searched per query at evaluation time.
        let dead: Vec<bool> = (0..sys.corpus().len())
            .map(|i| sys.is_deleted(DocId(i as u32)))
            .collect();
        let mut ref_corpus = sys.corpus().clone();
        for (i, &gone) in dead.iter().enumerate() {
            if gone {
                ref_corpus.replace_document(DocId(i as u32), Vec::new());
            }
        }
        let reference = CentralizedEngine::build(&ref_corpus);

        sys.net_mut().reset_stats();
        sys.warm_query_terms(world.test.iter().map(|&qi| &world.workload[qi].query));
        let mut acc = RatioAccumulator::new();
        let mut total = NetStats::new();
        let mut deleted_doc_hits = 0u64;
        {
            let view = sys.query_view();
            let peers = view.peers();
            let mut rank = RankScratch::new();
            let mut scratch = SearchScratch::new();
            for (i, &qi) in world.test.iter().enumerate() {
                let gq = &world.workload[qi];
                let from = peers[i % peers.len()];
                let mut delta = NetStats::new();
                let sys_hits = view.query(from, &gq.query, 20, &mut delta, &mut rank);
                deleted_doc_hits += sys_hits.iter().filter(|h| dead[h.doc.index()]).count() as u64;
                let relevant: std::collections::HashSet<DocId> = gq
                    .relevant
                    .iter()
                    .copied()
                    .filter(|d| !dead[d.index()])
                    .collect();
                let cen_hits = reference.search_with(&gq.query, 20, &mut scratch);
                acc.add(
                    evaluate_hits_at_k(&sys_hits, &relevant, 20),
                    evaluate_hits_at_k(&cen_hits, &relevant, 20),
                );
                total.merge(&delta);
            }
        }
        sys.net_mut().absorb_stats(&total);
        let r = acc.finish();
        let msgs = sys.net().stats().total_messages() as f64 / world.test.len().max(1) as f64;
        FreshnessPoint {
            doc_churn: rate,
            replication,
            precision: r.precision_ratio,
            inserted,
            updated,
            deleted,
            tombstones_reclaimed: reclaimed,
            pending_tombstones: pending,
            deleted_doc_hits,
            stale_entries,
            live_entries,
            live_docs,
            messages_per_query: msgs,
        }
    });
    FreshnessFigure {
        points,
        cost: update_cost(world, 6),
    }
}

/// Run the incremental-vs-full update cost comparison: plan `ticks` ticks
/// of an update-only churn stream and apply every edit to two identical
/// standard deployments — one incrementally, one by full republish —
/// billing both through the normal wire-accounting paths.
#[must_use]
pub fn update_cost(world: &World, ticks: usize) -> UpdateCost {
    let cfg = DocChurnConfig {
        insert_rate: 0.0,
        update_rate: 4.0,
        delete_rate: 0.0,
        min_docs: 0,
    };
    let mut incremental = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let mut full = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let mut engine = DocChurnEngine::new(
        cfg,
        world.config.seed.wrapping_add(0x5eed),
        &world.synthetic,
    );
    incremental.net_mut().reset_stats();
    full.net_mut().reset_stats();
    let mut updates = 0u64;
    for _ in 0..ticks {
        let live = incremental.live_docs();
        let events = engine.plan(&live, incremental.corpus().len());
        for ev in &events {
            let DocEvent::Update { doc, terms } = ev else {
                continue;
            };
            incremental.update_document(*doc, terms.clone());
            full.republish_document(*doc, terms.clone());
            updates += 1;
        }
    }
    let bill = |sys: &SpriteSystem| {
        let st = sys.net().stats();
        st.bytes(MsgKind::IndexPublish) + st.bytes(MsgKind::IndexRemove)
    };
    let (incremental_bytes, republish_bytes) = (bill(&incremental), bill(&full));
    UpdateCost {
        updates,
        incremental_bytes,
        republish_bytes,
        savings_ratio: if republish_bytes > 0 {
            1.0 - incremental_bytes as f64 / republish_bytes as f64
        } else {
            0.0
        },
    }
}

/// Figure 4(b): precision ratio vs number of indexed terms, for the
/// `w/o-r` and `w-zipf` schedules.
#[derive(Clone, Debug)]
pub struct Fig4b {
    /// SPRITE under `w/o-r` (every training query once).
    pub sprite_wor: Vec<SeriesPoint>,
    /// SPRITE under `w-zipf` (Zipf-0.5 repeats).
    pub sprite_zipf: Vec<SeriesPoint>,
    /// eSearch (schedule-independent: it never learns).
    pub esearch: Vec<SeriesPoint>,
}

/// Run Figure 4(b): `budgets` is the x-axis (paper: 5..30 step 5);
/// evaluation at K = 20 answers.
///
/// Every (series, budget) pair is an independent deployment, so the sweep
/// fans out across threads (the simulation itself stays deterministic —
/// each configuration owns its entire world).
#[must_use]
pub fn fig4b(world: &World, budgets: &[usize], k: usize) -> Fig4b {
    let zipf = Schedule::Zipf {
        slope: 0.5,
        total: world.train.len(),
    };
    let sprite_cfg = |b: usize| SpriteConfig {
        max_terms: b,
        ..SpriteConfig::default()
    };
    // (series index, budget, config, schedule) work items, fanned out over
    // the sprite-util pool (each deployment owns its entire world, so items
    // are pure; results come back in input order).
    let jobs: Vec<(usize, usize, SpriteConfig, Schedule)> = budgets
        .iter()
        .flat_map(|&b| {
            [
                (0usize, b, sprite_cfg(b), Schedule::WithoutRepeats),
                (1, b, sprite_cfg(b), zipf),
                (2, b, SpriteConfig::esearch(b), Schedule::WithoutRepeats),
            ]
        })
        .collect();
    let results: Vec<(usize, SeriesPoint)> = par_map(&jobs, |_, (series, _, cfg, schedule)| {
        let mut sys = world.standard_system(cfg.clone(), *schedule);
        let r = world.evaluate(&mut sys, &world.test, k);
        (
            *series,
            SeriesPoint {
                precision: r.precision_ratio,
            },
        )
    });
    let mut series: [Vec<SeriesPoint>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (s, p) in results {
        series[s].push(p);
    }
    // Jobs were generated budget-major, so each series is already in
    // ascending-budget order after the stable input-order fan-in.
    let [sprite_wor, sprite_zipf, esearch] = series;
    Fig4b {
        sprite_wor,
        sprite_zipf,
        esearch,
    }
}

/// Figure 4(c): precision ratio per learning iteration with a
/// query-pattern change halfway.
#[derive(Clone, Debug)]
pub struct Fig4c {
    /// SPRITE, one point per iteration (x = iteration number, 1-based).
    pub sprite: Vec<SeriesPoint>,
    /// eSearch evaluated on the same per-iteration test groups.
    pub esearch: Vec<SeriesPoint>,
    /// Iteration (1-based) at which the query population switches.
    pub switch_at: usize,
}

/// Run Figure 4(c): `iterations` learning iterations (paper: 10), pattern
/// change after `iterations / 2`; 30-term cap, K answers.
///
/// The workload is split by seed query into two disjoint interest groups
/// ("all new queries and their corresponding original query are in the same
/// group"). Each iteration issues a fresh slice of the active group's
/// training queries, learns, and evaluates on the active group's test set.
#[must_use]
pub fn fig4c(world: &World, iterations: usize, k: usize) -> Fig4c {
    let half = iterations / 2;
    let n_seeds = world.config.corpus.n_seed_queries;
    let group_of = |qi: usize| usize::from(world.workload[qi].seed_idx >= n_seeds / 2);
    let train_g: [Vec<usize>; 2] = [
        world
            .train
            .iter()
            .copied()
            .filter(|&q| group_of(q) == 0)
            .collect(),
        world
            .train
            .iter()
            .copied()
            .filter(|&q| group_of(q) == 1)
            .collect(),
    ];
    let test_g: [Vec<usize>; 2] = [
        world
            .test
            .iter()
            .copied()
            .filter(|&q| group_of(q) == 0)
            .collect(),
        world
            .test
            .iter()
            .copied()
            .filter(|&q| group_of(q) == 1)
            .collect(),
    ];

    let cfg = SpriteConfig {
        max_terms: 30,
        ..SpriteConfig::default()
    };
    let (initial, per_iter) = (cfg.initial_terms, cfg.terms_per_iteration);
    let mut sprite = world.new_system(cfg);
    sprite.publish_all();

    let mut sprite_pts = Vec::with_capacity(iterations);
    let mut esearch_pts = Vec::with_capacity(iterations);
    for it in 1..=iterations {
        let g = usize::from(it > half);
        // Slice of this group's training queries for this iteration.
        let within = if g == 0 { it - 1 } else { it - half - 1 };
        let slice_len = train_g[g].len().div_ceil(half.max(1));
        let start = (within * slice_len).min(train_g[g].len());
        let end = ((within + 1) * slice_len).min(train_g[g].len());
        let slice: Vec<usize> = train_g[g][start..end].to_vec();
        world.issue(&mut sprite, &slice, Schedule::WithoutRepeats);
        sprite.learning_iteration();

        let r = world.evaluate(&mut sprite, &test_g[g], k);
        sprite_pts.push(SeriesPoint {
            precision: r.precision_ratio,
        });
        // eSearch's term count grows alongside SPRITE's budget during the
        // first iterations and stays flat once the 30-term cap is reached
        // ("the performance of eSearch remains unchanged after iteration 6").
        let e_budget = (initial + it * per_iter).min(30);
        let mut esearch = world.new_system(SpriteConfig::esearch(e_budget));
        esearch.publish_all();
        let re = world.evaluate(&mut esearch, &test_g[g], k);
        esearch_pts.push(SeriesPoint {
            precision: re.precision_ratio,
        });
    }
    Fig4c {
        sprite: sprite_pts,
        esearch: esearch_pts,
        switch_at: half + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::build(WorldConfig::tiny(3))
    }

    #[test]
    fn world_builds_consistent_split() {
        let w = tiny_world();
        assert_eq!(
            w.workload.len(),
            w.config.corpus.n_seed_queries * (w.config.gen.k_per_seed + 1)
        );
        assert_eq!(w.train.len() + w.test.len(), w.workload.len());
        assert!(w.train.iter().all(|i| !w.test.contains(i)));
    }

    #[test]
    fn standard_system_reaches_term_budget() {
        let w = tiny_world();
        let sys = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        // Default: 5 initial + 3 × 5 = 20.
        let docs = sys.corpus().len();
        let mut at_budget = 0;
        for i in 0..docs {
            let n = sys.published_terms(sprite_ir::DocId(i as u32)).len();
            assert!(n <= 20);
            if n == 20 {
                at_budget += 1;
            }
        }
        // Most tiny-corpus docs have ≥ 20 distinct terms, so most reach 20.
        assert!(
            at_budget > docs / 2,
            "only {at_budget}/{docs} reached budget"
        );
    }

    #[test]
    fn esearch_system_is_static_topk() {
        let w = tiny_world();
        let sys = w.standard_system(SpriteConfig::esearch(10), Schedule::WithoutRepeats);
        for (i, d) in sys.corpus().docs().iter().enumerate() {
            assert_eq!(
                sys.published_terms(sprite_ir::DocId(i as u32)),
                d.top_frequent_terms(10)
            );
        }
    }

    #[test]
    fn evaluation_produces_sane_ratios() {
        let w = tiny_world();
        let mut sprite = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        let r = w.evaluate(&mut sprite, &w.test, 20);
        assert!(r.queries > 0);
        assert!(r.precision_ratio > 0.0, "SPRITE must find something");
        // A partial index can occasionally beat the reference on single
        // queries but the average must stay in a plausible band.
        assert!(r.precision_ratio < 2.0);
    }

    #[test]
    fn sprite_beats_esearch_at_equal_terms() {
        // The paper's headline claim, at integration scale.
        let w = World::build(WorldConfig::small(9));
        let mut sprite = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        let mut esearch = w.standard_system(SpriteConfig::esearch(20), Schedule::WithoutRepeats);
        let rs = w.evaluate(&mut sprite, &w.test, 20);
        let re = w.evaluate(&mut esearch, &w.test, 20);
        assert!(
            rs.precision_ratio > re.precision_ratio,
            "SPRITE {:.3} should beat eSearch {:.3}",
            rs.precision_ratio,
            re.precision_ratio
        );
    }

    #[test]
    fn parallel_evaluate_is_bit_identical_to_sequential() {
        // The acceptance bar of the parallel engine: same RatioEval (exact
        // float bits), same merged NetStats, at any worker count.
        let w = tiny_world();
        let run = |threads: usize| {
            let prev = sprite_util::override_threads(threads);
            let mut sys = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
            sys.net_mut().reset_stats();
            let r = w.evaluate(&mut sys, &w.test, 20);
            let stats = sys.net().stats().clone();
            sprite_util::override_threads(prev);
            (r, stats)
        };
        let (r1, s1) = run(1);
        let (r4, s4) = run(4);
        assert_eq!(
            r1.precision_ratio.to_bits(),
            r4.precision_ratio.to_bits(),
            "precision ratio must not depend on the worker count"
        );
        assert_eq!(r1.queries, r4.queries);
        assert_eq!(s1, s4, "merged NetStats must be bit-identical");
    }

    #[test]
    fn traced_evaluate_is_bit_identical_to_untraced() {
        // Tracing is observation only: switching it on must change neither
        // the ratios (exact float bits) nor the merged NetStats.
        let w = tiny_world();
        let mut plain = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        let mut traced = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        plain.net_mut().reset_stats();
        traced.net_mut().reset_stats();
        let r0 = w.evaluate(&mut plain, &w.test, 20);
        let (r1, rec) = w.evaluate_traced(&mut traced, &w.test, 20);
        assert_eq!(r0.precision_ratio.to_bits(), r1.precision_ratio.to_bits());
        assert_eq!(r0.queries, r1.queries);
        assert_eq!(plain.net().stats(), traced.net().stats());
        assert_eq!(rec.queries(), w.test.len() as u64);
        assert!(rec.events() > 0, "traced run must observe events");
    }

    #[test]
    fn central_cache_is_the_prefix_of_a_live_search() {
        // `evaluate` scores against `World::central` instead of searching
        // the reference per query; the cached ranking must be, to the bit,
        // what a live search returns at every depth it serves — and past
        // that depth `central_pr` must fall back to the live search.
        let w = tiny_world();
        let mut scratch = SearchScratch::new();
        for (qi, gq) in w.workload.iter().enumerate() {
            for k in [5, 20, CENTRAL_CACHE_K] {
                let live = w.engine.search(&gq.query, k);
                let cached = &w.central[qi][..k.min(w.central[qi].len())];
                assert_eq!(cached.len(), live.len(), "query {qi} at k = {k}");
                for (c, l) in cached.iter().zip(&live) {
                    assert_eq!((c.doc, c.score.to_bits()), (l.doc, l.score.to_bits()));
                }
                assert_eq!(
                    w.central_pr(qi, k, &mut scratch),
                    evaluate_hits_at_k(&live, &gq.relevant, k)
                );
            }
            let k = CENTRAL_CACHE_K + 1;
            assert_eq!(
                w.central_pr(qi, k, &mut scratch),
                evaluate_hits_at_k(&w.engine.search(&gq.query, k), &gq.relevant, k)
            );
        }
    }

    #[test]
    fn traced_histograms_are_thread_count_invariant() {
        // The recorder merge is commutative and folded in input order, so
        // the parallel engine must produce bit-identical histograms at any
        // worker count.
        let w = tiny_world();
        let run = |threads: usize| {
            let prev = sprite_util::override_threads(threads);
            let mut sys = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
            sys.net_mut().reset_stats();
            let (r, rec) = w.evaluate_traced(&mut sys, &w.test, 20);
            sprite_util::override_threads(prev);
            (r, rec)
        };
        let (r1, rec1) = run(1);
        let (r4, rec4) = run(4);
        assert_eq!(r1.precision_ratio.to_bits(), r4.precision_ratio.to_bits());
        assert_eq!(
            rec1, rec4,
            "recorders must be bit-identical across thread counts"
        );
    }

    #[test]
    fn evaluate_does_not_pollute_query_caches() {
        // Train/test hygiene: measurement must leave no learning state.
        let w = tiny_world();
        let mut sys = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        let cached_before: usize = sys
            .indexing_peers()
            .iter()
            .filter_map(|&p| sys.indexing_state(p))
            .map(crate::peer::IndexingState::cached_queries)
            .sum();
        let _ = w.evaluate(&mut sys, &w.test, 20);
        let cached_after: usize = sys
            .indexing_peers()
            .iter()
            .filter_map(|&p| sys.indexing_state(p))
            .map(crate::peer::IndexingState::cached_queries)
            .sum();
        assert_eq!(cached_before, cached_after);
    }

    #[test]
    fn fig4a_shapes() {
        let w = tiny_world();
        let f = fig4a(&w, &[5, 20]);
        assert_eq!(f.sprite.len(), 2);
        assert_eq!(f.esearch.len(), 2);
        for p in f.sprite.iter().chain(&f.esearch) {
            assert!(p.precision >= 0.0);
        }
    }

    #[test]
    fn churn_figure_shapes_and_baselines() {
        let w = tiny_world();
        let f = churn_figure(&w, &[0.0, 0.05], &[1, 3], 4);
        assert_eq!(f.points.len(), 4);
        for p in &f.points {
            assert!(p.precision >= 0.0);
            assert!(p.messages_per_query > 0.0);
            assert!(p.peers_after >= 4);
        }
        // Zero-churn points are their own baseline.
        for p in f.points.iter().filter(|p| p.churn_rate == 0.0) {
            assert!((p.retention - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn churned_retrieval_retains_most_quality_with_replication() {
        // Acceptance bar: at replication 3, a churned run keeps ≥ 80% of
        // the no-churn ratio-to-ideal (§7's "little impact" claim) with
        // every failover routed — the oracle never serves the query path.
        let w = tiny_world();
        let f = churn_figure(&w, &[0.0, 0.05], &[3], 6);
        let churned = f
            .points
            .iter()
            .find(|p| p.churn_rate > 0.0)
            .expect("sweep has a churned point");
        assert!(
            churned.retention >= 0.8,
            "churned retention {:.3} below the 80% bar",
            churned.retention
        );
    }

    #[test]
    fn explicit_perfect_sim_is_bit_identical_to_default() {
        // The bit-identity contract of the delivery layer: any perfect
        // SimConfig — even one with a different seed and retry budget —
        // must reproduce the default lockstep execution exactly, because
        // a perfect link never samples its hash chain.
        let w = tiny_world();
        let mut plain = w.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
        let sim = SimConfig {
            seed: 0xdead_beef,
            max_retries: 7,
            ..SimConfig::default()
        };
        assert!(sim.is_perfect());
        let mut simmed =
            w.standard_system_with_sim(SpriteConfig::default(), Schedule::WithoutRepeats, sim);
        assert_eq!(plain.net().stats(), simmed.net().stats());
        let r0 = w.evaluate(&mut plain, &w.test, 20);
        let r1 = w.evaluate(&mut simmed, &w.test, 20);
        assert_eq!(r0.precision_ratio.to_bits(), r1.precision_ratio.to_bits());
        assert_eq!(plain.net().stats(), simmed.net().stats());
        assert_eq!(
            plain.net().stats().count(MsgKind::Timeout),
            0,
            "a perfect network never times out"
        );
    }

    #[test]
    fn lossy_world_bills_timeouts_and_degrades_gracefully() {
        // End-to-end under real loss: in-flight drops must surface as
        // Timeout charges (retries the sender waited out), queries must
        // still come back with partial results, and the whole sweep must
        // replay bit-identically from the same seeds.
        let w = tiny_world();
        let run = || loss_figure(&w, &[0.0, 0.05], &[1, 3]);
        let f = run();
        assert_eq!(f.points.len(), 4);
        for p in &f.points {
            assert!(p.precision.is_finite() && p.precision >= 0.0);
            assert!(p.messages_per_query > 0.0);
            if p.loss == 0.0 {
                assert_eq!(p.timeouts, 0, "lossless points must not time out");
                assert!(p.precision > 0.0);
            } else {
                assert!(
                    p.timeouts > 0,
                    "loss {} repl {} billed no timeouts",
                    p.loss,
                    p.replication
                );
                assert!(
                    p.precision > 0.0,
                    "lossy retrieval must still return partial results"
                );
            }
        }
        let g = run();
        for (a, b) in f.points.iter().zip(&g.points) {
            assert_eq!(a.precision.to_bits(), b.precision.to_bits());
            assert_eq!(a.timeouts, b.timeouts, "same seed, same event order");
        }
    }

    #[test]
    fn freshness_figure_shapes_invariants_and_replay() {
        let w = tiny_world();
        let run = || freshness_figure(&w, &[0.0, 0.5], &[1, 3], 4);
        let f = run();
        assert_eq!(f.points.len(), 4);
        for p in &f.points {
            assert!(p.precision.is_finite() && p.precision >= 0.0);
            assert_eq!(p.deleted_doc_hits, 0, "a deleted doc surfaced in a query");
            assert_eq!(p.pending_tombstones, 0, "maintenance left tombstone debt");
            assert!(p.live_docs >= 8);
            if p.doc_churn == 0.0 {
                assert_eq!(p.inserted + p.updated + p.deleted, 0);
                assert_eq!(p.stale_entries, 0, "a frozen corpus has no staleness");
            } else {
                assert!(p.updated > 0, "rate 0.5 over 4 ticks should update docs");
            }
        }
        // The update stream must actually exercise the tombstone path at
        // some point of the sweep.
        assert!(f.points.iter().any(|p| p.tombstones_reclaimed > 0));
        assert!(f.cost.updates > 0);
        assert!(
            f.cost.savings_ratio >= 0.30,
            "incremental updates saved only {:.0}% of publication bytes",
            f.cost.savings_ratio * 100.0
        );
        // Bit-identical replay: same seeds, same schedule, same ratios.
        let g = run();
        for (a, b) in f.points.iter().zip(&g.points) {
            assert_eq!(a.precision.to_bits(), b.precision.to_bits());
            assert_eq!(
                (a.inserted, a.updated, a.deleted, a.tombstones_reclaimed),
                (b.inserted, b.updated, b.deleted, b.tombstones_reclaimed)
            );
        }
        assert_eq!(f.cost.incremental_bytes, g.cost.incremental_bytes);
        assert_eq!(f.cost.republish_bytes, g.cost.republish_bytes);
    }

    #[test]
    fn fig4c_runs_all_iterations() {
        let w = tiny_world();
        let f = fig4c(&w, 4, 10);
        assert_eq!(f.sprite.len(), 4);
        assert_eq!(f.esearch.len(), 4);
        assert_eq!(f.switch_at, 3);
    }
}
