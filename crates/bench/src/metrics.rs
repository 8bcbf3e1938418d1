//! The results table behind `BENCH_experiments.json`.
//!
//! Everything this crate gates is *simulated*: precision ratios,
//! message and byte ledgers, histograms, logical memory — pure functions
//! of seed and scale. (Wall-clock lives in `benchmark/` and nowhere else;
//! clippy's `disallowed_types` ban in `clippy.toml` holds this crate to
//! that.) Each
//! collector flattens its object to [`Row`]s — a dotted path, a [`Value`]
//! whose variant is the row's tolerance class, and an optional [`Within`]
//! requirement the run must meet on its own. [`to_json`] nests rows into
//! the committed document, [`compare`] diffs rows against a parsed
//! baseline **in both directions**, and `--bin bench` / `--bin gate` are
//! "collect → write" / "collect → compare" over the same [`collect`].

use std::collections::BTreeMap;
use std::fmt;

use sprite_chord::MsgKind::{
    IndexPublish, IndexRemove, LearnPoll, LearnReturn, LookupHop, Replication,
};
use sprite_chord::{ChordConfig, ChordNet, MsgKind, Phase};
use sprite_core::{
    churn_figure, fig4a, fig4b, fig4c, freshness_figure, loss_figure, IdfMode, ScoreMode,
    SpriteConfig, SpriteSystem, World,
};
use sprite_corpus::Schedule;
use sprite_ir::Similarity;
use sprite_util::{par_map, RingId};

use crate::json::JsonValue;

/// The `schema` string of the committed document.
pub const SCHEMA: &str = "sprite-bench/v1";

/// Absolute tolerance for [`Value::Ratio`] rows: deterministic values
/// that only round-trip through a 12-decimal JSON rendering.
pub const RATIO_TOLERANCE: f64 = 1e-9;

/// The answer-list size every study evaluates at (the paper's K = 20).
pub const METRICS_K: usize = 20;

/// The x-axis of Figure 4(a) (answers K) and of Figure 4(b) (indexed
/// terms): the paper's 5..30 in steps of 5.
pub const FIG4_AXIS: [usize; 6] = [5, 10, 15, 20, 25, 30];

/// Learning iterations of Figure 4(c); the query population switches to
/// the second interest group after half of them.
pub const FIG4C_ITERATIONS: usize = 10;

/// Ring sizes of the cost study's lookup sweep.
pub const LOOKUP_SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 2048];

/// Lookups routed per ring size of the lookup sweep.
pub const LOOKUPS_PER_SIZE: usize = 2000;

/// Per-tick peer-churn rates of the §7 churn study; 0.0 anchors each
/// replication degree's retention baseline.
pub const CHURN_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Replication degrees of the churn study: unreplicated versus the §7
/// default of 3.
pub const CHURN_REPLS: [usize; 2] = [1, 3];

/// Churn ticks per point of the churn study.
pub const CHURN_TICKS: usize = 6;

/// Bernoulli loss rates swept by the loss study. 0.0 anchors the lossless
/// baseline; the lossy points must bill real timeouts.
pub const LOSS_RATES: [f64; 3] = [0.0, 0.02, 0.05];

/// Replication degrees swept by the loss study: unreplicated versus the
/// §7 default of 3, to show replication absorbing loss.
pub const LOSS_REPLS: [usize; 2] = [1, 3];

/// Document-churn rates swept by the freshness study. 0.0 anchors the
/// frozen-corpus baseline (zero events, zero staleness); the churned point
/// exercises the full insert/update/delete lifecycle.
pub const FRESHNESS_RATES: [f64; 2] = [0.0, 0.5];

/// Replication degrees swept by the freshness study: unreplicated versus
/// the §7 default of 3, to show deletions clearing from replicas too.
pub const FRESHNESS_REPLS: [usize; 2] = [1, 3];

/// Document-churn ticks per freshness point. A maintenance round runs
/// every second tick plus a closing round, so every tombstone raised by
/// the stream is reclaimed before evaluation.
pub const FRESHNESS_TICKS: usize = 6;

/// Acceptance floor for the incremental-update savings ratio: the
/// diff-only publication path must bill at least this fraction fewer
/// bytes than delete+republish of the same edits.
pub const UPDATE_SAVINGS_FLOOR: f64 = 0.30;

/// A row's value; the variant is its tolerance class against the baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A count, byte total or histogram bucket: equal to the baseline's.
    /// The simulation has no legitimate source of count jitter.
    Exact(u64),
    /// A deterministic real: within [`RATIO_TOLERANCE`] of the baseline's,
    /// written at 12 decimals.
    Ratio(f64),
}

impl Value {
    fn as_f64(self) -> f64 {
        match self {
            Value::Exact(n) => n as f64,
            Value::Ratio(x) => x,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Exact(n) => write!(f, "{n}"),
            Value::Ratio(x) => write!(f, "{x:.12}"),
        }
    }
}

/// A safety requirement a row must meet within the run itself — checked
/// before any baseline is read, so `--bin bench` cannot commit a broken
/// baseline and `--bin gate` cannot accept one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Within {
    /// One-sided floor: the value may not fall below it.
    AtLeast(f64),
    /// The value must be zero.
    Zero,
}

/// One gated field of `BENCH_experiments.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Dotted path from the document root; a histogram bucket ends in
    /// `[i]` and is written as one element of an inline array.
    pub path: String,
    /// The value, carrying its tolerance class.
    pub value: Value,
    /// The within-run requirement, if the row has one.
    pub within: Option<Within>,
}

/// The rows of one top-level object, under construction.
struct Object {
    name: &'static str,
    rows: Vec<Row>,
}

impl Object {
    fn new(name: &'static str) -> Self {
        Object {
            name,
            rows: Vec::new(),
        }
    }

    fn put(&mut self, key: &str, value: Value, within: Option<Within>) {
        self.rows.push(Row {
            path: format!("{}.{key}", self.name),
            value,
            within,
        });
    }

    fn count(&mut self, key: &str, n: u64) {
        self.put(key, Value::Exact(n), None);
    }

    fn ratio(&mut self, key: &str, x: f64) {
        self.put(key, Value::Ratio(x), None);
    }
}

/// A sweep rate as the integer percentage its point key carries.
fn pct(rate: f64) -> u64 {
    (rate * 100.0).round() as u64
}

/// `metrics`: build the §6.2 standard deployment (SPRITE defaults, `w/o-r`
/// schedule), reset its message bill, and run a traced evaluation of the
/// full test split at K = [`METRICS_K`] — ratios, the per-[`MsgKind`]
/// message and payload-byte bills, per-[`Phase`] event counts, and the
/// three cost histograms.
#[must_use]
pub fn metrics_rows(world: &World) -> Vec<Row> {
    let mut sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    sys.net_mut().reset_stats();
    let (ratios, mut rec) = world.evaluate_traced(&mut sys, &world.test, METRICS_K);
    // Exercise the removal path too: retire the first published document
    // after the evaluation, so the committed object carries a real
    // `index_remove` bill instead of a structurally-zero row. The ratios
    // above are already computed, so the probe cannot perturb them.
    let retired = (0..sys.corpus().len())
        .map(|i| sprite_ir::DocId(i as u32))
        .find(|&d| !sys.published_terms(d).is_empty());
    if let Some(doc) = retired {
        sys.enable_tracing();
        sys.unpublish_document(doc);
        if let Some(removal) = sys.take_tracer() {
            rec.merge(&removal);
        }
    }
    let mut m = Object::new("metrics");
    m.count("queries", world.test.len() as u64);
    m.count("k", METRICS_K as u64);
    m.ratio("precision_ratio", ratios.precision_ratio);
    m.count("events", rec.events());
    for k in MsgKind::all() {
        m.count(&format!("kind_counts.{}", k.name()), rec.kind_count(k));
    }
    for k in MsgKind::all() {
        m.count(&format!("kind_bytes.{}", k.name()), rec.kind_bytes(k));
    }
    m.count("total_bytes", rec.total_bytes());
    for p in Phase::all() {
        m.count(&format!("phase_events.{}", p.name()), rec.phase_count(p));
    }
    for (key, h) in [
        ("hops_per_lookup", rec.hops_per_lookup()),
        ("messages_per_query", rec.messages_per_query()),
        ("replicas_probed", rec.replicas_probed()),
    ] {
        for (i, &bucket) in h.buckets().iter().enumerate() {
            m.count(&format!("{key}.buckets[{i}]"), bucket);
        }
        m.count(&format!("{key}.count"), h.count());
        m.count(&format!("{key}.sum"), h.sum());
        m.count(&format!("{key}.max"), h.max());
    }
    m.rows
}

/// `fig4a`: Figure 4(a) — the precision ratio over the centralized
/// reference at every answer-list size K of [`FIG4_AXIS`], SPRITE (20
/// learned terms) against eSearch (20 static terms).
#[must_use]
pub fn fig4a_rows(world: &World) -> Vec<Row> {
    let fig = fig4a(world, &FIG4_AXIS);
    let mut o = Object::new("fig4a");
    for ((k, s), e) in FIG4_AXIS.iter().zip(&fig.sprite).zip(&fig.esearch) {
        o.ratio(&format!("k{k}.sprite"), s.precision);
        o.ratio(&format!("k{k}.esearch"), e.precision);
    }
    o.rows
}

/// `fig4b`: Figure 4(b) — the precision ratio at K = [`METRICS_K`] for
/// every indexed-term budget of [`FIG4_AXIS`]: SPRITE under the `w/o-r`
/// and `w-zipf` training schedules, and eSearch.
#[must_use]
pub fn fig4b_rows(world: &World) -> Vec<Row> {
    let fig = fig4b(world, &FIG4_AXIS, METRICS_K);
    let mut o = Object::new("fig4b");
    o.count("k", METRICS_K as u64);
    let series = [
        ("sprite_wor", &fig.sprite_wor),
        ("sprite_zipf", &fig.sprite_zipf),
        ("esearch", &fig.esearch),
    ];
    for (i, terms) in FIG4_AXIS.iter().enumerate() {
        for (name, points) in series {
            o.ratio(&format!("terms{terms}.{name}"), points[i].precision);
        }
    }
    o.rows
}

/// `fig4c`: Figure 4(c) — the precision ratio at K = [`METRICS_K`] after
/// each of [`FIG4C_ITERATIONS`] learning iterations under a 30-term cap,
/// with the query population switching at iteration `switch_at`.
#[must_use]
pub fn fig4c_rows(world: &World) -> Vec<Row> {
    let fig = fig4c(world, FIG4C_ITERATIONS, METRICS_K);
    let mut o = Object::new("fig4c");
    o.count("k", METRICS_K as u64);
    o.count("switch_at", fig.switch_at as u64);
    for (it, (s, e)) in fig.sprite.iter().zip(&fig.esearch).enumerate() {
        o.ratio(&format!("iter{}.sprite", it + 1), s.precision);
        o.ratio(&format!("iter{}.esearch", it + 1), e.precision);
    }
    o.rows
}

/// `cost`: the §1/§6 cost claims. `lookup`: mean and longest Chord route
/// over [`LOOKUPS_PER_SIZE`] lookups on converged rings of every size in
/// [`LOOKUP_SIZES`]. `publish`: the messages (`index_publish` +
/// `lookup_hop` + `replication`) and index entries of publishing every
/// document once — full-term indexing, eSearch's static top 20, SPRITE's
/// initial terms after training. `learn`: SPRITE's three learning
/// iterations after that, per [`MsgKind`].
#[must_use]
pub fn cost_rows(world: &World) -> Vec<Row> {
    let mut o = Object::new("cost");
    o.count("docs", world.synthetic.corpus().len() as u64);
    for n in LOOKUP_SIZES {
        let mut net = ChordNet::with_random_nodes(ChordConfig::default(), n, 7);
        let ids = net.node_ids();
        net.reset_stats();
        for i in 0..LOOKUPS_PER_SIZE {
            let key = RingId::hash_bytes(format!("probe-{i}").as_bytes());
            net.lookup(ids[i % ids.len()], key).expect("converged ring");
        }
        o.ratio(&format!("lookup.n{n}.mean_hops"), net.stats().mean_hops());
        o.count(
            &format!("lookup.n{n}.max_hops"),
            u64::from(net.stats().max_hops()),
        );
    }
    let publish = |sys: &mut SpriteSystem| -> u64 {
        sys.net_mut().reset_stats();
        sys.publish_all();
        let s = sys.net().stats();
        s.count(IndexPublish) + s.count(LookupHop) + s.count(Replication)
    };
    let mut full_term = world.new_system(SpriteConfig::esearch(usize::MAX));
    let mut esearch = world.new_system(SpriteConfig::esearch(20));
    let mut sprite = world.new_system(SpriteConfig::default());
    world.issue(&mut sprite, &world.train, Schedule::WithoutRepeats);
    let msgs = [&mut full_term, &mut esearch, &mut sprite].map(publish);
    sprite.net_mut().reset_stats();
    sprite.learn(3);
    // Entries are counted once SPRITE has learned up to its 20 terms.
    for ((name, sys), msgs) in [
        ("full_term", &full_term),
        ("esearch", &esearch),
        ("sprite", &sprite),
    ]
    .into_iter()
    .zip(msgs)
    {
        o.count(&format!("publish.{name}.msgs"), msgs);
        o.count(
            &format!("publish.{name}.entries"),
            sys.total_index_entries() as u64,
        );
    }
    let learned = sprite.net().stats();
    for kind in [LookupHop, LearnPoll, LearnReturn, IndexPublish, IndexRemove] {
        o.count(&format!("learn.{}", kind.name()), learned.count(kind));
    }
    o.rows
}

/// `ablation`: the precision ratio of SPRITE's design choices against
/// their alternatives (DESIGN.md §3), one standard deployment each —
/// term-score composition at budgets 20 and 8 under a repeating Zipf
/// schedule (with single-shot queries every QF is 1), the indexed df
/// against the true-df oracle, and Lee's second-method similarity
/// against retrieved-terms cosine.
#[must_use]
pub fn ablation_rows(world: &World) -> Vec<Row> {
    let zipf = Schedule::Zipf {
        slope: 0.5,
        total: world.train.len() * 3,
    };
    let score = |mode: ScoreMode| SpriteConfig {
        score_mode: mode,
        ..SpriteConfig::default()
    };
    // A tight budget forces the ranking to choose among queried terms.
    let tight = |mode: ScoreMode| SpriteConfig {
        max_terms: 8,
        terms_per_iteration: 1,
        ..score(mode)
    };
    let idf = |idf_mode| SpriteConfig {
        idf_mode,
        ..SpriteConfig::default()
    };
    let similarity = |similarity| SpriteConfig {
        similarity,
        ..SpriteConfig::default()
    };
    let wor = Schedule::WithoutRepeats;
    let jobs: Vec<(&str, SpriteConfig, Schedule)> = vec![
        ("score20.full", score(ScoreMode::Full), zipf),
        ("score20.qscore_only", score(ScoreMode::QScoreOnly), zipf),
        ("score20.qf_only", score(ScoreMode::QfOnly), zipf),
        ("score8.full", tight(ScoreMode::Full), zipf),
        ("score8.qscore_only", tight(ScoreMode::QScoreOnly), zipf),
        ("score8.qf_only", tight(ScoreMode::QfOnly), zipf),
        ("idf.indexed", idf(IdfMode::Indexed), wor),
        ("idf.true_df", idf(IdfMode::TrueDf), wor),
        (
            "similarity.lee_second",
            similarity(Similarity::LeeSecond),
            wor,
        ),
        (
            "similarity.cosine",
            similarity(Similarity::CosineTfIdf),
            wor,
        ),
    ];
    let ratios = par_map(&jobs, |_, (_, cfg, schedule)| {
        let mut sys = world.standard_system(cfg.clone(), *schedule);
        world
            .evaluate(&mut sys, &world.test, METRICS_K)
            .precision_ratio
    });
    let mut o = Object::new("ablation");
    for ((key, _, _), ratio) in jobs.iter().zip(ratios) {
        o.ratio(key, ratio);
    }
    o.rows
}

/// `churn`: the §7 study — [`CHURN_RATES`] × [`CHURN_REPLS`] through
/// [`churn_figure`] at [`CHURN_TICKS`] ticks of continuous engine-driven
/// peer churn, as ratio-to-ideal plus retention against the
/// same-replication zero-churn point.
#[must_use]
pub fn churn_rows(world: &World) -> Vec<Row> {
    // `churn_figure` seeds each point's churn engine by the point's place
    // in its sweep. The 0 / 2 / 5 % points keep the places they were first
    // gated at; the 10 % points are those of the whole 0 / 2 / 5 / 10 %
    // sweep, the one the churn study has always printed. One sweep over
    // `CHURN_RATES` alone would re-seed the replication-3 grid points.
    let top = CHURN_RATES[CHURN_RATES.len() - 1];
    let mut points = churn_figure(world, &CHURN_RATES[..3], &CHURN_REPLS, CHURN_TICKS).points;
    let whole = churn_figure(world, &CHURN_RATES, &CHURN_REPLS, CHURN_TICKS).points;
    points.extend(whole.into_iter().filter(|p| p.churn_rate == top));
    points.sort_by(|a, b| {
        (a.replication.cmp(&b.replication)).then(a.churn_rate.total_cmp(&b.churn_rate))
    });
    let mut c = Object::new("churn");
    c.count("ticks", CHURN_TICKS as u64);
    for p in &points {
        let key = format!("r{}_rate{}", p.replication, pct(p.churn_rate));
        c.ratio(&format!("{key}.precision"), p.precision);
        c.ratio(&format!("{key}.retention"), p.retention);
        c.ratio(&format!("{key}.messages_per_query"), p.messages_per_query);
        c.count(&format!("{key}.peers_after"), p.peers_after as u64);
    }
    c.rows
}

/// `loss`: [`LOSS_RATES`] × [`LOSS_REPLS`] through [`loss_figure`], with
/// deployments built over the lossy network model so drops hit
/// publication, maintenance and the query path alike. The event order is
/// seeded, so timeout counts are exact; within the run a lossless point
/// must bill none and a lossy point at least one.
#[must_use]
pub fn loss_rows(world: &World) -> Vec<Row> {
    let fig = loss_figure(world, &LOSS_RATES, &LOSS_REPLS);
    let mut l = Object::new("loss");
    l.count("k", METRICS_K as u64);
    for p in &fig.points {
        let key = format!("points.r{}_loss{}", p.replication, pct(p.loss));
        l.ratio(&format!("{key}.loss"), p.loss);
        l.count(&format!("{key}.replication"), p.replication as u64);
        l.ratio(&format!("{key}.precision"), p.precision);
        l.ratio(&format!("{key}.messages_per_query"), p.messages_per_query);
        let surfacing = if p.loss == 0.0 {
            Within::Zero
        } else {
            Within::AtLeast(1.0)
        };
        l.put(
            &format!("{key}.timeouts"),
            Value::Exact(p.timeouts),
            Some(surfacing),
        );
    }
    l.rows
}

/// `freshness`: [`FRESHNESS_RATES`] × [`FRESHNESS_REPLS`] through
/// [`freshness_figure`] at [`FRESHNESS_TICKS`] ticks of seeded document
/// churn, plus the incremental-vs-full update cost comparison. Within the
/// run no live query may surface a deleted document, no tombstone may
/// survive the closing maintenance round, and the incremental path must
/// clear [`UPDATE_SAVINGS_FLOOR`].
#[must_use]
pub fn freshness_rows(world: &World) -> Vec<Row> {
    let fig = freshness_figure(world, &FRESHNESS_RATES, &FRESHNESS_REPLS, FRESHNESS_TICKS);
    let mut f = Object::new("freshness");
    f.count("k", METRICS_K as u64);
    for p in &fig.points {
        let key = format!("points.r{}_rate{}", p.replication, pct(p.doc_churn));
        f.ratio(&format!("{key}.doc_churn"), p.doc_churn);
        f.count(&format!("{key}.replication"), p.replication as u64);
        f.ratio(&format!("{key}.precision"), p.precision);
        f.count(&format!("{key}.inserted"), p.inserted);
        f.count(&format!("{key}.updated"), p.updated);
        f.count(&format!("{key}.deleted"), p.deleted);
        f.count(
            &format!("{key}.tombstones_reclaimed"),
            p.tombstones_reclaimed,
        );
        f.put(
            &format!("{key}.pending_tombstones"),
            Value::Exact(p.pending_tombstones),
            Some(Within::Zero),
        );
        f.put(
            &format!("{key}.deleted_doc_hits"),
            Value::Exact(p.deleted_doc_hits),
            Some(Within::Zero),
        );
        f.count(&format!("{key}.stale_entries"), p.stale_entries);
        f.count(&format!("{key}.live_entries"), p.live_entries);
        f.count(&format!("{key}.live_docs"), p.live_docs);
        f.ratio(&format!("{key}.messages_per_query"), p.messages_per_query);
    }
    f.count("cost.updates", fig.cost.updates);
    f.count("cost.incremental_bytes", fig.cost.incremental_bytes);
    f.count("cost.republish_bytes", fig.cost.republish_bytes);
    f.put(
        "cost.savings_ratio",
        Value::Ratio(fig.cost.savings_ratio),
        Some(Within::AtLeast(UPDATE_SAVINGS_FLOOR)),
    );
    f.rows
}

/// `memory`: the footprint of the standard deployment. Every byte count
/// is *logical* — length-based sums over the ring's routing state and the
/// peers' posting lists, never allocator capacity — so the numbers are
/// pure functions of the deployment's contents.
#[must_use]
pub fn memory_rows(world: &World) -> Vec<Row> {
    let sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let peers = sys.net().len() as u64;
    let ring_bytes = sys.net().logical_state_bytes();
    let index_bytes = sys.logical_index_bytes();
    let plain_index_bytes = sys.plain_index_bytes();
    let mut m = Object::new("memory");
    m.count("peers", peers);
    m.count("ring_bytes", ring_bytes);
    m.count("index_bytes", index_bytes);
    m.count("plain_index_bytes", plain_index_bytes);
    m.count("total_bytes", ring_bytes + index_bytes);
    m.count("bytes_per_peer", (ring_bytes + index_bytes) / peers.max(1));
    m.ratio(
        "index_compression_ratio",
        plain_index_bytes as f64 / index_bytes.max(1) as f64,
    );
    m.rows
}

/// A collector: one object's rows, measured on a world.
pub type Collector = fn(&World) -> Vec<Row>;

/// Every gated object with its collector, in document order: the paper's
/// figures and studies first, then the ledgers.
pub const OBJECTS: [(&str, Collector); 10] = [
    ("fig4a", fig4a_rows),
    ("fig4b", fig4b_rows),
    ("fig4c", fig4c_rows),
    ("cost", cost_rows),
    ("churn", churn_rows),
    ("ablation", ablation_rows),
    ("metrics", metrics_rows),
    ("loss", loss_rows),
    ("freshness", freshness_rows),
    ("memory", memory_rows),
];

/// Every row of every object in [`OBJECTS`]. `--bin bench` writes these
/// rows and `--bin gate` compares them, so the committed file and the
/// gate's fresh run come from one code path.
#[must_use]
pub fn collect(world: &World) -> Vec<Row> {
    OBJECTS.iter().flat_map(|(_, rows)| rows(world)).collect()
}

/// Nest `rows` into the `BENCH_experiments.json` document for `scale`.
/// Rows sharing a path prefix must be adjacent (every collector emits them
/// so); consecutive `name[i]` rows become one inline array.
#[must_use]
pub fn to_json(scale: &str, rows: &[Row]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"scale\": \"{scale}\"");
    let mut open: Vec<&str> = Vec::new();
    let mut first = false;
    let mut i = 0;
    while i < rows.len() {
        let mut dirs: Vec<&str> = rows[i].path.split('.').collect();
        let leaf = dirs.pop().unwrap_or_default();
        let shared = open.iter().zip(&dirs).take_while(|(a, b)| a == b).count();
        while open.len() > shared {
            open.pop();
            out.push_str(&format!("\n{}}}", "  ".repeat(open.len() + 1)));
            first = false;
        }
        for dir in &dirs[shared..] {
            out.push_str(if first { "\n" } else { ",\n" });
            out.push_str(&format!("{}\"{dir}\": {{", "  ".repeat(open.len() + 1)));
            open.push(dir);
            first = true;
        }
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        let pad = "  ".repeat(open.len() + 1);
        if let Some(name) = leaf.strip_suffix("[0]") {
            let stem = &rows[i].path[..rows[i].path.len() - "[0]".len()];
            let mut items = Vec::new();
            while i < rows.len() && rows[i].path == format!("{stem}[{}]", items.len()) {
                items.push(rows[i].value.to_string());
                i += 1;
            }
            out.push_str(&format!("{pad}\"{name}\": [{}]", items.join(", ")));
        } else {
            out.push_str(&format!("{pad}\"{leaf}\": {}", rows[i].value));
            i += 1;
        }
    }
    while open.pop().is_some() {
        out.push_str(&format!("\n{}}}", "  ".repeat(open.len() + 1)));
    }
    out.push_str("\n}\n");
    out
}

/// One object's rows as text. A row with one segment after the object's
/// name prints as `name value`. Every other row is a cell of a Markdown
/// table: its row key is the path between the object's name and the last
/// segment, its column that last segment, and a new table starts wherever
/// the columns change. A `name[i]` run is one cell `name` of
/// space-separated values; ratios print at three decimals.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    // (row key, cells); an empty key is a scalar row.
    let mut lines: Vec<(&str, Vec<(&str, String)>)> = Vec::new();
    for row in rows {
        let rest = row.path.split_once('.').map_or("", |(_, rest)| rest);
        let (key, last) = rest.rsplit_once('.').unwrap_or(("", rest));
        let (column, continues) = match last.split_once('[') {
            Some((column, index)) => (column, index != "0]"),
            None => (last, false),
        };
        let cell = match row.value {
            Value::Exact(n) => n.to_string(),
            Value::Ratio(x) => format!("{x:.3}"),
        };
        match lines.last_mut() {
            Some((k, cells)) if continues && *k == key => {
                if let Some((_, joined)) = cells.last_mut() {
                    joined.push(' ');
                    joined.push_str(&cell);
                }
            }
            Some((k, cells)) if !key.is_empty() && *k == key => cells.push((column, cell)),
            _ => lines.push((key, vec![(column, cell)])),
        }
    }
    // Blocks — a run of scalars, or a table per header — are separated by
    // a blank line.
    let mut out = String::new();
    let mut block: Option<Vec<&str>> = None;
    for (key, cells) in &lines {
        let columns = (!key.is_empty()).then(|| cells.iter().map(|(c, _)| *c).collect());
        if columns != block {
            if !out.is_empty() {
                out.push('\n');
            }
            if let Some(columns) = &columns {
                let align = "--:|".repeat(columns.len());
                out.push_str(&format!("| | {} |\n|--|{align}\n", columns.join(" | ")));
            }
            block = columns;
        }
        let values: Vec<&str> = cells.iter().map(|(_, v)| v.as_str()).collect();
        if key.is_empty() {
            out.push_str(&format!("{} {}\n", cells[0].0, values[0]));
        } else {
            out.push_str(&format!("| {key} | {} |\n", values.join(" | ")));
        }
    }
    out
}

/// One line per [`Within`] requirement `rows` break; empty when the run
/// is sound on its own.
#[must_use]
pub fn violations(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter_map(|r| match r.within? {
            Within::AtLeast(min) if r.value.as_f64() < min => Some(format!(
                "{}: {} is below the floor of {min} this run must clear on its own",
                r.path, r.value
            )),
            Within::Zero if r.value.as_f64() != 0.0 => {
                Some(format!("{}: {} — must be 0 in every run", r.path, r.value))
            }
            _ => None,
        })
        .collect()
}

/// Figure 4(b): how far SPRITE@20 may read below eSearch@30 (`small`
/// 0.756 vs 0.762, `full` 0.923 vs 0.918).
pub const FIG4B_EPSILON: f64 = 0.01;

/// Floor on full-term over SPRITE publish messages (`small` 13.6×).
pub const FULL_TERM_FACTOR: f64 = 10.0;

/// How far a ring's mean lookup hops may stray from ½ log₂ N.
pub const HOPS_SLACK: f64 = 0.3;

/// How far the true-df oracle may move the indexed-df precision ratio.
pub const IDF_SLACK: f64 = 0.01;

/// §7's "little impact": replication 3's retention at every churn rate.
pub const RETENTION_FLOOR: f64 = 0.99;

/// The paper's shape claims as cross-row checks, one line per claim the
/// rows break (empty when all hold). A claim whose rows are absent is
/// skipped, so one object's verdicts can be read on their own.
///
/// These stay apart from [`violations`]: those are requirements every run
/// meets, these are claims about the paper's figures that need a world
/// large enough to show them. Two break at `tiny`, the scale of this
/// module's unit tests (seed 42) — Figure 4(b)'s SPRITE@20 reads 0.847
/// against eSearch@30's 0.905, and full-term indexing costs only 6.8×
/// SPRITE's publish messages; at the tests' seed 7, SPRITE also trails
/// eSearch at Figure 4(c)'s switch. `--bin bench` and `--bin gate` hold
/// them at `small`; `sprite figure all --scale full` holds them at `full`.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let value: BTreeMap<&str, f64> = rows
        .iter()
        .map(|r| (r.path.as_str(), r.value.as_f64()))
        .collect();
    let show = |x: f64| {
        if x.fract() == 0.0 {
            format!("{x}")
        } else {
            format!("{x:.6}")
        }
    };
    let mut broken = Vec::new();
    // The row at `a` against the row at `b`; a single-row claim names its
    // row twice.
    let mut check = |a: String, b: String, claim: &str, holds: &dyn Fn(f64, f64) -> bool| {
        let (Some(&x), Some(&y)) = (value.get(a.as_str()), value.get(b.as_str())) else {
            return;
        };
        if !holds(x, y) {
            let against = if a == b {
                String::new()
            } else {
                format!(" against {b} {}", show(y))
            };
            broken.push(format!("{a}: {}{against} — {claim}", show(x)));
        }
    };
    let ge = |x: f64, y: f64| x >= y;
    let eq = |x: f64, y: f64| x == y;

    for k in FIG4_AXIS.into_iter().filter(|&k| k >= 15) {
        let at = |series: &str| format!("fig4a.k{k}.{series}");
        let claim = "Figure 4(a): SPRITE >= eSearch for K >= 15";
        check(at("sprite"), at("esearch"), claim, &ge);
    }

    let at = |terms: usize, series: &str| format!("fig4b.terms{terms}.{series}");
    for series in ["sprite_wor", "sprite_zipf"] {
        let claim = "Figure 4(b): equal to eSearch at 5 terms";
        check(at(5, series), at(5, "esearch"), claim, &eq);
        for terms in &FIG4_AXIS[1..] {
            let claim = "Figure 4(b): SPRITE >= eSearch at every budget";
            check(at(*terms, series), at(*terms, "esearch"), claim, &ge);
        }
    }
    let claim = format!("Figure 4(b): SPRITE@20 >= eSearch@30 - {FIG4B_EPSILON}");
    let near = |x: f64, y: f64| x >= y - FIG4B_EPSILON;
    check(at(20, "sprite_wor"), at(30, "esearch"), &claim, &near);

    if let Some(&switch) = value.get("fig4c.switch_at") {
        let switch = switch as usize;
        let at = |it: usize, series: &str| format!("fig4c.iter{it}.{series}");
        for it in 1..=FIG4C_ITERATIONS {
            let claim = "Figure 4(c): SPRITE >= eSearch at every iteration";
            check(at(it, "sprite"), at(it, "esearch"), claim, &ge);
        }
        let claim = "Figure 4(c): a dip at the pattern switch";
        let before = switch.saturating_sub(1);
        check(
            at(switch, "sprite"),
            at(before, "sprite"),
            claim,
            &|x, y| x < y,
        );
        let claim = "Figure 4(c): recovery one iteration after the switch";
        check(
            at(switch + 1, "sprite"),
            at(switch, "sprite"),
            claim,
            &|x, y| x > y,
        );
        for it in switch + 1..=FIG4C_ITERATIONS {
            let claim = "Figure 4(c): eSearch constant from the switch on";
            check(at(it, "esearch"), at(switch, "esearch"), claim, &eq);
        }
    }

    let claim = format!("cost: full-term >= {FULL_TERM_FACTOR}x SPRITE's publish messages");
    let (full_term, sprite) = ("cost.publish.full_term.msgs", "cost.publish.sprite.msgs");
    let factor = |x: f64, y: f64| x >= FULL_TERM_FACTOR * y;
    check(full_term.into(), sprite.into(), &claim, &factor);
    for n in LOOKUP_SIZES {
        let half_log = 0.5 * (n as f64).log2();
        let claim = format!("cost: mean hops within {HOPS_SLACK} of 1/2 log2 N = {half_log}");
        let hops = format!("cost.lookup.n{n}.mean_hops");
        let near = |x: f64, _: f64| (x - half_log).abs() <= HOPS_SLACK;
        check(hops.clone(), hops, &claim, &near);
    }

    let claim = format!("ablation 2: the true-df oracle within {IDF_SLACK} of indexed df");
    let (oracle, indexed) = ("ablation.idf.true_df", "ablation.idf.indexed");
    let near = |x: f64, y: f64| (x - y).abs() <= IDF_SLACK;
    check(oracle.into(), indexed.into(), &claim, &near);

    for rate in CHURN_RATES {
        let claim = format!("§7: replication 3 retains >= {RETENTION_FLOOR} at every rate");
        let retention = format!("churn.r3_rate{}.retention", pct(rate));
        check(retention.clone(), retention, &claim, &|x, _| {
            x >= RETENTION_FLOOR
        });
    }
    let claim = "§7: without replication the top churn rate costs quality";
    let top = format!("churn.r1_rate{}.retention", pct(CHURN_RATES[3]));
    check(top.clone(), top, claim, &|x, _| x < 1.0);
    broken
}

/// Every leaf of a parsed document as `path → number` (`None` for a leaf
/// that is not a number), arrays indexed as `path[i]`.
fn flatten(v: &JsonValue, path: &str, out: &mut BTreeMap<String, Option<f64>>) {
    match v {
        JsonValue::Obj(members) => {
            for (key, member) in members {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(member, &sub, out);
            }
        }
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{path}[{i}]"), out);
            }
        }
        leaf => {
            out.insert(path.to_string(), leaf.as_f64());
        }
    }
}

/// The numeric leaves of a parsed baseline as rows, for reading
/// [`verdicts`] off a committed file. The document does not record a row's
/// tolerance class, so every value comes back as a [`Value::Ratio`].
#[must_use]
pub fn baseline_rows(baseline: &JsonValue) -> Vec<Row> {
    let mut leaves = BTreeMap::new();
    flatten(baseline, "", &mut leaves);
    leaves
        .into_iter()
        .filter_map(|(path, value)| {
            Some(Row {
                path,
                value: Value::Ratio(value?),
                within: None,
            })
        })
        .collect()
}

/// The top-level object a path belongs to.
fn object_of(path: &str) -> &str {
    path.split(['.', '[']).next().unwrap_or(path)
}

/// Diff `rows` against a parsed `BENCH_experiments.json`. Returns one
/// readable line per divergence (empty means the gate passes): first the
/// run's own [`violations`], then per row [`Value::Exact`] equality or
/// [`Value::Ratio`] within [`RATIO_TOLERANCE`], then — the other direction
/// — every baseline field the run did not produce. A whole object absent
/// on either side is one "regenerate" line, not one line per field. The
/// header strings (`schema`, `scale`) are the caller's to check.
#[must_use]
pub fn compare(rows: &[Row], baseline: &JsonValue) -> Vec<String> {
    const REGENERATE: &str = "regenerate BENCH_experiments.json with --bin bench";
    let mut diffs = violations(rows);
    let mut base = BTreeMap::new();
    flatten(baseline, "", &mut base);
    base.remove("schema");
    base.remove("scale");
    let mut produced: Vec<&str> = Vec::new();
    for row in rows {
        let object = object_of(&row.path);
        let in_baseline = baseline.get(object).is_some();
        if !produced.contains(&object) {
            produced.push(object);
            if !in_baseline {
                diffs.push(format!(
                    "{object}: object missing from baseline ({REGENERATE})"
                ));
            }
        }
        if !in_baseline {
            continue;
        }
        let path = &row.path;
        match (base.remove(path).flatten(), row.value) {
            (None, _) => diffs.push(format!("{path}: missing from baseline")),
            (Some(b), Value::Exact(c)) if b != c as f64 => diffs.push(format!(
                "{path}: baseline {b}, current {c} (delta {})",
                c as f64 - b
            )),
            (Some(b), Value::Ratio(c)) if (b - c).abs() > RATIO_TOLERANCE => diffs.push(format!(
                "{path}: baseline {b:.12}, current {c:.12} (|delta| {:.3e} > {RATIO_TOLERANCE:.0e})",
                (b - c).abs()
            )),
            _ => {}
        }
    }
    let mut stale: Vec<&str> = Vec::new();
    for path in base.keys() {
        let object = object_of(path);
        if produced.contains(&object) {
            diffs.push(format!(
                "{path}: in the baseline, but this run does not produce it"
            ));
        } else if !stale.contains(&object) {
            stale.push(object);
            diffs.push(format!(
                "{object}: in the baseline, but this run produces nothing under it ({REGENERATE})"
            ));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use sprite_core::WorldConfig;
    use std::sync::OnceLock;

    /// The full table at tiny scale, collected once for the whole module.
    fn rows() -> &'static [Row] {
        static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
        ROWS.get_or_init(|| collect(&World::build(WorldConfig::tiny(7))))
    }

    fn get(rows: &[Row], path: &str) -> f64 {
        rows.iter()
            .find(|r| r.path == path)
            .unwrap_or_else(|| panic!("no row {path}"))
            .value
            .as_f64()
    }

    /// `rows` with the value at `path` moved by `delta`, class kept.
    fn nudged(rows: &[Row], path: &str, delta: f64) -> Vec<Row> {
        let mut out = rows.to_vec();
        let row = out
            .iter_mut()
            .find(|r| r.path == path)
            .unwrap_or_else(|| panic!("no row {path}"));
        row.value = match row.value {
            Value::Exact(n) => Value::Exact((n as f64 + delta) as u64),
            Value::Ratio(x) => Value::Ratio(x + delta),
        };
        out
    }

    fn parsed(rows: &[Row]) -> JsonValue {
        json::parse(&to_json("tiny", rows)).expect("serializer emits valid JSON")
    }

    #[test]
    fn every_object_round_trips_and_is_sound() {
        let rows = rows();
        let baseline = parsed(rows);
        assert_eq!(compare(rows, &baseline), Vec::<String>::new());
        for (object, _) in OBJECTS {
            assert!(baseline.get(object).is_some(), "{object} not serialized");
        }
        assert_eq!(
            baseline.get("schema").and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
        // Histogram buckets are written as arrays, not as `[i]` keys.
        let buckets = baseline
            .path(&["metrics", "hops_per_lookup", "buckets"])
            .and_then(JsonValue::as_arr)
            .expect("bucket array");
        assert_eq!(
            buckets.iter().filter_map(JsonValue::as_u64).sum::<u64>(),
            get(rows, "metrics.hops_per_lookup.count") as u64
        );

        // What each object must say about the run, whatever the baseline.
        let sum = |prefix: &str| -> f64 {
            rows.iter()
                .filter(|r| r.path.starts_with(prefix))
                .map(|r| r.value.as_f64())
                .sum()
        };
        assert!(get(rows, "metrics.events") > 0.0);
        assert_eq!(get(rows, "metrics.total_bytes"), sum("metrics.kind_bytes."));
        assert!(
            get(rows, "metrics.kind_counts.index_remove") > 0.0
                && get(rows, "metrics.kind_bytes.index_remove") > 0.0,
            "the retirement probe must bill the removal path"
        );
        for requirement in [Within::Zero, Within::AtLeast(1.0)] {
            assert!(
                rows.iter()
                    .any(|r| r.path.ends_with(".timeouts") && r.within == Some(requirement)),
                "the loss sweep must carry a {requirement:?} point"
            );
        }
        assert_eq!(get(rows, "freshness.points.r1_rate0.stale_entries"), 0.0);
        assert_eq!(get(rows, "freshness.points.r1_rate0.deleted"), 0.0);
        assert!(
            get(rows, "freshness.points.r1_rate50.deleted") > 0.0
                && get(rows, "freshness.points.r1_rate50.tombstones_reclaimed") > 0.0,
            "the churned points must exercise deletion and reclamation"
        );
        assert_eq!(
            get(rows, "memory.total_bytes"),
            get(rows, "memory.ring_bytes") + get(rows, "memory.index_bytes")
        );
        assert!(
            get(rows, "memory.index_bytes") < get(rows, "memory.plain_index_bytes")
                && get(rows, "memory.index_compression_ratio") > 1.0,
            "packed postings must undercut the plain layout"
        );
        assert_eq!(get(rows, "churn.r3_rate0.retention"), 1.0);
    }

    #[test]
    fn one_perturbed_field_is_one_diff_line_in_every_object_and_class() {
        let rows = rows();
        for (path, delta) in [
            ("metrics.kind_counts.lookup_hop", 1.0),     // count
            ("metrics.precision_ratio", 1e-6),           // ratio
            ("metrics.hops_per_lookup.buckets[1]", 1.0), // histogram bucket
            ("fig4a.k20.sprite", 1e-6),
            ("fig4b.terms10.sprite_zipf", -1e-6),
            ("fig4c.iter6.esearch", 1e-6),
            ("cost.publish.sprite.msgs", 1.0),
            ("cost.learn.lookup_hop", -1.0),
            ("cost.lookup.n256.mean_hops", 1e-6),
            ("ablation.idf.true_df", -1e-6),
            ("churn.r1_rate10.retention", -1e-6),
            ("churn.r1_rate5.retention", -1e-6),
            ("churn.r3_rate2.peers_after", 1.0),
            ("loss.points.r3_loss5.timeouts", 1.0),
            ("loss.points.r1_loss2.messages_per_query", 1e-6),
            ("freshness.points.r1_rate50.deleted", 1.0),
            ("freshness.cost.savings_ratio", 1e-6),
            ("memory.ring_bytes", 1.0),
            ("memory.index_compression_ratio", -1e-6),
        ] {
            let diffs = compare(rows, &parsed(&nudged(rows, path, delta)));
            assert_eq!(diffs.len(), 1, "{path}: {diffs:?}");
            assert!(diffs[0].starts_with(&format!("{path}: baseline ")));
        }
        // The 12-decimal rendering itself stays inside the tolerance.
        let diffs = compare(
            rows,
            &parsed(&nudged(rows, "metrics.precision_ratio", 1e-10)),
        );
        assert_eq!(diffs, Vec::<String>::new());
    }

    #[test]
    fn broken_within_run_requirements_fail_against_a_matching_baseline() {
        let rows = rows();
        for (path, to, needle) in [
            ("loss.points.r1_loss0.timeouts", 3.0, "must be 0"),
            ("loss.points.r3_loss2.timeouts", 0.0, "below the floor of 1"),
            (
                "freshness.points.r1_rate50.deleted_doc_hits",
                1.0,
                "must be 0",
            ),
            (
                "freshness.points.r3_rate50.pending_tombstones",
                2.0,
                "must be 0",
            ),
            (
                "freshness.cost.savings_ratio",
                UPDATE_SAVINGS_FLOOR / 2.0,
                "below the floor of 0.3",
            ),
        ] {
            let broken = nudged(rows, path, to - get(rows, path));
            let diffs = compare(&broken, &parsed(&broken));
            assert_eq!(diffs.len(), 1, "{path}: {diffs:?}");
            assert!(
                diffs[0].starts_with(path) && diffs[0].contains(needle),
                "{diffs:?}"
            );
            assert_eq!(diffs, violations(&broken));
        }
        assert_eq!(violations(rows), Vec::<String>::new());
    }

    #[test]
    fn the_diff_runs_in_both_directions() {
        let rows = rows();
        // A baseline with no objects at all: one "regenerate" line each.
        let empty = json::parse("{\"schema\": \"sprite-bench/v1\"}").expect("valid");
        let diffs = compare(rows, &empty);
        assert_eq!(diffs.len(), OBJECTS.len(), "{diffs:?}");
        for ((object, _), diff) in OBJECTS.iter().zip(&diffs) {
            assert!(
                diff.starts_with(&format!("{object}: object missing"))
                    && diff.contains("regenerate")
            );
        }
        // A row the baseline lacks.
        let without: Vec<Row> = rows
            .iter()
            .filter(|r| r.path != "memory.peers")
            .cloned()
            .collect();
        assert_eq!(
            compare(rows, &parsed(&without)),
            ["memory.peers: missing from baseline"]
        );
        // The other direction: a field the run stopped producing …
        assert_eq!(
            compare(&without, &parsed(rows)),
            ["memory.peers: in the baseline, but this run does not produce it"]
        );
        // … an extra key injected into a serialized baseline …
        let injected =
            to_json("tiny", rows).replacen("\"peers\":", "\"build_ms\": 504.4,\n    \"peers\":", 1);
        let diffs = compare(rows, &json::parse(&injected).expect("still parses"));
        assert_eq!(
            diffs,
            ["memory.build_ms: in the baseline, but this run does not produce it"]
        );
        // … and a stale object left in the file, however many fields deep.
        let stale = to_json("tiny", rows).replacen(
            "\"churn\":",
            "\"throughput\": {\"bit_identical\": true, \"sweep\": [{\"workers\": 1}, \
             {\"workers\": 4}]},\n  \"churn\":",
            1,
        );
        let diffs = compare(rows, &json::parse(&stale).expect("still parses"));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].starts_with("throughput: in the baseline, but this run produces nothing")
                && diffs[0].contains("regenerate")
        );
    }

    #[test]
    fn a_second_run_reproduces_every_object() {
        let again = collect(&World::build(WorldConfig::tiny(7)));
        assert_eq!(rows(), again);
    }

    /// Rows that satisfy every verdict, by hand: at `tiny` Figure 4(b)'s
    /// SPRITE@20 and the full-term cost factor fall short of the paper.
    fn shapely() -> Vec<Row> {
        let mut table: Vec<(String, f64)> = vec![("fig4c.switch_at".into(), 6.0)];
        for k in FIG4_AXIS {
            table.push((format!("fig4a.k{k}.sprite"), 0.9));
            table.push((format!("fig4a.k{k}.esearch"), 0.8));
            let (sprite, esearch) = if k == 5 {
                (0.5, 0.5)
            } else {
                (0.95, 0.6 + k as f64 / 100.0)
            };
            table.push((format!("fig4b.terms{k}.sprite_wor"), sprite));
            table.push((format!("fig4b.terms{k}.sprite_zipf"), sprite));
            table.push((format!("fig4b.terms{k}.esearch"), esearch));
        }
        for it in 1..=FIG4C_ITERATIONS {
            let sprite = [0.8, 0.7, 0.75][usize::from(it >= 6) + usize::from(it >= 7)];
            table.push((format!("fig4c.iter{it}.sprite"), sprite));
            table.push((format!("fig4c.iter{it}.esearch"), 0.6));
        }
        for n in LOOKUP_SIZES {
            table.push((
                format!("cost.lookup.n{n}.mean_hops"),
                0.5 * (n as f64).log2(),
            ));
        }
        table.push(("cost.publish.full_term.msgs".into(), 1000.0));
        table.push(("cost.publish.sprite.msgs".into(), 10.0));
        table.push(("ablation.idf.indexed".into(), 0.9));
        table.push(("ablation.idf.true_df".into(), 0.9));
        for rate in CHURN_RATES {
            let r1 = if rate == 0.10 { 0.9 } else { 1.0 };
            table.push((format!("churn.r1_rate{}.retention", pct(rate)), r1));
            table.push((format!("churn.r3_rate{}.retention", pct(rate)), 1.0));
        }
        table
            .into_iter()
            .map(|(path, x)| Row {
                path,
                value: Value::Ratio(x),
                within: None,
            })
            .collect()
    }

    #[test]
    fn one_broken_claim_is_one_verdict_line_naming_its_row() {
        let shapely = shapely();
        assert_eq!(verdicts(&shapely), Vec::<String>::new());
        for (path, to) in [
            ("fig4a.k15.sprite", 0.7),          // SPRITE behind at K >= 15
            ("fig4b.terms5.sprite_zipf", 0.51), // unequal before learning
            ("fig4b.terms10.sprite_zipf", 0.6), // SPRITE behind at a budget
            ("fig4b.terms20.sprite_wor", 0.85), // SPRITE@20 < eSearch@30 - ε
            ("fig4c.iter2.sprite", 0.5),        // SPRITE behind at an iteration
            ("fig4c.iter5.sprite", 0.65),       // no dip at the switch
            ("fig4c.iter7.sprite", 0.7),        // no recovery after it
            ("fig4c.iter8.esearch", 0.61),      // eSearch moves after its cap
            ("cost.publish.full_term.msgs", 50.0),
            ("cost.lookup.n256.mean_hops", 4.5),
            ("ablation.idf.true_df", 0.95),
            ("churn.r3_rate5.retention", 0.98),
            ("churn.r1_rate10.retention", 1.0),
        ] {
            let broken = nudged(&shapely, path, to - get(&shapely, path));
            let lines = verdicts(&broken);
            assert_eq!(lines.len(), 1, "{path}: {lines:?}");
            assert!(lines[0].contains(path), "{path}: {lines:?}");
        }
        // A claim whose rows are absent is not judged.
        assert_eq!(verdicts(&shapely[..1]), Vec::<String>::new());
        // The two claims the doc comment names fall short at tiny scale.
        let tiny = verdicts(rows());
        for path in ["fig4b.terms20.sprite_wor", "cost.publish.full_term.msgs"] {
            assert!(tiny.iter().any(|line| line.starts_with(path)), "{tiny:?}");
        }
    }
}
