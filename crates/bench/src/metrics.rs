//! The machine-readable `metrics` object and the regression-gate
//! comparison.
//!
//! [`collect_metrics`] runs the §6.2 standard deployment through a traced
//! evaluation of the full test split and packages everything deterministic
//! about it: the precision/recall ratios (exact to the bit at equal seeds),
//! the per-[`MsgKind`] message bill *and* payload-byte bill, per-phase
//! event counts, and the three cost histograms (hops per lookup, messages
//! per query, replicas probed).
//! `--bin bench` embeds the object in `BENCH_experiments.json`; `--bin
//! gate` recomputes it from a fresh run and diffs it against the committed
//! baseline with [`compare_against_baseline`], failing CI on any drift.
//!
//! Tolerances are declared here, next to the comparison that uses them:
//! ratios must agree within [`RATIO_TOLERANCE`] (they are deterministic;
//! the slack only absorbs the 12-digit decimal round-trip through JSON),
//! and every integer — counts, histogram buckets, sums — must agree within
//! [`COUNT_TOLERANCE`], which is zero: the simulation has no legitimate
//! source of count jitter.

use std::fmt::Write as _;
use std::time::Instant;

use sprite_chord::{MsgKind, Phase, TraceRecorder};
use sprite_core::{
    freshness_figure, loss_figure, FreshnessFigure, LossFigure, SpriteConfig, SpriteSystem, World,
};
use sprite_corpus::Schedule;
use sprite_util::{override_threads, Histogram};

use crate::json::JsonValue;

/// Absolute tolerance for precision/recall ratios: deterministic values
/// that only round-trip through a 12-decimal JSON rendering.
pub const RATIO_TOLERANCE: f64 = 1e-9;

/// Absolute tolerance for every integer metric. Zero by design: message
/// counts and histogram buckets are exactly reproducible at equal seeds.
pub const COUNT_TOLERANCE: u64 = 0;

/// Relative band for throughput comparisons. Queries/sec and the speedup
/// ratio are the only gated quantities that involve wall-clock time, so
/// the band is wide: the gate fires only when the current run falls below
/// `baseline * (1 - THROUGHPUT_TOLERANCE)` — a real regression, not
/// scheduler jitter. Improvements always pass. Raw millisecond fields are
/// advisory and never compared.
pub const THROUGHPUT_TOLERANCE: f64 = 0.5;

/// The answer-list size the metrics evaluation uses (the paper's K = 20).
pub const METRICS_K: usize = 20;

/// Bernoulli loss rates swept by the committed loss study. 0.0 anchors
/// the lossless baseline; the lossy points must bill real timeouts.
pub const LOSS_RATES: [f64; 3] = [0.0, 0.02, 0.05];

/// Replication degrees swept by the committed loss study: unreplicated
/// versus the §7 default of 3, to show replication absorbing loss.
pub const LOSS_REPLS: [usize; 2] = [1, 3];

/// Document-churn rates swept by the committed freshness study. 0.0
/// anchors the frozen-corpus baseline (zero events, zero staleness); the
/// churned point exercises the full insert/update/delete lifecycle.
pub const FRESHNESS_RATES: [f64; 2] = [0.0, 0.5];

/// Replication degrees swept by the committed freshness study:
/// unreplicated versus the §7 default of 3, to show deletions clearing
/// from replicas too.
pub const FRESHNESS_REPLS: [usize; 2] = [1, 3];

/// Document-churn ticks per freshness point. A maintenance round runs
/// every second tick plus a closing round, so every tombstone raised by
/// the stream is reclaimed before evaluation.
pub const FRESHNESS_TICKS: usize = 6;

/// Acceptance floor for the incremental-update savings ratio: the
/// diff-only publication path must bill at least this fraction fewer
/// bytes than delete+republish of the same edits.
pub const UPDATE_SAVINGS_FLOOR: f64 = 0.30;

/// A histogram flattened for serialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSummary {
    /// Every bucket, last one the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistSummary {
    fn of(h: &Histogram) -> Self {
        HistSummary {
            buckets: h.buckets().to_vec(),
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
        }
    }
}

/// Everything deterministic about a traced standard-system evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Test queries evaluated.
    pub queries: u64,
    /// Answer-list size.
    pub k: usize,
    /// Precision ratio over the centralized reference.
    pub precision_ratio: f64,
    /// Recall ratio over the centralized reference.
    pub recall_ratio: f64,
    /// Total traced events.
    pub events: u64,
    /// Per-kind message counts, in [`MsgKind::all`] order.
    pub kind_counts: Vec<(&'static str, u64)>,
    /// Per-kind payload bytes, in [`MsgKind::all`] order. Control kinds
    /// (hops, failures, maintenance probes) are 0 by the wire model.
    pub kind_bytes: Vec<(&'static str, u64)>,
    /// Total payload bytes across all kinds.
    pub total_bytes: u64,
    /// Per-phase event counts, in [`Phase::all`] order.
    pub phase_events: Vec<(&'static str, u64)>,
    /// Hops per completed lookup.
    pub hops_per_lookup: HistSummary,
    /// Messages billed per query.
    pub messages_per_query: HistSummary,
    /// Failover replicas probed per query.
    pub replicas_probed: HistSummary,
}

/// Build the §6.2 standard deployment (SPRITE defaults, `w/o-r` schedule),
/// reset its message bill, and run a traced evaluation of the full test
/// split at K = [`METRICS_K`]. Both `--bin bench` and `--bin gate` call
/// this, so the committed object and the gate's fresh run are computed by
/// the same code path.
#[must_use]
pub fn collect_metrics(world: &World) -> Metrics {
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
    metrics_from(world.test.len() as u64, &ratios_pair(&ratios), &rec)
}

fn ratios_pair(r: &sprite_ir::RatioEval) -> (f64, f64) {
    (r.precision_ratio, r.recall_ratio)
}

fn metrics_from(queries: u64, &(precision, recall): &(f64, f64), rec: &TraceRecorder) -> Metrics {
    Metrics {
        queries,
        k: METRICS_K,
        precision_ratio: precision,
        recall_ratio: recall,
        events: rec.events(),
        kind_counts: MsgKind::all()
            .iter()
            .map(|&k| (k.name(), rec.kind_count(k)))
            .collect(),
        kind_bytes: MsgKind::all()
            .iter()
            .map(|&k| (k.name(), rec.kind_bytes(k)))
            .collect(),
        total_bytes: rec.total_bytes(),
        phase_events: Phase::all()
            .iter()
            .map(|&p| (p.name(), rec.phase_count(p)))
            .collect(),
        hops_per_lookup: HistSummary::of(rec.hops_per_lookup()),
        messages_per_query: HistSummary::of(rec.messages_per_query()),
        replicas_probed: HistSummary::of(rec.replicas_probed()),
    }
}

/// One point of the thread sweep: the batched pipeline timed at a fixed
/// worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputPoint {
    /// Pool workers actually used for this measurement.
    pub workers: usize,
    /// Mean wall-clock milliseconds per full-workload evaluation.
    pub ms_per_eval: f64,
    /// Queries served per second at this width.
    pub queries_per_sec: f64,
    /// `queries_per_sec / (one-worker queries_per_sec × workers)`: 1.0 is
    /// perfect scaling, and on a single-core host every multi-worker point
    /// is expected to sit well below it.
    pub efficiency: f64,
}

/// The headline throughput object: the batched query pipeline measured
/// against the sequential unbatched reference, plus a worker-count sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Throughput {
    /// Queries per evaluation (the full generated workload — serving
    /// throughput is about volume, so the batch is every query the world
    /// has, not just the held-out test half).
    pub queries: u64,
    /// Answer-list size.
    pub k: usize,
    /// Timed repetitions per measurement (self-calibrated).
    pub repetitions: usize,
    /// `available_parallelism` of the measuring host.
    pub cores: usize,
    /// Workers used by the reference measurement (always 1).
    pub reference_workers: usize,
    /// Milliseconds per evaluation through [`World::evaluate_reference`]
    /// — the sequential, unbatched, per-query path.
    pub reference_ms: f64,
    /// Queries per second through the reference path.
    pub reference_qps: f64,
    /// Workers used by the headline batched measurement.
    pub batched_workers: usize,
    /// Milliseconds per evaluation through the batched pipeline.
    pub batched_ms: f64,
    /// Queries per second through the batched pipeline.
    pub batched_qps: f64,
    /// `batched_qps / reference_qps` — the headline speedup.
    pub speedup_vs_reference: f64,
    /// True when the batched pipeline reproduced the reference evaluation
    /// bit for bit (ratio float bits and the full merged stats ledger).
    pub bit_identical: bool,
    /// The batched pipeline at 1/2/`batched_workers` pool workers.
    pub sweep: Vec<ThroughputPoint>,
}

/// Mean milliseconds per call over `reps` invocations, three decimals.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    (t0.elapsed().as_secs_f64() * 1000.0 / reps as f64 * 1000.0).round() / 1000.0
}

fn qps(queries: u64, ms_per_eval: f64) -> f64 {
    (queries as f64 * 1000.0 / ms_per_eval.max(1e-6) * 10.0).round() / 10.0
}

/// Measure the headline throughput object on a freshly trained standard
/// deployment: the sequential unbatched reference at one worker versus the
/// batched pipeline at `headline_workers`, plus a 1/2/`headline_workers`
/// sweep of the batched pipeline. Also verifies the bit-identity contract
/// the determinism auditor enforces — identical ratio bits and merged
/// stats across the two paths. `--bin bench` embeds the result in
/// `BENCH_experiments.json`; `--bin gate` recomputes it and band-compares
/// the speed figures with [`compare_throughput`].
#[must_use]
pub fn measure_throughput(world: &World, headline_workers: usize) -> Throughput {
    let mut sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    // Serve the whole generated workload per evaluation: throughput is a
    // volume measurement, and the bigger batch amortizes the pool's
    // fixed spawn cost the way a real serving window would.
    let indices: Vec<usize> = (0..world.workload.len()).collect();
    let queries = indices.len() as u64;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Bit-identity first: one reference pass and one batched pass from a
    // clean ledger each, compared on exact float bits and full stats.
    let prev = override_threads(1);
    sys.net_mut().reset_stats();
    let (r_ref, first_ms) = {
        let t0 = Instant::now();
        let r = world.evaluate_reference(&mut sys, &indices, METRICS_K);
        (r, t0.elapsed().as_secs_f64() * 1000.0)
    };
    let stats_ref = sys.net().stats().clone();
    override_threads(headline_workers);
    sys.net_mut().reset_stats();
    let r_bat = world.evaluate(&mut sys, &indices, METRICS_K);
    let stats_bat = sys.net().stats().clone();
    let bit_identical = r_ref.precision_ratio.to_bits() == r_bat.precision_ratio.to_bits()
        && r_ref.recall_ratio.to_bits() == r_bat.recall_ratio.to_bits()
        && r_ref.queries == r_bat.queries
        && stats_ref == stats_bat;

    // One evaluation at small scale is milliseconds; repeat until each
    // timing is dominated by the work, not the clock.
    let repetitions = ((250.0 / first_ms.max(0.1)).ceil() as usize).clamp(1, 500);
    override_threads(1);
    let reference_ms = time_reps(repetitions, || {
        std::hint::black_box(world.evaluate_reference(&mut sys, &indices, METRICS_K));
    });

    let mut widths = vec![1usize, 2, headline_workers];
    widths.sort_unstable();
    widths.dedup();
    let mut sweep = Vec::with_capacity(widths.len());
    for &workers in &widths {
        override_threads(workers);
        let ms_per_eval = time_reps(repetitions, || {
            std::hint::black_box(world.evaluate(&mut sys, &indices, METRICS_K));
        });
        sweep.push(ThroughputPoint {
            workers,
            ms_per_eval,
            queries_per_sec: qps(queries, ms_per_eval),
            efficiency: 0.0,
        });
    }
    override_threads(prev);
    let base_qps = sweep[0].queries_per_sec;
    for p in &mut sweep {
        p.efficiency =
            (p.queries_per_sec / (base_qps * p.workers as f64).max(1e-6) * 1000.0).round() / 1000.0;
    }

    let batched = sweep
        .iter()
        .find(|p| p.workers == headline_workers)
        .expect("headline width is in the sweep")
        .clone();
    Throughput {
        queries,
        k: METRICS_K,
        repetitions,
        cores,
        reference_workers: 1,
        reference_ms,
        reference_qps: qps(queries, reference_ms),
        batched_workers: headline_workers,
        batched_ms: batched.ms_per_eval,
        batched_qps: batched.queries_per_sec,
        speedup_vs_reference: if batched.ms_per_eval > 0.0 {
            (reference_ms / batched.ms_per_eval * 100.0).round() / 100.0
        } else {
            0.0
        },
        bit_identical,
        sweep,
    }
}

/// Serialize a [`Throughput`] as a JSON object value, same conventions as
/// [`metrics_json`].
#[must_use]
pub fn throughput_json(t: &Throughput, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "{pad}\"queries\": {},", t.queries);
    let _ = writeln!(out, "{pad}\"k\": {},", t.k);
    let _ = writeln!(out, "{pad}\"repetitions\": {},", t.repetitions);
    let _ = writeln!(out, "{pad}\"cores\": {},", t.cores);
    let _ = writeln!(out, "{pad}\"reference_workers\": {},", t.reference_workers);
    let _ = writeln!(out, "{pad}\"reference_ms\": {},", t.reference_ms);
    let _ = writeln!(out, "{pad}\"reference_qps\": {},", t.reference_qps);
    let _ = writeln!(out, "{pad}\"batched_workers\": {},", t.batched_workers);
    let _ = writeln!(out, "{pad}\"batched_ms\": {},", t.batched_ms);
    let _ = writeln!(out, "{pad}\"batched_qps\": {},", t.batched_qps);
    let _ = writeln!(
        out,
        "{pad}\"speedup_vs_reference\": {},",
        t.speedup_vs_reference
    );
    let _ = writeln!(out, "{pad}\"bit_identical\": {},", t.bit_identical);
    let _ = writeln!(out, "{pad}\"sweep\": [");
    for (i, p) in t.sweep.iter().enumerate() {
        let comma = if i + 1 == t.sweep.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{pad}  {{\"workers\": {}, \"ms_per_eval\": {}, \"queries_per_sec\": {}, \
             \"efficiency\": {}}}{comma}",
            p.workers, p.ms_per_eval, p.queries_per_sec, p.efficiency
        );
    }
    let _ = writeln!(out, "{pad}]");
    let _ = write!(out, "{}}}", "  ".repeat(indent));
    out
}

/// Diff a freshly measured [`Throughput`] against the committed baseline.
/// Structure (queries, k, worker counts, sweep shape) and the
/// `bit_identical` flag are exact; `batched_qps` and
/// `speedup_vs_reference` are gated with the one-sided
/// [`THROUGHPUT_TOLERANCE`] band (only a drop below
/// `baseline × (1 − band)` fails); raw millisecond fields are advisory
/// and never compared.
#[must_use]
pub fn compare_throughput(current: &Throughput, baseline: &JsonValue) -> Vec<String> {
    let mut diffs = Vec::new();
    let Some(t) = baseline.get("throughput") else {
        diffs.push(
            "throughput: object missing from baseline (regenerate BENCH_experiments.json with \
             --bin bench)"
                .to_string(),
        );
        return diffs;
    };
    let u = |key: &str| t.get(key).and_then(JsonValue::as_u64);
    diff_u64(
        &mut diffs,
        "throughput.queries",
        u("queries"),
        current.queries,
    );
    diff_u64(&mut diffs, "throughput.k", u("k"), current.k as u64);
    diff_u64(
        &mut diffs,
        "throughput.reference_workers",
        u("reference_workers"),
        current.reference_workers as u64,
    );
    diff_u64(
        &mut diffs,
        "throughput.batched_workers",
        u("batched_workers"),
        current.batched_workers as u64,
    );
    if !current.bit_identical {
        diffs.push(
            "throughput.bit_identical: the batched pipeline diverged from the sequential \
             reference in this run"
                .to_string(),
        );
    }
    match t.get("bit_identical").and_then(JsonValue::as_bool) {
        None => diffs.push("throughput.bit_identical: missing from baseline".to_string()),
        Some(false) => {
            diffs.push("throughput.bit_identical: baseline recorded a divergent run".to_string());
        }
        Some(true) => {}
    }
    let mut band = |path: &str, baseline: Option<f64>, cur: f64| match baseline {
        None => diffs.push(format!("{path}: missing from baseline")),
        Some(b) if cur < b * (1.0 - THROUGHPUT_TOLERANCE) => diffs.push(format!(
            "{path}: baseline {b}, current {cur} — below the {:.0}% regression band",
            THROUGHPUT_TOLERANCE * 100.0
        )),
        Some(_) => {}
    };
    let f = |key: &str| t.get(key).and_then(JsonValue::as_f64);
    band(
        "throughput.batched_qps",
        f("batched_qps"),
        current.batched_qps,
    );
    band(
        "throughput.speedup_vs_reference",
        f("speedup_vs_reference"),
        current.speedup_vs_reference,
    );
    match t.get("sweep").and_then(JsonValue::as_arr) {
        None => diffs.push("throughput.sweep: missing from baseline".to_string()),
        Some(arr) if arr.len() != current.sweep.len() => diffs.push(format!(
            "throughput.sweep: baseline has {} points, current {}",
            arr.len(),
            current.sweep.len()
        )),
        Some(arr) => {
            for (i, (bp, cp)) in arr.iter().zip(&current.sweep).enumerate() {
                diff_u64(
                    &mut diffs,
                    &format!("throughput.sweep[{i}].workers"),
                    bp.get("workers").and_then(JsonValue::as_u64),
                    cp.workers as u64,
                );
            }
        }
    }
    diffs
}

fn write_hist(out: &mut String, pad: &str, key: &str, h: &HistSummary, last: bool) {
    let comma = if last { "" } else { "," };
    let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "{pad}\"{key}\": {{");
    let _ = writeln!(out, "{pad}  \"buckets\": [{}],", buckets.join(", "));
    let _ = writeln!(out, "{pad}  \"count\": {},", h.count);
    let _ = writeln!(out, "{pad}  \"sum\": {},", h.sum);
    let _ = writeln!(out, "{pad}  \"max\": {}", h.max);
    let _ = writeln!(out, "{pad}}}{comma}");
}

/// Serialize a [`Metrics`] as a JSON object value, indented so it nests at
/// `indent` levels (the opening brace is unindented: it follows the key on
/// the same line). The trailing brace carries no newline or comma — the
/// caller's serializer adds those.
#[must_use]
pub fn metrics_json(m: &Metrics, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "{pad}\"queries\": {},", m.queries);
    let _ = writeln!(out, "{pad}\"k\": {},", m.k);
    let _ = writeln!(out, "{pad}\"precision_ratio\": {:.12},", m.precision_ratio);
    let _ = writeln!(out, "{pad}\"recall_ratio\": {:.12},", m.recall_ratio);
    let _ = writeln!(out, "{pad}\"events\": {},", m.events);
    let _ = writeln!(out, "{pad}\"kind_counts\": {{");
    for (i, (name, count)) in m.kind_counts.iter().enumerate() {
        let comma = if i + 1 == m.kind_counts.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "{pad}  \"{name}\": {count}{comma}");
    }
    let _ = writeln!(out, "{pad}}},");
    let _ = writeln!(out, "{pad}\"kind_bytes\": {{");
    for (i, (name, bytes)) in m.kind_bytes.iter().enumerate() {
        let comma = if i + 1 == m.kind_bytes.len() { "" } else { "," };
        let _ = writeln!(out, "{pad}  \"{name}\": {bytes}{comma}");
    }
    let _ = writeln!(out, "{pad}}},");
    let _ = writeln!(out, "{pad}\"total_bytes\": {},", m.total_bytes);
    let _ = writeln!(out, "{pad}\"phase_events\": {{");
    for (i, (name, count)) in m.phase_events.iter().enumerate() {
        let comma = if i + 1 == m.phase_events.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "{pad}  \"{name}\": {count}{comma}");
    }
    let _ = writeln!(out, "{pad}}},");
    write_hist(&mut out, &pad, "hops_per_lookup", &m.hops_per_lookup, false);
    write_hist(
        &mut out,
        &pad,
        "messages_per_query",
        &m.messages_per_query,
        false,
    );
    write_hist(&mut out, &pad, "replicas_probed", &m.replicas_probed, true);
    let _ = write!(out, "{}}}", "  ".repeat(indent));
    out
}

fn diff_f64(diffs: &mut Vec<String>, path: &str, baseline: Option<f64>, current: f64) {
    match baseline {
        None => diffs.push(format!("{path}: missing from baseline")),
        Some(b) if (b - current).abs() > RATIO_TOLERANCE => diffs.push(format!(
            "{path}: baseline {b:.12}, current {current:.12} (|delta| {:.3e} > {RATIO_TOLERANCE:.0e})",
            (b - current).abs()
        )),
        Some(_) => {}
    }
}

fn diff_u64(diffs: &mut Vec<String>, path: &str, baseline: Option<u64>, current: u64) {
    match baseline {
        None => diffs.push(format!("{path}: missing from baseline")),
        Some(b) if b.abs_diff(current) > COUNT_TOLERANCE => diffs.push(format!(
            "{path}: baseline {b}, current {current} (delta {})",
            current as i128 - b as i128
        )),
        Some(_) => {}
    }
}

fn diff_hist(
    diffs: &mut Vec<String>,
    path: &str,
    baseline: Option<&JsonValue>,
    current: &HistSummary,
) {
    let Some(b) = baseline else {
        diffs.push(format!("{path}: missing from baseline"));
        return;
    };
    match b.get("buckets").and_then(JsonValue::as_arr) {
        None => diffs.push(format!("{path}.buckets: missing from baseline")),
        Some(arr) => {
            if arr.len() != current.buckets.len() {
                diffs.push(format!(
                    "{path}.buckets: baseline has {} buckets, current {}",
                    arr.len(),
                    current.buckets.len()
                ));
            } else {
                for (i, (bv, &cv)) in arr.iter().zip(&current.buckets).enumerate() {
                    diff_u64(diffs, &format!("{path}.buckets[{i}]"), bv.as_u64(), cv);
                }
            }
        }
    }
    diff_u64(
        diffs,
        &format!("{path}.count"),
        b.get("count").and_then(JsonValue::as_u64),
        current.count,
    );
    diff_u64(
        diffs,
        &format!("{path}.sum"),
        b.get("sum").and_then(JsonValue::as_u64),
        current.sum,
    );
    diff_u64(
        diffs,
        &format!("{path}.max"),
        b.get("max").and_then(JsonValue::as_u64),
        current.max,
    );
}

/// Diff freshly computed [`Metrics`] against a parsed
/// `BENCH_experiments.json` document. Returns one human-readable line per
/// divergence (empty means the gate passes): ratios within
/// [`RATIO_TOLERANCE`], every count and histogram bucket within
/// [`COUNT_TOLERANCE`].
#[must_use]
pub fn compare_against_baseline(current: &Metrics, baseline: &JsonValue) -> Vec<String> {
    let mut diffs = Vec::new();
    let Some(m) = baseline.get("metrics") else {
        diffs.push(
            "metrics: object missing from baseline (regenerate BENCH_experiments.json with \
             --bin bench)"
                .to_string(),
        );
        return diffs;
    };
    let f = |key: &str| m.get(key).and_then(JsonValue::as_f64);
    let u = |key: &str| m.get(key).and_then(JsonValue::as_u64);
    diff_u64(&mut diffs, "metrics.queries", u("queries"), current.queries);
    diff_u64(&mut diffs, "metrics.k", u("k"), current.k as u64);
    diff_f64(
        &mut diffs,
        "metrics.precision_ratio",
        f("precision_ratio"),
        current.precision_ratio,
    );
    diff_f64(
        &mut diffs,
        "metrics.recall_ratio",
        f("recall_ratio"),
        current.recall_ratio,
    );
    diff_u64(&mut diffs, "metrics.events", u("events"), current.events);
    for (name, count) in &current.kind_counts {
        diff_u64(
            &mut diffs,
            &format!("metrics.kind_counts.{name}"),
            m.path(&["kind_counts", name]).and_then(JsonValue::as_u64),
            *count,
        );
    }
    for (name, bytes) in &current.kind_bytes {
        diff_u64(
            &mut diffs,
            &format!("metrics.kind_bytes.{name}"),
            m.path(&["kind_bytes", name]).and_then(JsonValue::as_u64),
            *bytes,
        );
    }
    diff_u64(
        &mut diffs,
        "metrics.total_bytes",
        u("total_bytes"),
        current.total_bytes,
    );
    for (name, count) in &current.phase_events {
        diff_u64(
            &mut diffs,
            &format!("metrics.phase_events.{name}"),
            m.path(&["phase_events", name]).and_then(JsonValue::as_u64),
            *count,
        );
    }
    diff_hist(
        &mut diffs,
        "metrics.hops_per_lookup",
        m.get("hops_per_lookup"),
        &current.hops_per_lookup,
    );
    diff_hist(
        &mut diffs,
        "metrics.messages_per_query",
        m.get("messages_per_query"),
        &current.messages_per_query,
    );
    diff_hist(
        &mut diffs,
        "metrics.replicas_probed",
        m.get("replicas_probed"),
        &current.replicas_probed,
    );
    diffs
}

/// Run the committed loss study: [`LOSS_RATES`] × [`LOSS_REPLS`] through
/// [`loss_figure`], with deployments built over the lossy network model
/// so drops hit publication, maintenance, and the query path alike. Both
/// `--bin bench` and `--bin gate` call this, so the committed object and
/// the gate's fresh run share one code path.
#[must_use]
pub fn collect_loss(world: &World) -> LossFigure {
    loss_figure(world, &LOSS_RATES, &LOSS_REPLS)
}

/// The stable JSON key of one loss point: replication degree and the loss
/// rate as an integer percentage, e.g. `r3_loss5` for 5% loss at
/// replication 3.
fn loss_point_key(replication: usize, loss: f64) -> String {
    format!("r{replication}_loss{}", (loss * 100.0).round() as u64)
}

/// Serialize a [`LossFigure`] as a JSON object value, same conventions as
/// [`metrics_json`]: ratios at 12 decimals (within [`RATIO_TOLERANCE`] of
/// a round-trip), timeout counts exact.
#[must_use]
pub fn loss_json(f: &LossFigure, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "{pad}\"k\": {METRICS_K},");
    let _ = writeln!(out, "{pad}\"points\": {{");
    for (i, p) in f.points.iter().enumerate() {
        let comma = if i + 1 == f.points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{pad}  \"{}\": {{\"loss\": {:.12}, \"replication\": {}, \"precision\": {:.12}, \
             \"recall\": {:.12}, \"messages_per_query\": {:.12}, \"timeouts\": {}}}{comma}",
            loss_point_key(p.replication, p.loss),
            p.loss,
            p.replication,
            p.precision,
            p.recall,
            p.messages_per_query,
            p.timeouts
        );
    }
    let _ = writeln!(out, "{pad}}}");
    let _ = write!(out, "{}}}", "  ".repeat(indent));
    out
}

/// Diff a freshly computed [`LossFigure`] against the committed baseline:
/// ratios and message costs within [`RATIO_TOLERANCE`], timeout counts
/// exact (the event order is seeded, so drops are exactly reproducible).
/// Also enforces the tentpole's acceptance bar within the current run
/// itself: lossless points must bill zero timeouts, lossy points a
/// nonzero count.
#[must_use]
pub fn compare_loss(current: &LossFigure, baseline: &JsonValue) -> Vec<String> {
    let mut diffs = Vec::new();
    for p in &current.points {
        let key = loss_point_key(p.replication, p.loss);
        if p.loss == 0.0 && p.timeouts != 0 {
            diffs.push(format!(
                "loss.points.{key}: a lossless run billed {} timeouts",
                p.timeouts
            ));
        }
        if p.loss > 0.0 && p.timeouts == 0 {
            diffs.push(format!(
                "loss.points.{key}: a lossy run billed no timeouts — drops are not surfacing"
            ));
        }
    }
    let Some(l) = baseline.get("loss") else {
        diffs.push(
            "loss: object missing from baseline (regenerate BENCH_experiments.json with \
             --bin bench)"
                .to_string(),
        );
        return diffs;
    };
    diff_u64(
        &mut diffs,
        "loss.k",
        l.get("k").and_then(JsonValue::as_u64),
        METRICS_K as u64,
    );
    for p in &current.points {
        let key = loss_point_key(p.replication, p.loss);
        let path = |field: &str| format!("loss.points.{key}.{field}");
        let f = |field: &str| l.path(&["points", &key, field]).and_then(JsonValue::as_f64);
        diff_f64(&mut diffs, &path("precision"), f("precision"), p.precision);
        diff_f64(&mut diffs, &path("recall"), f("recall"), p.recall);
        diff_f64(
            &mut diffs,
            &path("messages_per_query"),
            f("messages_per_query"),
            p.messages_per_query,
        );
        diff_u64(
            &mut diffs,
            &path("timeouts"),
            l.path(&["points", &key, "timeouts"])
                .and_then(JsonValue::as_u64),
            p.timeouts,
        );
    }
    diffs
}

/// Run the committed freshness study: [`FRESHNESS_RATES`] ×
/// [`FRESHNESS_REPLS`] through [`freshness_figure`] at
/// [`FRESHNESS_TICKS`] ticks of seeded document churn, plus the
/// incremental-vs-full update cost comparison. Both `--bin bench` and
/// `--bin gate` call this, so the committed object and the gate's fresh
/// run share one code path.
#[must_use]
pub fn collect_freshness(world: &World) -> FreshnessFigure {
    freshness_figure(world, &FRESHNESS_RATES, &FRESHNESS_REPLS, FRESHNESS_TICKS)
}

/// The stable JSON key of one freshness point: replication degree and the
/// churn rate as an integer percentage, e.g. `r3_rate50` for 0.5 expected
/// events per tick at replication 3.
fn freshness_point_key(replication: usize, rate: f64) -> String {
    format!("r{replication}_rate{}", (rate * 100.0).round() as u64)
}

/// Serialize a [`FreshnessFigure`] as a JSON object value, same
/// conventions as [`metrics_json`]: ratios at 12 decimals (within
/// [`RATIO_TOLERANCE`] of a round-trip), every event and entry count
/// exact.
#[must_use]
pub fn freshness_json(f: &FreshnessFigure, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "{pad}\"k\": {METRICS_K},");
    let _ = writeln!(out, "{pad}\"points\": {{");
    for (i, p) in f.points.iter().enumerate() {
        let comma = if i + 1 == f.points.len() { "" } else { "," };
        let key = freshness_point_key(p.replication, p.doc_churn);
        let _ = writeln!(out, "{pad}  \"{key}\": {{");
        let _ = writeln!(out, "{pad}    \"doc_churn\": {:.12},", p.doc_churn);
        let _ = writeln!(out, "{pad}    \"replication\": {},", p.replication);
        let _ = writeln!(out, "{pad}    \"precision\": {:.12},", p.precision);
        let _ = writeln!(out, "{pad}    \"recall\": {:.12},", p.recall);
        let _ = writeln!(out, "{pad}    \"inserted\": {},", p.inserted);
        let _ = writeln!(out, "{pad}    \"updated\": {},", p.updated);
        let _ = writeln!(out, "{pad}    \"deleted\": {},", p.deleted);
        let _ = writeln!(
            out,
            "{pad}    \"tombstones_reclaimed\": {},",
            p.tombstones_reclaimed
        );
        let _ = writeln!(
            out,
            "{pad}    \"pending_tombstones\": {},",
            p.pending_tombstones
        );
        let _ = writeln!(
            out,
            "{pad}    \"deleted_doc_hits\": {},",
            p.deleted_doc_hits
        );
        let _ = writeln!(out, "{pad}    \"stale_entries\": {},", p.stale_entries);
        let _ = writeln!(out, "{pad}    \"live_entries\": {},", p.live_entries);
        let _ = writeln!(out, "{pad}    \"live_docs\": {},", p.live_docs);
        let _ = writeln!(
            out,
            "{pad}    \"messages_per_query\": {:.12}",
            p.messages_per_query
        );
        let _ = writeln!(out, "{pad}  }}{comma}");
    }
    let _ = writeln!(out, "{pad}}},");
    let _ = writeln!(out, "{pad}\"cost\": {{");
    let _ = writeln!(out, "{pad}  \"updates\": {},", f.cost.updates);
    let _ = writeln!(
        out,
        "{pad}  \"incremental_bytes\": {},",
        f.cost.incremental_bytes
    );
    let _ = writeln!(
        out,
        "{pad}  \"republish_bytes\": {},",
        f.cost.republish_bytes
    );
    let _ = writeln!(
        out,
        "{pad}  \"savings_ratio\": {:.12}",
        f.cost.savings_ratio
    );
    let _ = writeln!(out, "{pad}}}");
    let _ = write!(out, "{}}}", "  ".repeat(indent));
    out
}

/// Diff a freshly computed [`FreshnessFigure`] against the committed
/// baseline: ratios within [`RATIO_TOLERANCE`], every event, entry, and
/// byte count exact (the churn stream is seeded, so the lifecycle is
/// exactly reproducible). Also enforces the lifecycle invariants within
/// the current run itself, baseline or no baseline: no live query may
/// surface a deleted document, no tombstone may survive the closing
/// maintenance round, and the incremental update path must clear
/// [`UPDATE_SAVINGS_FLOOR`].
#[must_use]
pub fn compare_freshness(current: &FreshnessFigure, baseline: &JsonValue) -> Vec<String> {
    let mut diffs = Vec::new();
    for p in &current.points {
        let key = freshness_point_key(p.replication, p.doc_churn);
        if p.deleted_doc_hits != 0 {
            diffs.push(format!(
                "freshness.points.{key}: {} hit(s) on deleted documents — a live query surfaced \
                 retired content",
                p.deleted_doc_hits
            ));
        }
        if p.pending_tombstones != 0 {
            diffs.push(format!(
                "freshness.points.{key}: {} tombstone(s) survived the closing maintenance round",
                p.pending_tombstones
            ));
        }
    }
    if current.cost.savings_ratio < UPDATE_SAVINGS_FLOOR {
        diffs.push(format!(
            "freshness.cost.savings_ratio: {:.3} is below the {UPDATE_SAVINGS_FLOOR:.2} floor — \
             incremental updates are not beating delete+republish",
            current.cost.savings_ratio
        ));
    }
    let Some(fr) = baseline.get("freshness") else {
        diffs.push(
            "freshness: object missing from baseline (regenerate BENCH_experiments.json with \
             --bin bench)"
                .to_string(),
        );
        return diffs;
    };
    diff_u64(
        &mut diffs,
        "freshness.k",
        fr.get("k").and_then(JsonValue::as_u64),
        METRICS_K as u64,
    );
    for p in &current.points {
        let key = freshness_point_key(p.replication, p.doc_churn);
        let path = |field: &str| format!("freshness.points.{key}.{field}");
        let f = |field: &str| {
            fr.path(&["points", &key, field])
                .and_then(JsonValue::as_f64)
        };
        let u = |field: &str| {
            fr.path(&["points", &key, field])
                .and_then(JsonValue::as_u64)
        };
        diff_f64(&mut diffs, &path("precision"), f("precision"), p.precision);
        diff_f64(&mut diffs, &path("recall"), f("recall"), p.recall);
        diff_u64(&mut diffs, &path("inserted"), u("inserted"), p.inserted);
        diff_u64(&mut diffs, &path("updated"), u("updated"), p.updated);
        diff_u64(&mut diffs, &path("deleted"), u("deleted"), p.deleted);
        diff_u64(
            &mut diffs,
            &path("tombstones_reclaimed"),
            u("tombstones_reclaimed"),
            p.tombstones_reclaimed,
        );
        diff_u64(
            &mut diffs,
            &path("pending_tombstones"),
            u("pending_tombstones"),
            p.pending_tombstones,
        );
        diff_u64(
            &mut diffs,
            &path("deleted_doc_hits"),
            u("deleted_doc_hits"),
            p.deleted_doc_hits,
        );
        diff_u64(
            &mut diffs,
            &path("stale_entries"),
            u("stale_entries"),
            p.stale_entries,
        );
        diff_u64(
            &mut diffs,
            &path("live_entries"),
            u("live_entries"),
            p.live_entries,
        );
        diff_u64(&mut diffs, &path("live_docs"), u("live_docs"), p.live_docs);
        diff_f64(
            &mut diffs,
            &path("messages_per_query"),
            f("messages_per_query"),
            p.messages_per_query,
        );
    }
    let cu = |field: &str| fr.path(&["cost", field]).and_then(JsonValue::as_u64);
    diff_u64(
        &mut diffs,
        "freshness.cost.updates",
        cu("updates"),
        current.cost.updates,
    );
    diff_u64(
        &mut diffs,
        "freshness.cost.incremental_bytes",
        cu("incremental_bytes"),
        current.cost.incremental_bytes,
    );
    diff_u64(
        &mut diffs,
        "freshness.cost.republish_bytes",
        cu("republish_bytes"),
        current.cost.republish_bytes,
    );
    diff_f64(
        &mut diffs,
        "freshness.cost.savings_ratio",
        fr.path(&["cost", "savings_ratio"])
            .and_then(JsonValue::as_f64),
        current.cost.savings_ratio,
    );
    diffs
}

/// The deterministic memory footprint of the standard deployment, plus
/// an advisory build-time figure. Every byte count is *logical* —
/// length-based sums over the ring's routing state and the peers' posting
/// lists, never allocator capacity — so the numbers are pure functions of
/// the deployment's contents and safe to gate exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Memory {
    /// Alive peers in the deployment's ring.
    pub peers: u64,
    /// Logical bytes of all Chord routing state (ids, successor lists,
    /// fingers, store index).
    pub ring_bytes: u64,
    /// Logical bytes of every peer's inverted index as stored.
    pub index_bytes: u64,
    /// What the same indexes would occupy uncompressed (32 bytes per
    /// entry plus per-term keys).
    pub plain_index_bytes: u64,
    /// `ring_bytes + index_bytes`.
    pub total_bytes: u64,
    /// `total_bytes / peers`, floored — the headline scale metric.
    pub bytes_per_peer: u64,
    /// `plain_index_bytes / index_bytes` — > 1.0 when packing wins.
    pub index_compression_ratio: f64,
    /// Wall-clock milliseconds to build and train the deployment.
    /// Machine-dependent; advisory only, never gated.
    pub build_ms: f64,
}

/// Account a deployment's memory footprint. `build_ms` is carried through
/// as the advisory build-time figure.
#[must_use]
pub fn memory_of(sys: &SpriteSystem, build_ms: f64) -> Memory {
    let peers = sys.net().len() as u64;
    let ring_bytes = sys.net().logical_state_bytes();
    let index_bytes = sys.logical_index_bytes();
    let plain_index_bytes = sys.plain_index_bytes();
    let total_bytes = ring_bytes + index_bytes;
    Memory {
        peers,
        ring_bytes,
        index_bytes,
        plain_index_bytes,
        total_bytes,
        bytes_per_peer: total_bytes / peers.max(1),
        index_compression_ratio: plain_index_bytes as f64 / index_bytes.max(1) as f64,
        build_ms,
    }
}

/// Build the §6.2 standard deployment and account its memory footprint.
/// Both `--bin bench` and `--bin gate` call this, so the committed object
/// and the gate's fresh run share one code path.
#[must_use]
pub fn collect_memory(world: &World) -> Memory {
    let t0 = Instant::now();
    let sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let build_ms = (t0.elapsed().as_secs_f64() * 10_000.0).round() / 10.0;
    memory_of(&sys, build_ms)
}

/// Serialize a [`Memory`] as a JSON object value, same conventions as
/// [`metrics_json`]: byte counts exact, the compression ratio at 12
/// decimals, `build_ms` advisory.
#[must_use]
pub fn memory_json(m: &Memory, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "{pad}\"peers\": {},", m.peers);
    let _ = writeln!(out, "{pad}\"ring_bytes\": {},", m.ring_bytes);
    let _ = writeln!(out, "{pad}\"index_bytes\": {},", m.index_bytes);
    let _ = writeln!(out, "{pad}\"plain_index_bytes\": {},", m.plain_index_bytes);
    let _ = writeln!(out, "{pad}\"total_bytes\": {},", m.total_bytes);
    let _ = writeln!(out, "{pad}\"bytes_per_peer\": {},", m.bytes_per_peer);
    let _ = writeln!(
        out,
        "{pad}\"index_compression_ratio\": {:.12},",
        m.index_compression_ratio
    );
    let _ = writeln!(out, "{pad}\"build_ms\": {}", m.build_ms);
    let _ = write!(out, "{}}}", "  ".repeat(indent));
    out
}

/// Diff a freshly accounted [`Memory`] against the committed baseline.
/// Byte counts and the peer count are exact ([`COUNT_TOLERANCE`] is
/// zero); the compression ratio is within [`RATIO_TOLERANCE`]; `build_ms`
/// is machine-dependent and advisory — never compared.
#[must_use]
pub fn compare_memory(current: &Memory, baseline: &JsonValue) -> Vec<String> {
    let mut diffs = Vec::new();
    let Some(m) = baseline.get("memory") else {
        diffs.push(
            "memory: object missing from baseline (regenerate BENCH_experiments.json with \
             --bin bench)"
                .to_string(),
        );
        return diffs;
    };
    let u = |key: &str| m.get(key).and_then(JsonValue::as_u64);
    diff_u64(&mut diffs, "memory.peers", u("peers"), current.peers);
    diff_u64(
        &mut diffs,
        "memory.ring_bytes",
        u("ring_bytes"),
        current.ring_bytes,
    );
    diff_u64(
        &mut diffs,
        "memory.index_bytes",
        u("index_bytes"),
        current.index_bytes,
    );
    diff_u64(
        &mut diffs,
        "memory.plain_index_bytes",
        u("plain_index_bytes"),
        current.plain_index_bytes,
    );
    diff_u64(
        &mut diffs,
        "memory.total_bytes",
        u("total_bytes"),
        current.total_bytes,
    );
    diff_u64(
        &mut diffs,
        "memory.bytes_per_peer",
        u("bytes_per_peer"),
        current.bytes_per_peer,
    );
    diff_f64(
        &mut diffs,
        "memory.index_compression_ratio",
        m.get("index_compression_ratio").and_then(JsonValue::as_f64),
        current.index_compression_ratio,
    );
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use sprite_core::WorldConfig;

    fn doc_for(m: &Metrics) -> String {
        format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"metrics\": {}\n}}\n",
            metrics_json(m, 1)
        )
    }

    #[test]
    fn metrics_round_trip_matches_itself() {
        let world = World::build(WorldConfig::tiny(7));
        let m = collect_metrics(&world);
        assert_eq!(m.queries, world.test.len() as u64);
        assert!(m.events > 0, "a traced evaluation must observe events");
        assert!(
            m.total_bytes > 0,
            "query fetches must bill payload bytes during evaluation"
        );
        assert_eq!(
            m.total_bytes,
            m.kind_bytes.iter().map(|&(_, b)| b).sum::<u64>(),
            "total must equal the per-kind sum"
        );
        let baseline = json::parse(&doc_for(&m)).expect("serializer emits valid JSON");
        let diffs = compare_against_baseline(&m, &baseline);
        assert!(diffs.is_empty(), "self-comparison must be clean: {diffs:?}");
    }

    #[test]
    fn gate_catches_a_perturbed_baseline() {
        let world = World::build(WorldConfig::tiny(7));
        let m = collect_metrics(&world);
        // Perturb one message count, one ratio, and one histogram bucket.
        let hop_count = m.kind_counts[0].1;
        let doc = doc_for(&m)
            .replacen(
                &format!("\"lookup_hop\": {hop_count}"),
                &format!("\"lookup_hop\": {}", hop_count + 1),
                1,
            )
            .replacen(
                &format!("{:.12}", m.precision_ratio),
                &format!("{:.12}", m.precision_ratio + 1e-6),
                1,
            )
            .replacen(
                &format!("\"total_bytes\": {}", m.total_bytes),
                &format!("\"total_bytes\": {}", m.total_bytes + 1),
                1,
            );
        let baseline = json::parse(&doc).expect("perturbed document still parses");
        let diffs = compare_against_baseline(&m, &baseline);
        assert!(
            diffs.iter().any(|d| d.contains("kind_counts.lookup_hop")),
            "perturbed count not caught: {diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("precision_ratio")),
            "perturbed ratio not caught: {diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("total_bytes")),
            "perturbed byte total not caught: {diffs:?}"
        );
    }

    #[test]
    fn missing_metrics_object_is_one_readable_diff() {
        let world = World::build(WorldConfig::tiny(7));
        let m = collect_metrics(&world);
        let baseline = json::parse("{\"schema\": \"sprite-bench/v1\"}").expect("valid");
        let diffs = compare_against_baseline(&m, &baseline);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("regenerate"));
    }

    #[test]
    fn metrics_bill_the_removal_path() {
        // The committed object must not carry a structurally-zero
        // index_remove row: the retirement probe exercises publish →
        // remove through the traced path.
        let world = World::build(WorldConfig::tiny(7));
        let m = collect_metrics(&world);
        let count = |name: &str| {
            m.kind_counts
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, c)| c)
                .expect("known kind")
        };
        let bytes = |name: &str| {
            m.kind_bytes
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, b)| b)
                .expect("known kind")
        };
        assert!(count("index_remove") > 0, "removal messages must be billed");
        assert!(bytes("index_remove") > 0, "removal records carry bytes");
    }

    #[test]
    fn throughput_round_trips_and_band_catches_regressions() {
        let world = World::build(WorldConfig::tiny(7));
        let t = measure_throughput(&world, 4);
        assert!(
            t.bit_identical,
            "the batched pipeline must reproduce the reference"
        );
        assert_eq!(t.sweep.len(), 3, "1/2/4-worker sweep");
        assert_eq!(
            t.sweep.iter().map(|p| p.workers).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert!(t.reference_qps > 0.0 && t.batched_qps > 0.0);
        let doc = format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"throughput\": {}\n}}\n",
            throughput_json(&t, 1)
        );
        let baseline = json::parse(&doc).expect("serializer emits valid JSON");
        let diffs = compare_throughput(&t, &baseline);
        assert!(diffs.is_empty(), "self-comparison must be clean: {diffs:?}");
        // A drop past the band on either gated speed figure must fire.
        let mut slow = t.clone();
        slow.batched_qps = t.batched_qps * (1.0 - THROUGHPUT_TOLERANCE) * 0.9;
        slow.speedup_vs_reference = t.speedup_vs_reference * (1.0 - THROUGHPUT_TOLERANCE) * 0.9;
        let diffs = compare_throughput(&slow, &baseline);
        assert!(
            diffs.iter().any(|d| d.contains("batched_qps")),
            "qps regression not caught: {diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("speedup_vs_reference")),
            "speedup regression not caught: {diffs:?}"
        );
        // Improvements pass: a faster current run never fails the gate.
        let mut fast = t.clone();
        fast.batched_qps = t.batched_qps * 2.0;
        fast.speedup_vs_reference = t.speedup_vs_reference * 2.0;
        assert!(compare_throughput(&fast, &baseline).is_empty());
        // A missing throughput object is one readable diff.
        let empty = json::parse("{\"schema\": \"sprite-bench/v1\"}").expect("valid");
        let diffs = compare_throughput(&t, &empty);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("regenerate"));
    }

    #[test]
    fn loss_sweep_round_trips_and_bills_timeouts() {
        let world = World::build(WorldConfig::tiny(7));
        let f = collect_loss(&world);
        assert_eq!(f.points.len(), LOSS_RATES.len() * LOSS_REPLS.len());
        assert!(
            f.points.iter().any(|p| p.loss > 0.0 && p.timeouts > 0),
            "the lossy points must bill real timeouts"
        );
        let doc = format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"loss\": {}\n}}\n",
            loss_json(&f, 1)
        );
        let baseline = json::parse(&doc).expect("serializer emits valid JSON");
        let diffs = compare_loss(&f, &baseline);
        assert!(diffs.is_empty(), "self-comparison must be clean: {diffs:?}");
        // A missing loss object is one readable diff.
        let empty = json::parse("{\"schema\": \"sprite-bench/v1\"}").expect("valid");
        let diffs = compare_loss(&f, &empty);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("regenerate"));
    }

    #[test]
    fn loss_gate_catches_perturbed_timeouts_and_silent_drops() {
        let world = World::build(WorldConfig::tiny(7));
        let f = collect_loss(&world);
        let lossy = f
            .points
            .iter()
            .find(|p| p.loss > 0.0 && p.timeouts > 0)
            .expect("a lossy point with timeouts");
        let key = format!(
            "r{}_loss{}",
            lossy.replication,
            (lossy.loss * 100.0).round() as u64
        );
        let doc = format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"loss\": {}\n}}\n",
            loss_json(&f, 1)
        )
        .replacen(
            &format!("\"timeouts\": {}", lossy.timeouts),
            &format!("\"timeouts\": {}", lossy.timeouts + 1),
            1,
        );
        let baseline = json::parse(&doc).expect("perturbed document still parses");
        let diffs = compare_loss(&f, &baseline);
        assert!(
            diffs
                .iter()
                .any(|d| d.contains(&key) && d.contains("timeouts")),
            "perturbed timeout count not caught: {diffs:?}"
        );
        // Within-run enforcement: a lossy point that billed nothing fails
        // even against a matching baseline.
        let mut silent = f.clone();
        for p in &mut silent.points {
            p.timeouts = 0;
        }
        let good = json::parse(&format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"loss\": {}\n}}\n",
            loss_json(&silent, 1)
        ))
        .expect("valid");
        let diffs = compare_loss(&silent, &good);
        assert!(
            diffs.iter().any(|d| d.contains("not surfacing")),
            "silent lossy run not caught: {diffs:?}"
        );
    }

    fn freshness_doc(f: &FreshnessFigure) -> String {
        format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"freshness\": {}\n}}\n",
            freshness_json(f, 1)
        )
    }

    #[test]
    fn freshness_round_trips_and_holds_the_lifecycle_invariants() {
        let world = World::build(WorldConfig::tiny(7));
        let f = collect_freshness(&world);
        assert_eq!(
            f.points.len(),
            FRESHNESS_RATES.len() * FRESHNESS_REPLS.len()
        );
        for p in &f.points {
            assert_eq!(
                p.deleted_doc_hits, 0,
                "a live query surfaced a deleted document at r{} rate {}",
                p.replication, p.doc_churn
            );
            assert_eq!(
                p.pending_tombstones, 0,
                "tombstones survived the closing maintenance round"
            );
            if p.doc_churn == 0.0 {
                assert_eq!((p.inserted, p.updated, p.deleted), (0, 0, 0));
                assert_eq!(p.stale_entries, 0, "a frozen corpus cannot go stale");
            }
        }
        assert!(
            f.points
                .iter()
                .any(|p| p.deleted > 0 && p.tombstones_reclaimed > 0),
            "the churned points must exercise deletion and reclamation"
        );
        assert!(
            f.cost.savings_ratio >= UPDATE_SAVINGS_FLOOR,
            "incremental updates must beat delete+republish by 30%: {:.3}",
            f.cost.savings_ratio
        );
        let baseline = json::parse(&freshness_doc(&f)).expect("serializer emits valid JSON");
        let diffs = compare_freshness(&f, &baseline);
        assert!(diffs.is_empty(), "self-comparison must be clean: {diffs:?}");
        // A missing freshness object is one readable diff.
        let empty = json::parse("{\"schema\": \"sprite-bench/v1\"}").expect("valid");
        let diffs = compare_freshness(&f, &empty);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("regenerate"));
    }

    #[test]
    fn freshness_gate_catches_perturbations_and_broken_invariants() {
        let world = World::build(WorldConfig::tiny(7));
        let f = collect_freshness(&world);
        let churned = f
            .points
            .iter()
            .find(|p| p.doc_churn > 0.0 && p.deleted > 0)
            .expect("a churned point with deletions");
        let key = format!(
            "r{}_rate{}",
            churned.replication,
            (churned.doc_churn * 100.0).round() as u64
        );
        let doc = freshness_doc(&f)
            .replacen(
                &format!("\"deleted\": {}", churned.deleted),
                &format!("\"deleted\": {}", churned.deleted + 1),
                1,
            )
            .replacen(
                &format!("\"precision\": {:.12}", churned.precision),
                &format!("\"precision\": {:.12}", churned.precision + 1e-6),
                1,
            );
        let baseline = json::parse(&doc).expect("perturbed document still parses");
        let diffs = compare_freshness(&f, &baseline);
        assert!(
            diffs
                .iter()
                .any(|d| d.contains(&key) && d.contains("deleted")),
            "perturbed event count not caught: {diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("precision")),
            "perturbed ratio not caught: {diffs:?}"
        );
        // Within-run enforcement: broken invariants fail even against a
        // matching baseline.
        let mut broken = f.clone();
        broken.points[0].deleted_doc_hits = 1;
        broken.points[0].pending_tombstones = 2;
        broken.cost.savings_ratio = UPDATE_SAVINGS_FLOOR / 2.0;
        let own = json::parse(&freshness_doc(&broken)).expect("valid");
        let diffs = compare_freshness(&broken, &own);
        assert!(
            diffs.iter().any(|d| d.contains("retired content")),
            "deleted-doc hit not caught: {diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("survived the closing")),
            "surviving tombstones not caught: {diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("savings_ratio")),
            "savings floor not enforced: {diffs:?}"
        );
    }

    #[test]
    fn freshness_is_reproducible_at_equal_seeds() {
        let w1 = World::build(WorldConfig::tiny(11));
        let w2 = World::build(WorldConfig::tiny(11));
        assert_eq!(
            freshness_json(&collect_freshness(&w1), 1),
            freshness_json(&collect_freshness(&w2), 1)
        );
    }

    #[test]
    fn memory_round_trips_and_gate_catches_perturbations() {
        let world = World::build(WorldConfig::tiny(7));
        let m = collect_memory(&world);
        assert!(m.peers > 0 && m.ring_bytes > 0 && m.index_bytes > 0);
        assert_eq!(m.total_bytes, m.ring_bytes + m.index_bytes);
        assert_eq!(m.bytes_per_peer, m.total_bytes / m.peers);
        assert!(
            m.index_bytes < m.plain_index_bytes,
            "packed postings must undercut the plain layout: {} vs {}",
            m.index_bytes,
            m.plain_index_bytes
        );
        assert!(m.index_compression_ratio > 1.0);
        let doc = format!(
            "{{\n  \"schema\": \"sprite-bench/v1\",\n  \"memory\": {}\n}}\n",
            memory_json(&m, 1)
        );
        let baseline = json::parse(&doc).expect("serializer emits valid JSON");
        let diffs = compare_memory(&m, &baseline);
        assert!(diffs.is_empty(), "self-comparison must be clean: {diffs:?}");
        // One perturbed byte count must fire; a changed build time must not.
        let perturbed = doc
            .replacen(
                &format!("\"ring_bytes\": {}", m.ring_bytes),
                &format!("\"ring_bytes\": {}", m.ring_bytes + 1),
                1,
            )
            .replacen(
                &format!("\"build_ms\": {}", m.build_ms),
                "\"build_ms\": 999999.9",
                1,
            );
        let baseline = json::parse(&perturbed).expect("perturbed document still parses");
        let diffs = compare_memory(&m, &baseline);
        assert!(
            diffs.iter().any(|d| d.contains("ring_bytes")),
            "perturbed byte count not caught: {diffs:?}"
        );
        assert!(
            !diffs.iter().any(|d| d.contains("build_ms")),
            "build time is advisory and must never gate: {diffs:?}"
        );
        // A missing memory object is one readable diff.
        let empty = json::parse("{\"schema\": \"sprite-bench/v1\"}").expect("valid");
        let diffs = compare_memory(&m, &empty);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("regenerate"));
    }

    #[test]
    fn memory_is_reproducible_at_equal_seeds() {
        let w1 = World::build(WorldConfig::tiny(11));
        let w2 = World::build(WorldConfig::tiny(11));
        let (a, b) = (collect_memory(&w1), collect_memory(&w2));
        assert_eq!(
            (a.ring_bytes, a.index_bytes, a.plain_index_bytes),
            (b.ring_bytes, b.index_bytes, b.plain_index_bytes)
        );
    }

    #[test]
    fn metrics_are_reproducible_at_equal_seeds() {
        let w1 = World::build(WorldConfig::tiny(11));
        let w2 = World::build(WorldConfig::tiny(11));
        assert_eq!(collect_metrics(&w1), collect_metrics(&w2));
    }
}
