//! The benchmark's contract, as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics — and the writers that print them.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`--print-contract`); `smoke.sh` fails when the committed file and the
//! tables disagree, so a metric cannot be printed under a name the
//! contract does not carry.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sprite_chord::{MsgKind, Phase};

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 15;

/// The four deployment-lifecycle workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Live search on the paper-scale deployment.
    ServeFull,
    /// Snapshot search across a 100,000-peer ring.
    RouteHuge,
    /// Bulk write: publish and learn.
    IndexBuild,
    /// Composed faults with background repair.
    ChurnRepair,
}

impl Workload {
    /// All workloads, in contract order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeFull,
        Workload::RouteHuge,
        Workload::IndexBuild,
        Workload::ChurnRepair,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeFull => "serve-full",
            Workload::RouteHuge => "route-huge",
            Workload::IndexBuild => "index-build",
            Workload::ChurnRepair => "churn-repair",
        }
    }

    /// Parse a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The operation `ops_per_s` counts on this workload.
    #[must_use]
    pub fn op(self) -> &'static str {
        match self {
            Workload::ServeFull | Workload::RouteHuge => "query",
            Workload::IndexBuild => "document-pass",
            Workload::ChurnRepair => "tick",
        }
    }

    /// One line on why the workload exists (the contract's `why`), and what
    /// `--seed` draws on it: the world itself is a constant of the harness.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeFull => {
                "live search, 64 peers x 8,000 docs: longest posting lists, 3-hop routes; decode \
                 and the live path's bookkeeping dominate. World fixed (seed 42); --seed draws \
                 the Zipf request stream"
            }
            Workload::RouteHuge => {
                "read-only snapshot search on a 100,000-peer ring: the Chord walk dominates, ring \
                 state far exceeds cache. World fixed (seed 42); --seed draws the Zipf request \
                 stream"
            }
            Workload::IndexBuild => {
                "bulk write at paper scale: publish_all + 3 learning iterations per lifecycle; \
                 queries under 2 % of the time. World fixed (seed 42); --seed draws who issues \
                 the probe queries"
            }
            Workload::ChurnRepair => {
                "peer churn x 2 % link loss x doc inserts/updates/deletes x replication 3, \
                 interleaved. World and fault schedule fixed (seed 42); --seed draws link losses \
                 and probe issuers"
            }
        }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract. `bound` is set for end-to-end metrics only:
/// the share of the parent's median by which the metric may worsen before
/// a change counts as a regression.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Contract name.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them, measured with tracing off.
///
/// The bounds are sized from measured spreads (`README.md`, "Measured
/// spreads"), not wished for: a bound narrower than the quartile distance
/// of one run set would call the host's own noise a regression, and the
/// contract refuses it. The four wall-clock metrics keep the widest bound
/// the contract allows because the reference host needs it — its speed
/// drifts over minutes, whole runs of one binary sit 20 % under or over the
/// usual level, and ten runs spread by 5–13 % (one p95 by 20 %). The six
/// simulated quantities (`answer_ok_ratio` … `stored_bytes_per_peer`)
/// repeat exactly for a fixed seed; between seeds the four that do not
/// depend on the request sample move by ≤ 0.01 %, `bytes_per_query` by
/// ≤ 0.11 % and `msgs_per_query` by ≤ 0.36 %, and each gets about three
/// times its spread. A change that claims a pure speed-up must leave them
/// *identical* at equal seeds — `repeat.sh` shows that.
const END_TO_END: [(&str, &str, Better, f64); 11] = [
    ("setup_s", "s", Lower, 0.25),
    ("ops_per_s", "op/s", Higher, 0.25),
    ("query_p50_us", "us", Lower, 0.25),
    ("query_p95_us", "us", Lower, 0.25),
    ("answer_ok_ratio", "ratio", Higher, 0.005),
    ("msgs_per_query", "msg", Lower, 0.015),
    ("bytes_per_query", "B", Lower, 0.005),
    ("precision_ratio", "ratio", Higher, 0.005),
    ("index_bytes_per_doc", "B", Lower, 0.005),
    ("stored_bytes_per_peer", "B", Lower, 0.005),
    ("peak_rss_mb", "MB", Lower, 0.05),
];

/// Per-layer metrics with fixed names (traced run only). The `trace.*`
/// per-phase and per-kind families are appended by [`per_layer`].
const PER_LAYER: [(&str, &str, Better); 63] = [
    // util
    ("util.md5_ns_per_key", "ns", Lower),
    ("util.pool_fanout_us_w1", "us", Lower),
    ("util.pool_fanout_us_wN", "us", Lower),
    ("util.varint_decode_mb_s", "MB/s", Higher),
    ("util.event_queue_ns_per_event", "ns", Lower),
    // text
    ("text.analyze_mb_s", "MB/s", Higher),
    // ir
    ("ir.engine_build_s", "s", Lower),
    ("ir.central_search_us", "us", Lower),
    // corpus
    ("corpus.generate_s", "s", Lower),
    ("corpus.querygen_s", "s", Lower),
    ("corpus.doc_plan_us", "us", Lower),
    // chord
    ("chord.ring_build_s", "s", Lower),
    ("chord.ring_bytes_per_peer", "B", Lower),
    ("chord.lookup_ns", "ns", Lower),
    ("chord.hops_per_lookup", "hop", Lower),
    ("chord.lookup_share", "ratio", Lower),
    ("chord.stabilize_round_us_per_peer", "us", Lower),
    ("chord.fix_fingers_round_us_per_peer", "us", Lower),
    ("chord.churn_apply_ms", "ms", Lower),
    ("chord.replica_walk_ns", "ns", Lower),
    ("chord.plan_delivery_ns", "ns", Lower),
    ("chord.lookups", "count", Lower),
    ("chord.timeouts", "count", Lower),
    ("chord.failed_probes", "count", Lower),
    // core: deployment lifecycle phases
    ("core.new_system_s", "s", Lower),
    ("core.train_issue_s", "s", Lower),
    ("core.publish_all_s", "s", Lower),
    ("core.learn_iter1_s", "s", Lower),
    ("core.learn_iter2_s", "s", Lower),
    ("core.learn_iter3_s", "s", Lower),
    // core: churn and repair
    ("core.replicate_indexes_s", "s", Lower),
    ("core.churn_tick_ms", "ms", Lower),
    ("core.doc_insert_us", "us", Lower),
    ("core.doc_update_us", "us", Lower),
    ("core.doc_delete_us", "us", Lower),
    ("core.maintenance_round_ms", "ms", Lower),
    ("core.tombstones_reclaimed", "count", Lower),
    ("core.orphans_moved", "count", Lower),
    ("core.replicated_entries", "count", Lower),
    // core: query path
    ("core.live_query_us", "us", Lower),
    ("core.view_query_us", "us", Lower),
    ("core.rank_only_us", "us", Lower),
    ("core.resolve_routes_us_per_query", "us", Lower),
    ("core.live_overhead_us", "us", Lower),
    // core: postings
    ("core.postings_decode_ns_per_entry", "ns", Lower),
    ("core.entries_decoded_per_query", "count", Lower),
    ("core.decode_share", "ratio", Lower),
    ("core.list_len_p50", "count", Lower),
    ("core.list_len_p95", "count", Lower),
    ("core.postings_append_ns_per_entry", "ns", Lower),
    ("core.postings_splice_ns_per_entry", "ns", Lower),
    // core: batch evaluation and storage
    ("core.evaluate_batch_ms_w1", "ms", Lower),
    ("core.evaluate_batch_ms_wN", "ms", Lower),
    ("core.compression_ratio", "ratio", Higher),
    ("core.query_cache_entries", "count", Lower),
    // trace: the program's own TraceRecorder, plus the harness's two
    ("trace.hops_p50", "hop", Lower),
    ("trace.hops_max", "hop", Lower),
    ("trace.msgs_per_query_p95", "msg", Lower),
    ("trace.replicas_probed_max", "count", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
    ("trace.span_coverage", "ratio", Higher),
    // audit
    ("audit.check_system_ms", "ms", Lower),
    ("audit.violations", "count", Lower),
];

/// The end-to-end metric table.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| MetricDef {
            name: name.to_string(),
            unit,
            better,
            bound: Some(bound),
        })
        .collect()
}

/// The per-layer metric table: the fixed names plus one
/// `trace.events.<phase>` per [`Phase`] and one `trace.msgs.<kind>` /
/// `trace.bytes.<kind>` per [`MsgKind`].
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let def = |name: String, unit, better| MetricDef {
        name,
        unit,
        better,
        bound: None,
    };
    let mut out: Vec<MetricDef> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| def(name.to_string(), unit, better))
        .collect();
    for phase in Phase::all() {
        out.push(def(
            format!("trace.events.{}", phase.name()),
            "count",
            Lower,
        ));
    }
    for kind in MsgKind::all() {
        out.push(def(format!("trace.msgs.{}", kind.name()), "msg", Lower));
    }
    for kind in MsgKind::all() {
        out.push(def(format!("trace.bytes.{}", kind.name()), "B", Lower));
    }
    out
}

/// The metrics of one run, keyed by contract name. Setting a name twice,
/// or a name the table does not carry, is a harness bug and panics.
#[derive(Debug)]
pub struct Report {
    table: Vec<MetricDef>,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// An empty report over `table`.
    #[must_use]
    pub fn new(table: Vec<MetricDef>) -> Self {
        Report {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Record `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.name == name),
            "metric {name} is not in the contract"
        );
        assert!(
            self.values.insert(name.to_string(), value).is_none(),
            "metric {name} set twice"
        );
    }

    /// `(definition, value)` in table order, or the names that are missing
    /// or not finite. A run prints nothing unless every metric of its mode
    /// is present exactly once with a finite value.
    pub fn finish(self) -> Result<Vec<(MetricDef, f64)>, Vec<String>> {
        let mut rows = Vec::with_capacity(self.table.len());
        let mut bad = Vec::new();
        for m in self.table {
            match self.values.get(&m.name) {
                Some(&v) if v.is_finite() => rows.push((m, v)),
                Some(v) => bad.push(format!("{} = {v}", m.name)),
                None => bad.push(format!("{} missing", m.name)),
            }
        }
        if bad.is_empty() {
            Ok(rows)
        } else {
            Err(bad)
        }
    }
}

/// One printed metric: `name unit value`.
#[must_use]
pub fn metric_line(name: &str, unit: &str, value: f64) -> String {
    format!("{name} {unit} {value}")
}

/// Parse a [`metric_line`] back into `(name, unit, value)`; `None` for
/// comment lines (`# …`), the JSON result line, and anything else that is
/// not exactly three fields ending in a number. The scripts read the
/// lines with `awk`; this is the format's definition for the tests.
#[cfg(test)]
#[must_use]
pub fn parse_metric_line(line: &str) -> Option<(&str, &str, f64)> {
    let mut fields = line.split(' ');
    let (name, unit, value) = (fields.next()?, fields.next()?, fields.next()?);
    if fields.next().is_some() || name.starts_with('#') || name.starts_with('{') {
        return None;
    }
    Some((name, unit, value.parse().ok()?))
}

/// The run's last stdout line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values print with every
/// digit (`f64`'s shortest round-trip form), never rounded.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(MetricDef, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, v)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The text of `BENCHMARK.json`, generated from the tables above.
#[must_use]
pub fn contract_json() -> String {
    let array = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let row = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or_else(String::new, |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.name()
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        array(workloads),
        array(end_to_end().iter().map(row).collect()),
        array(per_layer().iter().map(row).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_line_round_trips_every_digit() {
        for v in [1.203_456_789_012_3, 0.0, 55_012.25, 1e-9, 2.5e12] {
            let line = metric_line("query_p50_us", "us", v);
            let (name, unit, back) = parse_metric_line(&line).expect("parses");
            assert_eq!((name, unit), ("query_p50_us", "us"));
            assert_eq!(back.to_bits(), v.to_bits(), "{line}");
        }
        assert_eq!(parse_metric_line("# seed 42"), None);
        assert_eq!(parse_metric_line("{\"correct\": true}"), None);
        assert_eq!(parse_metric_line("a b c d"), None);
        assert_eq!(parse_metric_line("a b notanumber"), None);
    }

    #[test]
    fn contract_stays_inside_the_drivers_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 11);
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert_eq!(layers.len(), 63 + 6 + 10 + 10);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(legal), "name {n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in e2e.iter().chain(&layers) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.unit
            );
        }
        for m in &e2e {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"', '\\']));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(contract_json().len() < 64 * 1024);
    }

    #[test]
    fn report_rejects_missing_and_non_finite_values() {
        let mut r = Report::new(end_to_end());
        for m in end_to_end().iter().skip(2) {
            r.set(&m.name, 1.5);
        }
        r.set("setup_s", f64::NAN);
        let bad = r.finish().expect_err("two problems");
        assert_eq!(bad.len(), 2);
        assert!(bad[0].starts_with("setup_s = NaN"));
        assert_eq!(bad[1], "ops_per_s missing");
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let table = end_to_end();
        let rows = vec![(table[0].clone(), 0.8127), (table[1].clone(), 1000.5)];
        let json = result_json(true, 1000, 0, &rows);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1000.5, \"unit\": \"op/s\"}}}"
        );
    }
}
