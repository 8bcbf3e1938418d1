//! The per-layer ledger of a traced run.
//!
//! After the timed region, [`measure`] fills every per-layer metric of the
//! contract, from three sources:
//!
//! 1. **spans** the run already recorded around calls into a layer (the
//!    deployment phases of set-up, the ticks of `churn-repair`, …): a
//!    span-derived metric is the *median* duration of its span;
//! 2. **kernel replays**: a slice of the run's own request stream, or the
//!    deployment's own contents, sent through one layer alone
//!    (`lookup_fast`, `PostingList::iter`, `resolve_routes` +
//!    `query_batched`, `decode_varint`, …) and reported as time per
//!    operation — these give the *shares* (`chord.lookup_share`,
//!    `core.decode_share`) that say where a query's time goes;
//! 3. the program's own **`TraceRecorder`**, merged over every traced
//!    stretch of the run.
//!
//! Every workload reports every metric. A layer a workload's timed region
//! never reaches (no tick runs on `serve-full`) is exercised here once, on
//! the workload's own deployment, so its row is a measurement on that
//! deployment rather than a blank. Everything goes through public
//! functions; nothing here is part of the end-to-end numbers.

use std::hint::black_box;
use std::time::Instant;

use sprite_chord::{ChordConfig, ChordNet, ChurnEngine, MsgKind, NetStats, Phase};
use sprite_core::{PostingList, RankScratch, SpriteSystem, World};
use sprite_corpus::{generate_workload, SyntheticCorpus};
use sprite_ir::{CentralizedEngine, DocId, SearchScratch};
use sprite_text::Analyzer;
use sprite_util::{
    decode_varint, derive_rng, encode_varint, override_threads, par_map, EventQueue, Histogram,
    RingId, SliceRng,
};

use crate::deploy::test_queries;
use crate::harness::{Harness, K};
use crate::host;
use crate::metrics::{per_layer, Report, Workload};
use crate::stats;
use crate::stream::{self, PeerOrder, Request};
use crate::workloads::churn_repair::{tick, Engines};
use crate::workloads::probe::Probes;

/// Span-derived metrics: `(metric, span, nanoseconds per unit)`.
const FROM_SPANS: [(&str, &str, f64); 21] = [
    ("ir.engine_build_s", "ir.engine_build", 1e9),
    ("corpus.generate_s", "corpus.generate", 1e9),
    ("corpus.querygen_s", "corpus.querygen", 1e9),
    ("corpus.doc_plan_us", "corpus.doc_plan", 1e3),
    ("chord.ring_build_s", "chord.ring_build", 1e9),
    ("chord.churn_apply_ms", "chord.churn_apply", 1e6),
    ("core.new_system_s", "core.new_system", 1e9),
    ("core.train_issue_s", "core.train_issue", 1e9),
    ("core.publish_all_s", "core.publish_all", 1e9),
    ("core.learn_iter1_s", "core.learn_iter1", 1e9),
    ("core.learn_iter2_s", "core.learn_iter2", 1e9),
    ("core.learn_iter3_s", "core.learn_iter3", 1e9),
    ("core.replicate_indexes_s", "core.replicate_indexes", 1e9),
    ("core.churn_tick_ms", "core.churn_tick", 1e6),
    ("core.doc_insert_us", "core.doc_insert", 1e3),
    ("core.doc_update_us", "core.doc_update", 1e3),
    ("core.doc_delete_us", "core.doc_delete", 1e3),
    ("core.maintenance_round_ms", "core.maintenance_round", 1e6),
    ("core.evaluate_batch_ms_w1", "core.evaluate_batch_w1", 1e6),
    ("core.evaluate_batch_ms_wN", "core.evaluate_batch_wN", 1e6),
    ("audit.check_system_ms", "audit.check_system", 1e6),
];

/// Nanoseconds per operation of `run`, which performs `ops` operations.
fn ns_per_op(ops: usize, run: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    run();
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The request slice the kernels replay on a workload that has no stream
/// of its own: Zipf(1.0) over the test split from round-robin peers, drawn
/// from the run's seed like the search workloads' streams.
#[must_use]
pub fn kernel_requests(h: &Harness, world: &World, sys: &SpriteSystem) -> Vec<Request> {
    stream::generate(
        h.args.seed,
        h.args.workload.name(),
        world.test.len(),
        sys.peers().len(),
        PeerOrder::RoundRobin,
        h.plan.kernel_ops,
    )
}

/// Fill every per-layer metric (see the module docs) and leave the report
/// in `h.layers`. `requests` is the slice of the workload's stream the
/// kernels replay.
pub fn measure(h: &mut Harness, world: &World, sys: &mut SpriteSystem, requests: &[Request]) {
    h.spans.set_recording(true);
    let root = h.spans.enter("bench.layers", 0);
    let mut r = Report::new(per_layer());

    // Facts the kernels below would disturb come first.
    storage(&mut r, sys);
    audit(h, &mut r, sys);

    util(&mut r, world, sys, h.args.seed);
    text(&mut r, world);
    ir(h, &mut r, world);
    corpus(h, world);
    let view_ns = query_paths(&mut r, world, sys, requests);
    postings(&mut r, world, sys, requests, view_ns, h.args.seed);
    chord_reads(&mut r, world, sys, requests, view_ns);
    chord_ring(h, &mut r, world);
    evaluate_batch(h, world, sys);
    repair_rows(h, world, sys);

    for (metric, span, unit_ns) in FROM_SPANS {
        let ns = h
            .spans
            .median_ns(span)
            .unwrap_or_else(|| panic!("no span {span} for {metric}"));
        r.set(metric, ns / unit_ns);
    }
    let ledger = h.ledger.as_ref().expect("the ledger precedes the layers");
    r.set("chord.lookups", ledger.net.lookups() as f64);
    r.set("chord.timeouts", ledger.net.count(MsgKind::Timeout) as f64);
    r.set(
        "chord.failed_probes",
        ledger.net.count(MsgKind::Failed) as f64,
    );
    r.set(
        "core.tombstones_reclaimed",
        h.repairs.tombstones_reclaimed as f64,
    );
    r.set("core.orphans_moved", h.repairs.orphans_moved as f64);
    r.set("core.replicated_entries", h.repairs.replicated as f64);
    recorder_rows(h, &mut r);

    let _ = h.spans.exit(root);
    h.spans.set_recording(false);
    h.layers = Some(r);
}

/// `core.compression_ratio`, `core.query_cache_entries`,
/// `chord.ring_bytes_per_peer`: read off the deployment as the timed
/// region left it.
fn storage(r: &mut Report, sys: &SpriteSystem) {
    r.set(
        "core.compression_ratio",
        sys.plain_index_bytes() as f64 / sys.logical_index_bytes().max(1) as f64,
    );
    let cached: usize = sys
        .indexing_peers()
        .into_iter()
        .filter_map(|p| sys.indexing_state(p))
        .map(|st| st.cached_queries())
        .sum();
    r.set("core.query_cache_entries", cached as f64);
    r.set(
        "chord.ring_bytes_per_peer",
        sys.net().logical_state_bytes() as f64 / sys.net().len().max(1) as f64,
    );
}

/// `audit.*`: every invariant checker over the deployment. A fault-free
/// workload must come out clean; `churn-repair` reports what it finds.
fn audit(h: &mut Harness, r: &mut Report, sys: &SpriteSystem) {
    let (violations, _) = h
        .spans
        .time("audit.check_system", 0, || sprite_audit::check_system(sys));
    r.set("audit.violations", violations.len() as f64);
    if h.args.workload != Workload::ChurnRepair && !violations.is_empty() {
        h.problem(format!(
            "{} audit violations on a fault-free workload, first: {:?}",
            violations.len(),
            violations[0]
        ));
    }
}

/// `util.*`: MD5 over the vocabulary, pool fan-out at width 1 and
/// `nproc`, varint decode over the deployment's own posting values, and
/// the event queue.
fn util(r: &mut Report, world: &World, sys: &SpriteSystem, seed: u64) {
    let vocab = world.synthetic.corpus().vocab();
    r.set(
        "util.md5_ns_per_key",
        ns_per_op(vocab.len(), || {
            for (_, term) in vocab.iter() {
                black_box(RingId::hash_term(black_box(term)));
            }
        }),
    );

    let items = vec![0u32; 1024];
    for (metric, width) in [
        ("util.pool_fanout_us_w1", 1),
        ("util.pool_fanout_us_wN", host::nproc()),
    ] {
        let previous = override_threads(width);
        let mut calls: Vec<f64> = (0..200)
            .map(|_| ns_per_op(1, || drop(black_box(par_map(&items, |_, &x| x)))) / 1e3)
            .collect();
        override_threads(previous);
        r.set(metric, stats::median(&mut calls));
    }

    // The varints a query decodes are doc gaps, tf, doc length and
    // distinct count: re-encode about a megabyte of the deployment's own.
    let mut buf = Vec::new();
    'fill: for peer in sys.indexing_peers() {
        let Some(state) = sys.indexing_state(peer) else {
            continue;
        };
        let mut lists: Vec<_> = state.terms().collect();
        lists.sort_unstable_by_key(|&(term, _)| term);
        for (_, list) in lists {
            let mut previous = 0;
            for e in list.iter() {
                let doc = e.doc.index() as u64;
                for v in [
                    doc - previous,
                    e.tf.into(),
                    e.doc_len.into(),
                    e.distinct.into(),
                ] {
                    encode_varint(v, &mut buf);
                }
                previous = doc;
            }
            if buf.len() >= 1 << 20 {
                break 'fill;
            }
        }
    }
    let ns = ns_per_op(1, || {
        for _ in 0..8 {
            let mut at = 0;
            while at < buf.len() {
                let (v, next) = decode_varint(&buf, at).expect("harness-encoded varints");
                black_box(v);
                at = next;
            }
        }
    });
    r.set(
        "util.varint_decode_mb_s",
        (8 * buf.len()) as f64 / 1e6 / (ns / 1e9),
    );

    let mut rng = derive_rng(seed, "benchmark/event-queue");
    let times: Vec<u64> = (0..100_000).map(|_| rng.bounded(1 << 20)).collect();
    r.set(
        "util.event_queue_ns_per_event",
        ns_per_op(times.len(), || {
            let mut queue = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                queue.push(t, i);
            }
            while let Some(event) = queue.pop() {
                black_box(event);
            }
        }),
    );
}

/// `text.analyze_mb_s`. No workload reaches the analyzer (the synthetic
/// corpus is generated as term ids), so this row is predicted to move
/// nothing end to end.
fn text(r: &mut Report, world: &World) {
    let docs = world.synthetic.corpus().len().min(200);
    let texts: Vec<String> = (0..docs)
        .map(|i| world.synthetic.doc_text(DocId(i as u32)))
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let analyzer = Analyzer::standard();
    let ns = ns_per_op(1, || {
        for t in &texts {
            black_box(analyzer.analyze(black_box(t)));
        }
    });
    r.set("text.analyze_mb_s", bytes as f64 / 1e6 / (ns / 1e9));
}

/// `ir.*`: building the centralized engine, and one reference search.
fn ir(h: &mut Harness, r: &mut Report, world: &World) {
    let (engine, _) = h.spans.time("ir.engine_build", 0, || {
        CentralizedEngine::build(world.synthetic.corpus())
    });
    let queries = test_queries(world);
    let mut scratch = SearchScratch::new();
    let rounds = 5;
    let ns = ns_per_op(rounds * queries.len(), || {
        for _ in 0..rounds {
            for q in &queries {
                black_box(engine.search_with(q, K, &mut scratch));
            }
        }
    });
    r.set("ir.central_search_us", ns / 1e3);
}

/// `corpus.*`: the two generators `World::build` runs (the document
/// planner's row comes from the tick spans).
fn corpus(h: &mut Harness, world: &World) {
    h.spans.time("corpus.generate", 0, || {
        SyntheticCorpus::generate(&world.config.corpus)
    });
    let seeds = world.synthetic.seed_queries();
    h.spans.time("corpus.querygen", 0, || {
        generate_workload(
            world.synthetic.corpus(),
            &world.engine,
            &seeds,
            &world.config.gen,
        )
    });
}

/// The query path, four ways over the same requests: the live mutating
/// path, the read-only view, route resolution alone, and ranking alone
/// (`query_batched` on the prebuilt memo). Returns ns per view query, the
/// denominator of the shares.
fn query_paths(r: &mut Report, world: &World, sys: &mut SpriteSystem, requests: &[Request]) -> f64 {
    let queries = test_queries(world);
    let peers = sys.peers().to_vec();
    let from = |req: &Request| peers[req.peer as usize % peers.len()];
    let query = |req: &Request| queries[req.query as usize];
    let n = requests.len();

    sys.warm_query_terms(queries.iter().copied());
    let live_ns = ns_per_op(n, || {
        for req in requests {
            black_box(sys.issue_query_from(from(req), query(req), K));
        }
    });
    let view = sys.query_view();
    let (mut bill, mut scratch) = (NetStats::new(), RankScratch::new());
    let view_ns = ns_per_op(n, || {
        for req in requests {
            black_box(view.query(from(req), query(req), K, &mut bill, &mut scratch));
        }
    });
    let mut memo = None;
    let resolve_ns = ns_per_op(n, || {
        memo = Some(view.resolve_routes(requests.iter().map(|req| (from(req), query(req)))));
    });
    let memo = memo.expect("resolved above");
    let rank_ns = ns_per_op(n, || {
        for req in requests {
            black_box(view.query_batched(from(req), query(req), K, &memo, &mut bill, &mut scratch));
        }
    });
    r.set("core.live_query_us", live_ns / 1e3);
    r.set("core.view_query_us", view_ns / 1e3);
    r.set("core.rank_only_us", rank_ns / 1e3);
    r.set("core.resolve_routes_us_per_query", resolve_ns / 1e3);
    r.set("core.live_overhead_us", (live_ns - view_ns) / 1e3);
    view_ns
}

/// The `(issuing peer, term key, term)` triples the requests route.
fn routes<'a>(
    world: &'a World,
    sys: &'a SpriteSystem,
    requests: &'a [Request],
) -> impl Iterator<Item = (RingId, RingId, sprite_ir::TermId)> + 'a {
    let peers = sys.peers();
    let vocab = sys.corpus().vocab();
    requests.iter().flat_map(move |req| {
        let from = peers[req.peer as usize % peers.len()];
        world.workload[world.test[req.query as usize]]
            .query
            .term_counts()
            .into_iter()
            .map(move |(term, _)| (from, RingId::hash_term(vocab.term(term)), term))
    })
}

/// `core.postings_*`, `core.entries_decoded_per_query`, `core.list_len_*`:
/// the lists the requests fetch, decoded alone; then the same entries
/// written back in ascending order (append) and in shuffled order (the
/// decode-splice-re-encode path the batched flush takes).
fn postings(
    r: &mut Report,
    world: &World,
    sys: &SpriteSystem,
    requests: &[Request],
    view_ns: f64,
    seed: u64,
) {
    let mut unbilled = NetStats::new();
    // (owner, term, list) of every fetch; the pair names the list.
    let mut fetched: Vec<(RingId, sprite_ir::TermId, &PostingList)> = routes(world, sys, requests)
        .filter_map(|(from, key, term)| {
            let owner = sys.net().probe(from, key, &mut unbilled).ok()?.owner;
            Some((owner, term, sys.indexing_state(owner)?.postings(term)?))
        })
        .collect();
    let lists: Vec<&PostingList> = fetched.iter().map(|&(_, _, list)| list).collect();
    let entries: usize = lists.iter().map(|l| l.len()).sum();
    let decode_ns = ns_per_op(entries, || {
        for list in &lists {
            for e in list.iter() {
                black_box(e);
            }
        }
    });
    let per_query = entries as f64 / requests.len().max(1) as f64;
    r.set("core.postings_decode_ns_per_entry", decode_ns);
    r.set("core.entries_decoded_per_query", per_query);
    r.set("core.decode_share", decode_ns * per_query / view_ns);
    let mut lens: Vec<usize> = lists.iter().map(|l| l.len()).collect();
    lens.sort_unstable();
    let len_at = |p| {
        if lens.is_empty() {
            0.0
        } else {
            stats::nearest_rank(&lens, p) as f64
        }
    };
    r.set("core.list_len_p50", len_at(50.0));
    r.set("core.list_len_p95", len_at(95.0));

    // Write side: the distinct fetched lists, longest first, up to ~20,000
    // entries in all.
    fetched
        .sort_unstable_by_key(|&(owner, term, list)| (std::cmp::Reverse(list.len()), owner, term));
    fetched.dedup_by_key(|&mut (owner, term, _)| (owner, term));
    let mut budget = 20_000usize;
    let mut batches: Vec<Vec<_>> = Vec::new();
    for (_, _, list) in fetched {
        if budget == 0 {
            break;
        }
        let batch = list.to_entries();
        budget = budget.saturating_sub(batch.len());
        batches.push(batch);
    }
    let written: usize = batches.iter().map(Vec::len).sum();
    let write = |batches: &[Vec<_>]| {
        ns_per_op(written, || {
            for batch in batches {
                let mut list = PostingList::new(true);
                for &e in batch {
                    list.publish(e);
                }
                black_box(list);
            }
        })
    };
    r.set("core.postings_append_ns_per_entry", write(&batches));
    let mut rng = derive_rng(seed, "benchmark/splice");
    for batch in &mut batches {
        batch.shuffle(&mut rng);
    }
    r.set("core.postings_splice_ns_per_entry", write(&batches));
}

/// `chord.lookup_*`, `chord.replica_walk_ns`, `chord.plan_delivery_ns`:
/// the requests' routes replayed through the ring alone.
fn chord_reads(
    r: &mut Report,
    world: &World,
    sys: &mut SpriteSystem,
    requests: &[Request],
    view_ns: f64,
) {
    let pairs: Vec<(RingId, RingId)> = routes(world, sys, requests)
        .map(|(from, key, _)| (from, key))
        .collect();
    let mut owners = Vec::with_capacity(pairs.len());
    let mut hops = 0u64;
    let net = sys.net_mut();
    let lookup_ns = ns_per_op(pairs.len(), || {
        for &(from, key) in &pairs {
            if let Ok(found) = net.lookup_fast(from, key) {
                hops += u64::from(found.hops);
                owners.push((from, found.owner));
            }
        }
    });
    let per_query = pairs.len() as f64 / requests.len().max(1) as f64;
    r.set("chord.lookup_ns", lookup_ns);
    r.set(
        "chord.hops_per_lookup",
        hops as f64 / owners.len().max(1) as f64,
    );
    r.set("chord.lookup_share", lookup_ns * per_query / view_ns);

    let mut unbilled = NetStats::new();
    r.set(
        "chord.replica_walk_ns",
        ns_per_op(owners.len(), || {
            for &(_, owner) in &owners {
                black_box(net.replicas_from_owner(owner, 3, &mut unbilled));
            }
        }),
    );
    r.set(
        "chord.plan_delivery_ns",
        ns_per_op(owners.len(), || {
            for (salt, &(from, owner)) in owners.iter().enumerate() {
                black_box(net.plan_delivery(from, owner, salt as u64)).ok();
            }
        }),
    );
}

/// `chord.ring_build_s`, the two maintenance rounds and
/// `chord.churn_apply_ms`, on a fresh ring of the world's size: building
/// it, one `stabilize_round` and one `fix_fingers_round` over every peer,
/// then one tick of peer churn at the `churn-repair` rates.
fn chord_ring(h: &mut Harness, r: &mut Report, world: &World) {
    let n = world.config.n_peers;
    let seed = h.args.seed;
    let (mut ring, _) = h.spans.time("chord.ring_build", 0, || {
        ChordNet::with_random_nodes(ChordConfig::default(), n, seed)
    });
    let (_, dt) = h
        .spans
        .time("chord.stabilize_round", 0, || ring.stabilize_round());
    r.set(
        "chord.stabilize_round_us_per_peer",
        dt.as_nanos() as f64 / 1e3 / n as f64,
    );
    let (_, dt) = h
        .spans
        .time("chord.fix_fingers_round", 0, || ring.fix_fingers_round());
    r.set(
        "chord.fix_fingers_round_us_per_peer",
        dt.as_nanos() as f64 / 1e3 / n as f64,
    );
    let mut churn: ChurnEngine = Engines::new(world).peers;
    let events = churn.plan(&ring);
    h.spans
        .time("chord.churn_apply", 0, || churn.apply(&mut ring, &events));
}

/// `core.evaluate_batch_ms_*`: `World::evaluate` over the test split at
/// pool width 1 and at `nproc`. With fewer cores than workers this is a
/// width-invariance check, not a speed-up.
fn evaluate_batch(h: &mut Harness, world: &World, sys: &mut SpriteSystem) {
    for (span, width) in [
        ("core.evaluate_batch_w1", 1),
        ("core.evaluate_batch_wN", host::nproc()),
    ] {
        let previous = override_threads(width);
        h.spans
            .time(span, 0, || world.evaluate(sys, &world.test, K));
        override_threads(previous);
    }
}

/// Make sure the repair rows exist: `churn-repair` recorded them tick by
/// tick; on the other workloads run `replicate_indexes` and one whole
/// tick, last of all, on the workload's own deployment.
fn repair_rows(h: &mut Harness, world: &World, sys: &mut SpriteSystem) {
    if h.spans.median_ns("core.replicate_indexes").is_none() {
        h.spans
            .time("core.replicate_indexes", 0, || sys.replicate_indexes());
    }
    if h.spans.median_ns("core.maintenance_round").is_none() {
        let mut engines = Engines::new(world);
        tick(
            &mut h.spans,
            world,
            sys,
            &mut engines,
            1,
            0,
            false,
            &mut Probes::new(&h.args),
            &mut h.repairs,
        );
    }
}

/// Smallest value with at least `p` percent of the histogram's samples at
/// or below it (0 when empty). Bucket `i` counts value `i`; the last
/// bucket is the overflow.
fn histogram_percentile(hist: &Histogram, p: f64) -> f64 {
    if hist.is_empty() {
        return 0.0;
    }
    let rank = stats::rank(hist.count() as usize, p) as u64;
    let mut seen = 0;
    for (value, &count) in hist.buckets().iter().enumerate() {
        seen += count;
        if seen >= rank {
            return value as f64;
        }
    }
    hist.max() as f64
}

/// `trace.*`: the program's own recorder, plus the harness's overhead and
/// coverage figures.
fn recorder_rows(h: &mut Harness, r: &mut Report) {
    let rec = &h.recorder;
    for phase in Phase::all() {
        r.set(
            &format!("trace.events.{}", phase.name()),
            rec.phase_count(phase) as f64,
        );
    }
    for kind in MsgKind::all() {
        r.set(
            &format!("trace.msgs.{}", kind.name()),
            rec.kind_count(kind) as f64,
        );
        r.set(
            &format!("trace.bytes.{}", kind.name()),
            rec.kind_bytes(kind) as f64,
        );
    }
    r.set(
        "trace.hops_p50",
        histogram_percentile(rec.hops_per_lookup(), 50.0),
    );
    r.set("trace.hops_max", rec.hops_per_lookup().max() as f64);
    r.set(
        "trace.msgs_per_query_p95",
        histogram_percentile(rec.messages_per_query(), 95.0),
    );
    r.set(
        "trace.replicas_probed_max",
        rec.replicas_probed().max() as f64,
    );
    let traced = h.ns_per_op(true).expect("a traced window");
    let untraced = h.ns_per_op(false).expect("an untraced window");
    r.set("trace.overhead_ratio", traced / untraced);
    let coverage = h.spans.coverage().expect("a traced window");
    r.set("trace.span_coverage", coverage);
    if coverage < 0.95 && !h.args.smoke {
        h.problem(format!(
            "spans cover {coverage:.3} of the traced windows, below 0.95"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_walk_the_buckets() {
        let mut hist = Histogram::new(8);
        assert_eq!(histogram_percentile(&hist, 50.0), 0.0);
        for v in [1, 1, 2, 3, 3, 3, 5, 5, 5, 5] {
            hist.record(v);
        }
        assert_eq!(histogram_percentile(&hist, 50.0), 3.0);
        assert_eq!(histogram_percentile(&hist, 95.0), 5.0);
        assert_eq!(histogram_percentile(&hist, 10.0), 1.0);
    }

    #[test]
    fn every_span_metric_is_in_the_contract() {
        let table = per_layer();
        for (metric, span, unit_ns) in FROM_SPANS {
            assert!(table.iter().any(|m| m.name == metric), "{metric}");
            let layer = metric.split('.').next().expect("layer prefix");
            assert!(span.starts_with(layer), "{span} is not a {layer} call");
            let unit = table.iter().find(|m| m.name == metric).expect("row").unit;
            let expected = match unit {
                "s" => 1e9,
                "ms" => 1e6,
                "us" => 1e3,
                other => panic!("{metric}: unit {other}"),
            };
            assert_eq!(unit_ns, expected, "{metric}");
        }
    }
}
