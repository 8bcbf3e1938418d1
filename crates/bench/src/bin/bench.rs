//! The benchmark baseline runner.
//!
//! Times every figure of the paper at `SPRITE_SCALE=small` (the CI scale;
//! override with the usual `SPRITE_SCALE` variable), a handful of
//! microbenchmarks (MD5, one Chord lookup, one distributed query, one
//! centralized search), and the headline throughput comparison — the
//! batched `World::evaluate` pipeline against the sequential unbatched
//! `World::evaluate_reference`, with a 1/2/N-worker queries/sec sweep —
//! then writes the whole report as `BENCH_experiments.json` at the
//! repository root so later PRs can be measured against this baseline.
//!
//! Run: `cargo run -p sprite-bench --bin bench --release [output.json]`
//!
//! The throughput comparison also *verifies* the engine's contract: the
//! report records whether the batched and reference evaluations produced
//! bit-identical ratios and merged stats (`"bit_identical": true`), and
//! the process exits nonzero if they did not.

use std::fmt::Write as _;
use std::time::Instant;

use sprite_chord::{ChordConfig, ChordNet};
use sprite_core::{churn_figure, fig4a, fig4b, fig4c, SpriteConfig, SpriteSystem};
use sprite_corpus::{CorpusConfig, Schedule, SyntheticCorpus};
use sprite_ir::CentralizedEngine;
use sprite_util::{configured_threads, md5, RingId};

/// Milliseconds, one decimal.
fn ms(from: Instant) -> f64 {
    (from.elapsed().as_secs_f64() * 10_000.0).round() / 10.0
}

/// Time one closure invocation in milliseconds.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0))
}

/// Nanoseconds per iteration over a self-calibrating ~100ms loop.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_millis() >= 40 || iters >= 1 << 22 {
            break;
        }
        iters = (iters * 4).min(1 << 22);
    }
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    (t.elapsed().as_nanos() as f64 / iters as f64 * 10.0).round() / 10.0
}

struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::from("{\n"))
    }
    fn field(&mut self, indent: usize, key: &str, value: &str, last: bool) {
        let pad = "  ".repeat(indent);
        let comma = if last { "" } else { "," };
        let _ = writeln!(self.0, "{pad}\"{key}\": {value}{comma}");
    }
    fn open(&mut self, indent: usize, key: &str) {
        let pad = "  ".repeat(indent);
        let _ = writeln!(self.0, "{pad}\"{key}\": {{");
    }
    fn close(&mut self, indent: usize, last: bool) {
        let pad = "  ".repeat(indent);
        let comma = if last { "" } else { "," };
        let _ = writeln!(self.0, "{pad}}}{comma}");
    }
    fn finish(mut self) -> String {
        self.0.push_str("}\n");
        self.0
    }
}

fn main() {
    // This runner *is* the small-scale baseline; default the scale rather
    // than inheriting `full` and taking minutes on CI.
    if std::env::var("SPRITE_SCALE").is_err() {
        std::env::set_var("SPRITE_SCALE", "small");
    }
    let scale = std::env::var("SPRITE_SCALE").unwrap_or_default();
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // crates/bench → workspace root, two levels up.
        format!(
            "{}/../../BENCH_experiments.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });

    eprintln!("# bench: scale={scale}, {} threads", configured_threads());
    let (world, world_ms) = time_ms(|| sprite_bench::build_world(42));

    // ------------------------------------------------------------------
    // Figures (each internally parallel via the sprite-util pool).
    // ------------------------------------------------------------------
    let answers = [5usize, 10, 15, 20, 25, 30];
    let budgets = [5usize, 10, 15, 20, 25, 30];
    let (_, fig4a_ms) = time_ms(|| fig4a(&world, &answers));
    eprintln!("# fig4a: {fig4a_ms} ms");
    let (_, fig4b_ms) = time_ms(|| fig4b(&world, &budgets, 20));
    eprintln!("# fig4b: {fig4b_ms} ms");
    let (_, fig4c_ms) = time_ms(|| fig4c(&world, 10, 20));
    eprintln!("# fig4c: {fig4c_ms} ms");

    // The §7 churn sweep: continuous engine-driven churn at two
    // replication degrees, reported as ratio-to-ideal plus retention
    // against the same-replication zero-churn baseline.
    let churn_rates = [0.0f64, 0.02, 0.05];
    let churn_repls = [1usize, 3];
    let churn_ticks = 6usize;
    let (churn, churn_ms) =
        time_ms(|| churn_figure(&world, &churn_rates, &churn_repls, churn_ticks));
    eprintln!("# churn figure: {churn_ms} ms");

    // ------------------------------------------------------------------
    // The headline comparison: the batched query pipeline against the
    // sequential unbatched reference on one trained deployment, with the
    // bit-identity check the determinism auditor enforces and a
    // 1/2/N-worker sweep. Timed over the full generated workload.
    // ------------------------------------------------------------------
    let (_, train_ms) =
        time_ms(|| world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats));
    eprintln!("# standard system (train+learn): {train_ms} ms");

    // Headline width 4 per the engine's contract; an explicit
    // SPRITE_THREADS still wins so the sweep can be re-run at other widths.
    let threads = std::env::var("SPRITE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4);
    let (throughput, throughput_ms) =
        time_ms(|| sprite_bench::metrics::measure_throughput(&world, threads));
    let cores = throughput.cores;
    eprintln!(
        "# throughput ({} reps, measured in {throughput_ms} ms): reference {} ms, \
         batched@{} {} ms — {:.2}x, {} q/s, bit-identical: {}",
        throughput.repetitions,
        throughput.reference_ms,
        throughput.batched_workers,
        throughput.batched_ms,
        throughput.speedup_vs_reference,
        throughput.batched_qps,
        throughput.bit_identical
    );
    for p in &throughput.sweep {
        eprintln!(
            "#   sweep @{} workers: {} ms/eval, {} q/s, efficiency {:.3}",
            p.workers, p.ms_per_eval, p.queries_per_sec, p.efficiency
        );
    }

    // ------------------------------------------------------------------
    // The deterministic `metrics` object the regression gate replays: a
    // traced evaluation of the standard deployment (same code path as
    // `--bin gate`), packaging ratios, the per-kind message bill, and the
    // cost histograms. Everything in it is exact at equal seed and scale.
    // ------------------------------------------------------------------
    let (metrics, metrics_ms) = time_ms(|| sprite_bench::metrics::collect_metrics(&world));
    eprintln!(
        "# metrics: {} queries, {} traced events, {} ms",
        metrics.queries, metrics.events, metrics_ms
    );

    // ------------------------------------------------------------------
    // The loss study: deployments built and queried over lossy network
    // models, showing in-flight drops billed as real timeouts and
    // replication absorbing the damage. Gated exactly by `--bin gate`.
    // ------------------------------------------------------------------
    let (loss, loss_ms) = time_ms(|| sprite_bench::metrics::collect_loss(&world));
    for p in &loss.points {
        eprintln!(
            "# loss r{} @ {:.0}%: precision {:.3}, recall {:.3}, {:.1} msg/q, {} timeouts",
            p.replication,
            p.loss * 100.0,
            p.precision,
            p.recall,
            p.messages_per_query,
            p.timeouts
        );
    }
    eprintln!("# loss figure: {loss_ms} ms");

    // ------------------------------------------------------------------
    // The freshness study: seeded document churn (inserts, incremental
    // updates, lazy deletions) against a centralized reference rebuilt
    // over the mutated corpus, plus the incremental-vs-full update cost
    // comparison. Gated exactly by `--bin gate`, which also enforces the
    // lifecycle invariants within the run.
    // ------------------------------------------------------------------
    let (freshness, freshness_ms) = time_ms(|| sprite_bench::metrics::collect_freshness(&world));
    for p in &freshness.points {
        eprintln!(
            "# freshness r{} @ rate {:.2}: precision {:.3}, recall {:.3}, +{} ~{} -{} docs, \
             {} reclaimed, {} stale of {} live entries",
            p.replication,
            p.doc_churn,
            p.precision,
            p.recall,
            p.inserted,
            p.updated,
            p.deleted,
            p.tombstones_reclaimed,
            p.stale_entries,
            p.live_entries
        );
    }
    eprintln!(
        "# freshness cost: {} updates, incremental {} B vs republish {} B — {:.1}% saved \
         ({freshness_ms} ms)",
        freshness.cost.updates,
        freshness.cost.incremental_bytes,
        freshness.cost.republish_bytes,
        freshness.cost.savings_ratio * 100.0
    );

    // ------------------------------------------------------------------
    // The memory footprint the scale tier optimizes: logical bytes of
    // routing state and compressed postings, per peer. Byte counts are
    // deterministic and gated exactly by `--bin gate`; the build time is
    // advisory.
    // ------------------------------------------------------------------
    let memory = sprite_bench::metrics::collect_memory(&world);
    eprintln!(
        "# memory: {} peers, {} B/peer — ring {} B, index {} B \
         (plain {} B, {:.2}x), built in {} ms",
        memory.peers,
        memory.bytes_per_peer,
        memory.ring_bytes,
        memory.index_bytes,
        memory.plain_index_bytes,
        memory.index_compression_ratio,
        memory.build_ms
    );

    // ------------------------------------------------------------------
    // Micro timings.
    // ------------------------------------------------------------------
    let payload = vec![0xabu8; 65536];
    let md5_ns = time_ns(|| {
        std::hint::black_box(md5(std::hint::black_box(&payload)));
    });
    let mut net = ChordNet::with_random_nodes(ChordConfig::default(), 1024, 5);
    let ids = net.node_ids();
    let keys: Vec<RingId> = (0..256)
        .map(|i| RingId::hash_bytes(format!("bench-key-{i}").as_bytes()))
        .collect();
    let mut i = 0usize;
    let lookup_ns = time_ns(|| {
        let from = ids[i % ids.len()];
        let key = keys[i % keys.len()];
        i += 1;
        std::hint::black_box(net.lookup_fast(from, key).expect("converged ring"));
    });
    let sc = SyntheticCorpus::generate(&CorpusConfig::small(5));
    let mut qsys = SpriteSystem::build(sc.corpus().clone(), 64, SpriteConfig::default(), 5);
    qsys.publish_all();
    let seeds = sc.seed_queries();
    let mut i = 0usize;
    let query_ns = time_ns(|| {
        let q = &seeds[i % seeds.len()].query;
        i += 1;
        std::hint::black_box(qsys.issue_query(std::hint::black_box(q), 20));
    });
    let engine = CentralizedEngine::build(sc.corpus());
    let mut i = 0usize;
    let central_ns = time_ns(|| {
        let q = &seeds[i % seeds.len()].query;
        i += 1;
        std::hint::black_box(engine.search(std::hint::black_box(q), 20));
    });
    eprintln!(
        "# micro: md5/64KiB {md5_ns} ns, lookup/1024p {lookup_ns} ns, \
         query {query_ns} ns, centralized {central_ns} ns"
    );

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let mut j = Json::new();
    j.field(1, "schema", "\"sprite-bench/v1\"", false);
    j.field(1, "scale", &format!("\"{scale}\""), false);
    j.field(1, "cores", &cores.to_string(), false);
    j.open(1, "figures_ms");
    j.field(2, "world_build", &world_ms.to_string(), false);
    j.field(2, "fig4a", &fig4a_ms.to_string(), false);
    j.field(2, "fig4b", &fig4b_ms.to_string(), false);
    j.field(2, "fig4c", &fig4c_ms.to_string(), false);
    j.field(2, "churn", &churn_ms.to_string(), false);
    j.field(2, "standard_system", &train_ms.to_string(), true);
    j.close(1, false);
    j.open(1, "churn");
    j.field(2, "ticks", &churn_ticks.to_string(), false);
    let n_points = churn.points.len();
    for (i, p) in churn.points.iter().enumerate() {
        let key = format!(
            "r{}_rate{}",
            p.replication,
            (p.churn_rate * 100.0).round() as i64
        );
        j.open(2, &key);
        j.field(3, "precision", &format!("{:.4}", p.precision), false);
        j.field(3, "recall", &format!("{:.4}", p.recall), false);
        j.field(3, "retention", &format!("{:.4}", p.retention), false);
        j.field(
            3,
            "messages_per_query",
            &format!("{:.1}", p.messages_per_query),
            false,
        );
        j.field(3, "peers_after", &p.peers_after.to_string(), true);
        j.close(2, i + 1 == n_points);
    }
    j.close(1, false);
    // `evaluate` mirrors the headline throughput numbers in the shape the
    // old sequential-vs-parallel object used, with the workers actually
    // used by each measurement spelled out per side.
    j.open(1, "evaluate");
    j.field(2, "queries", &throughput.queries.to_string(), false);
    j.field(2, "k", &throughput.k.to_string(), false);
    j.field(2, "repetitions", &throughput.repetitions.to_string(), false);
    j.field(
        2,
        "sequential_ms",
        &throughput.reference_ms.to_string(),
        false,
    );
    j.field(
        2,
        "sequential_workers",
        &throughput.reference_workers.to_string(),
        false,
    );
    j.field(2, "parallel_ms", &throughput.batched_ms.to_string(), false);
    j.field(
        2,
        "parallel_workers",
        &throughput.batched_workers.to_string(),
        false,
    );
    j.field(
        2,
        "speedup",
        &format!("{:.2}", throughput.speedup_vs_reference),
        false,
    );
    j.field(
        2,
        "bit_identical",
        &throughput.bit_identical.to_string(),
        true,
    );
    j.close(1, false);
    j.field(
        1,
        "throughput",
        &sprite_bench::metrics::throughput_json(&throughput, 1),
        false,
    );
    j.field(
        1,
        "metrics",
        &sprite_bench::metrics::metrics_json(&metrics, 1),
        false,
    );
    j.field(
        1,
        "loss",
        &sprite_bench::metrics::loss_json(&loss, 1),
        false,
    );
    j.field(
        1,
        "freshness",
        &sprite_bench::metrics::freshness_json(&freshness, 1),
        false,
    );
    j.field(
        1,
        "memory",
        &sprite_bench::metrics::memory_json(&memory, 1),
        false,
    );
    j.open(1, "micro_ns");
    j.field(2, "md5_64kib", &md5_ns.to_string(), false);
    j.field(2, "chord_lookup_1024_peers", &lookup_ns.to_string(), false);
    j.field(2, "distributed_query_top20", &query_ns.to_string(), false);
    j.field(2, "centralized_search_top20", &central_ns.to_string(), true);
    j.close(1, true);
    let body = j.finish();

    match std::fs::write(&out_path, &body) {
        Ok(()) => eprintln!("# wrote {out_path}"),
        Err(e) => {
            eprintln!("# FAILED writing {out_path}: {e}");
            std::process::exit(2);
        }
    }
    print!("{body}");
    assert!(
        throughput.bit_identical,
        "the batched pipeline diverged from the sequential reference"
    );
    assert!(
        loss.points.iter().any(|p| p.loss > 0.0 && p.timeouts > 0),
        "the lossy sweep points billed no timeouts — drops are not surfacing"
    );
    assert!(
        freshness
            .points
            .iter()
            .all(|p| p.deleted_doc_hits == 0 && p.pending_tombstones == 0),
        "the freshness sweep violated a lifecycle invariant"
    );
    assert!(
        freshness.cost.savings_ratio >= sprite_bench::metrics::UPDATE_SAVINGS_FLOOR,
        "incremental updates did not beat delete+republish: {:.3}",
        freshness.cost.savings_ratio
    );
}
