//! `scale` — the huge-tier smoke runner.
//!
//! Builds the `SPRITE_SCALE=huge` world (100,000 peers; the scale
//! defaults to `huge` when the variable is unset), trains the standard
//! deployment on it, accounts the memory footprint — logical bytes per
//! peer over the arena node store and the delta-gap-compressed postings
//! — and answers a reduced smoke query set, reporting queries/sec. The
//! process exits nonzero when the smoke queries go unanswered, so the
//! nightly CI job fails loudly instead of shipping a scale tier that
//! cannot serve.
//!
//! Run: `cargo run -p sprite-bench --bin scale --release [n_queries]`
//!
//! The query count is reduced (default 50) because the point is
//! fit-and-serve at population scale within a CI wall-clock budget, not
//! a statistically tight ratio measurement — the committed `metrics`
//! object already gates the ratios exactly at small scale.

use std::time::Instant;

use sprite_bench::metrics::{memory_of, METRICS_K};
use sprite_core::SpriteConfig;
use sprite_corpus::Schedule;

fn main() {
    // This runner *is* the population-scale smoke test; default the
    // scale rather than inheriting `full`.
    if std::env::var("SPRITE_SCALE").is_err() {
        std::env::set_var("SPRITE_SCALE", "huge");
    }
    let scale = std::env::var("SPRITE_SCALE").unwrap_or_default();
    let n_queries: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);

    let total = Instant::now();
    let t0 = Instant::now();
    let world = sprite_bench::build_world(42);
    let world_build_ms = (t0.elapsed().as_secs_f64() * 10_000.0).round() / 10.0;

    let t0 = Instant::now();
    let mut sys = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let system_build_ms = (t0.elapsed().as_secs_f64() * 10_000.0).round() / 10.0;
    eprintln!("# scale: standard system built in {system_build_ms} ms");

    let memory = memory_of(&sys, system_build_ms);
    eprintln!(
        "# scale: {} peers, {} B/peer — ring {} B, index {} B (plain {} B, {:.2}x)",
        memory.peers,
        memory.bytes_per_peer,
        memory.ring_bytes,
        memory.index_bytes,
        memory.plain_index_bytes,
        memory.index_compression_ratio
    );

    // The smoke set: the head of the held-out test split, same indices at
    // every run, so the ratios below are seeded and reproducible.
    let smoke: Vec<usize> = world.test.iter().copied().take(n_queries).collect();
    let t0 = Instant::now();
    let ratios = world.evaluate(&mut sys, &smoke, METRICS_K);
    let eval_ms = (t0.elapsed().as_secs_f64() * 10_000.0).round() / 10.0;
    let qps = (smoke.len() as f64 * 1000.0 / eval_ms.max(1e-6) * 10.0).round() / 10.0;
    eprintln!(
        "# scale: {} smoke queries in {eval_ms} ms ({qps} q/s) — precision ratio {:.3}, \
         recall ratio {:.3}",
        smoke.len(),
        ratios.precision_ratio,
        ratios.recall_ratio
    );
    let total_ms = (total.elapsed().as_secs_f64() * 10_000.0).round() / 10.0;

    println!("{{");
    println!("  \"schema\": \"sprite-scale/v1\",");
    println!("  \"scale\": \"{scale}\",");
    println!("  \"world_build_ms\": {world_build_ms},");
    println!("  \"system_build_ms\": {system_build_ms},");
    println!(
        "  \"memory\": {},",
        sprite_bench::metrics::memory_json(&memory, 1)
    );
    println!("  \"smoke\": {{");
    println!("    \"queries\": {},", smoke.len());
    println!("    \"k\": {METRICS_K},");
    println!("    \"precision_ratio\": {:.12},", ratios.precision_ratio);
    println!("    \"recall_ratio\": {:.12},", ratios.recall_ratio);
    println!("    \"eval_ms\": {eval_ms},");
    println!("    \"queries_per_sec\": {qps}");
    println!("  }},");
    println!("  \"total_ms\": {total_ms}");
    println!("}}");

    assert_eq!(
        ratios.queries,
        smoke.len(),
        "every smoke query must be answered"
    );
    assert!(
        ratios.precision_ratio > 0.0 && ratios.recall_ratio > 0.0,
        "the huge tier answered smoke queries with empty result lists"
    );
}
