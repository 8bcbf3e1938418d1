//! `gate` — the CI regression gate over `BENCH_experiments.json`.
//!
//! First runs the workspace source lint in-process (`sprite_audit::analyze`
//! — same engine as `sprite-lint`), then recomputes the deterministic
//! `metrics` object from a fresh `SPRITE_SCALE=small` run (the committed
//! baseline's scale; override with the usual variable) and diffs it
//! against the committed baseline: precision/recall ratios within
//! `RATIO_TOLERANCE`, every message count and histogram bucket within
//! `COUNT_TOLERANCE`. It then remeasures the headline `throughput` object
//! and band-compares it: structure and the `bit_identical` flag exactly,
//! queries/sec and the speedup within the one-sided
//! `THROUGHPUT_TOLERANCE` regression band (improvements always pass).
//! Finally it replays the `loss` sweep and diffs it point for point —
//! ratios within `RATIO_TOLERANCE`, timeout counts exact — also checking
//! that every lossy point billed a nonzero timeout count, replays the
//! `freshness` document-churn study (event and entry counts exact, the
//! lifecycle invariants and the incremental-update savings floor enforced
//! within the run), and re-accounts the `memory` object (logical bytes
//! per peer exact to the byte; the build time advisory).
//! Exits 0 when clean, 1 with one readable line per lint violation or
//! divergence when not, 2 when the baseline is missing, unparseable, or
//! was generated at a different scale.
//!
//! Run: `cargo run -p sprite-bench --bin gate --release [baseline.json]`
//!
//! Timing sections of the baseline (`figures_ms`, `micro_ns`, raw
//! millisecond fields of `evaluate`/`throughput`) are machine-dependent
//! and deliberately not gated.

use std::process::ExitCode;

use sprite_bench::json::{self, JsonValue};
use sprite_bench::metrics::{
    collect_freshness, collect_loss, collect_memory, collect_metrics, compare_against_baseline,
    compare_freshness, compare_loss, compare_memory, compare_throughput, measure_throughput,
};

fn main() -> ExitCode {
    // The committed baseline is generated at small scale; match it unless
    // the caller explicitly overrides.
    if std::env::var("SPRITE_SCALE").is_err() {
        std::env::set_var("SPRITE_SCALE", "small");
    }
    let scale = std::env::var("SPRITE_SCALE").unwrap_or_default();
    let baseline_path = std::env::args().nth(1).unwrap_or_else(|| {
        // crates/bench → workspace root, two levels up.
        format!(
            "{}/../../BENCH_experiments.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("gate: cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("gate: baseline {baseline_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(baseline_scale) = baseline.get("scale").and_then(JsonValue::as_str) {
        if baseline_scale != scale {
            eprintln!(
                "gate: baseline was generated at SPRITE_SCALE={baseline_scale} but this run \
                 is at SPRITE_SCALE={scale}; rerun with a matching scale"
            );
            return ExitCode::from(2);
        }
    }

    // Source lint first: a determinism violation in the source makes the
    // metric diff below meaningless.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    match sprite_audit::analyze(&root) {
        Ok(diags) if diags.is_empty() => {}
        Ok(diags) => {
            for d in &diags {
                println!("gate: lint: {d}");
            }
            println!(
                "gate: {} lint violation(s); fix before gating metrics",
                diags.len()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("gate: cannot lint workspace sources: {e}");
            return ExitCode::from(2);
        }
    }

    eprintln!("# gate: scale={scale}, baseline {baseline_path}");
    let world = sprite_bench::build_world(42);
    let current = collect_metrics(&world);
    let mut diffs = compare_against_baseline(&current, &baseline);
    // Remeasure the headline throughput at the baseline's worker count so
    // the band comparison is like for like.
    let headline_workers = baseline
        .path(&["throughput", "batched_workers"])
        .and_then(JsonValue::as_u64)
        .map_or(4, |w| w.max(2) as usize);
    let throughput = measure_throughput(&world, headline_workers);
    eprintln!(
        "# gate: throughput batched@{} {:.2}x vs reference, {} q/s, bit-identical: {}",
        throughput.batched_workers,
        throughput.speedup_vs_reference,
        throughput.batched_qps,
        throughput.bit_identical
    );
    diffs.extend(compare_throughput(&throughput, &baseline));
    // Replay the loss study: point-for-point exact (ratios within the
    // JSON round-trip tolerance, timeout counts to the message), plus the
    // within-run check that lossy points bill real timeouts.
    let loss = collect_loss(&world);
    let lossy_timeouts: u64 = loss
        .points
        .iter()
        .filter(|p| p.loss > 0.0)
        .map(|p| p.timeouts)
        .sum();
    eprintln!(
        "# gate: loss sweep {} points, {lossy_timeouts} timeouts across the lossy points",
        loss.points.len()
    );
    diffs.extend(compare_loss(&loss, &baseline));
    // Replay the freshness study: the seeded document-churn lifecycle is
    // exactly reproducible, so every event and entry count is diffed to
    // the document, ratios within tolerance. The comparison also enforces
    // the lifecycle invariants (no deleted-document hit, no surviving
    // tombstone, the incremental-update savings floor) within this run.
    let freshness = collect_freshness(&world);
    eprintln!(
        "# gate: freshness {} points, {:.1}% incremental-update savings over {} edits",
        freshness.points.len(),
        freshness.cost.savings_ratio * 100.0,
        freshness.cost.updates
    );
    diffs.extend(compare_freshness(&freshness, &baseline));
    // Re-account the memory footprint: logical byte counts are exact
    // (bytes-per-peer to the byte); the build time is advisory.
    let memory = collect_memory(&world);
    eprintln!(
        "# gate: memory {} B/peer over {} peers",
        memory.bytes_per_peer, memory.peers
    );
    diffs.extend(compare_memory(&memory, &baseline));
    if diffs.is_empty() {
        println!(
            "gate: metrics and throughput match the committed baseline ({} queries, {} traced \
             events, {:.2}x batched speedup)",
            current.queries, current.events, throughput.speedup_vs_reference
        );
        ExitCode::SUCCESS
    } else {
        for d in &diffs {
            println!("gate: {d}");
        }
        println!(
            "gate: {} divergence(s) against {baseline_path} — either fix the regression or \
             regenerate the baseline with `cargo run -p sprite-bench --bin bench --release`",
            diffs.len()
        );
        ExitCode::FAILURE
    }
}
