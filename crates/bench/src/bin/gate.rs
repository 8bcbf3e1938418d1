//! `gate` — the CI results gate over `BENCH_experiments.json`.
//!
//! Recollects the results table (`sprite_bench::metrics::collect`, the
//! code `--bin bench` writes the baseline with) from a fresh
//! `SPRITE_SCALE=small` run (the committed baseline's scale; override
//! with the usual variable) and diffs it against the committed baseline
//! in both directions: counts, byte totals and histogram buckets exactly,
//! ratios within `RATIO_TOLERANCE`, every baseline field the run no
//! longer produces, and the within-run requirements (lossless points bill
//! no timeouts and lossy points some, no deleted-document hit, no
//! surviving tombstone, the incremental-update savings floor) whatever
//! the baseline says. Nothing compared involves a clock, so the verdict
//! is the same on every host and every run. Exits 0 when clean, 1 with
//! one readable line per divergence when not, 2 when the baseline is
//! missing, unparseable, or was generated at a different scale.
//!
//! Run: `cargo run -p sprite-bench --bin gate --release [baseline.json]`

use std::process::ExitCode;

use sprite_bench::json::{self, JsonValue};
use sprite_bench::metrics::{collect, compare};

fn main() -> ExitCode {
    let scale = sprite_bench::baseline_scale();
    let baseline_path = sprite_bench::baseline_path();

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

    eprintln!("# gate: scale={scale}, baseline {baseline_path}");
    let rows = collect(&sprite_bench::build_world(42));
    let diffs = compare(&rows, &baseline);
    if diffs.is_empty() {
        println!(
            "gate: all {} gated fields match the committed baseline",
            rows.len()
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
