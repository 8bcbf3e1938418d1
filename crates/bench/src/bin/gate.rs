//! `gate` — the CI results gate over `BENCH_experiments.json`.
//!
//! Recollects the results table (`sprite_bench::metrics::collect`, the
//! code `--bin bench` writes the baseline with) from a fresh run at
//! `sprite_bench::BASELINE_SCALE` and diffs it against the committed
//! baseline in both directions: counts, byte totals and histogram buckets
//! exactly, ratios within `RATIO_TOLERANCE`, every baseline field the run
//! no longer produces, the within-run requirements (lossless points bill
//! no timeouts and lossy points some, no deleted-document hit, no
//! surviving tombstone, the incremental-update savings floor) and the
//! paper's shape claims (`metrics::verdicts`) whatever the baseline says.
//! Nothing compared involves a clock, so the verdict is the same on every
//! host and every run. Exits 0 when clean, 1 with one readable line per
//! divergence when not, 2 when the baseline is missing, unparseable, or
//! was generated at another scale.
//!
//! Run: `cargo run -p sprite-bench --bin gate --release [baseline.json]`

use std::process::ExitCode;

use sprite_bench::json::{self, JsonValue};
use sprite_bench::metrics::{collect, compare, verdicts};
use sprite_bench::BASELINE_SCALE;

fn main() -> ExitCode {
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
    if let Some(scale) = baseline.get("scale").and_then(JsonValue::as_str) {
        if scale != BASELINE_SCALE {
            eprintln!(
                "gate: baseline was generated at scale {scale}, but the gate runs at \
                 {BASELINE_SCALE}; regenerate it with `cargo run -p sprite-bench --bin bench \
                 --release`"
            );
            return ExitCode::from(2);
        }
    }

    eprintln!("# gate: scale={BASELINE_SCALE}, baseline {baseline_path}");
    let rows = collect(&sprite_bench::baseline_world());
    let mut diffs = compare(&rows, &baseline);
    diffs.extend(verdicts(&rows));
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
