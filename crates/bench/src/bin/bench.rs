//! `bench` — regenerate the committed results baseline.
//!
//! Collects the gated results table (`sprite_bench::metrics::collect`: the
//! `churn`, `metrics`, `loss`, `freshness` and `memory` objects) at
//! `SPRITE_SCALE=small` (override with the usual variable) and writes it
//! as `BENCH_experiments.json` at the repository root. Every field is
//! simulated and exact at equal seed and scale, so regenerating on any
//! host reproduces the file; `--bin gate` is the same collection compared
//! instead of written. Exits 1 — after writing, so the numbers can be
//! inspected — when the run breaks one of its own within-run requirements.
//!
//! Run: `cargo run -p sprite-bench --bin bench --release [output.json]`

use std::process::ExitCode;

use sprite_bench::metrics::{collect, to_json, violations};

fn main() -> ExitCode {
    let scale = sprite_bench::baseline_scale();
    let out_path = sprite_bench::baseline_path();
    eprintln!("# bench: scale={scale}");
    let rows = collect(&sprite_bench::build_world(42));
    let body = to_json(&scale, &rows);
    if let Err(e) = std::fs::write(&out_path, &body) {
        eprintln!("# FAILED writing {out_path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("# wrote {out_path} ({} gated fields)", rows.len());
    print!("{body}");
    let broken = violations(&rows);
    for line in &broken {
        println!("bench: {line}");
    }
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
