//! `bench` — regenerate the committed results baseline.
//!
//! Collects the gated results table (`sprite_bench::metrics::collect`:
//! every object of `sprite_bench::metrics::OBJECTS`) at
//! `sprite_bench::BASELINE_SCALE` and writes it as
//! `BENCH_experiments.json` at the repository root. Every field is
//! simulated and exact at equal seed and scale, so regenerating on any
//! host reproduces the file; `--bin gate` is the same collection compared
//! instead of written. Exits 1 — after writing, so the numbers can be
//! inspected — when the run breaks one of its own within-run requirements
//! or one of the paper's shape claims (`metrics::verdicts`).
//!
//! Run: `cargo run -p sprite-bench --bin bench --release [output.json]`

use std::process::ExitCode;

use sprite_bench::metrics::{collect, to_json, verdicts, violations};
use sprite_bench::BASELINE_SCALE;

fn main() -> ExitCode {
    let out_path = sprite_bench::baseline_path();
    eprintln!("# bench: scale={BASELINE_SCALE}");
    let rows = collect(&sprite_bench::baseline_world());
    let body = to_json(BASELINE_SCALE, &rows);
    if let Err(e) = std::fs::write(&out_path, &body) {
        eprintln!("# FAILED writing {out_path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("# wrote {out_path} ({} gated fields)", rows.len());
    print!("{body}");
    let mut broken = violations(&rows);
    broken.extend(verdicts(&rows));
    for line in &broken {
        println!("bench: {line}");
    }
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
