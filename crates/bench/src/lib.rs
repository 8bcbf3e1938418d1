//! The paper's simulated results as one gated table.
//!
//! [`metrics`] collects every figure and study of the paper — Figure
//! 4(a)–(c), the cost study, the §7 churn study, the ablations — and the
//! message, loss, freshness and memory ledgers as rows, checks the
//! paper's shape claims over them ([`metrics::verdicts`]), and renders
//! them (`sprite figure`). `--bin bench` writes the rows as
//! `BENCH_experiments.json` and `--bin gate` holds a fresh run to it.
//! Nothing here reads a clock — speed is measured by the standalone
//! `benchmark/` package.

#![deny(rust_2018_idioms)]

pub mod json;
pub mod metrics;

use sprite_core::{World, WorldConfig};

/// The scale `--bin bench` writes the committed baseline at and `--bin
/// gate` holds it to (seconds per run, where `full` takes minutes on CI).
pub const BASELINE_SCALE: &str = "small";

/// The world the baseline is collected from: seed 42 at [`BASELINE_SCALE`].
#[must_use]
pub fn baseline_world() -> World {
    World::build(WorldConfig::named(BASELINE_SCALE, 42).expect("BASELINE_SCALE names a scale"))
}

/// The baseline those two binaries work on: their first argument, else
/// `BENCH_experiments.json` at the workspace root.
#[must_use]
pub fn baseline_path() -> String {
    std::env::args().nth(1).unwrap_or_else(|| {
        // crates/bench → workspace root, two levels up.
        format!(
            "{}/../../BENCH_experiments.json",
            env!("CARGO_MANIFEST_DIR")
        )
    })
}
