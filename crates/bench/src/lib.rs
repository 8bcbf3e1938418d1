//! The paper's simulated results: figure printers and the exact gate.
//!
//! Every figure of the paper has a binary in `src/bin/` that prints the
//! same series the paper plots; `--bin bench` writes the gated results
//! table ([`metrics`]) as `BENCH_experiments.json` and `--bin gate` holds
//! a fresh run to it. Nothing here reads a clock — speed is measured by
//! the standalone `benchmark/` package. The scale is selected with the
//! `SPRITE_SCALE` environment variable:
//!
//! * `full` (default) — the DESIGN.md default scale (8,000 documents,
//!   63 seed queries → 630 generated queries, 64 peers);
//! * `small` — integration-test scale (runs in seconds; the committed
//!   baseline's scale);
//! * `tiny` — smoke-test scale (sub-second);
//! * `huge` — the 100,000-peer population-scale tier (what `benchmark/`'s
//!   `route-huge` workload and the nightly CI job run).

#![deny(rust_2018_idioms)]

pub mod json;
pub mod metrics;

use sprite_core::{World, WorldConfig};

/// Resolve the experiment scale from `SPRITE_SCALE` (default `full`).
#[must_use]
pub fn world_config_from_env(seed: u64) -> WorldConfig {
    match std::env::var("SPRITE_SCALE").as_deref() {
        Ok("tiny") => WorldConfig::tiny(seed),
        Ok("small") => WorldConfig::small(seed),
        Ok("huge") => WorldConfig::huge(seed),
        _ => WorldConfig {
            seed,
            ..WorldConfig::default()
        },
    }
}

/// Build the world, echoing its parameters.
#[must_use]
pub fn build_world(seed: u64) -> World {
    let cfg = world_config_from_env(seed);
    eprintln!(
        "# world: {} docs, {} topics, {} peers, {} queries (O={:.0}%, k={}), seed {}",
        cfg.corpus.n_docs,
        cfg.corpus.n_topics,
        cfg.n_peers,
        cfg.corpus.n_seed_queries * (cfg.gen.k_per_seed + 1),
        cfg.gen.overlap * 100.0,
        cfg.gen.k_per_seed,
        cfg.seed,
    );
    World::build(cfg)
}

/// `SPRITE_SCALE` for the two binaries that write and gate the committed
/// baseline: defaulted to `small`, the scale it is generated at, rather
/// than inheriting `full` and taking minutes on CI.
#[must_use]
pub fn baseline_scale() -> String {
    if std::env::var("SPRITE_SCALE").is_err() {
        std::env::set_var("SPRITE_SCALE", "small");
    }
    std::env::var("SPRITE_SCALE").unwrap_or_default()
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

/// Print a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", line.join("  "));
    println!("{}", "-".repeat(line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format a ratio as e.g. `0.873`.
#[must_use]
pub fn r3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scale_selection() {
        // Serial by nature (env var); test only the parse logic through
        // explicit calls on the current process state.
        std::env::set_var("SPRITE_SCALE", "tiny");
        assert_eq!(world_config_from_env(1).corpus.n_docs, 200);
        std::env::set_var("SPRITE_SCALE", "small");
        assert_eq!(world_config_from_env(1).corpus.n_docs, 1_500);
        std::env::remove_var("SPRITE_SCALE");
        assert_eq!(world_config_from_env(1).corpus.n_docs, 8_000);
    }

    #[test]
    fn table_formatting_does_not_panic() {
        print_table(
            "demo",
            &["k", "precision"],
            &[
                vec!["5".into(), "0.91".into()],
                vec!["10".into(), "0.88".into()],
            ],
        );
        assert_eq!(r3(0.8734), "0.873");
    }
}
