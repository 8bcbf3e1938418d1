//! Tier-1's reach into the results gate: the cheap half of
//! `BENCH_experiments.json` — the `metrics` ledger and the `memory`
//! footprint, one standard deployment each — is recomputed at the
//! baseline's own scale and held to the committed file through the same
//! comparer `--bin gate` uses, so plain `cargo test -q` fails on ledger
//! drift. The `churn`, `loss` and `freshness` sweeps (sixteen more
//! deployments) stay with `--bin gate`.

use sprite::core::{World, WorldConfig};
use sprite_bench::json::{self, JsonValue};
use sprite_bench::metrics::{compare, memory_rows, metrics_rows};

#[test]
fn committed_metrics_and_memory_match_a_fresh_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_experiments.json");
    let text = std::fs::read_to_string(path).expect("the committed baseline is readable");
    let JsonValue::Obj(members) = json::parse(&text).expect("the committed baseline parses") else {
        panic!("the committed baseline is not a JSON object");
    };
    assert!(
        members.contains(&("scale".to_string(), JsonValue::Str("small".to_string()))),
        "this test rebuilds the world at the baseline's scale, which must be `small`"
    );
    // The comparer also reports what the run did not produce, so hand it
    // only the objects this test recomputes.
    let recomputed = JsonValue::Obj(
        members
            .into_iter()
            .filter(|(key, _)| key == "metrics" || key == "memory")
            .collect(),
    );
    // Seed 42 at small scale: what `--bin bench` builds by default.
    let world = World::build(WorldConfig::small(42));
    let mut rows = metrics_rows(&world);
    rows.extend(memory_rows(&world));
    let diffs = compare(&rows, &recomputed);
    assert!(
        diffs.is_empty(),
        "BENCH_experiments.json drifted from a fresh run — fix the regression or regenerate it \
         with `cargo run -p sprite-bench --bin bench --release`:\n{}",
        diffs.join("\n")
    );
}
