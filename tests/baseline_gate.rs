//! Tier-1's reach into the results gate. The cheap part of
//! `BENCH_experiments.json` — Figure 4(a), the cost study, the `metrics`
//! ledger and the `memory` footprint — is recomputed at the baseline's own
//! scale and held to the committed file through the same comparer `--bin
//! gate` uses, so plain `cargo test -q` fails on drift. The other six
//! objects (fifty more deployments) stay with `--bin gate`. The paper's
//! shape claims are read off the committed file itself, so no baseline
//! whose figures have lost their shape can be committed.

use sprite_bench::json::{self, JsonValue};
use sprite_bench::metrics::{
    baseline_rows, compare, cost_rows, fig4a_rows, memory_rows, metrics_rows, verdicts,
};
use sprite_bench::{baseline_world, BASELINE_SCALE};

fn committed() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_experiments.json");
    let text = std::fs::read_to_string(path).expect("the committed baseline is readable");
    json::parse(&text).expect("the committed baseline parses")
}

#[test]
fn committed_metrics_and_memory_match_a_fresh_run() {
    let JsonValue::Obj(members) = committed() else {
        panic!("the committed baseline is not a JSON object");
    };
    assert!(
        members.contains(&(
            "scale".to_string(),
            JsonValue::Str(BASELINE_SCALE.to_string())
        )),
        "this test rebuilds the world at BASELINE_SCALE, the baseline's own scale"
    );
    // The comparer also reports what the run did not produce, so hand it
    // only the objects this test recomputes.
    const RECOMPUTED: [&str; 4] = ["fig4a", "cost", "metrics", "memory"];
    let recomputed = JsonValue::Obj(
        members
            .into_iter()
            .filter(|(key, _)| RECOMPUTED.contains(&key.as_str()))
            .collect(),
    );
    let world = baseline_world();
    let mut rows = fig4a_rows(&world);
    rows.extend(cost_rows(&world));
    rows.extend(metrics_rows(&world));
    rows.extend(memory_rows(&world));
    let diffs = compare(&rows, &recomputed);
    assert!(
        diffs.is_empty(),
        "BENCH_experiments.json drifted from a fresh run — fix the regression or regenerate it \
         with `cargo run -p sprite-bench --bin bench --release`:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn committed_baseline_keeps_the_papers_shape() {
    let broken = verdicts(&baseline_rows(&committed()));
    assert!(
        broken.is_empty(),
        "the committed baseline breaks the paper's shape claims:\n{}",
        broken.join("\n")
    );
}
