//! Figure 4(b): precision ratio vs number of indexed terms, under the
//! `w/o-r` (no repeats) and `w-zipf` (Zipf 0.5) query schedules.
//!
//! Run: `cargo run -p sprite-bench --bin fig4b --release`

use sprite_bench::{build_world, print_table, r3};
use sprite_core::fig4b;

fn main() {
    let world = build_world(42);
    let budgets = [5usize, 10, 15, 20, 25, 30];
    let fig = fig4b(&world, &budgets, 20);

    let rows: Vec<Vec<String>> = budgets
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            vec![
                b.to_string(),
                r3(fig.sprite_wor[i].precision),
                r3(fig.sprite_zipf[i].precision),
                r3(fig.esearch[i].precision),
            ]
        })
        .collect();
    print_table(
        "Figure 4(b) — precision ratio vs number of indexed terms (top-20 answers)",
        &["terms", "SPRITE w/o-r", "SPRITE w-zipf", "eSearch"],
        &rows,
    );
    println!(
        "\npaper shape: equal at 5 terms (no learning yet); SPRITE >= eSearch \
         everywhere after; SPRITE@20 ~ eSearch@30"
    );
}
