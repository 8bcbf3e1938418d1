//! Figure 4(a): precision & recall ratio (over centralized) vs number of
//! answers K, SPRITE (20 learned terms) vs basic eSearch (20 static terms).
//!
//! Run: `cargo run -p sprite-bench --bin fig4a --release`
//! (set `SPRITE_SCALE=small` for a quick pass).

use sprite_bench::{build_world, print_table, r3};
use sprite_core::fig4a;

fn main() {
    let world = build_world(42);
    let answers = [5usize, 10, 15, 20, 25, 30];
    let fig = fig4a(&world, &answers);

    let rows: Vec<Vec<String>> = answers
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            vec![
                k.to_string(),
                r3(fig.sprite[i].precision),
                r3(fig.esearch[i].precision),
                r3(fig.sprite[i].recall),
                r3(fig.esearch[i].recall),
            ]
        })
        .collect();
    print_table(
        "Figure 4(a) — effectiveness ratio vs number of answers (20 indexed terms)",
        &["answers", "SPRITE P", "eSearch P", "SPRITE R", "eSearch R"],
        &rows,
    );
    println!(
        "\npaper shape: eSearch ahead at K<=10, SPRITE ahead at K>=15; \
         SPRITE roughly flat (~0.85-0.9), eSearch degrading with K"
    );
}
