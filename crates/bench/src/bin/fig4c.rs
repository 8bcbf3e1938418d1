//! Figure 4(c): adaptation to a query-pattern change. Ten learning
//! iterations; the query population switches to a disjoint interest group
//! after iteration 5. Term cap 30 (replacement-only once reached).
//!
//! Run: `cargo run -p sprite-bench --bin fig4c --release`

use sprite_bench::{build_world, print_table, r3};
use sprite_core::fig4c;

fn main() {
    let world = build_world(42);
    let fig = fig4c(&world, 10, 20);

    let rows: Vec<Vec<String>> = fig
        .sprite
        .iter()
        .zip(&fig.esearch)
        .map(|(s, e)| {
            let it = s.x as usize;
            vec![
                format!("{it}{}", if it == fig.switch_at { " *" } else { "" }),
                r3(s.precision),
                r3(e.precision),
                r3(s.recall),
                r3(e.recall),
            ]
        })
        .collect();
    print_table(
        "Figure 4(c) — effectiveness ratio per learning iteration (30-term cap, pattern change at *)",
        &["iter", "SPRITE P", "eSearch P", "SPRITE R", "eSearch R"],
        &rows,
    );
    println!(
        "\npaper shape: SPRITE above eSearch throughout; dip right after the \
         switch (iteration {}), recovering within ~1 iteration",
        fig.switch_at
    );
}
