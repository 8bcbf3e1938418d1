//! Diagnostic (not a paper figure): how well does each system's published
//! term set cover the *query terms* of the test workload, per relevant
//! document? This is the mechanism behind every Figure-4 gap — plus a
//! [`sprite_core::QueryTrace`] walkthrough of the first few test queries
//! (per-keyword routes, owner hits, failover paths, message bills).
//!
//! Run: `cargo run -p sprite-bench --bin diag --release [tiny|small|full|huge]`
//! (default `full`).

use std::process::ExitCode;

use sprite_chord::NetStats;
use sprite_core::{RankScratch, SpriteConfig, SpriteSystem, World, WorldConfig};
use sprite_corpus::Schedule;

fn main() -> ExitCode {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let Some(config) = WorldConfig::named(&scale, 42) else {
        eprintln!("diag: unknown scale {scale:?} (expected tiny, small, full or huge)");
        return ExitCode::FAILURE;
    };
    let world = World::build(config);
    // Trace the learning pipeline.
    {
        let mut sys = world.new_system(SpriteConfig::default());
        world.issue(&mut sys, &world.train, Schedule::WithoutRepeats);
        sys.publish_all();
        for it in 1..=3 {
            let r = sys.learning_iteration();
            eprintln!("iter {it}: {r:?}");
        }
    }
    let mut sprite = world.standard_system(SpriteConfig::default(), Schedule::WithoutRepeats);
    let esearch = world.standard_system(SpriteConfig::esearch(20), Schedule::WithoutRepeats);

    let coverage = |sys: &SpriteSystem| -> (f64, f64) {
        // Over all test queries and their relevant docs: fraction of
        // (query term ∈ doc) pairs that the system has published.
        let mut have = 0usize;
        let mut total = 0usize;
        let mut docs_any = 0usize;
        let mut docs_total = 0usize;
        for &qi in &world.test {
            let gq = &world.workload[qi];
            #[allow(clippy::iter_over_hash_type)] // counts only, order-free
            for &d in &gq.relevant {
                let doc = sys.corpus().doc(d);
                let published = sys.published_terms(d);
                let mut any = false;
                for (t, _) in gq.query.term_counts() {
                    if doc.contains(t) {
                        total += 1;
                        if published.contains(&t) {
                            have += 1;
                            any = true;
                        }
                    }
                }
                docs_total += 1;
                if any {
                    docs_any += 1;
                }
            }
        }
        (
            have as f64 / total.max(1) as f64,
            docs_any as f64 / docs_total.max(1) as f64,
        )
    };

    println!("## Query-term index coverage over relevant documents (test set)\n");
    println!("system       term coverage  docs reachable");
    for (name, sys) in [("SPRITE(20)", &sprite), ("eSearch(20)", &esearch)] {
        let (terms, docs) = coverage(sys);
        println!("{name:<11}  {terms:>13.3}  {docs:>14.3}");
    }

    // Where do SPRITE's published terms come from?
    let mut learned = 0usize;
    let mut frequent = 0usize;
    for (i, d) in sprite.corpus().docs().iter().enumerate() {
        let top = d.top_frequent_terms(20);
        for t in sprite.published_terms(sprite_ir::DocId(i as u32)) {
            if top.contains(t) {
                frequent += 1;
            } else {
                learned += 1;
            }
        }
    }
    println!(
        "\nSPRITE published terms: {frequent} overlap eSearch's top-20, {learned} learned beyond it"
    );

    // Per-query walkthroughs: how the first few test queries actually
    // resolved, keyword by keyword. Charges go into a throwaway delta so
    // the diagnostic leaves the deployment's bill untouched.
    println!("\n## Query traces (first 3 test queries, SPRITE deployment)\n");
    let traces: Vec<sprite_core::QueryTrace> = {
        let view = sprite.query_view();
        let peers = view.peers();
        let mut scratch = RankScratch::new();
        world
            .test
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, &qi)| {
                let gq = &world.workload[qi];
                let mut delta = NetStats::new();
                let (_, qt) = view.query_trace(
                    peers[i % peers.len()],
                    &gq.query,
                    20,
                    &mut delta,
                    &mut scratch,
                );
                qt
            })
            .collect()
    };
    for qt in &traces {
        print!("{}", qt.render(sprite.corpus()));
    }
    ExitCode::SUCCESS
}
