//! Peer churn and the §7 replication extension.
//!
//! Kills a growing fraction of indexing peers and measures how many of a
//! reference query's answers survive, with and without successor
//! replication of the index. Then runs six ticks of continuous churn with
//! a repair round after each and prints what every round moved.
//!
//! Run: `cargo run --example churn_resilience` — a debug build, so the
//! index's `debug_assert` validation runs on the repair path too. Exits
//! non-zero when a repair round finds no shipped list already in place:
//! with three copies of everything that is the common case, and a round
//! without one means the block merge stopped recognising equal copies.

use std::process::ExitCode;

use sprite::chord::{ChurnConfig, ChurnEngine};
use sprite::core::{SpriteConfig, SpriteSystem};
use sprite::corpus::{CorpusConfig, SyntheticCorpus};
use sprite::ir::Query;

fn build(replication: usize, world: &SyntheticCorpus) -> SpriteSystem {
    let cfg = SpriteConfig {
        replication,
        ..SpriteConfig::default()
    };
    let mut sys = SpriteSystem::build(world.corpus().clone(), 48, cfg, 5);
    sys.publish_all();
    if replication > 1 {
        // The periodic replication pass of §7.
        sys.replicate_indexes();
    }
    sys
}

/// Six ticks of join / leave / fail churn at replication 3, a document
/// deleted and a repair round run after each. False when a round's
/// counters are impossible for a working block merge.
fn repair_rounds(world: &SyntheticCorpus) -> bool {
    let mut sys = build(3, world);
    let mut engine = ChurnEngine::new(
        ChurnConfig {
            join_rate: 2.0,
            leave_rate: 1.0,
            fail_rate: 1.0,
            ..ChurnConfig::default()
        },
        6,
    );
    println!(
        "\nround | handed over | reclaimed | orphans | replicated | lists shipped | unchanged"
    );
    let mut sound = true;
    for round in 0..6 {
        let churn = sys.churn_tick(&mut engine);
        if let Some(&doc) = sys.live_docs().first() {
            sys.delete_document(doc);
        }
        let r = sys.maintenance_round();
        println!(
            "{round:>5} | {:>11} | {:>9} | {:>7} | {:>10} | {:>13} | {:>9}",
            churn.handed_over,
            r.tombstones_reclaimed,
            r.orphans_moved,
            r.replicated,
            r.lists_shipped,
            r.lists_unchanged
        );
        if r.lists_unchanged == 0 || r.lists_unchanged > r.lists_shipped {
            eprintln!(
                "round {round}: {} of {} shipped lists unchanged",
                r.lists_unchanged, r.lists_shipped
            );
            sound = false;
        }
    }
    println!(
        "\nevery replica re-sends every list to its owner and every owner to \
         its replicas each round; almost all land on an equal copy and are \
         recognised by comparing packed blocks, without decoding an entry"
    );
    sound
}

fn main() -> ExitCode {
    let world = SyntheticCorpus::generate(&CorpusConfig::tiny(5));
    let probe = Query::new(world.topic_core(0)[..3].to_vec());

    println!("failures | hits r=1 | hits r=3   (top-30 answers, 48 peers)");
    for kill in [0usize, 4, 8, 16] {
        let mut plain = build(1, &world);
        let mut replicated = build(3, &world);
        plain.fail_random_peers(kill, 1000 + kill as u64);
        replicated.fail_random_peers(kill, 1000 + kill as u64);
        let hp = plain.issue_query(&probe, 30).len();
        let hr = replicated.issue_query(&probe, 30).len();
        println!("{kill:>8} | {hp:>8} | {hr:>8}");
    }

    println!(
        "\nwith replication the ring re-routes each term to a successor \
         holding a replica, so answers survive; without it, entries on \
         failed peers are simply gone until owners republish"
    );

    if repair_rounds(&world) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
