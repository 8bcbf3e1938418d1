//! Every `SpriteConfig` field steers the system.
//!
//! Each field is moved off its default, one at a time, on a tiny world:
//! publish, a Zipf-repeated training workload, one learning iteration,
//! then a batch of test queries. The index (every peer's lists), the message bill or the
//! ranked hits must differ from the default run's. A field nothing reads
//! any more fails here by name; a new field fails to compile until it is
//! added below.

use sprite_chord::NetStats;
use sprite_core::{IdfMode, ScoreMode, SpriteConfig, World, WorldConfig};
use sprite_corpus::Schedule;
use sprite_ir::{Similarity, TermId};
use sprite_util::RingId;

/// One inverted list: where it lives, its term, and its `(doc, tf)`s.
type List = (RingId, TermId, Vec<(u32, u32)>);

/// Every peer's inverted lists, the whole bill, and the test queries'
/// hits (scores to the bit).
#[derive(PartialEq)]
struct Outcome {
    index: Vec<List>,
    bill: NetStats,
    hits: Vec<Vec<(u32, u64)>>,
}

fn run(world: &World, cfg: SpriteConfig) -> Outcome {
    let mut sys = world.new_system(cfg);
    sys.publish_all();
    // Repeats give a document's queried terms different query
    // frequencies, which `score_mode` needs to rank them apart.
    let schedule = Schedule::Zipf {
        slope: 0.5,
        total: 3 * world.train.len(),
    };
    world.issue(&mut sys, &world.train, schedule);
    sys.learning_iteration();
    let hits = world
        .test
        .iter()
        .take(20)
        .map(|&qi| {
            let hits = sys.issue_query(&world.workload[qi].query, 10);
            hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
        })
        .collect();
    let mut index = Vec::new();
    for peer in sys.indexing_peers() {
        let st = sys.indexing_state(peer).expect("listed peer has state");
        for (t, list) in st.terms() {
            index.push((peer, t, list.iter().map(|e| (e.doc.0, e.tf)).collect()));
        }
    }
    Outcome {
        index,
        bill: sys.net().stats().clone(),
        hits,
    }
}

#[test]
fn every_config_field_steers_the_index_the_bill_or_the_hits() {
    // Exhaustive: a tenth field is a compile error here until it gets a
    // perturbation of its own.
    let SpriteConfig {
        initial_terms,
        terms_per_iteration,
        max_terms,
        query_cache_capacity,
        assumed_n,
        replication,
        similarity,
        score_mode,
        idf_mode,
    } = SpriteConfig::default();
    let default = SpriteConfig::default;
    // (field, the run it is compared against, the run with it moved).
    let perturbed: [(&str, SpriteConfig, SpriteConfig); 9] = [
        (
            "initial_terms",
            default(),
            SpriteConfig {
                initial_terms: initial_terms - 2,
                ..default()
            },
        ),
        (
            "terms_per_iteration",
            default(),
            SpriteConfig {
                terms_per_iteration: terms_per_iteration - 3,
                ..default()
            },
        ),
        // One iteration grows the budget to 10: a cap below that binds.
        (
            "max_terms",
            default(),
            SpriteConfig {
                max_terms: max_terms - 13,
                ..default()
            },
        ),
        (
            "query_cache_capacity",
            default(),
            SpriteConfig {
                query_cache_capacity: query_cache_capacity / 4096,
                ..default()
            },
        ),
        (
            "assumed_n",
            default(),
            SpriteConfig {
                assumed_n: assumed_n / 1000.0,
                ..default()
            },
        ),
        (
            "replication",
            default(),
            SpriteConfig {
                replication: replication + 1,
                ..default()
            },
        ),
        (
            "similarity",
            default(),
            SpriteConfig {
                similarity: match similarity {
                    Similarity::LeeSecond => Similarity::CosineTfIdf,
                    _ => Similarity::LeeSecond,
                },
                ..default()
            },
        ),
        // The mode ranks a document's queried terms, which decides
        // nothing while the budget holds them all: at the default budget
        // (10 after one iteration) it never binds in this world, so both
        // runs get a budget of 2.
        (
            "score_mode",
            SpriteConfig {
                initial_terms: 1,
                terms_per_iteration: 1,
                max_terms: 2,
                ..default()
            },
            SpriteConfig {
                initial_terms: 1,
                terms_per_iteration: 1,
                max_terms: 2,
                score_mode: match score_mode {
                    ScoreMode::QScoreOnly => ScoreMode::Full,
                    _ => ScoreMode::QScoreOnly,
                },
                ..default()
            },
        ),
        (
            "idf_mode",
            default(),
            SpriteConfig {
                idf_mode: match idf_mode {
                    IdfMode::Indexed => IdfMode::TrueDf,
                    IdfMode::TrueDf => IdfMode::Indexed,
                },
                ..default()
            },
        ),
    ];
    let world = World::build(WorldConfig::tiny(77));
    let inert: Vec<&str> = perturbed
        .into_iter()
        .filter(|(_, base, moved)| run(&world, base.clone()) == run(&world, moved.clone()))
        .map(|(name, _, _)| name)
        .collect();
    assert!(
        inert.is_empty(),
        "SpriteConfig fields that steer nothing: {inert:?}"
    );
}
