//! Building a deployment call by call, and judging its answers.
//!
//! [`deploy`] makes the same public calls, in the same order, as
//! `World::standard_system_with_sim` — but one at a time, with a harness
//! span around each, so the phases of a deployment's life (create, train,
//! publish, learn × 3) are separate rows of the ledger. Three workloads run
//! it during set-up; `index-build` runs it as its timed operation. A unit
//! test holds the copy to the original: same index, same bill.

use sprite_chord::{NetStats, SimConfig};
use sprite_core::{RankScratch, SpriteConfig, SpriteSystem, World};
use sprite_corpus::Schedule;
use sprite_ir::{
    evaluate_hits_at_k, CentralizedEngine, DocId, Hit, Query, RatioAccumulator, SearchScratch,
};

use crate::harness::{Verdict, K};
use crate::spans::Spans;

/// Span names of the learning iterations (§6.2: 5 initial terms + 3 × 5).
const LEARN_SPANS: [&str; 3] = ["core.learn_iter1", "core.learn_iter2", "core.learn_iter3"];

/// Passes over the corpus in one deployment lifecycle: `publish_all` plus
/// the learning iterations. `index-build` counts one document through one
/// pass as its operation.
pub const PASSES: usize = 1 + LEARN_SPANS.len();

/// Build a standard deployment over `world` (see the module docs).
/// `traced` installs the program's `TraceRecorder` from the first message
/// on; `after_pass(spans, sys, pass)` runs after `publish_all` (pass 0) and
/// after each learning iteration (passes 1–3).
pub fn deploy(
    spans: &mut Spans,
    world: &World,
    cfg: SpriteConfig,
    sim: SimConfig,
    op: u64,
    traced: bool,
    mut after_pass: impl FnMut(&mut Spans, &mut SpriteSystem, usize),
) -> SpriteSystem {
    let iterations = (cfg.max_terms - cfg.initial_terms).div_ceil(cfg.terms_per_iteration);
    assert_eq!(
        iterations,
        LEARN_SPANS.len(),
        "the paper's 5 + 3 × 5 budget"
    );
    let (mut sys, _) = spans.time("core.new_system", op, || world.new_system(cfg));
    sys.net_mut().set_sim(sim);
    if traced {
        sys.enable_tracing();
    }
    spans.time("core.train_issue", op, || {
        world.issue(&mut sys, &world.train, Schedule::WithoutRepeats);
    });
    spans.time("core.publish_all", op, || sys.publish_all());
    after_pass(spans, &mut sys, 0);
    for (i, name) in LEARN_SPANS.into_iter().enumerate() {
        spans.time(name, op, || sys.learning_iteration());
        after_pass(spans, &mut sys, i + 1);
    }
    sys
}

/// The queries of the held-out test split, in split order.
#[must_use]
pub fn test_queries(world: &World) -> Vec<&Query> {
    world
        .test
        .iter()
        .map(|&qi| &world.workload[qi].query)
        .collect()
}

/// The answer every test query must get from a fault-free deployment,
/// computed once through the *batched* path (`resolve_routes` +
/// `query_batched`) — neither workload times that path, so the timed
/// answers are checked against an independently routed ranking. On a
/// converged ring the answer does not depend on the issuing peer.
#[must_use]
pub fn expected_answers(world: &World, sys: &mut SpriteSystem) -> Vec<Vec<Hit>> {
    let queries = test_queries(world);
    sys.warm_query_terms(queries.iter().copied());
    let view = sys.query_view();
    let from = view.peers()[0];
    let memo = view.resolve_routes(queries.iter().map(|&q| (from, q)));
    let mut unbilled = NetStats::new();
    let mut scratch = RankScratch::new();
    queries
        .iter()
        .map(|q| view.query_batched(from, q, K, &memo, &mut unbilled, &mut scratch))
        .collect()
}

/// Verdict on a fault-free deployment's answer: it must equal the expected
/// one bit for bit; an (expectedly) empty answer still counts against
/// `answer_ok_ratio` when the centralized reference ranks something.
#[must_use]
pub fn judge_expected(hits: &[Hit], expected: &[Hit], reference_ranks_some: bool) -> Verdict {
    if hits != expected {
        Verdict::Wrong
    } else if hits.is_empty() && reference_ranks_some {
        Verdict::Unanswered
    } else {
        Verdict::Ok
    }
}

/// True when `hits` is a well-formed ranking: at most `K` hits, finite
/// scores, strictly ordered by (score descending, document ascending) —
/// which also rules out a document appearing twice in a row of equal
/// scores.
#[must_use]
pub fn well_formed(hits: &[Hit]) -> bool {
    hits.len() <= K
        && hits.iter().all(|h| h.score.is_finite())
        && hits
            .windows(2)
            .all(|w| w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc))
}

/// Verdict on an answer given under churn, where no expected answer
/// exists: malformed rankings are wrong; a deleted document among the hits
/// is stale; an empty answer is unanswered when the reference still ranks
/// a live document.
#[must_use]
pub fn judge_live(
    hits: &[Hit],
    is_deleted: impl Fn(DocId) -> bool,
    reference_ranks_live: impl FnOnce() -> bool,
) -> Verdict {
    if !well_formed(hits) {
        Verdict::Wrong
    } else if hits.iter().any(|h| is_deleted(h.doc)) {
        Verdict::Stale
    } else if hits.is_empty() && reference_ranks_live() {
        Verdict::Unanswered
    } else {
        Verdict::Ok
    }
}

/// P@20 ratio over the centralized engine on the test split, for a
/// deployment whose corpus has not changed.
pub fn precision_ratio(world: &World, sys: &mut SpriteSystem) -> f64 {
    world.evaluate(sys, &world.test, K).precision_ratio
}

/// P@20 ratio for a deployment whose corpus *has* changed — the
/// `freshness_figure` recipe: the reference engine is rebuilt over the
/// mutated corpus with deleted slots emptied, and relevance judgments are
/// filtered to live documents. The queries' bill is not absorbed into the
/// deployment.
pub fn fresh_precision_ratio(world: &World, sys: &mut SpriteSystem) -> f64 {
    let dead: Vec<bool> = (0..sys.corpus().len())
        .map(|i| sys.is_deleted(DocId(i as u32)))
        .collect();
    let mut ref_corpus = sys.corpus().clone();
    for (i, _) in dead.iter().enumerate().filter(|(_, &gone)| gone) {
        ref_corpus.replace_document(DocId(i as u32), Vec::new());
    }
    let reference = CentralizedEngine::build(&ref_corpus);
    sys.warm_query_terms(test_queries(world));
    let view = sys.query_view();
    let peers = view.peers();
    let (mut rank, mut search) = (RankScratch::new(), SearchScratch::new());
    let mut unbilled = NetStats::new();
    let mut acc = RatioAccumulator::new();
    for (i, &qi) in world.test.iter().enumerate() {
        let gq = &world.workload[qi];
        let from = peers[i % peers.len()];
        let sys_hits = view.query(from, &gq.query, K, &mut unbilled, &mut rank);
        let cen_hits = reference.search_with(&gq.query, K, &mut search);
        let relevant = gq
            .relevant
            .iter()
            .copied()
            .filter(|d| !dead[d.index()])
            .collect();
        acc.add(
            evaluate_hits_at_k(&sys_hits, &relevant, K),
            evaluate_hits_at_k(&cen_hits, &relevant, K),
        );
    }
    acc.finish().precision_ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(doc: u32, score: f64) -> Hit {
        Hit {
            doc: DocId(doc),
            score,
        }
    }

    #[test]
    fn deploy_builds_what_the_library_pipeline_builds() {
        use crate::workloads::churn_repair::{config, links};
        let world = World::build(sprite_core::WorldConfig::tiny(42));
        for (cfg, sim) in [
            (SpriteConfig::default(), SimConfig::default()),
            (config(), links(7)),
        ] {
            let ours = deploy(
                &mut Spans::new(),
                &world,
                cfg.clone(),
                sim,
                0,
                false,
                |_, _, _| {},
            );
            let theirs = world.standard_system_with_sim(cfg, Schedule::WithoutRepeats, sim);
            assert_eq!(
                sprite_audit::determinism::fingerprint_index(&ours),
                sprite_audit::determinism::fingerprint_index(&theirs),
                "same index"
            );
            assert_eq!(ours.net().stats(), theirs.net().stats(), "same bill");
        }
    }

    #[test]
    fn well_formed_rankings() {
        assert!(well_formed(&[]));
        assert!(well_formed(&[hit(3, 2.0), hit(1, 1.0), hit(2, 1.0)]));
        assert!(
            !well_formed(&[hit(1, 1.0), hit(3, 2.0)]),
            "ascending scores"
        );
        assert!(!well_formed(&[hit(2, 1.0), hit(2, 1.0)]), "duplicate");
        assert!(!well_formed(&[hit(1, f64::NAN)]));
        let long: Vec<Hit> = (0..=K as u32).map(|d| hit(d, 1.0)).collect();
        assert!(!well_formed(&long), "more than K hits");
    }

    #[test]
    fn verdicts() {
        let a = [hit(1, 1.0)];
        assert_eq!(judge_expected(&a, &a, true), Verdict::Ok);
        assert_eq!(judge_expected(&a, &[hit(1, 1.5)], true), Verdict::Wrong);
        assert_eq!(judge_expected(&[], &[], true), Verdict::Unanswered);
        assert_eq!(judge_expected(&[], &[], false), Verdict::Ok);
        assert_eq!(judge_live(&a, |_| false, || true), Verdict::Ok);
        assert_eq!(judge_live(&a, |d| d == DocId(1), || true), Verdict::Stale);
        assert_eq!(judge_live(&[], |_| false, || true), Verdict::Unanswered);
        assert_eq!(judge_live(&[], |_| false, || false), Verdict::Ok);
        assert_eq!(
            judge_live(&[hit(1, 1.0), hit(2, 2.0)], |_| false, || true),
            Verdict::Wrong
        );
    }
}
