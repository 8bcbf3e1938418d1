//! Read-only query probes for the write-side workloads.
//!
//! `index-build` and `churn-repair` spend their time building and
//! repairing; what a user sees of them is how search behaves *while* they
//! run. After each pass or tick the harness freezes the deployment into a
//! `QueryView` and sends a few rounds of the held-out test queries through
//! it, each query timed on its own. *What* is asked is the whole split,
//! every round; *who* asks is drawn from the run's seed.

use std::time::Duration;

use sprite_chord::{NetStats, TraceRecorder};
use sprite_core::{RankScratch, SpriteSystem, World};
use sprite_ir::DocId;
use sprite_util::{derive_rng, DetRng, RingId};

use crate::deploy::{judge_live, test_queries};
use crate::harness::{Args, Verdict, K};
use crate::spans::Spans;

/// What the probe points add to the run: one `(latency, verdict)` per
/// query, the queries' simulated bill, and — in a traced window — the
/// program's own trace of them.
pub struct Probes {
    /// Draws the issuing peer of every probe query.
    issuers: DetRng,
    /// Per probe point, one sample per query in issue order.
    pub points: Vec<Vec<(Duration, Verdict)>>,
    /// Simulated messages and bytes billed to the probe queries. Kept on
    /// the harness side: probes measure the deployment, they are not part
    /// of its life.
    pub bill: NetStats,
    /// The program's trace of the probes of traced windows.
    pub recorder: TraceRecorder,
}

impl Probes {
    /// No probe point yet; issuers drawn from
    /// `derive_rng(seed, "benchmark/<workload>")`.
    #[must_use]
    pub fn new(args: &Args) -> Probes {
        Probes {
            issuers: derive_rng(args.seed, &format!("benchmark/{}", args.workload.name())),
            points: Vec::new(),
            bill: NetStats::new(),
            recorder: TraceRecorder::new(),
        }
    }
}

/// Send `rounds` rounds of the test split through a fresh view of `sys`.
///
/// Every query is issued from a peer drawn uniformly from the live ones, so
/// rounds differ in who asks, not in what is asked. Every answer is judged
/// ([`judge_live`]); round 0 is also re-routed through the batched path
/// (`resolve_routes` + `query_batched`) from the same peers and must match
/// it bit for bit — under churn no fixed expected answer exists, but two
/// paths over one frozen deployment must still agree.
pub fn probe(
    spans: &mut Spans,
    world: &World,
    sys: &mut SpriteSystem,
    rounds: usize,
    op: u64,
    traced: bool,
    out: &mut Probes,
) {
    let queries = test_queries(world);
    let open = spans.enter("bench.probe_prep", op);
    let dead: Vec<bool> = (0..sys.corpus().len())
        .map(|i| sys.is_deleted(DocId(i as u32)))
        .collect();
    // The cached reference ranking (top 50 of the original corpus) still
    // holds a live document?
    let ranks_live: Vec<bool> = world
        .test
        .iter()
        .map(|&qi| world.central[qi].iter().any(|h| !dead[h.doc.index()]))
        .collect();
    let _ = spans.exit(open);

    spans.time("core.warm_query_terms", op, || {
        sys.warm_query_terms(queries.iter().copied());
    });
    let view = sys.query_view();
    let open = spans.enter("bench.probe_prep", op);
    let peers = view.peers();
    let issuers: Vec<RingId> = (0..rounds * queries.len())
        .map(|_| peers[out.issuers.bounded(peers.len() as u64) as usize])
        .collect();
    let _ = spans.exit(open);
    let mut scratch = RankScratch::new();
    let mut samples = Vec::with_capacity(issuers.len());
    let mut round0 = Vec::with_capacity(queries.len());
    for round in 0..rounds {
        for (i, &q) in queries.iter().enumerate() {
            let from = issuers[round * queries.len() + i];
            let open = spans.enter("core.view_query", op);
            let hits = if traced {
                view.query_traced(
                    from,
                    q,
                    K,
                    &mut out.bill,
                    &mut scratch,
                    op,
                    &mut out.recorder,
                )
            } else {
                view.query(from, q, K, &mut out.bill, &mut scratch)
            };
            let dt = spans.exit(open);
            let verdict = judge_live(&hits, |d| dead[d.index()], || ranks_live[i]);
            samples.push((dt, verdict));
            if round == 0 {
                round0.push((from, hits));
            }
        }
    }

    let open = spans.enter("bench.probe_check", op);
    let memo = view.resolve_routes(
        round0
            .iter()
            .zip(&queries)
            .map(|((from, _), &q)| (*from, q)),
    );
    let mut unbilled = NetStats::new();
    for (i, ((from, hits), &q)) in round0.iter().zip(&queries).enumerate() {
        let batched = view.query_batched(*from, q, K, &memo, &mut unbilled, &mut scratch);
        if batched != *hits {
            samples[i].1 = Verdict::Wrong;
        }
    }
    let _ = spans.exit(open);
    out.points.push(samples);
}
