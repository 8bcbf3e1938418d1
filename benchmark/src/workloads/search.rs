//! The two search workloads: one request stream, two query paths.
//!
//! * `serve-full` drives the **live** path — `SpriteSystem::issue_query_from`
//!   on the paper-scale deployment (8,000 documents, 64 peers): route,
//!   fetch, rank, *and cache the query at every indexing peer it touched*.
//!   Routes are three hops; the posting lists are the longest the repo
//!   builds, so decode and the live path's bookkeeping do the work.
//! * `route-huge` drives the **view** path — `QueryView::query` on a
//!   frozen snapshot of a 100,000-peer ring, every peer issuing in turn
//!   (stride 7919). The lists are short; the Chord walk over a ring far
//!   larger than cache does the work.
//!
//! A gain for one path that costs the other shows up as one workload
//! moving against the other.

use std::hint::black_box;
use std::time::Duration;

use sprite_chord::{NetStats, SimConfig, TraceRecorder};
use sprite_core::{RankScratch, SpriteConfig, SpriteSystem, World};
use sprite_ir::{Hit, Query};
use sprite_util::RingId;

use crate::deploy::{deploy, expected_answers, judge_expected, precision_ratio, test_queries};
use crate::harness::{Harness, Ledger, K};
use crate::layers;
use crate::stream::{self, PeerOrder, Request};

/// Which query path a search workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `SpriteSystem::issue_query_from` (mutating; caches the query).
    Live,
    /// `QueryView::query` (read-only snapshot).
    View,
}

/// Everything the request loop reads, bundled so warm-up and timed
/// windows go through one function.
struct Loop<'a> {
    stream: &'a [Request],
    cursor: usize,
    peers: Vec<RingId>,
    queries: Vec<&'a Query>,
    expected: &'a [Vec<Hit>],
    ranks_some: Vec<bool>,
}

impl Loop<'_> {
    /// Issue the next `n` requests through `ask`, which makes the one call
    /// into the program and returns its answer and latency. `timed`
    /// windows record latencies and verdicts; the warm-up only issues.
    fn window(
        &mut self,
        h: &mut Harness,
        n: usize,
        timed: bool,
        mut ask: impl FnMut(&mut Harness, RingId, &Query, u64) -> (Vec<Hit>, Duration),
    ) {
        if timed {
            h.begin_window();
        }
        for _ in 0..n {
            let r = self.stream[self.cursor % self.stream.len()];
            let qi = r.query as usize;
            let (hits, dt) = ask(
                h,
                self.peers[r.peer as usize],
                self.queries[qi],
                self.cursor as u64,
            );
            self.cursor += 1;
            if timed {
                h.query_done(
                    dt,
                    judge_expected(&hits, &self.expected[qi], self.ranks_some[qi]),
                );
            } else {
                black_box(hits);
            }
        }
        if timed {
            h.end_window(n as u64);
        }
    }
}

/// The view path's side of a request: its ranking buffers and its bill
/// (the live path bills the deployment itself).
#[derive(Default)]
struct ViewSide {
    scratch: RankScratch,
    bill: NetStats,
}

/// One window (or the warm-up) through `path`. In a traced window the
/// program's own tracing is on as well: the live path records into the
/// deployment's installed recorder, the view path into one passed along.
fn issue(
    path: Path,
    lp: &mut Loop<'_>,
    side: &mut ViewSide,
    h: &mut Harness,
    sys: &mut SpriteSystem,
    n: usize,
    timed: bool,
) {
    let traced = timed && h.next_window_traced();
    match path {
        Path::Live => {
            if traced {
                sys.enable_tracing();
            }
            lp.window(h, n, timed, |h, from, q, op| {
                let open = h.spans.enter("core.issue_query_from", op);
                let hits = sys.issue_query_from(from, q, K);
                (hits, h.spans.exit(open))
            });
            h.absorb_recorder(sys.take_tracer());
        }
        Path::View => {
            let view = sys.query_view();
            let mut recorder = TraceRecorder::new();
            lp.window(h, n, timed, |h, from, q, op| {
                let open = h.spans.enter("core.view_query", op);
                let (bill, scratch) = (&mut side.bill, &mut side.scratch);
                let hits = if traced {
                    view.query_traced(from, q, K, bill, scratch, op, &mut recorder)
                } else {
                    view.query(from, q, K, bill, scratch)
                };
                (hits, h.spans.exit(open))
            });
            h.recorder.merge(&recorder);
        }
    }
}

/// Run `serve-full` (`Path::Live`) or `route-huge` (`Path::View`).
pub fn run(h: &mut Harness, path: Path) {
    let plan = h.plan.clone();
    let (seed, trace, name) = (h.args.seed, h.args.trace, h.args.workload.name());
    let order = match path {
        Path::Live => PeerOrder::RoundRobin,
        Path::View => PeerOrder::Stride,
    };

    let (world, mut sys, stream, expected) = h.setup(|h| {
        let (world, _) = h
            .spans
            .time("core.world_build", 0, || World::build(plan.world.clone()));
        let mut sys = deploy(
            &mut h.spans,
            &world,
            SpriteConfig::default(),
            SimConfig::default(),
            0,
            trace,
            |_, _, _| {},
        );
        let stream = stream::generate(
            seed,
            name,
            world.test.len(),
            sys.peers().len(),
            order,
            plan.warmup_queries + plan.windows * plan.window_queries,
        );
        let expected = expected_answers(&world, &mut sys);
        (world, sys, stream, expected)
    });
    h.absorb_recorder(sys.take_tracer());

    let mut lp = Loop {
        stream: &stream,
        cursor: 0,
        peers: sys.peers().to_vec(),
        queries: test_queries(&world),
        expected: &expected,
        ranks_some: world
            .test
            .iter()
            .map(|&qi| !world.central[qi].is_empty())
            .collect(),
    };
    let mut side = ViewSide::default();
    h.warmup(|h| {
        issue(
            path,
            &mut lp,
            &mut side,
            h,
            &mut sys,
            plan.warmup_queries,
            false,
        );
    });

    side.bill = NetStats::new();
    let bill = |sys: &SpriteSystem| {
        let stats = sys.net().stats();
        (stats.total_messages(), stats.total_bytes())
    };
    let live_before = bill(&sys);
    for _ in 0..plan.windows {
        issue(
            path,
            &mut lp,
            &mut side,
            h,
            &mut sys,
            plan.window_queries,
            true,
        );
    }
    let (msgs, bytes) = match path {
        Path::Live => {
            let now = bill(&sys);
            (now.0 - live_before.0, now.1 - live_before.1)
        }
        Path::View => (side.bill.total_messages(), side.bill.total_bytes()),
    };
    let mut ledger = Ledger::take(&sys, h.tally, msgs, bytes);
    ledger.precision_ratio = precision_ratio(&world, &mut sys);
    h.ledger = Some(ledger);

    if trace {
        let at = lp.cursor % stream.len();
        let requests: Vec<Request> = stream
            .iter()
            .cycle()
            .skip(at)
            .take(plan.kernel_ops)
            .copied()
            .collect();
        layers::measure(h, &world, &mut sys, &requests);
    }
}
