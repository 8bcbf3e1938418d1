//! What every workload shares: the plan (sizes), the set-up timer, the
//! windowed timed region, per-query verdicts, and the simulated-cost
//! ledger.
//!
//! **Closed loop, one client.** Each workload issues its next operation
//! from this one thread only after the previous one returned, so a slow
//! system receives less load and no queue can form.
//!
//! **Windows.** The timed region is a fixed number of *windows* — 20,000
//! queries, one lifecycle, or one tick each — every one timed on its own.
//! The count is part of the plan, sized so that the reference host takes
//! about `--seconds`; it does not depend on how fast the run goes, so two
//! commits always execute, and take their medians over, the same
//! operations. Throughput is computed per window, the latency percentiles
//! per *chunk* of samples (a window of the search workloads, one probe
//! point of the write-side ones), and both are reported as the median over
//! windows or chunks: a scheduling hiccup on this shared host then costs
//! one of them, not the run's number. In a traced run every second window
//! is traced (harness spans stored, the program's `TraceRecorder`
//! installed); the untraced windows beside them are the baseline of
//! `trace.overhead_ratio`. End-to-end metrics only ever come from untraced
//! windows.
//!
//! **Ledger.** The simulated quantities (messages, bytes, precision,
//! stored bytes) are read off when the last window closes. The region is a
//! fixed operation count, so for one seed they repeat bit for bit on any
//! host at any speed.

use std::time::{Duration, Instant};

use sprite_chord::{MsgKind, NetStats, TraceRecorder};
use sprite_core::{SpriteSystem, WorldConfig};

use crate::metrics::{Report, Workload, RUN_SECONDS};
use crate::spans::{Spans, WINDOW};
use crate::stats;
use crate::workloads::churn_repair::Repairs;
use crate::workloads::probe::Probes;

/// Answer-list size of every query the benchmark issues (§6: K = 20).
pub const K: usize = 20;

/// Seed of the world every run is drawn over: corpus, generated queries,
/// train/test split, ring identifiers, document owners, and
/// `churn-repair`'s fault schedule. A constant, not an option — `--seed`
/// draws the *requests* made of that world (see `README.md`, "Seeds").
/// Measured with the world following `--seed`: ten seeds spread
/// `route-huge`'s `ops_per_s` by 23 % and `bytes_per_query` by 43 %. A
/// 1,500-document corpus, or a few dozen discrete faults, is a different
/// workload under every seed, not another sample of the same one.
const WORLD_SEED: u64 = 42;

/// Parsed command line of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the run's generated inputs: the request stream of the search
    /// workloads, who issues the probes of the write-side ones, the link
    /// model's loss and jitter samples, the kernels' request slice.
    pub seed: u64,
    /// How long the timed region should take on the reference host; scales
    /// the plan's window count, never cuts a run short.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke scale: tiny worlds, 1/100 op counts, same code paths.
    pub smoke: bool,
}

/// The sizes of one run. Everything a workload would otherwise hard-code
/// is here, so `--smoke` can shrink a run without forking a code path.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The world to build.
    pub world: WorldConfig,
    /// Untimed warm-up queries before the timed region.
    pub warmup_queries: usize,
    /// Queries per window of the two search workloads.
    pub window_queries: usize,
    /// Rounds over the test split at each probe point of `index-build`
    /// (after every pass) and `churn-repair` (after every tick).
    pub probe_rounds: usize,
    /// Windows in the timed region: the run's length as an operation
    /// count, the same on every host and commit.
    pub windows: usize,
    /// Requests replayed by each per-layer kernel of the traced run.
    pub kernel_ops: usize,
}

impl Plan {
    /// The plan of `args`: the issue's worlds at full size, `tiny` worlds
    /// and 1/100 counts under `--smoke`.
    #[must_use]
    pub fn of(args: &Args) -> Plan {
        let seed = WORLD_SEED;
        // Windows that take `RUN_SECONDS` on the reference host (54 k, 64 k
        // queries/s; 7.6 s per lifecycle; 1.7 s per tick), scaled to
        // `--seconds`. Odd counts where a window is seconds long, so the
        // median over windows is one of them. Never fewer than two: a
        // traced run needs a traced window and an untraced one beside it.
        let per_run_seconds = match args.workload {
            Workload::ServeFull => 40,
            Workload::RouteHuge => 48,
            Workload::IndexBuild => 3,
            Workload::ChurnRepair => 9,
        };
        let scaled = f64::from(per_run_seconds) * args.seconds / f64::from(RUN_SECONDS);
        let full = Plan {
            world: match args.workload {
                Workload::ServeFull | Workload::IndexBuild => WorldConfig {
                    seed,
                    ..WorldConfig::default()
                },
                Workload::RouteHuge => WorldConfig::huge(seed),
                // 80 peers, so that 5 % churn per tick is a whole number of
                // events (2 joins, 1 leave, 1 failure).
                Workload::ChurnRepair => WorldConfig {
                    n_peers: 80,
                    ..WorldConfig::small(seed)
                },
            },
            warmup_queries: match args.workload {
                // Enough for every indexing peer's 4,096-entry query
                // history to fill, so eviction is part of the steady state.
                Workload::ServeFull => 100_000,
                Workload::RouteHuge => 50_000,
                Workload::IndexBuild | Workload::ChurnRepair => 0,
            },
            window_queries: 20_000,
            // The first round after a pass or a maintenance round runs on
            // cold caches. Enough rounds that it stays well under 5 % of a
            // probe point's samples, or p95 would sit on the edge between
            // the cold round and the warm ones and flip between them.
            probe_rounds: match args.workload {
                Workload::IndexBuild => 30,
                _ => 40,
            },
            windows: (scaled.ceil() as usize).max(2),
            kernel_ops: 20_000,
        };
        if !args.smoke {
            return full;
        }
        let per_100 = |n: usize| (n / 100).max(1);
        Plan {
            world: WorldConfig::tiny(seed),
            warmup_queries: per_100(full.warmup_queries),
            window_queries: per_100(full.window_queries),
            probe_rounds: 2,
            kernel_ops: per_100(full.kernel_ops),
            ..full
        }
    }
}

/// What the harness concluded about one answered query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The answer passed every check.
    Ok,
    /// No hit, although the centralized reference ranks at least one live
    /// document. A *failed operation*; counts against `answer_ok_ratio`.
    Unanswered,
    /// At least one hit is a deleted document. A *failed operation*; counts
    /// against `answer_ok_ratio`.
    Stale,
    /// The output is wrong: it differs from the independently computed
    /// expected answer, or is not a well-formed ranking. A *failed
    /// operation* that also makes the run incorrect.
    Wrong,
}

/// Per-query outcome counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries issued.
    pub queries: u64,
    /// [`Verdict::Unanswered`] count.
    pub unanswered: u64,
    /// [`Verdict::Stale`] count.
    pub stale: u64,
    /// [`Verdict::Wrong`] count.
    pub wrong: u64,
}

/// One measured window of the timed region.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Operations completed (the workload's own unit).
    pub ops: u64,
    /// Wall time.
    pub ns: u64,
    /// Whether harness spans and the program's recorder were on.
    pub traced: bool,
}

/// A run of consecutive latency samples summarized on its own.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Range in the latency vector.
    range: (usize, usize),
    /// Whether the window it was measured in was traced.
    traced: bool,
}

/// The simulated-cost snapshot (see the module docs). Exact for a seed.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// Query outcomes of the timed region.
    pub tally: Tally,
    /// Simulated messages billed to those queries.
    pub query_msgs: u64,
    /// Simulated payload bytes billed to those queries.
    pub query_bytes: u64,
    /// P@20 ratio over the centralized engine on the test split.
    pub precision_ratio: f64,
    /// Index-construction and upkeep bytes since deployment creation.
    pub index_bytes: u64,
    /// Live documents.
    pub live_docs: u64,
    /// Logical bytes of every inverted index plus the ring's routing state.
    pub stored_bytes: u64,
    /// Live peers.
    pub live_peers: u64,
    /// Deployment-life network counters, for the per-layer `chord.*` counts.
    pub net: NetStats,
}

impl Ledger {
    /// Everything the simulated end-to-end metrics are computed from, as
    /// exact integers (the precision ratio by its bits): two ledgers of one
    /// seed must compare equal, traced or not.
    #[must_use]
    pub fn simulated(&self) -> [u64; 10] {
        [
            self.tally.queries,
            self.tally.unanswered,
            self.tally.stale,
            self.query_msgs,
            self.query_bytes,
            self.precision_ratio.to_bits(),
            self.index_bytes,
            self.live_docs,
            self.stored_bytes,
            self.live_peers,
        ]
    }

    /// Snapshot `sys` now. `query_msgs` / `query_bytes` are the bill of the
    /// timed-region queries so far (a difference of the deployment's
    /// `NetStats` totals, or the totals of a view-path delta).
    /// `precision_ratio` is left for the caller to fill in: evaluating it
    /// bills queries to the deployment, so it has to come after this.
    #[must_use]
    pub fn take(sys: &SpriteSystem, tally: Tally, query_msgs: u64, query_bytes: u64) -> Ledger {
        let net = sys.net().stats().clone();
        let index_bytes = [
            MsgKind::IndexPublish,
            MsgKind::IndexRemove,
            MsgKind::Replication,
            MsgKind::LearnPoll,
            MsgKind::LearnReturn,
        ]
        .into_iter()
        .map(|k| net.bytes(k))
        .sum();
        Ledger {
            tally,
            query_msgs,
            query_bytes,
            precision_ratio: f64::NAN,
            index_bytes,
            live_docs: sys.live_docs().len() as u64,
            stored_bytes: sys.logical_index_bytes() + sys.net().logical_state_bytes(),
            live_peers: sys.peers().len() as u64,
            net,
        }
    }
}

/// The shared state of one run.
pub struct Harness {
    /// The command line.
    pub args: Args,
    /// The sizes.
    pub plan: Plan,
    /// Harness spans.
    pub spans: Spans,
    /// The program's own trace, merged over every traced stretch.
    pub recorder: TraceRecorder,
    /// Query outcomes of the timed region.
    pub tally: Tally,
    /// The simulated-cost snapshot, once taken.
    pub ledger: Option<Ledger>,
    /// Reasons the run is incorrect (empty = correct).
    pub problems: Vec<String>,
    /// The per-layer report of a traced run, once measured.
    pub layers: Option<Report>,
    /// Work the repair side reported (ticks of `churn-repair`, or the
    /// traced run's single layer-pass tick elsewhere).
    pub repairs: Repairs,
    started: Instant,
    build_s: f64,
    warmup_s: f64,
    windows: Vec<Window>,
    lat_ns: Vec<u32>,
    chunks: Vec<Chunk>,
    open_window: Option<(crate::spans::Open, bool)>,
}

impl Harness {
    /// A harness for `args`; the process-start clock starts here.
    #[must_use]
    pub fn new(args: Args) -> Self {
        let plan = Plan::of(&args);
        Harness {
            args,
            plan,
            spans: Spans::new(),
            recorder: TraceRecorder::new(),
            tally: Tally::default(),
            ledger: None,
            problems: Vec::new(),
            layers: None,
            repairs: Repairs::default(),
            started: Instant::now(),
            build_s: 0.0,
            warmup_s: 0.0,
            windows: Vec::new(),
            lat_ns: Vec::new(),
            chunks: Vec::new(),
            open_window: None,
        }
    }

    /// Record that the run's outputs are not correct.
    pub fn problem(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    // ------------------------------------------------------------------
    // Set-up
    // ------------------------------------------------------------------

    /// Run the set-up — everything the timed region needs, built from
    /// nothing — and time it. A traced run spans it.
    pub fn setup<T>(&mut self, build: impl FnOnce(&mut Harness) -> T) -> T {
        self.spans.set_recording(self.args.trace);
        let open = self.spans.enter("bench.setup", 0);
        let built = build(self);
        self.build_s = self.spans.exit(open).as_secs_f64();
        self.spans.set_recording(false);
        built
    }

    /// Time the untimed warm-up (part of `setup_s`).
    pub fn warmup(&mut self, run: impl FnOnce(&mut Harness)) {
        let t0 = Instant::now();
        run(self);
        self.warmup_s = t0.elapsed().as_secs_f64();
    }

    /// `setup_s`: the set-up plus the warm-up.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.warmup_s
    }

    /// `(set-up, warm-up)` seconds, for the info lines.
    #[must_use]
    pub fn setup_parts_s(&self) -> (f64, f64) {
        (self.build_s, self.warmup_s)
    }

    /// Seconds since the harness was created (process start → now).
    #[must_use]
    pub fn since_start_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    // ------------------------------------------------------------------
    // The timed region
    // ------------------------------------------------------------------

    /// Whether the next window is traced: in a traced run every second
    /// window is, starting with the second.
    #[must_use]
    pub fn next_window_traced(&self) -> bool {
        self.args.trace && self.windows.len() % 2 == 1
    }

    /// Open the next window.
    pub fn begin_window(&mut self) {
        assert!(self.open_window.is_none(), "window already open");
        let traced = self.next_window_traced();
        self.spans.set_recording(traced);
        let open = self.spans.enter(WINDOW, self.windows.len() as u64);
        self.open_window = Some((open, traced));
    }

    /// Close the window after `ops` operations (and the chunk of latency
    /// samples still open, if any).
    pub fn end_window(&mut self, ops: u64) {
        self.end_chunk();
        let (open, traced) = self.open_window.take().expect("a window is open");
        let dt = self.spans.exit(open);
        self.spans.set_recording(false);
        self.windows.push(Window {
            ops,
            ns: u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX),
            traced,
        });
    }

    /// Close the current chunk of latency samples: the percentiles are
    /// taken per chunk. A no-op when no sample arrived since the last one.
    pub fn end_chunk(&mut self) {
        let start = self.chunks.last().map_or(0, |c| c.range.1);
        if self.lat_ns.len() > start {
            let (_, traced) = self.open_window.as_ref().expect("a window is open");
            self.chunks.push(Chunk {
                range: (start, self.lat_ns.len()),
                traced: *traced,
            });
        }
    }

    /// Record one user query of the open window: its host latency and the
    /// harness's verdict on its answer.
    pub fn query_done(&mut self, latency: Duration, verdict: Verdict) {
        self.lat_ns
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
        self.tally.queries += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Unanswered => self.tally.unanswered += 1,
            Verdict::Stale => self.tally.stale += 1,
            Verdict::Wrong => self.tally.wrong += 1,
        }
    }

    /// Record the probe points gathered during the open window, one chunk
    /// of latency samples per point.
    pub fn probes_done(&mut self, probes: &mut Probes) {
        for point in probes.points.drain(..) {
            for (latency, verdict) in point {
                self.query_done(latency, verdict);
            }
            self.end_chunk();
        }
    }

    /// The closed windows.
    #[must_use]
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Every untraced window's throughput, in run order.
    #[must_use]
    pub fn window_ops_per_s(&self) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| !w.traced)
            .map(|w| w.ops as f64 / (w.ns as f64 / 1e9))
            .collect()
    }

    /// `ops_per_s`: median window throughput.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&mut self.window_ops_per_s())
    }

    /// The sample ranges of the untraced chunks.
    fn untraced_chunks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.chunks.iter().filter(|c| !c.traced).map(|c| c.range)
    }

    /// Median over chunks of the chunk's `p`-th latency percentile, µs.
    #[must_use]
    pub fn latency_us(&self, p: f64) -> f64 {
        let mut per_chunk: Vec<f64> = self
            .untraced_chunks()
            .map(|(lo, hi)| {
                let mut lat = self.lat_ns[lo..hi].to_vec();
                lat.sort_unstable();
                f64::from(stats::nearest_rank(&lat, p)) / 1e3
            })
            .collect();
        stats::median(&mut per_chunk)
    }

    /// Mean time per operation over windows with the given tracing state;
    /// `None` when there is no such window.
    #[must_use]
    pub fn ns_per_op(&self, traced: bool) -> Option<f64> {
        let (ops, ns) = self
            .windows
            .iter()
            .filter(|w| w.traced == traced)
            .fold((0, 0), |(ops, ns), w| (ops + w.ops, ns + w.ns));
        (ops > 0).then(|| ns as f64 / ops as f64)
    }

    /// `(samples, chunks, smallest chunk, samples beyond that chunk's p95)`
    /// over untraced windows — printed beside the percentiles.
    #[must_use]
    pub fn sample_counts(&self) -> (usize, usize, usize, usize) {
        let sizes = || self.untraced_chunks().map(|(lo, hi)| hi - lo);
        let smallest = sizes().min().unwrap_or(0);
        let beyond = if smallest == 0 {
            0
        } else {
            stats::beyond(smallest, 95.0)
        };
        (sizes().sum(), sizes().count(), smallest, beyond)
    }

    /// Share of the timed region spent inside user queries (a few percent
    /// at most on the write-side workloads, whose probes are not the point).
    #[must_use]
    pub fn query_share(&self) -> f64 {
        let lat: u64 = self.lat_ns.iter().map(|&v| u64::from(v)).sum();
        let total: u64 = self.windows.iter().map(|w| w.ns).sum();
        lat as f64 / total as f64
    }

    /// Merge a recorder the program filled during a traced stretch.
    pub fn absorb_recorder(&mut self, recorder: Option<TraceRecorder>) {
        if let Some(r) = recorder {
            self.recorder.merge(&r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: Workload, seconds: f64, smoke: bool) -> Plan {
        Plan::of(&Args {
            workload,
            seed: 1,
            seconds,
            trace: false,
            smoke,
        })
    }

    #[test]
    fn run_length_is_an_op_count_scaled_by_seconds() {
        let run = f64::from(RUN_SECONDS);
        let windows = |seconds| Workload::ALL.map(|w| plan(w, seconds, false).windows);
        assert_eq!(windows(run), [40, 48, 3, 9]);
        assert_eq!(windows(2.0 * run), [80, 96, 6, 18]);
        assert_eq!(windows(run / 2.0), [20, 24, 2, 5], "rounded up");
        // Never fewer than two windows: one traced, one untraced beside it.
        assert_eq!(windows(0.1), [2, 2, 2, 2]);
        let smoke = plan(Workload::ServeFull, run / 100.0, true);
        assert_eq!((smoke.windows, smoke.window_queries), (2, 200));
    }

    #[test]
    fn the_world_does_not_follow_the_run() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 15.0, false).world.seed, WORLD_SEED);
        }
    }
}
