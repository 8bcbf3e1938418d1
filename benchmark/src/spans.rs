//! Harness spans: one record per call into a layer's public function.
//!
//! The program under test reads no wall clock (`Instant` is lint-banned in
//! the workspace crates), so every timing in this benchmark is taken here,
//! from outside, around the call. A span is `name, start, end, parent, op`;
//! spans are kept in memory and written out once, when the run ends.
//!
//! Two kinds of names:
//!
//! * **grouping** spans start with `bench.` (`bench.setup`, `bench.window`,
//!   `bench.tick`, …) — they are the harness's own structure;
//! * every other span is a **layer** span, named `<layer>.<function>`, and
//!   wraps exactly one call into that layer.
//!
//! A span's *self time* is its duration minus the part its children cover.
//! For a grouping span that is harness overhead (stream fetch, output
//! checks, bookkeeping), so the share of a window that layer calls account
//! for — [`Spans::coverage`] — is one minus the windows' grouping self time
//! over their duration.

use std::io::Write;
use std::time::{Duration, Instant};

/// Name of the grouping span around one measured window of the timed
/// region; [`Spans::coverage`] is taken over these.
pub const WINDOW: &str = "bench.window";

/// One finished (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<function>` or `bench.<group>`.
    pub name: &'static str,
    /// Start, ns since recorder creation.
    pub start_ns: u64,
    /// End, ns since recorder creation (equals `start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The operation this span belongs to (query index, tick, lifecycle):
    /// spans of one operation share it.
    pub op: u64,
}

impl Span {
    /// `end − start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::enter`]; give it back to [`Spans::exit`].
#[must_use = "a span must be closed with Spans::exit"]
pub struct Open {
    t0: Instant,
    id: Option<u32>,
}

/// The in-memory span recorder.
///
/// [`Spans::enter`] / [`Spans::exit`] always read the clock — callers use
/// the returned duration for latency samples whether or not tracing is on —
/// but a span is *stored* only while recording is switched on, so the
/// untraced run pays two clock reads per call and nothing else.
pub struct Spans {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A recorder with recording off.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch span storage on or off. Only legal between spans: toggling
    /// with a span open would orphan its children.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled recording inside a span");
        self.recording = on;
    }

    /// Start a span. The clock is read last, so the recorder's own
    /// bookkeeping lands in the parent's self time, not in this span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let id = if self.recording {
            let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(id);
            Some(id)
        } else {
            None
        };
        let t0 = Instant::now();
        if let Some(id) = id {
            let start = ns(t0.duration_since(self.origin));
            let s = &mut self.spans[id as usize];
            s.start_ns = start;
            s.end_ns = start;
        }
        Open { t0, id }
    }

    /// Close a span and return how long it was open. The clock is read
    /// first, for the same reason [`Spans::enter`] reads it last.
    pub fn exit(&mut self, open: Open) -> Duration {
        let dt = open.t0.elapsed();
        if let Some(id) = open.id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            let s = &mut self.spans[id as usize];
            s.end_ns = s.start_ns + ns(dt);
        }
        dt
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.enter(name, op);
        let out = f();
        let dt = self.exit(open);
        (out, dt)
    }

    /// Durations (ns) of every stored span called `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Median duration (ns) of the spans called `name`; `None` if there is
    /// no such span.
    #[must_use]
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let mut d: Vec<f64> = self
            .durations_ns(name)
            .into_iter()
            .map(|v| v as f64)
            .collect();
        if d.is_empty() {
            None
        } else {
            Some(crate::stats::median(&mut d))
        }
    }

    /// Self time (ns) of every stored span, parallel to [`Spans::all`]:
    /// duration minus the durations of its direct children. Children never
    /// overlap (one client thread, spans close innermost first), so the sum
    /// of child durations is exactly the covered part.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Share of the stored [`WINDOW`] spans' time that layer calls account
    /// for: `1 − Σ self(grouping spans under a window) ÷ Σ duration(windows)`.
    /// `None` when no window was recorded.
    #[must_use]
    pub fn coverage(&self) -> Option<f64> {
        let own = self.self_ns();
        let mut in_window = vec![false; self.spans.len()];
        let (mut total, mut overhead) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children, so one forward pass settles this.
            in_window[i] = s.name == WINDOW || s.parent.is_some_and(|p| in_window[p as usize]);
            if s.name == WINDOW {
                total += s.duration_ns();
            }
            if in_window[i] && s.name.starts_with("bench.") {
                overhead += own[i];
            }
        }
        (total > 0).then(|| 1.0 - overhead as f64 / total as f64)
    }

    /// Write the trace as JSON lines: one `summary` object per span name
    /// (count, total, self, median), then up to `limit` raw spans in start
    /// order. The per-query spans of a serving workload run to hundreds of
    /// thousands; the summaries keep every one of them, the raw lines only
    /// the head.
    pub fn write_jsonl(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let (mut count, mut total, mut self_total) = (0u64, 0u64, 0u64);
            for (s, o) in self.spans.iter().zip(&own).filter(|(s, _)| s.name == name) {
                count += 1;
                total += s.duration_ns();
                self_total += o;
            }
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_total},\"median_ns\":{}}}",
                self.median_ns(name).unwrap_or(0.0)
            )?;
        }
        for (id, (s, o)) in self.spans.iter().zip(&own).enumerate().take(limit) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{o}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        if self.spans.len() > limit {
            writeln!(
                out,
                "{{\"truncated\":{},\"kept\":{limit}}}",
                self.spans.len() - limit
            )?;
        }
        Ok(())
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans (the clock plays no part in the
    /// arithmetic under test).
    fn fixture(spans: Vec<Span>) -> Spans {
        Spans {
            spans,
            ..Spans::new()
        }
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = fixture(vec![
            span(WINDOW, 0, 1_000, None),
            span("bench.tick", 100, 900, Some(0)),
            span("core.churn_tick", 100, 300, Some(1)),
            span("core.maintenance_round", 350, 850, Some(1)),
        ]);
        assert_eq!(s.self_ns(), vec![200, 100, 200, 500]);
    }

    #[test]
    fn coverage_counts_only_grouping_self_time_under_windows() {
        let s = fixture(vec![
            // Set-up is outside any window: its gaps must not count.
            span("bench.setup", 0, 500, None),
            span("core.publish_all", 100, 200, Some(0)),
            span(WINDOW, 1_000, 2_000, None),
            span("core.issue_query_from", 1_000, 1_400, Some(2)),
            span("core.issue_query_from", 1_450, 1_950, Some(2)),
        ]);
        // 1,000 ns of window, 100 ns of it outside any layer call.
        let c = s.coverage().expect("one window");
        assert!((c - 0.9).abs() < 1e-12, "coverage {c}");
        assert_eq!(fixture(vec![]).coverage(), None);
    }

    #[test]
    fn untraced_spans_time_but_do_not_store() {
        let mut s = Spans::new();
        let ((), dt) = s.time("core.noop", 0, || ());
        assert!(dt.as_nanos() < 1_000_000_000);
        assert!(s.spans.is_empty());
        s.set_recording(true);
        let outer = s.enter("bench.tick", 7);
        let ((), _) = s.time("core.noop", 7, || ());
        let _ = s.exit(outer);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].op, 7);
        assert!(s.spans[0].duration_ns() >= s.spans[1].duration_ns());
        assert_eq!(s.median_ns("core.missing"), None);
    }

    #[test]
    fn jsonl_has_a_summary_per_name_and_truncates_raw_spans() {
        let s = fixture(vec![
            span(WINDOW, 0, 100, None),
            span("core.a", 10, 30, Some(0)),
            span("core.a", 40, 80, Some(0)),
        ]);
        let mut buf = Vec::new();
        s.write_jsonl(&mut buf, 2).expect("write to memory");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 2 + 1);
        assert!(lines[1].contains("\"summary\":\"core.a\",\"count\":2,\"total_ns\":60"));
        assert!(lines[2].contains("\"self_ns\":40"), "{}", lines[2]);
        assert!(lines[4].contains("\"truncated\":1"));
    }
}
