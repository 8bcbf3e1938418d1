//! The repo benchmark: four deployment-lifecycle workloads, one uniform
//! end-to-end metric set, and an outside-in per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! builds the workload's inputs from the seed, runs it in this process,
//! prints every metric as `name unit value`, checks the outputs, and ends
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the same
//! workload and seed with harness spans and the program's own tracing on
//! and prints the per-layer metrics instead. See `README.md`.
//!
//! The harness never reads or sets `SPRITE_SCALE` / `SPRITE_THREADS`: it
//! builds every `WorldConfig` explicitly and leaves the pool at
//! `configured_threads()`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod deploy;
mod harness;
mod host;
mod layers;
mod metrics;
mod spans;
mod stats;
mod stream;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

use harness::{Args, Harness};
use metrics::{end_to_end, metric_line, result_json, MetricDef, Report, Workload, RUN_SECONDS};
use workloads::search::Path;

/// Raw spans kept in a trace file (the per-name summaries always cover
/// every span).
const RAW_SPAN_LIMIT: usize = 50_000;

const USAGE: &str =
    "usage: sprite-benchmark --workload <serve-full|route-huge|index-build|churn-repair> \
     [--seed <n>] [--seconds <s>] [--trace [0|1]]\n       \
     sprite-benchmark --smoke [--seed <n>]\n       \
     sprite-benchmark --print-contract";

/// What the command line asks for.
enum Command {
    Run(Args),
    Smoke { seed: u64 },
    PrintContract,
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let (mut workload, mut seconds) = (None, f64::from(RUN_SECONDS));
    let mut seed = 42u64;
    let (mut trace, mut smoke) = (false, false);
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("no workload {name}"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            // `--trace 1` / `--trace 0`, or a bare `--trace`.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--print-contract" => return Ok(Command::PrintContract),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if smoke {
        return Ok(Command::Smoke { seed });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke: false,
    }))
}

/// The finished numbers of one run.
struct Outcome {
    harness: Harness,
    rows: Vec<(MetricDef, f64)>,
}

/// Run one workload in this process and collect its metrics: end-to-end
/// for an untraced run, per-layer for a traced one.
fn run(args: Args) -> Result<Outcome, String> {
    let mut h = Harness::new(args);
    match h.args.workload {
        Workload::ServeFull => workloads::search::run(&mut h, Path::Live),
        Workload::RouteHuge => workloads::search::run(&mut h, Path::View),
        Workload::IndexBuild => workloads::index_build::run(&mut h),
        Workload::ChurnRepair => workloads::churn_repair::run(&mut h),
    }
    check(&mut h);
    let report = if h.args.trace {
        h.layers.take().expect("a traced run measures the layers")
    } else {
        end_to_end_report(&h)?
    };
    let rows = report
        .finish()
        .map_err(|bad| format!("metrics not reportable: {}", bad.join(", ")))?;
    Ok(Outcome { harness: h, rows })
}

/// The correctness checks that fail the run rather than a metric.
fn check(h: &mut Harness) {
    let tally = h.tally;
    if tally.wrong > 0 {
        h.problem(format!(
            "{} of {} answers were wrong",
            tally.wrong, tally.queries
        ));
    }
    // Nothing is ever deleted on the fault-free workloads. (An *unanswered*
    // query is legitimate there — `index-build` probes a five-term index
    // right after `publish_all` — and is still held to what the other
    // routed path answers.)
    if h.args.workload != Workload::ChurnRepair && tally.stale > 0 {
        h.problem(format!(
            "{} answers of a fault-free workload held a deleted document",
            tally.stale
        ));
    }
    // Floors from the issue; smoke worlds are too small to hold them.
    let floor = match h.args.workload {
        Workload::ServeFull | Workload::IndexBuild => 0.85,
        Workload::RouteHuge | Workload::ChurnRepair => 0.70,
    };
    let precision = h
        .ledger
        .as_ref()
        .expect("every workload takes the ledger")
        .precision_ratio;
    if !h.args.smoke && precision < floor {
        h.problem(format!(
            "precision ratio {precision:.4} below the floor {floor}"
        ));
    }
}

/// The eleven end-to-end metrics of an untraced run.
fn end_to_end_report(h: &Harness) -> Result<Report, String> {
    let ledger = h.ledger.as_ref().expect("checked above");
    let queries = ledger.tally.queries as f64;
    let mut r = Report::new(end_to_end());
    r.set("setup_s", h.setup_s());
    r.set("ops_per_s", h.ops_per_s());
    r.set("query_p50_us", h.latency_us(50.0));
    r.set("query_p95_us", h.latency_us(95.0));
    r.set(
        "answer_ok_ratio",
        1.0 - (ledger.tally.unanswered + ledger.tally.stale) as f64 / queries,
    );
    r.set("msgs_per_query", ledger.query_msgs as f64 / queries);
    r.set("bytes_per_query", ledger.query_bytes as f64 / queries);
    r.set("precision_ratio", ledger.precision_ratio);
    r.set(
        "index_bytes_per_doc",
        ledger.index_bytes as f64 / ledger.live_docs as f64,
    );
    r.set(
        "stored_bytes_per_peer",
        ledger.stored_bytes as f64 / ledger.live_peers as f64,
    );
    r.set(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    Ok(r)
}

/// Print one run: facts as `# …` lines, every metric as `name unit
/// value`, then the JSON result line.
fn print(out: &Outcome) {
    let h = &out.harness;
    let a = &h.args;
    println!(
        "# workload {} (op = {}) seed {} seconds {} trace {}{}",
        a.workload.name(),
        a.workload.op(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.smoke { " smoke" } else { "" }
    );
    println!(
        "# host nproc {} pool {} rustc [{}] commit {}",
        host::nproc(),
        sprite_util::configured_threads(),
        host::rustc_version(),
        host::commit()
    );
    let (build_s, warmup_s) = h.setup_parts_s();
    println!(
        "# set-up {build_s:.3} s + warm-up {warmup_s:.3} s, total run {:.3} s",
        h.since_start_s()
    );
    let windows = h.windows();
    let (samples, chunks, smallest, beyond) = h.sample_counts();
    println!(
        "# timed region: {} windows ({} traced), {} ops, {:.3} s; closed loop, 1 client",
        windows.len(),
        windows.iter().filter(|w| w.traced).count(),
        windows.iter().map(|w| w.ops).sum::<u64>(),
        windows.iter().map(|w| w.ns).sum::<u64>() as f64 / 1e9
    );
    let rates: Vec<String> = h
        .window_ops_per_s()
        .iter()
        .map(|r| format!("{r:.4}"))
        .collect();
    println!(
        "# window op/s (ops_per_s is their median): {}",
        rates.join(" ")
    );
    println!(
        "# latency samples {samples} in {chunks} chunks (untraced windows); smallest chunk \
         {smallest}, {beyond} beyond its p95; queries are {:.4} of the region",
        h.query_share()
    );
    let t = h.tally;
    println!(
        "# answers: {} queries, {} unanswered, {} stale (deleted document returned), {} wrong; \
         failed = their sum",
        t.queries, t.unanswered, t.stale, t.wrong
    );
    for (m, v) in &out.rows {
        println!("{}", metric_line(&m.name, m.unit, *v));
    }
    println!(
        "{}",
        result_json(
            h.problems.is_empty(),
            t.queries,
            t.unanswered + t.stale + t.wrong,
            &out.rows
        )
    );
}

/// Write the spans of a traced run to `benchmark/out/trace-<workload>.jsonl`.
fn write_trace(h: &Harness) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", h.args.workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    h.spans.write_jsonl(&mut file, RAW_SPAN_LIMIT)?;
    file.flush()?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

/// `--smoke`: every workload, traced and untraced, at `tiny` scale
/// through the same code paths. Fails unless every metric of the contract
/// comes out exactly once with a finite value (`Report::finish`), every
/// check passes, a repeated seed replays the simulated metrics bit for
/// bit, and tracing leaves them untouched.
fn smoke(seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        let args = |trace| Args {
            workload,
            seed,
            seconds: f64::from(RUN_SECONDS) / 100.0,
            trace,
            smoke: true,
        };
        let first = run(args(false))?;
        let again = run(args(false))?;
        let traced = run(args(true))?;
        for out in [&first, &again, &traced] {
            if !out.harness.problems.is_empty() {
                return Err(format!(
                    "{}: {}",
                    workload.name(),
                    out.harness.problems.join("; ")
                ));
            }
        }
        let ledger = |out: &Outcome| out.harness.ledger.as_ref().expect("ledger").simulated();
        if ledger(&first) != ledger(&again) {
            return Err(format!("{}: the ledger did not replay", workload.name()));
        }
        if ledger(&first) != ledger(&traced) {
            return Err(format!("{}: tracing moved the ledger", workload.name()));
        }
        println!(
            "# smoke {}: {} end-to-end and {} per-layer metrics, ledger replayed",
            workload.name(),
            first.rows.len(),
            traced.rows.len()
        );
    }
    println!("smoke ok");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::PrintContract) => {
            print!("{}", metrics::contract_json());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Smoke { seed }) => {
            return match smoke(seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("smoke failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Command::Run(args)) => run(args),
    };
    match outcome {
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        Ok(out) => {
            if out.harness.args.trace {
                if let Err(e) = write_trace(&out.harness) {
                    eprintln!("could not write the trace file: {e}");
                    return ExitCode::FAILURE;
                }
            }
            print(&out);
            if out.harness.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let Ok(Command::Run(a)) = parse(&args(
            "--workload route-huge --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("expected a run");
        };
        assert_eq!(a.workload, Workload::RouteHuge);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let Ok(Command::Run(a)) = parse(&args("--workload serve-full --trace 0")) else {
            panic!("expected a run");
        };
        assert_eq!((a.seed, a.trace), (42, false));
        assert_eq!(a.seconds, f64::from(RUN_SECONDS));
        let Ok(Command::Run(a)) = parse(&args("--trace --workload index-build")) else {
            panic!("expected a run");
        };
        assert!(a.trace, "a bare --trace switches tracing on");
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "",
            "--workload nope",
            "--workload serve-full --seconds 0",
            "--workload serve-full --seed x",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} must be rejected");
        }
        assert!(matches!(
            parse(&args("--smoke --seed 3")),
            Ok(Command::Smoke { seed: 3 })
        ));
        assert!(matches!(
            parse(&args("--print-contract")),
            Ok(Command::PrintContract)
        ));
    }
}
