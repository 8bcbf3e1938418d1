//! How the Chord ring scales: memory and hops from 10³ to 10⁶ peers.
//!
//! For each ring size it builds a converged ring with
//! `ChordNet::with_random_nodes` and prints one row: the logical and the
//! resident routing-state bytes a peer, the process's peak resident set
//! (`VmHWM` from `/proc/self/status`, so a row's figure is the peak of
//! every build so far — sizes run in increasing order and each ring is
//! dropped before the next is built), and the mean hops of 10,000 seeded
//! `probe`s beside Chord's ½ log₂ N.
//!
//! Run: `cargo run --release --example ring_scale [N ...]` — the sizes
//! default to 1000 10000 100000 1000000. Wall time is the shell's
//! (`time cargo run --release --example ring_scale -- 1000000` times one
//! 10⁶ build plus its probes). Exits non-zero when a probe fails: every
//! lookup on a converged ring must resolve.

use std::process::ExitCode;

use sprite::chord::{ChordConfig, ChordNet, NetStats};
use sprite::util::{derive_rng, RingId};

/// Seeded probes a row averages its hops over.
const PROBES: u64 = 10_000;

/// The process's peak resident set in MB, when the kernel reports one.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Build one ring and print its row; false when a probe failed.
fn row(n: usize) -> bool {
    let net = ChordNet::with_random_nodes(ChordConfig::default(), n, 42);
    let peers = net.len() as f64;
    let ids = net.node_ids();
    let mut rng = derive_rng(42, "ring-scale-probes");
    let mut stats = NetStats::new();
    let mut failed = 0u64;
    for i in 0..PROBES {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = RingId::hash_bytes(format!("ring-scale-{i}").as_bytes());
        failed += u64::from(net.probe(from, key, &mut stats).is_err());
    }
    let hwm = vm_hwm_mb().map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.1}"));
    println!(
        "{n:>9} | {:>7.0} | {:>8.1} | {hwm:>9} | {:>9.3} | {:>11.3} | {failed}",
        net.logical_state_bytes() as f64 / peers,
        net.resident_state_bytes() as f64 / peers,
        stats.mean_hops(),
        peers.log2() / 2.0,
    );
    failed == 0
}

fn main() -> ExitCode {
    let sizes: Vec<usize> = match std::env::args()
        .skip(1)
        .map(|a| a.parse())
        .collect::<Result<Vec<usize>, _>>()
    {
        Ok(sizes) if !sizes.is_empty() => sizes,
        Ok(_) => vec![1_000, 10_000, 100_000, 1_000_000],
        Err(e) => {
            eprintln!("ring_scale: sizes must be peer counts: {e}");
            return ExitCode::from(2);
        }
    };
    println!("    peers | logical | resident | VmHWM  MB | mean hops | ½ log₂ N    | failed");
    println!("----------|---------|----------|-----------|-----------|-------------|-------");
    let mut sound = true;
    for n in sizes {
        sound &= row(n);
    }
    if sound {
        ExitCode::SUCCESS
    } else {
        eprintln!("ring_scale: a lookup on a converged ring failed");
        ExitCode::FAILURE
    }
}
