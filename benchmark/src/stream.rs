//! Request streams, generated during set-up from the run's seed.
//!
//! The program under test receives only the generated requests: which
//! peer issues which query. Every stream draws from its own
//! `derive_rng(seed, "benchmark/<workload>")` generator, so a seed replays
//! its stream exactly and two workloads never share draws.

use sprite_util::{derive_rng, Zipf};

/// The issuing-peer stride of the `route-huge` stream. Prime, and coprime
/// with the 100,000-peer ring (2⁵·5⁵), so consecutive requests land far
/// apart on the ring and every peer issues before any peer repeats.
pub const PEER_STRIDE: usize = 7919;

/// One user request: positions into the deployment's peer list and into
/// the world's held-out test split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index of the issuing peer in the deployment's peer list.
    pub peer: u32,
    /// Index of the query in `World::test`.
    pub query: u32,
}

/// How a stream picks the peer that issues request `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerOrder {
    /// `i mod n` — the live-search workload's round-robin.
    RoundRobin,
    /// `(i · PEER_STRIDE) mod n` — the routing workload's scatter.
    Stride,
}

impl PeerOrder {
    /// The peer index of request `i` among `n_peers`.
    #[must_use]
    pub fn peer(self, i: usize, n_peers: usize) -> usize {
        match self {
            PeerOrder::RoundRobin => i % n_peers,
            PeerOrder::Stride => (i % n_peers) * PEER_STRIDE % n_peers,
        }
    }
}

/// `len` requests: query popularity is Zipf(1.0) over the `n_queries` test
/// queries (rank = position in the split, which is itself a seeded
/// shuffle), the issuing peer follows `order`.
#[must_use]
pub fn generate(
    seed: u64,
    workload: &str,
    n_queries: usize,
    n_peers: usize,
    order: PeerOrder,
    len: usize,
) -> Vec<Request> {
    let mut rng = derive_rng(seed, &format!("benchmark/{workload}"));
    let popularity = Zipf::new(n_queries, 1.0);
    (0..len)
        .map(|i| Request {
            peer: order.peer(i, n_peers) as u32,
            query: popularity.sample(&mut rng) as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = generate(42, "serve-full", 315, 64, PeerOrder::RoundRobin, 5_000);
        let b = generate(42, "serve-full", 315, 64, PeerOrder::RoundRobin, 5_000);
        let c = generate(7, "serve-full", 315, 64, PeerOrder::RoundRobin, 5_000);
        let d = generate(42, "route-huge", 315, 64, PeerOrder::RoundRobin, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, c, "another seed must draw another stream");
        assert_ne!(a, d, "workloads must not share draws");
    }

    #[test]
    fn stream_is_skewed_and_in_range() {
        let s = generate(42, "serve-full", 315, 64, PeerOrder::RoundRobin, 50_000);
        assert!(s.iter().all(|r| r.query < 315 && r.peer < 64));
        let head = s.iter().filter(|r| r.query == 0).count();
        let tail = s.iter().filter(|r| r.query == 314).count();
        assert!(head > 20 * tail.max(1), "Zipf(1.0): rank 1 ≫ rank 315");
    }

    #[test]
    fn stride_visits_every_peer_of_a_100k_ring() {
        let n = 100_000;
        let mut seen = vec![false; n];
        for i in 0..n {
            seen[PeerOrder::Stride.peer(i, n)] = true;
        }
        assert!(seen.iter().all(|&s| s), "7919 is coprime with 100,000");
        // …and the cycle repeats exactly after n requests.
        assert_eq!(
            PeerOrder::Stride.peer(n + 3, n),
            PeerOrder::Stride.peer(3, n)
        );
        assert_eq!(PeerOrder::RoundRobin.peer(130, 64), 2);
    }
}
