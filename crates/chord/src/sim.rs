//! The network model of event-driven message delivery (DESIGN.md §13).
//!
//! Every message the simulator "sends" — a routing hop during a Chord walk,
//! a batched index-publication transfer, a maintenance re-replication —
//! transits the link model [`SimConfig`] describes: per-link latency with
//! bounded jitter, link asymmetry, and Bernoulli packet loss. Callers reach
//! it through [`SimConfig::transmit`] (in practice through
//! [`crate::ChordNet::plan_delivery`] and the lossy walk); the per-attempt
//! sampler is private to this module, so a drop can never go unbilled. Two
//! properties are load-bearing:
//!
//! * **Stateless sampling.** A link's fate is a pure hash of
//!   `(seed, from, to, salt)` — no RNG stream is consumed, so read-only
//!   walks stay `&self`, a [`crate::RouteMemo`] replay bills exactly what
//!   the live walk billed, and the worker count of a parallel evaluation
//!   cannot perturb a single sample. Same seed ⇒ same event order, at any
//!   parallelism.
//! * **A perfect default.** [`SimConfig::default`] is zero-latency,
//!   zero-loss; the delivery layer short-circuits it without sampling, so
//!   the default pipeline is bit-identical to the lockstep execution the
//!   scheduler replaced (audited by `sprite-audit`'s `audit_sim`).
//!
//! Under nonzero loss a transmission may be dropped; each drop is billed as
//! one real [`crate::MsgKind::Timeout`], and a sender retries up to
//! [`SimConfig::max_retries`] times before giving up — surfacing as
//! [`crate::ChordError::Lost`] on routing hops, or as a drowned transfer
//! whose records never arrive on application messages. That is what drives
//! the per-keyword retry and partial-result ranking paths that dead-probe
//! timeouts alone never exercised.

use sprite_util::RingId;

/// Network-model parameters. The default is the *perfect* network:
/// zero latency, zero jitter, zero asymmetry, zero loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed mixed into every link sample (independent of peer/query seeds).
    pub seed: u64,
    /// Base one-way latency, in scheduler time units.
    pub latency: u64,
    /// Uniform extra latency in `0..=jitter` sampled per transmission.
    pub jitter: u64,
    /// Extra latency charged when `from > to` on the identifier ring —
    /// a crude model of asymmetric links.
    pub asymmetry: u64,
    /// Bernoulli per-transmission drop probability in `[0, 1]`.
    pub loss: f64,
    /// Retransmissions attempted after a drop before the message is
    /// abandoned (so up to `1 + max_retries` transmissions total).
    pub max_retries: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: 0,
            jitter: 0,
            asymmetry: 0,
            loss: 0.0,
            max_retries: 2,
        }
    }
}

impl SimConfig {
    /// True when transmissions can be dropped.
    #[must_use]
    pub fn lossy(&self) -> bool {
        self.loss > 0.0
    }

    /// True when the model can neither delay nor drop anything — the
    /// configuration the bit-identity contract is proven against.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        !self.lossy() && self.latency == 0 && self.jitter == 0 && self.asymmetry == 0
    }

    /// Transmit one message `from → to` with retransmissions.
    ///
    /// Returns `Ok((arrival, drops))` when some attempt gets through:
    /// `arrival` is the modeled delivery time offset (each preceding drop
    /// adds one retransmission-timeout interval) and `drops` the number of
    /// dropped attempts, each owed one [`crate::MsgKind::Timeout`] charge.
    /// Returns `Err(drops)` when the whole budget drowned.
    pub fn transmit(&self, from: RingId, to: RingId, salt: u64) -> Result<(u64, u64), u64> {
        let rto = self.latency + self.jitter + 1;
        let mut drops = 0u64;
        for attempt in 0..=u64::from(self.max_retries) {
            match link_latency(self, from, to, salt.wrapping_add(attempt)) {
                Some(latency) => return Ok((drops * rto + latency, drops)),
                None => drops += 1,
            }
        }
        Err(drops)
    }
}

/// Fate of one transmission attempt `from → to`: `Some(latency)` when it
/// arrives, `None` when it is lost in flight. Base latency plus uniform
/// jitter, an asymmetry surcharge for "uphill" links, and Bernoulli loss —
/// all sampled by hashing `(seed, from, to, salt)` with a splitmix64
/// finalizer, so the fate is a pure function of its inputs.
fn link_latency(cfg: &SimConfig, from: RingId, to: RingId, salt: u64) -> Option<u64> {
    let mut h = splitmix64(cfg.seed ^ 0xa076_1d64_78bd_642f);
    h = splitmix64(h ^ (from.0 as u64));
    h = splitmix64(h ^ ((from.0 >> 64) as u64));
    h = splitmix64(h ^ (to.0 as u64));
    h = splitmix64(h ^ ((to.0 >> 64) as u64));
    h = splitmix64(h ^ salt);
    // Top 53 bits → uniform in [0, 1) for the Bernoulli loss trial.
    let u = (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
    if u < cfg.loss {
        return None;
    }
    let mut latency = cfg.latency;
    if cfg.jitter > 0 {
        latency += splitmix64(h) % (cfg.jitter + 1);
    }
    if from > to {
        latency += cfg.asymmetry;
    }
    Some(latency)
}

/// Mix three caller values into a transmission salt. Used to derive
/// per-message salts from `(tick, destination, kind)`-style coordinates so
/// distinct messages on the same link sample independent fates.
#[must_use]
pub fn message_salt(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(a).wrapping_add(b)).wrapping_add(c))
}

/// Salt for the `hop`-th routing transmission of a walk toward `key`.
#[must_use]
pub fn hop_salt(key: RingId, hop: u32) -> u64 {
    message_salt(key.0 as u64, (key.0 >> 64) as u64, u64::from(hop) << 8)
}

/// The splitmix64 finalizer: a fast, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_perfect() {
        let cfg = SimConfig::default();
        assert!(cfg.is_perfect());
        assert!(!cfg.lossy());
        assert_eq!(
            cfg.transmit(RingId(1), RingId(2), 99),
            Ok((0, 0)),
            "the perfect network delivers instantly with no drops"
        );
    }

    #[test]
    fn sampling_is_pure_and_seeded() {
        let cfg = SimConfig {
            seed: 7,
            latency: 3,
            jitter: 5,
            loss: 0.3,
            ..SimConfig::default()
        };
        let a = link_latency(&cfg, RingId(10), RingId(20), 1);
        let b = link_latency(&cfg, RingId(10), RingId(20), 1);
        assert_eq!(a, b, "same inputs must sample the same fate");
        let other_seed = SimConfig { seed: 8, ..cfg };
        let differs = (0..64).any(|salt| {
            link_latency(&cfg, RingId(10), RingId(20), salt)
                != link_latency(&other_seed, RingId(10), RingId(20), salt)
        });
        assert!(differs, "different seeds must realize different links");
    }

    #[test]
    fn loss_rate_tracks_configuration() {
        let cfg = SimConfig {
            seed: 42,
            loss: 0.25,
            ..SimConfig::default()
        };
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&salt| link_latency(&cfg, RingId(3), RingId(9), salt).is_none())
            .count();
        let emp = dropped as f64 / n as f64;
        assert!(
            (emp - 0.25).abs() < 0.02,
            "empirical drop rate {emp} far from 0.25"
        );
    }

    #[test]
    fn jitter_and_asymmetry_shape_latency() {
        let cfg = SimConfig {
            seed: 5,
            latency: 10,
            jitter: 4,
            asymmetry: 100,
            ..SimConfig::default()
        };
        for salt in 0..200 {
            // Downhill link (from < to): latency in [10, 14].
            let downhill = link_latency(&cfg, RingId(1), RingId(2), salt);
            assert!(
                downhill.is_some_and(|l| (10..=14).contains(&l)),
                "{downhill:?}"
            );
            // Uphill link (from > to): the asymmetry surcharge applies.
            let uphill = link_latency(&cfg, RingId(2), RingId(1), salt);
            assert!(
                uphill.is_some_and(|l| (110..=114).contains(&l)),
                "{uphill:?}"
            );
        }
    }

    #[test]
    fn transmit_retries_then_gives_up() {
        let always_lost = SimConfig {
            seed: 1,
            loss: 1.0,
            max_retries: 3,
            ..SimConfig::default()
        };
        assert_eq!(
            always_lost.transmit(RingId(1), RingId(2), 0),
            Err(4),
            "1 + max_retries transmissions, all dropped"
        );
        let lossy = SimConfig {
            seed: 9,
            loss: 0.5,
            max_retries: 8,
            ..SimConfig::default()
        };
        let mut delivered_after_drop = false;
        for salt in 0..64 {
            if let Ok((arrival, drops)) = lossy.transmit(RingId(1), RingId(2), salt * 1000) {
                // Each drop delays arrival by one RTO (latency+jitter+1 = 1).
                assert_eq!(arrival, drops);
                if drops > 0 {
                    delivered_after_drop = true;
                }
            }
        }
        assert!(delivered_after_drop, "retransmission path never exercised");
    }
}
