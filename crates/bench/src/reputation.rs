//! The reputation-only baseline (paper §4.4).
//!
//! "A solution for this problem could be the usage of reputation. …
//! This solution reduces the probability of misbehavior but does not
//! eliminate the problem." This module implements that strawman so the
//! A3 ablation can quantify the residual loss BcWAN's fair exchange
//! removes by construction.
//!
//! Model: the recipient pays first, then the gateway delivers — honestly
//! or not. Recipients keep per-gateway scores, stop using gateways below
//! a threshold, and malicious gateways defect with a fixed probability.

use bcwan::audit::GatewayOutcome;
use bcwan_sim::SimRng;
use std::collections::HashMap;

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct ReputationConfig {
    /// Number of gateways.
    pub gateways: usize,
    /// Fraction of gateways that are malicious.
    pub malicious_fraction: f64,
    /// Probability a malicious gateway keeps the payment and drops the
    /// message.
    pub defect_probability: f64,
    /// Score below which a recipient refuses a gateway.
    pub ban_threshold: f64,
    /// Score increment on honest delivery.
    pub reward_delta: f64,
    /// Score decrement on defection.
    pub penalty_delta: f64,
    /// Payment per message (for accounting stolen value).
    pub payment: u64,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            gateways: 20,
            malicious_fraction: 0.25,
            defect_probability: 0.5,
            ban_threshold: -2.0,
            reward_delta: 0.1,
            penalty_delta: 1.0,
            payment: 10,
        }
    }
}

/// Outcome of a reputation-baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationOutcome {
    /// Messages attempted.
    pub attempted: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages paid for but dropped (the recipient's loss).
    pub stolen: usize,
    /// Value lost to defections.
    pub stolen_value: u64,
    /// Messages refused because every reachable gateway was banned.
    pub starved: usize,
    /// Gateways banned by the end.
    pub banned_gateways: usize,
}

impl ReputationOutcome {
    /// Fraction of attempted messages lost to defection.
    pub fn loss_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.stolen as f64 / self.attempted as f64
        }
    }
}

/// Runs the pay-first + reputation baseline for `messages` exchanges.
///
/// BcWAN's fair exchange makes the corresponding loss structurally zero
/// (the escrow only releases against the key); this simulation shows the
/// baseline converges to a nonzero stolen count before bans kick in.
pub fn run_reputation_baseline(
    cfg: &ReputationConfig,
    messages: usize,
    rng: &mut SimRng,
) -> ReputationOutcome {
    let malicious_count = (cfg.gateways as f64 * cfg.malicious_fraction).round() as usize;
    let mut scores: HashMap<usize, f64> = (0..cfg.gateways).map(|g| (g, 0.0)).collect();
    let is_malicious = |g: usize| g < malicious_count;

    let mut outcome = ReputationOutcome {
        attempted: 0,
        delivered: 0,
        stolen: 0,
        stolen_value: 0,
        starved: 0,
        banned_gateways: 0,
    };

    for _ in 0..messages {
        outcome.attempted += 1;
        // Choose among non-banned gateways uniformly (the sensor cannot
        // know reputations; its recipient filters).
        let usable: Vec<usize> = (0..cfg.gateways)
            .filter(|g| scores[g] > cfg.ban_threshold)
            .collect();
        if usable.is_empty() {
            outcome.starved += 1;
            continue;
        }
        let gateway = usable[rng.index(usable.len())];
        // Recipient pays first.
        let defects = is_malicious(gateway) && rng.chance(cfg.defect_probability);
        if defects {
            outcome.stolen += 1;
            outcome.stolen_value += cfg.payment;
            *scores.get_mut(&gateway).expect("known") -= cfg.penalty_delta;
        } else {
            outcome.delivered += 1;
            *scores.get_mut(&gateway).expect("known") += cfg.reward_delta;
        }
    }
    outcome.banned_gateways = scores.values().filter(|&&s| s <= cfg.ban_threshold).count();
    outcome
}

/// Replays *observed* settlement behavior through the baseline scoring
/// rules — the A3 ablation against real chaos-soak outcomes (the
/// auditor's [`GatewayOutcome`] rows) instead of the RNG defection
/// model. Each settled escrow scores as an honest delivery; each CLTV
/// refund as a defection — under pay-first the recipient's money would
/// have been gone, so the refund count is exactly the loss fair
/// exchange turned into a harmless timeout.
///
/// Events interleave deterministically — one event per gateway per
/// round, gateways in id order, alternating settled/refunded within a
/// gateway — so reruns are bit-identical without an RNG. Events landing
/// after a gateway crosses the ban threshold count as `starved`: under
/// pure reputation that recipient would have refused the exchange.
pub fn score_observed(cfg: &ReputationConfig, outcomes: &[GatewayOutcome]) -> ReputationOutcome {
    let mut scores: HashMap<u32, f64> = outcomes.iter().map(|o| (o.gateway, 0.0)).collect();
    let mut queues: Vec<(u32, Vec<bool>)> = outcomes
        .iter()
        .map(|o| {
            let mut events = Vec::with_capacity((o.settled + o.refunded) as usize);
            let (mut s, mut r) = (o.settled, o.refunded);
            while s > 0 || r > 0 {
                if s > 0 {
                    events.push(true);
                    s -= 1;
                }
                if r > 0 {
                    events.push(false);
                    r -= 1;
                }
            }
            (o.gateway, events)
        })
        .collect();
    queues.sort_by_key(|(g, _)| *g);

    let mut outcome = ReputationOutcome {
        attempted: 0,
        delivered: 0,
        stolen: 0,
        stolen_value: 0,
        starved: 0,
        banned_gateways: 0,
    };
    let mut cursor = vec![0usize; queues.len()];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (i, (gateway, events)) in queues.iter().enumerate() {
            let Some(&delivered) = events.get(cursor[i]) else {
                continue;
            };
            cursor[i] += 1;
            progressed = true;
            outcome.attempted += 1;
            if scores[gateway] <= cfg.ban_threshold {
                outcome.starved += 1;
                continue;
            }
            if delivered {
                outcome.delivered += 1;
                *scores.get_mut(gateway).expect("known") += cfg.reward_delta;
            } else {
                outcome.stolen += 1;
                outcome.stolen_value += cfg.payment;
                *scores.get_mut(gateway).expect("known") -= cfg.penalty_delta;
            }
        }
    }
    outcome.banned_gateways = scores.values().filter(|&&s| s <= cfg.ban_threshold).count();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_network_never_loses() {
        let cfg = ReputationConfig {
            malicious_fraction: 0.0,
            ..ReputationConfig::default()
        };
        let mut rng = SimRng::seed_from_u64(1);
        let out = run_reputation_baseline(&cfg, 2000, &mut rng);
        assert_eq!(out.stolen, 0);
        assert_eq!(out.delivered, 2000);
        assert_eq!(out.loss_rate(), 0.0);
        assert_eq!(out.banned_gateways, 0);
    }

    #[test]
    fn malicious_gateways_steal_until_banned() {
        let cfg = ReputationConfig::default();
        let mut rng = SimRng::seed_from_u64(2);
        let out = run_reputation_baseline(&cfg, 5000, &mut rng);
        // Losses happen (the paper's point: reputation reduces, does not
        // eliminate).
        assert!(out.stolen > 0, "some messages are stolen");
        assert!(out.stolen_value == out.stolen as u64 * cfg.payment);
        // But bans eventually contain it.
        assert_eq!(out.banned_gateways, 5, "all malicious gateways banned");
        assert!(out.loss_rate() < 0.05, "loss rate {}", out.loss_rate());
    }

    #[test]
    fn higher_malicious_fraction_loses_more() {
        let mut rng = SimRng::seed_from_u64(3);
        let low = run_reputation_baseline(
            &ReputationConfig {
                malicious_fraction: 0.1,
                ..ReputationConfig::default()
            },
            3000,
            &mut rng,
        );
        let high = run_reputation_baseline(
            &ReputationConfig {
                malicious_fraction: 0.6,
                ..ReputationConfig::default()
            },
            3000,
            &mut rng,
        );
        assert!(
            high.stolen > low.stolen,
            "{} vs {}",
            high.stolen,
            low.stolen
        );
    }

    #[test]
    fn all_malicious_starves_eventually() {
        let cfg = ReputationConfig {
            gateways: 4,
            malicious_fraction: 1.0,
            defect_probability: 1.0,
            ..ReputationConfig::default()
        };
        let mut rng = SimRng::seed_from_u64(4);
        let out = run_reputation_baseline(&cfg, 100, &mut rng);
        assert_eq!(out.banned_gateways, 4);
        assert!(out.starved > 0, "recipients end up with no usable gateway");
        assert_eq!(out.delivered, 0);
    }

    #[test]
    fn observed_refunds_score_as_defections_and_ban() {
        let cfg = ReputationConfig::default();
        let outcomes = vec![
            GatewayOutcome {
                gateway: 1,
                settled: 10,
                refunded: 0,
                adversarial: false,
            },
            GatewayOutcome {
                gateway: 2,
                settled: 1,
                refunded: 6,
                adversarial: true,
            },
        ];
        let out = score_observed(&cfg, &outcomes);
        assert_eq!(out.attempted, 17, "every observed event is replayed");
        assert_eq!(out.banned_gateways, 1, "the refunding gateway is banned");
        assert_eq!(out.stolen, 3, "pay-first loses until the ban lands");
        assert_eq!(out.stolen_value, 3 * cfg.payment);
        assert_eq!(out.starved, 3, "post-ban events are refused");
        assert_eq!(out.delivered, 11);
        // Deterministic without an RNG: bit-identical on replay.
        assert_eq!(score_observed(&cfg, &outcomes), out);
    }

    #[test]
    fn observed_honest_fleet_never_banned() {
        let cfg = ReputationConfig::default();
        let outcomes: Vec<GatewayOutcome> = (1..=5)
            .map(|g| GatewayOutcome {
                gateway: g,
                settled: 40,
                refunded: 0,
                adversarial: false,
            })
            .collect();
        let out = score_observed(&cfg, &outcomes);
        assert_eq!(out.delivered, 200);
        assert_eq!(out.stolen, 0);
        assert_eq!(out.banned_gateways, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ReputationConfig::default();
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        assert_eq!(
            run_reputation_baseline(&cfg, 1000, &mut r1),
            run_reputation_baseline(&cfg, 1000, &mut r2)
        );
    }
}
