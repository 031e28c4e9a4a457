//! Ablation A3 (§4.4): the reputation-only baseline versus BcWAN's fair
//! exchange.
//!
//! "This solution reduces the probability of misbehavior but does not
//! eliminate the problem." The sweep varies the malicious-gateway
//! fraction and reports the residual loss under pay-first + reputation;
//! BcWAN's structural loss is zero by construction (the escrow releases
//! only against the key).
//!
//! A second, *observed* section replays real settlement behavior —
//! the auditor's per-gateway claim/refund counts from a Byzantine
//! chaos run — through the same scoring rules: every CLTV refund that
//! fair exchange turned into a harmless timeout would have been a
//! stolen payment under pay-first.
//!
//! Usage: `baseline_reputation [MESSAGES] [--json PATH]`.

use bcwan::world::{WorkloadConfig, World};
use bcwan_bench::reputation::{run_reputation_baseline, score_observed, ReputationConfig};
use bcwan_bench::{harness_args, BenchReport};
use bcwan_sim::{ChaosFault, ChaosPlan, Json, Registry, SimRng, SimTime};

fn main() {
    let args = harness_args();
    let messages = args.target.unwrap_or(20_000);
    let mut registry = Registry::new();
    let attempted_counter = registry.counter("reputation.attempted_total");
    let stolen_counter = registry.counter("reputation.stolen_total");
    let banned_counter = registry.counter("reputation.banned_gateways_total");

    let mut rng = SimRng::seed_from_u64(11);
    let mut rows = Vec::new();
    println!("malicious%  delivered   stolen  value-lost  loss-rate  banned   bcwan");
    for pct in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let cfg = ReputationConfig {
            malicious_fraction: pct,
            ..ReputationConfig::default()
        };
        let out = run_reputation_baseline(&cfg, messages, &mut rng);
        println!(
            "{:>9.0}%  {:>9}  {:>7}  {:>10}  {:>9.4}  {:>6}  {:>6.4}",
            pct * 100.0,
            out.delivered,
            out.stolen,
            out.stolen_value,
            out.loss_rate(),
            out.banned_gateways,
            0.0,
        );
        registry.add(attempted_counter, out.attempted as u64);
        registry.add(stolen_counter, out.stolen as u64);
        registry.add(banned_counter, out.banned_gateways as u64);
        rows.push(
            Json::object()
                .with("malicious_fraction", Json::num(pct))
                .with("attempted", Json::size(out.attempted))
                .with("delivered", Json::size(out.delivered))
                .with("stolen", Json::size(out.stolen))
                .with("stolen_value", Json::uint(out.stolen_value))
                .with("loss_rate", Json::num(out.loss_rate()))
                .with("banned_gateways", Json::size(out.banned_gateways))
                .with("bcwan_loss_rate", Json::num(0.0)),
        );
    }
    println!();
    println!("BcWAN column is structural: the Listing 1 escrow cannot pay without");
    println!("revealing the key, so pay-without-delivery is impossible (§4.4).");

    // Observed mode: a small Byzantine world (one gateway withholding
    // its claims forever — all its escrows refund via CLTV) feeds the
    // auditor's per-gateway outcomes into the same scoring rules.
    let forever = SimTime::from_micros(u64::MAX / 2);
    let plan = ChaosPlan {
        faults: vec![ChaosFault::ClaimWithhold {
            host: 2,
            from: SimTime::ZERO,
            until: forever,
        }],
    };
    let mut cfg = WorkloadConfig::fleet(5, 40, 7).with_chaos(plan);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();
    let observed = score_observed(&ReputationConfig::default(), &result.gateway_settlements);
    println!();
    println!("Observed replay (Byzantine world, 5 gateways, host 2 withholds):");
    println!(
        "  settled={} refunded={} -> pay-first would have: delivered={} stolen={} \
         value-lost={} starved={} banned={}",
        result.escrows_claimed,
        result.escrows_refunded,
        observed.delivered,
        observed.stolen,
        observed.stolen_value,
        observed.starved,
        observed.banned_gateways,
    );
    println!("Under fair exchange the same run lost nothing: every refund returned");
    println!("the recipient's coin instead of paying the withholding gateway.");
    registry.set_counter("reputation.observed_stolen_total", observed.stolen as u64);
    registry.set_counter(
        "reputation.observed_banned_gateways_total",
        observed.banned_gateways as u64,
    );

    if let Some(path) = args.json {
        BenchReport::new("baseline_reputation")
            .config("messages_per_fraction", Json::size(messages))
            .rows(Json::Array(rows))
            .config(
                "observed",
                Json::object()
                    .with("escrows_claimed", Json::size(result.escrows_claimed))
                    .with("escrows_refunded", Json::size(result.escrows_refunded))
                    .with("delivered", Json::size(observed.delivered))
                    .with("stolen", Json::size(observed.stolen))
                    .with("stolen_value", Json::uint(observed.stolen_value))
                    .with("starved", Json::size(observed.starved))
                    .with("banned_gateways", Json::size(observed.banned_gateways)),
            )
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
