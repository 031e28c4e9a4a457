//! Ablation A1 (§6): double-spend theft rate and honest-exchange latency
//! versus the confirmation depth the gateway demands before revealing the
//! ephemeral private key.
//!
//! The paper's PoC reveals at zero confirmations and §6 observes that "a
//! malicious user could double spend this transaction"; Bitcoin's 6-conf
//! advice would cost 60 minutes. This sweep quantifies both sides, plus a
//! single mechanics run through the real chain proving the attack path.
//!
//! Usage: `ablation_confirmations [TRIALS] [--json PATH]`.

use bcwan::costs::CostModel;
use bcwan_bench::attack::{play_double_spend_mechanics, simulate_attack_rates, AttackConfig};
use bcwan_bench::{harness_args, BenchReport};
use bcwan_sim::{Json, LatencyModel, Registry, SimRng};

fn main() {
    let args = harness_args();
    let trials = args.target.unwrap_or(20_000);

    // First: prove the mechanics once on the real substrate.
    let mechanics = play_double_spend_mechanics(42);
    println!("mechanics (real chain, zero-conf):");
    println!(
        "  gateway accepted escrow:  {}",
        mechanics.gateway_accepted_escrow
    );
    println!(
        "  miner accepted conflict:  {}",
        mechanics.miner_accepted_conflict
    );
    println!(
        "  miner rejected escrow:    {}",
        mechanics.miner_rejected_escrow
    );
    println!(
        "  claim orphaned at miner:  {}",
        mechanics.claim_orphaned_at_miner
    );
    println!(
        "  recipient extracted eSk:  {}",
        mechanics.recipient_got_key
    );
    println!("  gateway left unpaid:      {}", mechanics.gateway_unpaid);
    println!(
        "  → attack succeeded:       {}",
        mechanics.attack_succeeded()
    );
    println!();

    let mut registry = Registry::new();
    let trials_counter = registry.counter("attack.trials_total");
    let theft_hist = registry.histogram("attack.theft_rate_by_depth");

    // Then sweep the depth.
    let mut rng = SimRng::seed_from_u64(7);
    let mut rows = Vec::new();
    println!("depth  theft-rate  honest-extra-latency(s)");
    for depth in 0..=6u64 {
        let cfg = AttackConfig {
            latency: LatencyModel::planetlab(),
            costs: CostModel::pi_class(),
            block_interval_s: 15.0,
            confirmation_depth: depth,
        };
        let out = simulate_attack_rates(&cfg, trials, &mut rng);
        println!(
            "{:>5}  {:>10.4}  {:>22.1}",
            depth, out.theft_rate, out.honest_extra_latency_s
        );
        registry.add(trials_counter, trials as u64);
        registry.observe(theft_hist, out.theft_rate);
        rows.push(
            Json::object()
                .with("confirmation_depth", Json::uint(depth))
                .with("theft_rate", Json::num(out.theft_rate))
                .with(
                    "honest_extra_latency_s",
                    Json::num(out.honest_extra_latency_s),
                ),
        );
    }
    println!();
    println!("paper §6: zero-conf is exploitable; Bitcoin's 6-conf advice would cost");
    println!("6 × block-interval of latency (60 min on Bitcoin, ~90 s on this chain).");
    if let Some(path) = args.json {
        BenchReport::new("ablation_confirmations")
            .config("trials_per_depth", Json::size(trials))
            .config("block_interval_s", Json::num(15.0))
            .config(
                "mechanics_attack_succeeded",
                Json::Bool(mechanics.attack_succeeded()),
            )
            .rows(Json::Array(rows))
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
