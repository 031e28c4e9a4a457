//! Reproduces **paper Fig. 6**: BcWAN full-exchange latency with block
//! verification enabled — every block arrival stalls the Multichain-like
//! daemon ("the block verification made the Multichain daemon stall and
//! become unresponsive for extended periods upon each block arrival").
//! Paper result: **mean 30.241 s**.
//!
//! Usage: `fig6_latency [N] [--json PATH]`.

use bcwan::world::{WorkloadConfig, World};
use bcwan_bench::{harness_args, BenchReport, LatencyReport};
use bcwan_sim::Json;

fn main() {
    let args = harness_args();
    let mut cfg = WorkloadConfig::paper_fig6();
    if let Some(n) = args.target {
        cfg.target_exchanges = n;
    }
    eprintln!(
        "running Fig. 6: {} exchanges with verification stalls…",
        cfg.target_exchanges
    );
    let config = Json::object()
        .with("target_exchanges", Json::size(cfg.target_exchanges))
        .with("actor_hosts", Json::size(cfg.actor_hosts as usize))
        .with(
            "sensors_per_host",
            Json::size(cfg.sensors_per_host as usize),
        )
        .with("seed", Json::uint(cfg.seed))
        .with("stall_enabled", Json::Bool(cfg.chain_params.stall.enabled));
    let result = World::new(cfg).run();
    let latency = LatencyReport::from_series(
        "Fig. 6 — exchange latency, block verification enabled",
        Some(30.241),
        &result.latencies,
        result.completed,
        result.failed,
        result.sim_time.as_secs_f64(),
        result.blocks_mined,
        result.stalls,
        120.0,
        24,
    )
    .expect("at least one exchange completed");
    latency.print();
    let report = BenchReport::new("fig6_latency")
        .config("workload", config)
        .rows(Json::Array(vec![latency.to_json()]))
        .metrics(result.metrics.clone())
        .phases(&result.phases);
    // The stall shows up as a fat confirmation_wait / escrow_publish tail.
    report.print_phases();
    if let Some(path) = args.json {
        report.write(&path).expect("write json");
        eprintln!("wrote {path}");
    }
}
