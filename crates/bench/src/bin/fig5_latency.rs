//! Reproduces **paper Fig. 5**: BcWAN full-exchange latency with block
//! verification disabled. Paper setup: 5 PlanetLab hosts × 30 sensors,
//! SF7, 1 % duty cycle, 128-byte payload + 4-byte header, AWS master
//! mining, 2000 exchanges. Paper result: **mean 1.604 s**.
//!
//! Usage: `fig5_latency [N] [--json PATH] [--timeline SECS]`
//! (N overrides 2000 exchanges; `--timeline` samples the full metrics
//! registry every SECS of sim time into the report's `timeline`
//! section — see EXPERIMENTS.md, "Reading the metrics").

use bcwan::world::{WorkloadConfig, World};
use bcwan_bench::{harness_args, BenchReport, LatencyReport};
use bcwan_sim::{Json, SimDuration};

fn main() {
    let args = harness_args();
    let mut cfg = WorkloadConfig::paper_fig5();
    if let Some(n) = args.target {
        cfg.target_exchanges = n;
    }
    if let Some(every) = args.timeline_s {
        cfg = cfg.with_metrics_interval(SimDuration::from_secs_f64(every));
    }
    eprintln!(
        "running Fig. 5: {} exchanges, {} hosts × {} sensors, SF7, 1% duty…",
        cfg.target_exchanges, cfg.actor_hosts, cfg.sensors_per_host
    );
    let config = Json::object()
        .with("target_exchanges", Json::size(cfg.target_exchanges))
        .with("actor_hosts", Json::size(cfg.actor_hosts as usize))
        .with(
            "sensors_per_host",
            Json::size(cfg.sensors_per_host as usize),
        )
        .with("seed", Json::uint(cfg.seed));
    let result = World::new(cfg).run();
    let latency = LatencyReport::from_series(
        "Fig. 5 — exchange latency, block verification disabled",
        Some(1.604),
        &result.latencies,
        result.completed,
        result.failed,
        result.sim_time.as_secs_f64(),
        result.blocks_mined,
        result.stalls,
        4.0,
        20,
    )
    .expect("at least one exchange completed");
    latency.print();
    let report = BenchReport::new("fig5_latency")
        .config("workload", config)
        .rows(Json::Array(vec![latency.to_json()]))
        .metrics(result.metrics.clone())
        .phases(&result.phases)
        .timeline(result.timeline);
    // Phase decomposition: where the latency lives, span by span.
    report.print_phases();
    if let Some(path) = args.json {
        report.write(&path).expect("write json");
        eprintln!("wrote {path}");
    }
}
