//! Ablation A5 (§6): gateway co-location.
//!
//! "In a real world environment, a sensor has higher chances to
//! communicate with a Gateway that is geolocated closer to his origin
//! deployment. The network latency can thus be decreased between
//! co-located foreign Gateways and lower the data retrieval latency."
//!
//! This sweep re-runs the Fig. 5 workload under three WAN regimes —
//! continent-scale PlanetLab, metro-scale, and co-located LAN — and
//! reports how much of the exchange latency the network actually owns.
//!
//! Usage: `ablation_colocation [N] [--json PATH]`.

use bcwan::world::{WorkloadConfig, World};
use bcwan_bench::{harness_args, summary_json, BenchReport};
use bcwan_sim::{Json, LatencyModel, SimDuration};

fn main() {
    let args = harness_args();
    let n = args.target.unwrap_or(300);

    let regimes: Vec<(&str, LatencyModel)> = vec![
        ("planetlab (paper testbed)", LatencyModel::planetlab()),
        (
            "metro (co-located city operators)",
            LatencyModel::Normal {
                mean_s: 0.008,
                std_s: 0.002,
                min: SimDuration::from_millis(2),
            },
        ),
        ("lan (same facility)", LatencyModel::lan()),
    ];

    let mut rows = Vec::new();
    let mut means = Vec::new();
    let mut last = None;
    println!("regime                               mean(s)   p95(s)   n");
    for (name, latency) in regimes {
        let mut cfg = WorkloadConfig::paper_fig5();
        cfg.target_exchanges = n;
        cfg.latency = latency;
        let result = World::new(cfg).run();
        let s = result.latencies.summary().expect("completed exchanges");
        println!(
            "{name:36} {:>7.3}  {:>7.3}  {:>4}",
            s.mean, s.p95, result.completed
        );
        means.push(s.mean);
        rows.push(
            Json::object()
                .with("regime", Json::str(name))
                .with("completed", Json::size(result.completed))
                .with("latency", summary_json(&s)),
        );
        last = Some(result);
    }
    println!();
    let saved = means[0] - means[2];
    println!(
        "co-location strips ≈{:.0} ms off the mean — the WAN's share; the rest is",
        saved * 1e3
    );
    println!("radio airtime and edge CPU, which §6's co-location argument cannot touch.");
    if let Some(path) = args.json {
        // The LAN run's phases: where the remaining latency lives once
        // the WAN is out of the picture.
        let lan = last.expect("three regimes ran");
        BenchReport::new("ablation_colocation")
            .config("target_exchanges", Json::size(n))
            .rows(Json::Array(rows))
            .metrics(lan.metrics.clone())
            .phases(&lan.phases)
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
