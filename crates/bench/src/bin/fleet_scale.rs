//! Throughput-vs-host-count scaling sweep over the fleet preset.
//!
//! For each host count, runs the simulated testbed on a degree-6 ring
//! lattice ([`WorkloadConfig::fleet`]) across several seeds and reports
//! exchange throughput (completed exchanges per simulated second) as
//! min / mean / max over the seeds per host count, plus wall-clock
//! cost — the curve that shows whether the federation's gossip and sync
//! machinery scales past the paper's 6-host testbed.
//!
//! Usage: `fleet_scale [--hosts 50,200,1000] [--seeds N]
//! [--exchanges-per-host X] [--json PATH]`. Defaults: hosts 50,200,1000,
//! 3 seeds, 0.2 exchanges per host (minimum 10). Exits 1 if any run
//! fails an exchange or violates an invariant, so CI can gate on it.

use bcwan::world::{WorkloadConfig, World};
use bcwan_bench::BenchReport;
use bcwan_sim::{Json, Series};

struct Args {
    hosts: Vec<u32>,
    seeds: u64,
    exchanges_per_host: f64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        hosts: vec![50, 200, 1000],
        seeds: 3,
        exchanges_per_host: 0.2,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--hosts" => {
                let list = args.next().expect("--hosts takes a comma-separated list");
                parsed.hosts = list
                    .split(',')
                    .map(|h| h.trim().parse().expect("host count"))
                    .collect();
            }
            "--seeds" => {
                parsed.seeds = args
                    .next()
                    .expect("--seeds takes a count")
                    .parse()
                    .expect("seed count");
            }
            "--exchanges-per-host" => {
                parsed.exchanges_per_host = args
                    .next()
                    .expect("--exchanges-per-host takes a ratio")
                    .parse()
                    .expect("ratio");
            }
            "--json" => parsed.json = args.next(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let mut rows = Vec::new();
    let mut last_metrics = None;
    let mut gate_failures = 0u32;

    for &hosts in &args.hosts {
        let target = ((hosts as f64 * args.exchanges_per_host) as usize).max(10);
        let mut throughput = Series::new();
        let mut wall_s = Vec::new();
        for seed in 0..args.seeds {
            let cfg = WorkloadConfig::fleet(hosts, target, 0xf1ee7 ^ seed);
            let t0 = std::time::Instant::now();
            let result = World::new(cfg).run();
            let wall = t0.elapsed().as_secs_f64();
            let sim_s = result.sim_time.as_secs_f64().max(1e-9);
            throughput.record(result.completed as f64 / sim_s);
            wall_s.push(wall);
            let ok = result.failed == 0 && result.invariant_violations == 0;
            if !ok {
                gate_failures += 1;
            }
            eprintln!(
                "hosts={hosts} seed={seed}: {} — completed={} failed={} violations={} \
                 sim={:.0}s wall={wall:.1}s",
                if ok { "OK" } else { "FAILED" },
                result.completed,
                result.failed,
                result.invariant_violations,
                sim_s,
            );
            last_metrics = Some(result.metrics);
        }
        let throughput = throughput.summary().expect("at least one seed");
        let wall_mean = wall_s.iter().sum::<f64>() / wall_s.len() as f64;
        eprintln!(
            "hosts={hosts}: throughput {:.4} ex/sim-s (min {:.4}, max {:.4}), \
             wall {wall_mean:.1}s/run",
            throughput.mean, throughput.min, throughput.max,
        );
        rows.push(
            Json::object()
                .with("hosts", Json::uint(hosts as u64))
                .with("target_exchanges", Json::size(target))
                .with("seeds", Json::uint(args.seeds))
                .with("throughput_ex_per_sim_s", Json::num(throughput.mean))
                .with("throughput_min", Json::num(throughput.min))
                .with("throughput_max", Json::num(throughput.max))
                .with("wall_s_mean", Json::num(wall_mean)),
        );
    }

    let report = BenchReport::new("fleet_scale")
        .config(
            "sweep",
            Json::object()
                .with(
                    "hosts",
                    Json::Array(args.hosts.iter().map(|&h| Json::uint(h as u64)).collect()),
                )
                .with("seeds", Json::uint(args.seeds))
                .with("exchanges_per_host", Json::num(args.exchanges_per_host))
                .with("gossip_degree", Json::uint(6)),
        )
        .rows(Json::Array(rows))
        .metrics(last_metrics.expect("at least one run"));
    if let Some(path) = &args.json {
        report.write(path).expect("write json");
        eprintln!("wrote {path}");
    }

    if gate_failures > 0 {
        eprintln!("fleet_scale FAILED: {gate_failures} run(s) had failures or violations");
        std::process::exit(1);
    }
    eprintln!("fleet_scale passed: all runs clean");
}
