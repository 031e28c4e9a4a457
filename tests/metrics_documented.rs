//! Docs that cannot drift: every metric row a `World` run can publish is
//! named, literally, in EXPERIMENTS.md § "Reading the metrics".

use bcwan::world::{WorkloadConfig, World};
use bcwan_sim::{split_label, ChaosFault, ChaosPlan, SimDuration, SimTime};

#[test]
fn every_world_row_is_in_the_reading_the_metrics_tables() {
    let experiments = include_str!("../EXPERIMENTS.md");
    let start = experiments
        .find("\n## Reading the metrics")
        .expect("EXPERIMENTS.md has a \"Reading the metrics\" section");
    let section = &experiments[start..];

    // Tracing, a persistent store and a chaos plan switch on every
    // optional row family (`trace.*`, `store.*` and the per-host labels,
    // `chaos.*`, `world.restart.*`).
    let dir = std::env::temp_dir().join(format!("bcwan-metrics-docs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let plan = ChaosPlan {
        faults: vec![ChaosFault::HostCrash {
            host: 2,
            from: at(3),
            until: at(43),
        }],
    };
    let mut cfg = WorkloadConfig::tiny(4, 91)
        .with_chaos(plan)
        .with_tracing()
        .with_store_dir(&dir);
    cfg.refund_delta = 12;
    let metrics = World::new(cfg).run().metrics;
    let _ = std::fs::remove_dir_all(&dir);

    let counters = metrics.counters.iter().map(|(n, _)| n);
    let gauges = metrics.gauges.iter().map(|(n, _)| n);
    let histograms = metrics.histograms.iter().map(|(n, _)| n);
    let undocumented: Vec<&str> = counters
        .chain(gauges)
        .chain(histograms)
        .map(|name| split_label(name).0)
        .filter(|base| {
            // A table cell: `name` alone, or `name{label="…"}`.
            !section.contains(&format!("`{base}`")) && !section.contains(&format!("`{base}{{"))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "rows missing from EXPERIMENTS.md § Reading the metrics: {undocumented:#?}"
    );
}
