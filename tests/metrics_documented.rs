//! Docs that cannot drift: EXPERIMENTS.md § "Reading the metrics" names,
//! literally, every metric row a `World` run can publish, and its
//! "Simulation metrics" table names no row a run does not publish.

use bcwan::world::{WorkloadConfig, World};
use bcwan_sim::{split_label, ChaosFault, ChaosPlan, SimDuration, SimTime};
use std::collections::BTreeSet;

/// The base names of every row a `World` run publishes. A persistent
/// store and a chaos plan switch on every optional row family
/// (`store.*` and the per-host labels, `chaos.*`, `world.restart.*`);
/// `tag` keeps concurrent tests' store directories apart.
fn published_rows(tag: &str) -> BTreeSet<String> {
    let dir = std::env::temp_dir().join(format!("bcwan-metrics-{tag}-{}", std::process::id()));
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
        .with_store_dir(&dir);
    cfg.refund_delta = 12;
    let metrics = World::new(cfg).run().metrics;
    let _ = std::fs::remove_dir_all(&dir);

    let counters = metrics.counters.iter().map(|(n, _)| n);
    let gauges = metrics.gauges.iter().map(|(n, _)| n);
    let histograms = metrics.histograms.iter().map(|(n, _)| n);
    counters
        .chain(gauges)
        .chain(histograms)
        .map(|name| split_label(name).0.to_string())
        .collect()
}

#[test]
fn every_world_row_is_in_the_reading_the_metrics_tables() {
    let experiments = include_str!("../EXPERIMENTS.md");
    let start = experiments
        .find("\n## Reading the metrics")
        .expect("EXPERIMENTS.md has a \"Reading the metrics\" section");
    let section = &experiments[start..];

    let undocumented: Vec<String> = published_rows("docs")
        .into_iter()
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

#[test]
fn every_simulation_metrics_row_is_published() {
    let experiments = include_str!("../EXPERIMENTS.md");
    let start = experiments
        .find("\n### Simulation metrics")
        .expect("EXPERIMENTS.md has a \"Simulation metrics\" table");
    let table = &experiments[start + 1..];
    let table = &table[..table.find("\n#").unwrap_or(table.len())];

    // The first cell of a row names one or more rows, each in backticks,
    // some with a `{label}`.
    let documented: BTreeSet<String> = table
        .lines()
        .filter(|line| line.starts_with("| `"))
        .flat_map(|line| {
            let names = line.split('|').nth(1).unwrap_or_default().split('`');
            let names = names.skip(1).step_by(2);
            names
                .map(|name| split_label(name).0.to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!documented.is_empty(), "no table rows parsed");
    let stale: Vec<String> = documented
        .difference(&published_rows("table"))
        .cloned()
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md § Simulation metrics names rows no World run publishes: {stale:#?}"
    );
}
