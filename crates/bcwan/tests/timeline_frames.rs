//! Timeline frames carry the whole registry: every frame is taken after
//! `World::fold_metrics`, so chain, mempool, daemon, network and
//! settlement progress show up over time instead of only in the closing
//! frame — and sampling observes the run without perturbing it.

use bcwan::world::{ExperimentResult, WorkloadConfig, World};
use bcwan_sim::{ChaosFault, ChaosPlan, SimDuration, SimTime, Snapshot};
use std::collections::BTreeSet;

/// A stored tiny run with one gateway crash (warm restart).
fn run(tag: &str, interval: Option<SimDuration>) -> ExperimentResult {
    let dir = std::env::temp_dir().join(format!("bcwan-timeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let plan = ChaosPlan {
        faults: vec![ChaosFault::HostCrash {
            host: 2,
            from: at(3),
            until: at(43),
        }],
    };
    let mut cfg = WorkloadConfig::tiny(6, 91)
        .with_chaos(plan)
        .with_store_dir(&dir);
    cfg.refund_delta = 12;
    cfg.metrics_interval = interval;
    let result = World::new(cfg).run();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn row_names(snapshot: &Snapshot) -> BTreeSet<&str> {
    let counters = snapshot.counters.iter().map(|(n, _)| n.as_str());
    let gauges = snapshot.gauges.iter().map(|(n, _)| n.as_str());
    let histograms = snapshot.histograms.iter().map(|(n, _)| n.as_str());
    counters.chain(gauges).chain(histograms).collect()
}

#[test]
fn every_frame_carries_every_row() {
    let result = run("frames", Some(SimDuration::from_secs(5)));
    let timeline = result.timeline.as_ref().expect("interval set");
    let frames = timeline.frames();
    assert!(frames.len() >= 4, "only {} frames", frames.len());

    let (_, closing) = frames.last().unwrap();
    assert_eq!(closing, &result.metrics, "closing frame = final snapshot");
    for (t, frame) in frames {
        assert_eq!(row_names(frame), row_names(closing), "row set at {t}");
    }

    let progress = [
        "chain.blocks_connected_total",
        "mempool.accepted_total",
        "daemon.txs_accepted_total",
        "net.sent_total",
        "world.exchanges_completed_total",
        "chaos.crash_drops_total",
        "wan.messages.block_total",
        "fsm.deliver_retries_total",
        "world.restart.warm_total",
    ];
    for name in progress {
        let series: Vec<u64> = frames
            .iter()
            .map(|(_, f)| f.counter(name).unwrap_or_else(|| panic!("{name} missing")))
            .collect();
        assert!(
            series.windows(2).all(|w| w[0] <= w[1]),
            "{name}: {series:?}"
        );
        assert!(
            series.first() < series.last(),
            "{name} never moved: {series:?}"
        );
    }
    // The master connects every block it mines, frame by frame (plus
    // the bootstrap blocks `World::new` pre-matured).
    let bootstrap = result
        .metrics
        .counter("chain.blocks_connected_total")
        .unwrap()
        - result.blocks_mined;
    for (t, frame) in frames {
        let mined = frame.counter("world.blocks_mined_total").unwrap();
        let connected = frame.counter("chain.blocks_connected_total").unwrap();
        assert_eq!(connected, bootstrap + mined, "master's chain at {t}");
    }
}

#[test]
fn sampling_observes_and_never_perturbs() {
    let sampled = run("sampled", Some(SimDuration::from_secs(5)));
    let plain = run("plain", None);
    assert!(plain.timeline.is_none());
    assert_eq!(sampled.utxo_fingerprint, plain.utxo_fingerprint);
    assert_eq!(sampled.sim_time, plain.sim_time);
    assert_eq!(sampled.blocks_mined, plain.blocks_mined);
    assert_eq!(sampled.completed, plain.completed);
    assert_eq!(sampled.latencies.samples(), plain.latencies.samples());
    // Row for row — `store.flush_total` and `store.bytes_written_total`
    // included: a mid-run fold must not flush a store.
    assert_eq!(sampled.metrics, plain.metrics);
}
