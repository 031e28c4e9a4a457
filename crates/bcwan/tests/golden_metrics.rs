//! Golden same-seed *metrics*: `golden_outputs.rs` pins the fingerprint,
//! simulated time, block count and latencies of four configurations;
//! this file pins every row of their final registry snapshot — name,
//! value and row count — so a renamed, dropped or mis-summed metric row
//! fails tier-1. Digests were recorded at the commit *before* the stats
//! structs moved onto the declare-once table and `World::fold_metrics`;
//! the three chaos runs' were re-recorded once, when recovery moved into
//! the node (EXPERIMENTS.md § "Recovery in the node"), and the stored
//! run's twice more: when its eight `store.cache_*` rows were deleted
//! (EXPERIMENTS.md § UM), and when its two `trace.*` rows went with the
//! span tracer (EXPERIMENTS.md § PH); and all six once more, when
//! `net.dropped_partition_total` (always 0) went with the overlay's
//! link check that could never fail (EXPERIMENTS.md § WN). Each time the
//! previous snapshot without the deleted rows hashes to the new digest.

use bcwan::world::{ExperimentResult, WorkloadConfig, World};
use bcwan_sim::{ChaosFault, ChaosPlan, ChaosProfile, SimDuration, SimRng, SimTime, Snapshot};

/// `rows=<count> fnv=<FNV-1a over the sorted "name=value" lines>`:
/// counters as integers, gauges via `{:?}` (shortest round-trip float),
/// histograms as their exact `count` and `sum`.
fn digest(snapshot: &Snapshot) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (name, value) in &snapshot.counters {
        lines.push(format!("{name}={value}"));
    }
    for (name, value) in &snapshot.gauges {
        lines.push(format!("{name}={value:?}"));
    }
    for (name, h) in &snapshot.histograms {
        lines.push(format!("{name}.count={}", h.count));
        lines.push(format!("{name}.sum={:?}", h.sum));
    }
    lines.sort();
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for byte in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        fnv ^= u64::from(byte);
        fnv = fnv.wrapping_mul(0x1_0000_01b3);
    }
    let rows = snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
    format!("rows={rows} fnv={fnv:016x}")
}

fn run(cfg: WorkloadConfig) -> ExperimentResult {
    World::new(cfg).run()
}

#[test]
fn fleet_50_hosts_10_exchanges() {
    for (seed, golden) in [
        (2018, "rows=68 fnv=bcae3ecb7c3549c0"),
        (7, "rows=68 fnv=f0cab386ddcf1f12"),
    ] {
        let result = run(WorkloadConfig::fleet(50, 10, seed));
        assert_eq!(digest(&result.metrics), golden, "seed {seed}");
    }
}

#[test]
fn miniature_fig5() {
    let mut cfg = WorkloadConfig::paper_fig5();
    cfg.actor_hosts = 3;
    cfg.sensors_per_host = 4;
    cfg.target_exchanges = 12;
    cfg.seed = 5;
    assert_eq!(digest(&run(cfg).metrics), "rows=74 fnv=b441609fca2180d8");
}

/// Same plan as `golden_outputs.rs::chaos_soak_seed_101`.
#[test]
fn chaos_soak_seed_101() {
    let seed = 101;
    let mut rng = SimRng::seed_from_u64(seed ^ 0xc4a0_5eed);
    let plan = ChaosPlan::generate(
        &mut rng,
        &ChaosProfile::soak(),
        SimDuration::from_secs(240),
        2,
    );
    let mut cfg = WorkloadConfig::tiny(10, seed).with_chaos(plan);
    cfg.refund_delta = 12;
    assert_eq!(digest(&run(cfg).metrics), "rows=72 fnv=610686c2066dece6");
}

/// Same plan as `golden_outputs.rs::byzantine_soak_seed_11`.
#[test]
fn byzantine_soak_seed_11() {
    const ACTOR_HOSTS: u32 = 5;
    let seed = 11u64;
    let mut rng = SimRng::seed_from_u64(seed ^ 0xb12a_4713);
    let forever = SimTime::from_micros(u64::MAX / 2);
    let equivocator = rng.index(ACTOR_HOSTS as usize) as u32 + 1;
    let withholder = loop {
        let h = rng.index(ACTOR_HOSTS as usize) as u32 + 1;
        if h != equivocator {
            break h;
        }
    };
    let mut cells: Vec<Vec<u32>> = vec![vec![0], vec![], vec![]];
    let mut actors: Vec<u32> = (1..=ACTOR_HOSTS).collect();
    while !actors.is_empty() {
        let pick = actors.remove(rng.index(actors.len()));
        let cell = rng.index(3);
        cells[cell].push(pick);
    }
    cells.retain(|c| !c.is_empty());
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let plan = ChaosPlan {
        faults: vec![
            ChaosFault::Equivocate {
                host: equivocator,
                from: SimTime::ZERO,
                until: forever,
            },
            ChaosFault::CensorClaims {
                miner: 0,
                from: at(30),
                until: at(230),
            },
            ChaosFault::PartitionGroups {
                groups: cells,
                from: at(150),
                until: at(162),
            },
            ChaosFault::ClaimWithhold {
                host: withholder,
                from: SimTime::ZERO,
                until: forever,
            },
        ],
    };
    let mut cfg = WorkloadConfig::fleet(ACTOR_HOSTS, 40, seed).with_chaos(plan);
    cfg.refund_delta = 12;
    assert_eq!(digest(&run(cfg).metrics), "rows=78 fnv=9323ebd716f59afb");
}

/// Every optional row family at once: per-host `store.*` and
/// `world.lora_*` labels, a warm restart, and interval sampling (which
/// must not move a single final row).
#[test]
fn stored_sampled_tiny() {
    let dir = std::env::temp_dir().join(format!("bcwan-golden-metrics-{}", std::process::id()));
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
        .with_store_dir(&dir)
        .with_metrics_interval(SimDuration::from_secs(20));
    cfg.refund_delta = 12;
    let result = run(cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(result.restarts_warm > 0, "the store rows cover a reopen");
    assert_eq!(digest(&result.metrics), "rows=84 fnv=3d64ca7d3e8b90be");
}
