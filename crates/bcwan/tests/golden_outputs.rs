//! Golden same-seed outputs: the two clean runs were recorded at the
//! commit *before* the world-shared verification memo, the overlay block
//! connect and the id-stamped gossip landed. Those are host-time savings
//! only, so the UTXO fingerprint, simulated duration, block count and
//! every exchange latency (in microseconds, the simulator's resolution)
//! must still be bit-identical — and so must they under the node-local
//! watchdog, which takes no action in a fault-free run. The two chaos
//! runs were re-recorded once, when recovery moved into the node
//! (EXPERIMENTS.md § "Recovery in the node").

use bcwan::world::{ExperimentResult, WorkloadConfig, World};
use bcwan_sim::{ChaosFault, ChaosPlan, ChaosProfile, SimDuration, SimRng, SimTime};

fn digest(result: &ExperimentResult) -> String {
    let latencies_us: Vec<u64> = result
        .latencies
        .samples()
        .iter()
        .map(|s| (s * 1e6).round() as u64)
        .collect();
    format!(
        "fp={} sim_us={} blocks={} completed={} lat_us={:?}",
        result.utxo_fingerprint,
        result.sim_time.as_micros(),
        result.blocks_mined,
        result.completed,
        latencies_us
    )
}

#[test]
fn fleet_50_hosts_10_exchanges() {
    for (seed, golden) in [
        (2018, "fp=17846157588567955404 sim_us=57501646 blocks=4 completed=10 lat_us=[584992, 504992, 504992, 544992, 744992, 464992, 664992, 544992, 704992, 624992]"),
        (7, "fp=12838608288839509952 sim_us=76865769 blocks=12 completed=10 lat_us=[464992, 504992, 464992, 544992, 544992, 744992, 504992, 504992, 464992, 504992]"),
    ] {
        let result = World::new(WorkloadConfig::fleet(50, 10, seed)).run();
        assert_eq!(digest(&result), golden, "seed {seed}");
    }
}

#[test]
fn miniature_fig5() {
    let mut cfg = WorkloadConfig::paper_fig5();
    cfg.actor_hosts = 3;
    cfg.sensors_per_host = 4;
    cfg.target_exchanges = 12;
    cfg.seed = 5;
    let result = World::new(cfg).run();
    assert_eq!(digest(&result), "fp=1869101859094229732 sim_us=168232404 blocks=2 completed=12 lat_us=[1516339, 1495210, 1433040, 1556919, 1437038, 1520639, 1440827, 1462155, 1454395, 1555496, 1439248, 1476625]");
}

/// The `chaos_soak` bin's seed-101 run: soak-profile plan over the
/// 2-actor tiny world, refunds after 12 blocks.
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
    let result = World::new(cfg).run();
    assert_eq!(result.invariant_violations, 0);
    assert_eq!(digest(&result), "fp=5660733886755421292 sim_us=393238049 blocks=23 completed=7 lat_us=[464992, 464992, 464992, 464992, 15464992, 35464992, 464992]");
}

/// The `byzantine_soak` bin's seed-11 run at 40 % Byzantine gateways:
/// an equivocator, a withholder, a censoring master and a three-way
/// partition over the 5-gateway fleet preset.
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
    let result = World::new(cfg).run();
    assert_eq!(result.invariant_violations, 0);
    assert_eq!(
        digest(&result),
        format!(
            "fp=5332802087798962514 sim_us=630696162 blocks=250 completed=34 lat_us={:?}",
            [464_992u64; 34]
        )
    );
}
