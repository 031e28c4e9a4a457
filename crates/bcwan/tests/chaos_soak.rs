//! Chaos soak: seeded fault schedules against the full testbed world.
//!
//! Three focused scenarios pin the recovery paths the fair exchange must
//! survive (ISSUE 4 acceptance): a gateway that crashes after Deliver, a
//! claim orphaned by a chain reorganization, and a gateway that withholds
//! its claim until the `OP_CHECKLOCKTIMEVERIFY` refund branch fires. The
//! soak then runs generated [`ChaosPlan`]s and asserts the global
//! invariants: no coin created or destroyed, every escrow terminates in
//! exactly one of Claimed/Refunded, and the final UTXO set is identical
//! across reruns of the same seed.

use bcwan::world::{WorkloadConfig, World};
use bcwan_sim::{ChaosFault, ChaosPlan, ChaosProfile, SimDuration, SimRng, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn counter(result: &bcwan::ExperimentResult, name: &str) -> u64 {
    result
        .metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

#[test]
fn gateway_crash_after_deliver_recovers() {
    // Host 2 (the gateway for host 1's sensors) crashes shortly after
    // the first exchanges deliver, missing the escrow gossip, and
    // restarts cold 40 s later. The late-claim path must settle every
    // escrow once the gateway has resynced the chain.
    let plan = ChaosPlan {
        faults: vec![ChaosFault::HostCrash {
            host: 2,
            from: secs(3),
            until: secs(43),
        }],
    };
    let mut cfg = WorkloadConfig::tiny(6, 91).with_chaos(plan);
    cfg.refund_delta = 12; // if even the late claim fails, refund quickly
    let result = World::new(cfg).run();

    assert!(counter(&result, "chaos.crash_drops_total") > 0, "crash bit");
    assert!(result.completed >= 1, "exchanges outside the crash window");
    assert_eq!(result.escrows_open, 0, "every escrow settled");
    assert_eq!(result.invariant_violations, 0);
    assert_eq!(
        counter(&result, "chaos.invariant.violation_total"),
        0,
        "registry mirrors the result field"
    );
}

#[test]
fn claim_orphaned_by_reorg_reconfirms() {
    // A depth-3 fork at t=50s orphans the blocks holding the early
    // escrows and claims. Mempool repair re-pools them, each node
    // re-publishes what the new branch's blocks leave out, and every
    // claim must re-confirm on the winning branch.
    let plan = ChaosPlan {
        faults: vec![ChaosFault::Fork {
            at: secs(50),
            depth: 3,
        }],
    };
    let cfg = WorkloadConfig::tiny(5, 17).with_chaos(plan);
    let result = World::new(cfg).run();

    assert_eq!(counter(&result, "chaos.forks_total"), 1, "fork fired");
    assert_eq!(result.completed, 5, "reorg does not lose readings");
    assert_eq!(result.escrows_open, 0);
    assert!(result.escrows_claimed >= 1, "claims settled on new branch");
    assert_eq!(result.escrows_refunded, 0, "no CLTV branch needed");
    assert_eq!(result.invariant_violations, 0);
}

#[test]
fn withheld_claim_falls_back_to_cltv_refund() {
    // Both gateways withhold every claim for the whole run: the
    // recipient's refund driver must reclaim each escrow through the
    // CLTV branch once the chain passes the refund height.
    let forever = secs(1_000_000);
    let plan = ChaosPlan {
        faults: vec![
            ChaosFault::ClaimWithhold {
                host: 1,
                from: SimTime::ZERO,
                until: forever,
            },
            ChaosFault::ClaimWithhold {
                host: 2,
                from: SimTime::ZERO,
                until: forever,
            },
        ],
    };
    let mut cfg = WorkloadConfig::tiny(4, 23).with_chaos(plan);
    cfg.refund_delta = 8;
    let result = World::new(cfg).run();

    assert!(counter(&result, "chaos.claims_withheld_total") > 0);
    assert_eq!(result.completed, 0, "no key disclosed, no reading");
    assert!(result.escrows_refunded >= 1, "CLTV branch exercised");
    assert_eq!(result.escrows_claimed, 0, "withheld means withheld");
    assert_eq!(result.escrows_open, 0);
    assert_eq!(result.invariant_violations, 0);
    assert!(counter(&result, "fsm.refunds_submitted_total") >= result.escrows_refunded as u64);
}

#[test]
fn soak_generated_plans_keep_invariants() {
    for seed in [101u64, 202] {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xc4a0_5eed);
        let plan = ChaosPlan::generate(
            &mut rng,
            &ChaosProfile::soak(),
            SimDuration::from_secs(240),
            2,
        );
        assert!(!plan.is_empty());
        let mut cfg = WorkloadConfig::tiny(10, seed).with_chaos(plan);
        cfg.refund_delta = 12;
        let result = World::new(cfg).run();

        assert_eq!(result.invariant_violations, 0, "seed {seed}");
        assert_eq!(
            result.escrows_open, 0,
            "seed {seed}: every escrow must end Claimed or Refunded"
        );
        assert_eq!(
            result.escrows_claimed + result.escrows_refunded,
            counter(&result, "world.escrows_claimed_total") as usize
                + counter(&result, "world.escrows_refunded_total") as usize,
            "seed {seed}: registry mirrors the census"
        );
    }
}

#[test]
fn master_crash_fails_over_to_standby_miner() {
    // A generated master-failover plan: host 0 (the miner) crashes
    // mid-run, the tallest live standby must take over block
    // production, and the restarted master must catch back up from a
    // standby and finish the run with every invariant intact.
    let mut rng = SimRng::seed_from_u64(0xfa11);
    let plan = ChaosPlan::generate(
        &mut rng,
        &ChaosProfile::master_failover(),
        SimDuration::from_secs(240),
        2,
    );
    assert!(
        plan.faults
            .iter()
            .any(|f| matches!(f, ChaosFault::HostCrash { host: 0, .. })),
        "the profile must schedule a master crash"
    );
    let mut cfg = WorkloadConfig::tiny(10, 314).with_chaos(plan);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();

    assert!(
        result.standby_blocks_mined > 0,
        "a standby mined during the master outage"
    );
    assert_eq!(
        counter(&result, "world.standby_blocks_mined_total"),
        result.standby_blocks_mined,
        "registry mirrors the failover census"
    );
    assert!(
        result.blocks_mined > result.standby_blocks_mined,
        "the master still mines outside its crash window"
    );
    assert!(result.completed >= 1, "exchanges survive the failover");
    assert_eq!(result.escrows_open, 0, "every escrow settled");
    assert_eq!(result.invariant_violations, 0);
}

#[test]
fn crashed_gateway_restarts_warm_from_its_store() {
    // Same crash schedule as `gateway_crash_after_deliver_recovers`, but
    // every host persists its chain. The restarted gateway must reopen
    // its block files instead of rebuilding from genesis (a *warm*
    // restart), then catch up to the fleet tip headers-first and settle
    // every escrow with the invariants intact.
    let dir = std::env::temp_dir().join(format!(
        "bcwan-warm-restart-{}-{:x}",
        std::process::id(),
        0x5704u32
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = ChaosPlan {
        faults: vec![ChaosFault::HostCrash {
            host: 2,
            from: secs(3),
            until: secs(43),
        }],
    };
    let mut cfg = WorkloadConfig::tiny(6, 91)
        .with_chaos(plan)
        .with_store_dir(&dir);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(result.restarts_warm > 0, "restart must reload from disk");
    assert_eq!(result.restarts_cold, 0, "no store fell back to cold");
    assert_eq!(
        counter(&result, "world.restart.warm_total"),
        result.restarts_warm,
        "registry mirrors the restart census"
    );
    assert!(counter(&result, "store.flush_total") > 0, "stores flushed");
    assert!(
        counter(&result, "store.blocks_appended_total") > 0,
        "blocks hit the block files"
    );
    assert!(result.completed >= 1, "exchanges outside the crash window");
    assert_eq!(result.escrows_open, 0, "every escrow settled");
    assert_eq!(result.invariant_violations, 0);
}

#[test]
fn stored_soak_matches_in_memory_soak() {
    // A persisted run must be byte-identical (in outcome) to the same
    // seed run purely in memory: the store is a durability layer, not a
    // consensus participant.
    let plan = || {
        let mut rng = SimRng::seed_from_u64(0x570a);
        ChaosPlan::generate(
            &mut rng,
            &ChaosProfile::soak(),
            SimDuration::from_secs(240),
            2,
        )
    };
    let mut mem_cfg = WorkloadConfig::tiny(8, 55).with_chaos(plan());
    mem_cfg.refund_delta = 12;
    let mem = World::new(mem_cfg).run();

    let dir = std::env::temp_dir().join(format!("bcwan-stored-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut disk_cfg = WorkloadConfig::tiny(8, 55)
        .with_chaos(plan())
        .with_store_dir(&dir);
    disk_cfg.refund_delta = 12;
    let disk = World::new(disk_cfg).run();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(mem.utxo_fingerprint, disk.utxo_fingerprint);
    assert_eq!(mem.utxo_total, disk.utxo_total);
    assert_eq!(mem.completed, disk.completed);
    assert_eq!(mem.escrows_claimed, disk.escrows_claimed);
    assert_eq!(mem.escrows_refunded, disk.escrows_refunded);
    assert_eq!(mem.blocks_mined, disk.blocks_mined);
    assert_eq!(disk.invariant_violations, 0);
    assert!(
        disk.restarts_warm + disk.restarts_cold > 0,
        "soak restarted hosts"
    );
    assert_eq!(disk.restarts_cold, 0, "every restart reopened its store");
}

#[test]
fn equivocating_gateway_is_detected_and_recipient_made_whole() {
    // Host 2 signs two conflicting claims (different fee → different
    // txid, both revealing the true key) against every escrow it
    // settles. First-seen mempools keep exactly one; the recipient-side
    // detector must flag every injected double-claim, and no escrow may
    // end ambiguous or open.
    let forever = secs(1_000_000);
    let plan = ChaosPlan {
        faults: vec![ChaosFault::Equivocate {
            host: 2,
            from: SimTime::ZERO,
            until: forever,
        }],
    };
    let mut cfg = WorkloadConfig::tiny(6, 47).with_chaos(plan);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();

    let injected = counter(&result, "chaos.equivocations_injected_total");
    let detected = counter(&result, "byzantine.equivocation_detected_total");
    assert!(injected > 0, "the equivocation window covered claims");
    assert_eq!(detected, injected, "every double-claim was caught");
    assert!(result.completed >= 1, "readings still flow — equivocation");
    assert_eq!(result.escrows_open, 0, "every recipient made whole");
    assert_eq!(result.invariant_violations, 0);
    // Exactly one of the two rival claims settles each escrow: the
    // auditor's double-settlement row stays zero.
    assert_eq!(
        counter(&result, "invariant.double_settlement_violations"),
        0
    );
    // The equivocator still earns exactly once per escrow — its revenue
    // is tracked in the adversarial bucket, and double-claiming never
    // pays more than honest claiming would have (in the symmetric
    // two-gateway tiny world the buckets tie; strict honest dominance
    // over a mixed fleet is the `byzantine_soak` gate).
    assert!(result.adversarial_revenue > 0, "equivocator paid only once");
    assert!(result.honest_revenue >= result.adversarial_revenue);
}

#[test]
fn censoring_miner_is_suspected_and_routed_around() {
    // The master miner silently excludes claim/refund transactions from
    // its templates for most of the run. A node whose claim its blocks
    // keep leaving out must name it by its coinbase, mining must rotate
    // to a clean standby, and every escrow must still settle.
    let plan = ChaosPlan {
        faults: vec![ChaosFault::CensorClaims {
            miner: 0,
            from: secs(5),
            until: secs(600),
        }],
    };
    let mut cfg = WorkloadConfig::fleet(3, 12, 59).with_chaos(plan);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();

    assert!(
        counter(&result, "chaos.claims_censored_total") > 0,
        "templates actually excluded settlements"
    );
    assert!(
        counter(&result, "byzantine.censorship_suspected_total") >= 1,
        "the stuck-claim detector fired"
    );
    assert!(
        result.standby_blocks_mined > 0,
        "mining rotated away from the suspect"
    );
    assert_eq!(result.escrows_open, 0, "censorship cannot strand escrows");
    assert_eq!(result.invariant_violations, 0);
}

#[test]
fn three_way_partition_heals_and_settles() {
    // A three-cell split — master alone, each actor alone — for 20 s
    // mid-run: cross-cell traffic drops, then the partition heals and
    // sync failover must reconverge every chain and settle everything.
    let plan = ChaosPlan {
        faults: vec![ChaosFault::PartitionGroups {
            groups: vec![vec![0], vec![1], vec![2]],
            from: secs(15),
            until: secs(35),
        }],
    };
    let mut cfg = WorkloadConfig::tiny(8, 67).with_chaos(plan);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();

    assert!(
        counter(&result, "chaos.partition_drops_total") > 0,
        "the three-way cut actually dropped traffic"
    );
    assert!(result.completed >= 1, "exchanges survive the split");
    assert_eq!(result.escrows_open, 0, "reconvergence settles everything");
    assert_eq!(result.invariant_violations, 0);
}

#[test]
fn withheld_claim_recovers_after_warm_restart() {
    // ISSUE 9 satellite: a gateway withholds its claims, crashes inside
    // the withhold window, and restarts *warm* from its persistent
    // store. Once the window lapses the reopened gateway must settle
    // late (or the CLTV refund fires) — either way no escrow stays open
    // and the restart reloads from disk rather than genesis.
    let dir = std::env::temp_dir().join(format!(
        "bcwan-byz-warm-{}-{:x}",
        std::process::id(),
        0x9b1du32
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = ChaosPlan {
        faults: vec![
            ChaosFault::ClaimWithhold {
                host: 2,
                from: SimTime::ZERO,
                until: secs(60),
            },
            ChaosFault::HostCrash {
                host: 2,
                from: secs(20),
                until: secs(50),
            },
        ],
    };
    let mut cfg = WorkloadConfig::tiny(6, 83)
        .with_chaos(plan)
        .with_store_dir(&dir);
    cfg.refund_delta = 12;
    let result = World::new(cfg).run();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        counter(&result, "chaos.claims_withheld_total") > 0,
        "claims were withheld before the crash"
    );
    assert!(result.restarts_warm > 0, "the gateway reopened its store");
    assert_eq!(result.restarts_cold, 0, "no cold rebuild");
    assert!(
        result.escrows_claimed >= 1,
        "post-window exchanges settle normally"
    );
    assert_eq!(result.escrows_open, 0, "claim-or-refund made whole");
    assert_eq!(result.invariant_violations, 0);
}

#[test]
fn invariant_counters_are_explicit_zeros_on_clean_runs() {
    // ISSUE 9 satellite: the auditor registers every invariant and
    // Byzantine counter at world construction, so a clean run's
    // snapshot carries explicit zero rows — dashboards can tell
    // "checked and clean" from "never checked".
    let result = World::new(WorkloadConfig::tiny(4, 29)).run();
    for name in [
        "chaos.invariant.violation_total",
        "invariant.value_conservation_violations",
        "invariant.double_settlement_violations",
        "invariant.fsm_chain_mismatch_violations",
        "byzantine.equivocation_detected_total",
        "byzantine.censorship_suspected_total",
        "byzantine.adversarial_revenue_total",
    ] {
        assert_eq!(counter(&result, name), 0, "{name} must be an explicit 0");
    }
    assert!(
        counter(&result, "audit.blocks_audited_total") > 0,
        "the auditor ran continuously, not just at exit"
    );
    assert!(
        result.honest_revenue > 0,
        "clean-run claim revenue is all honest"
    );
    assert_eq!(result.adversarial_revenue, 0);
}

#[test]
fn soak_same_seed_same_final_utxo() {
    let run = || {
        let mut rng = SimRng::seed_from_u64(0x50a0);
        let plan = ChaosPlan::generate(
            &mut rng,
            &ChaosProfile::soak(),
            SimDuration::from_secs(240),
            2,
        );
        let mut cfg = WorkloadConfig::tiny(8, 77).with_chaos(plan);
        cfg.refund_delta = 12;
        World::new(cfg).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.utxo_fingerprint, b.utxo_fingerprint, "UTXO set differs");
    assert_eq!(a.utxo_total, b.utxo_total);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.escrows_claimed, b.escrows_claimed);
    assert_eq!(a.escrows_refunded, b.escrows_refunded);
    assert_eq!(a.blocks_mined, b.blocks_mined);
}
