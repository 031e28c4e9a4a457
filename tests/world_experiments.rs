//! Integration tests over the full simulated network: miniature versions
//! of the Fig. 5 / Fig. 6 experiments, plus failure injection.

use bcwan::costs::CostModel;
use bcwan::world::{FaultModel, WorkloadConfig, World};
use bcwan_chain::ChainParams;
use bcwan_sim::{LatencyModel, SimDuration};

#[test]
fn miniature_fig5_shape() {
    // Scaled-down Fig. 5: real costs, planetlab latency, no stalls.
    let mut cfg = WorkloadConfig::paper_fig5();
    cfg.actor_hosts = 3;
    cfg.sensors_per_host = 4;
    cfg.target_exchanges = 12;
    cfg.seed = 5;
    let result = World::new(cfg).run();
    assert_eq!(result.failed, 0);
    assert!(result.completed >= 12);
    let s = result.latencies.summary().unwrap();
    // The paper's Fig. 5 scale: single-digit seconds, mean near 1.6.
    assert!((0.8..3.5).contains(&s.mean), "mean {s}");
    assert!(s.max < 10.0, "no stall-scale outliers: {s}");
    assert_eq!(result.stalls, 0);
}

#[test]
fn miniature_fig6_orders_of_magnitude_above_fig5() {
    let mut fig5 = WorkloadConfig::paper_fig5();
    fig5.actor_hosts = 3;
    fig5.sensors_per_host = 4;
    fig5.target_exchanges = 10;
    fig5.seed = 6;
    let mut fig6 = fig5.clone();
    fig6.chain_params = ChainParams::with_verification_stall();
    // At this miniature load the queueing amplification of the full
    // 2000-exchange runs can't build up: with 15 s blocks most of the ten
    // exchanges never overlap a stall. Shorten the block interval so the
    // stall *density* matches what a long run's steady state looks like.
    fig6.chain_params.target_block_interval = SimDuration::from_secs(5);

    let r5 = World::new(fig5).run();
    let r6 = World::new(fig6).run();
    let m5 = r5.latencies.summary().unwrap().mean;
    let m6 = r6.latencies.summary().unwrap().mean;
    // Stalls must still clearly dominate the no-verification baseline.
    assert!(
        m6 > m5 * 2.0 && m6 > 3.0,
        "verification stalls must dominate: fig5 {m5:.2}s vs fig6 {m6:.2}s"
    );
    assert!(r6.stalls > 0);
}

#[test]
fn message_duplication_is_harmless() {
    let mut cfg = WorkloadConfig::tiny(8, 21);
    cfg.faults = FaultModel {
        drop_probability: 0.0,
        duplicate_probability: 0.5,
    };
    let result = World::new(cfg).run();
    // Dedup at every layer: exactly the target completes, none twice.
    assert_eq!(result.failed, 0);
    assert!(result.completed >= 8);
    assert_eq!(result.latencies.len(), result.completed);
}

#[test]
fn chain_gossip_survives_moderate_loss() {
    // Drops hit block/tx gossip only (the Deliver leg is TCP-reliable);
    // the mesh's redundant flood paths carry the gossip through.
    let mut cfg = WorkloadConfig::tiny(10, 22);
    cfg.actor_hosts = 4; // more redundancy than the 2-host tiny preset
    cfg.faults = FaultModel {
        drop_probability: 0.10,
        duplicate_probability: 0.0,
    };
    cfg.max_sim_time = SimDuration::from_secs(3600);
    let result = World::new(cfg).run();
    assert!(
        result.completed >= 8,
        "flood redundancy should complete nearly all exchanges: {} done",
        result.completed
    );
}

#[test]
fn confirmation_depth_defeats_theft_but_costs_blocks() {
    let mut cfg = WorkloadConfig::tiny(4, 23);
    cfg.chain_params.target_block_interval = SimDuration::from_secs(4);
    cfg.confirmation_depth = 1;
    let result = World::new(cfg).run();
    assert!(result.completed >= 4);
    let mean = result.latencies.summary().unwrap().mean;
    // Every exchange now waits for at least one block.
    assert!(mean > 2.0, "confirmation wait missing: mean {mean:.2}s");
}

#[test]
fn confirmation_depth_is_never_bypassed() {
    // Regression: the simulator's watchdog used to claim late for any
    // gateway that had not claimed yet, skipping the depth rule — at
    // depth 2 every claim of this run was built at 0 or 1 confirmations
    // (mean 11.45 s). Through the one confirmation-depth path every
    // claim waits for the second block on the escrow: 17.5 s here, short
    // of the 30 s analytic wait only because this seed draws quick
    // blocks (5.5 s between the second and the third).
    let cfg = WorkloadConfig {
        target_exchanges: 60,
        seed: 2018,
        confirmation_depth: 2,
        ..WorkloadConfig::paper_fig5()
    };
    let result = World::new(cfg).run();
    assert_eq!(result.completed, 60);
    let mean = result.latencies.summary().unwrap().mean;
    assert!(
        mean >= 15.0,
        "claims revealed short of the depth: mean {mean:.2}s"
    );
}

#[test]
fn clean_runs_recover_nothing() {
    // Every recovery rule is silent without faults — the property the
    // benchmark's `exact.*` equality rests on.
    let mut miniature_fig5 = WorkloadConfig::paper_fig5();
    miniature_fig5.actor_hosts = 3;
    miniature_fig5.sensors_per_host = 4;
    miniature_fig5.target_exchanges = 12;
    miniature_fig5.seed = 5;
    for cfg in [
        WorkloadConfig::fleet(50, 10, 2018),
        WorkloadConfig::fleet(50, 10, 7),
        miniature_fig5,
        WorkloadConfig::tiny(12, 5),
    ] {
        let seed = cfg.seed;
        let result = World::new(cfg).run();
        for row in [
            "fsm.rebroadcasts_total",
            "fsm.deliver_retries_total",
            "wan.messages.sync_total",
            "byzantine.censorship_suspected_total",
        ] {
            assert_eq!(result.metrics.counter(row), Some(0), "seed {seed}: {row}");
        }
    }
}

#[test]
fn rsa_1024_works_end_to_end_with_bigger_frames() {
    use bcwan_crypto::rsa::RsaKeySize;
    let mut cfg = WorkloadConfig::tiny(3, 24);
    cfg.rsa_size = RsaKeySize::Rsa1024;
    // Under a 1024-bit ePk the data frame is 224 bytes (a 128-byte Em, the
    // device's 64-byte Sig), past SF7's 222-byte regional payload cap.
    // The world charges the frame's real airtime but enforces no cap on
    // the simulated uplink path, so the exchange still works (the
    // ablation bench reports the regulatory violation).
    let result = World::new(cfg).run();
    assert_eq!(result.failed, 0);
    assert!(result.completed >= 3);
}

#[test]
fn rsa_1024_data_frame_pays_its_own_airtime() {
    use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
    use bcwan_lora::airtime::time_on_air;
    use bcwan_lora::frame::LoraFrame;
    use bcwan_lora::params::RadioConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut cfg = WorkloadConfig::tiny(3, 24);
    cfg.rsa_size = RsaKeySize::Rsa1024;
    cfg.latency = LatencyModel::instant();
    let result = World::new(cfg).run();
    assert!(result.completed >= 3);

    // With no CPU cost and an instant WAN, a sample is at least the
    // key downlink's airtime plus the data uplink's: 4 + 4 + 20 + 2 +
    // 128 (Em under the 1024-bit ePk) + 2 + 64 (Sig, RSA-512) = 224 B.
    let (e_pk, _) = generate_keypair(&mut StdRng::seed_from_u64(1), RsaKeySize::Rsa1024);
    let down = LoraFrame::DownlinkEphemeralKey {
        device_id: 0,
        public_key: e_pk.to_bytes(),
    };
    let sf7 = RadioConfig::paper_sf7();
    let floor = (time_on_air(&sf7, down.phy_len()) + time_on_air(&sf7, 224)).as_secs_f64();
    for &sample in result.latencies.samples() {
        assert!(
            sample >= floor,
            "sample {sample} s under the airtime floor {floor} s"
        );
    }
}

#[test]
fn zero_cost_latency_is_pure_network_and_radio() {
    let mut cfg = WorkloadConfig::tiny(5, 25);
    cfg.costs = CostModel::zero();
    cfg.latency = LatencyModel::instant();
    let result = World::new(cfg).run();
    let s = result.latencies.summary().unwrap();
    // Only airtimes remain: ePk downlink (~133 ms) + data uplink (~260 ms).
    assert!((0.3..0.6).contains(&s.mean), "radio-only mean {s}");
}
