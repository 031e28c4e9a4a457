//! Pins the two radio-path implementations to each other and to the
//! thread count:
//!
//! - **Scalar ≡ columnar**: for the same seed, the struct-of-arrays
//!   sharded world must produce bit-identical aggregate counters to the
//!   per-`Radio` reference — including the f64 airtime/energy sums,
//!   which only works if both paths consume RNG draws and accumulate
//!   floats in exactly the documented order.
//! - **Thread invariance**: stepping the sharded world with 1, 4 or 8
//!   worker threads must not change a single counter (per-shard
//!   `SimRng::stream`s plus merge-in-shard-order).
//! - **Determinism**: same seed ⇒ same counters; different seed ⇒
//!   different counters.
//! - **Sparse wakes**: the columnar shard files nodes in a 1 024-tick
//!   calendar wheel with an overflow heap past it, and jumps its clock
//!   to the next due tick. Metering cadences, duty off-times longer than
//!   the ring, odd tick lengths and stepping in uneven pieces all cross
//!   that horizon or that jump, and must still match the scalar walk.

use bcwan_lora::mac::MacConfig;
use bcwan_lora::params::SpreadingFactor;
use bcwan_lora::shard::{ScalarFleet, ShardConfig, ShardCounters, ShardedLora};
use bcwan_sim::{SimDuration, SimTime};

fn run_columnar(cfg: &ShardConfig, until_s: u64, threads: usize) -> ShardCounters {
    let mut world = ShardedLora::new(cfg);
    world.step_until(SimTime::from_micros(until_s * 1_000_000), threads);
    world.counters()
}

fn run_scalar(cfg: &ShardConfig, until_s: u64) -> ShardCounters {
    let mut fleet = ScalarFleet::new(cfg);
    fleet.step_until(SimTime::from_micros(until_s * 1_000_000));
    fleet.counters()
}

/// Busy enough that every mechanism (arrivals, duty blocking, CCA,
/// collisions, capture, demod saturation) fires within the horizon.
fn busy_cfg(seed: u64, mac: MacConfig, sf_fixed: Option<SpreadingFactor>) -> ShardConfig {
    ShardConfig {
        mac,
        sf_fixed,
        mean_interval: SimDuration::from_secs(20),
        channels: 2,
        ..ShardConfig::dense(3, 150, seed)
    }
}

#[test]
fn scalar_and_columnar_agree_pure_aloha() {
    let cfg = busy_cfg(101, MacConfig::pure_aloha(), None);
    let columnar = run_columnar(&cfg, 300, 1);
    let scalar = run_scalar(&cfg, 300);
    assert_eq!(columnar, scalar);
    assert!(columnar.fired > 100, "{columnar:?}");
    assert!(columnar.lost_collision > 0, "{columnar:?}");
}

#[test]
fn scalar_and_columnar_agree_full_csma() {
    let cfg = busy_cfg(202, MacConfig::csma(), None);
    let columnar = run_columnar(&cfg, 300, 1);
    let scalar = run_scalar(&cfg, 300);
    assert_eq!(columnar, scalar);
    assert!(columnar.cca_busy > 0, "{columnar:?}");
    assert!(columnar.delivered > 0, "{columnar:?}");
}

#[test]
fn scalar_and_columnar_agree_fixed_sf_saturated_gateway() {
    let mac = MacConfig {
        cca: true,
        backoff_base_s: 0.5,
        capture_threshold_db: 6.0,
        demod_slots: 1,
    };
    let cfg = ShardConfig {
        mean_interval: SimDuration::from_secs(4),
        ..busy_cfg(303, mac, Some(SpreadingFactor::Sf7))
    };
    let columnar = run_columnar(&cfg, 300, 1);
    let scalar = run_scalar(&cfg, 300);
    assert_eq!(columnar, scalar);
    assert!(columnar.demod_dropped > 0, "{columnar:?}");
}

/// Ticks the columnar shard's wheel holds before wakes overflow.
const RING_TICKS: u64 = 1024;

/// A metering fleet: one reading per sensor every 6 h, so nearly every
/// first arrival starts past the ring and every wake is a long jump.
/// With 40 sensors a shard the ring is empty most of the time and the
/// next wake is in the overflow heap; with 1 000 it never empties.
#[test]
fn scalar_and_columnar_agree_metering_cadence() {
    for (shards, per_shard, seed) in [(8, 40, 606), (2, 1_000, 607)] {
        let cfg = ShardConfig {
            mean_interval: SimDuration::from_secs(21_600),
            ..ShardConfig::dense(shards, per_shard, seed)
        };
        let horizon_s = 12 * RING_TICKS;
        let columnar = run_columnar(&cfg, horizon_s, 1);
        let scalar = run_scalar(&cfg, horizon_s);
        assert_eq!(columnar, scalar, "{shards} × {per_shard}");
        assert!(columnar.attempted > 100, "{columnar:?}");
    }
}

/// A 0.1 %-duty cell wide enough that many sensors sit on SF12: after a
/// ~2.3 s SF12 frame the governor blocks for ~38 min, past the ring,
/// while arrivals keep queueing behind it.
#[test]
fn scalar_and_columnar_agree_low_duty_sf12() {
    let cfg = ShardConfig {
        duty: 0.001,
        region_radius_m: 9_000.0,
        mean_interval: SimDuration::from_secs(600),
        ..ShardConfig::dense(2, 300, 707)
    };
    let horizon_s = 3 * RING_TICKS;
    let columnar = run_columnar(&cfg, horizon_s, 1);
    let scalar = run_scalar(&cfg, horizon_s);
    assert_eq!(columnar, scalar);
    assert!(
        columnar.attempted < columnar.fired,
        "no frame waited on the duty governor: {columnar:?}"
    );
}

#[test]
fn scalar_and_columnar_agree_at_other_tick_lengths() {
    for (tick_ms, seed) in [(250, 808), (3_000, 909)] {
        let cfg = ShardConfig {
            tick: SimDuration::from_millis(tick_ms),
            ..busy_cfg(seed, MacConfig::csma(), None)
        };
        let columnar = run_columnar(&cfg, 300, 1);
        let scalar = run_scalar(&cfg, 300);
        assert_eq!(columnar, scalar, "tick {tick_ms} ms");
        assert!(columnar.cca_busy > 0, "tick {tick_ms} ms: {columnar:?}");
    }
}

/// Stepping to the same instant in uneven pieces — under a tick, across
/// idle stretches, past the ring — ends in the same state as one call.
#[test]
fn stepping_in_uneven_pieces_equals_one_call() {
    let pieces_us = [
        300_000,
        1_700_000,
        2_000_000,
        45_123_456,
        45_123_457,
        700_000_000,
        2_500_000_000,
        3_100_000_000,
    ];
    let dense = busy_cfg(111, MacConfig::csma(), None);
    let metering = ShardConfig {
        mean_interval: SimDuration::from_secs(21_600),
        ..ShardConfig::dense(2, 1_000, 222)
    };
    for cfg in [dense, metering] {
        let mut world = ShardedLora::new(&cfg);
        for &until in &pieces_us {
            world.step_until(SimTime::from_micros(until), 2);
        }
        let until_s = pieces_us[pieces_us.len() - 1] / 1_000_000;
        assert_eq!(world.counters(), run_columnar(&cfg, until_s, 1));
        assert_eq!(world.counters(), run_scalar(&cfg, until_s));
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let cfg = ShardConfig {
        mean_interval: SimDuration::from_secs(30),
        ..ShardConfig::dense(8, 100, 404)
    };
    let t1 = run_columnar(&cfg, 600, 1);
    let t4 = run_columnar(&cfg, 600, 4);
    let t8 = run_columnar(&cfg, 600, 8);
    assert_eq!(t1, t4, "4 threads diverged from 1");
    assert_eq!(t1, t8, "8 threads diverged from 1");
    assert!(t1.delivered > 0, "{t1:?}");
    // More workers than shards is clamped, not an error.
    let t99 = run_columnar(&cfg, 600, 99);
    assert_eq!(t1, t99);
}

#[test]
fn same_seed_reproduces_different_seed_diverges() {
    let cfg = busy_cfg(7, MacConfig::csma(), None);
    let a = run_columnar(&cfg, 200, 2);
    let b = run_columnar(&cfg, 200, 3);
    assert_eq!(a, b);
    let other = busy_cfg(8, MacConfig::csma(), None);
    let c = run_columnar(&other, 200, 2);
    assert_ne!(a, c, "different seeds produced identical worlds");
}

#[test]
fn aggregate_airtime_stays_under_duty_budget() {
    // World-level restatement of the governor invariant: with saturated
    // queues, total granted airtime tracks duty × elapsed × nodes.
    let cfg = ShardConfig {
        mean_interval: SimDuration::from_secs(1),
        mac: MacConfig::pure_aloha(),
        ..ShardConfig::dense(4, 64, 505)
    };
    let horizon_s = 900u64;
    let c = run_columnar(&cfg, horizon_s, 2);
    let budget = cfg.duty * horizon_s as f64 * cfg.total_nodes() as f64;
    // Slack: one worst-case (SF12) frame per node.
    let sf12 = bcwan_lora::airtime::time_on_air(
        &bcwan_lora::params::RadioConfig {
            spreading_factor: SpreadingFactor::Sf12,
            ..cfg.radio
        },
        cfg.frame_len,
    )
    .as_secs_f64();
    assert!(
        c.airtime_s <= budget + cfg.total_nodes() as f64 * sf12,
        "airtime {} vs budget {budget}",
        c.airtime_s
    );
}
