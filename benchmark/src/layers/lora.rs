//! Adapter for `bcwan-lora`: the sharded, columnar radio world.

use crate::trace::span;
use bcwan_lora::mac::MacConfig;
use bcwan_lora::shard::ShardConfig;
use bcwan_sim::{SimDuration, SimTime};

const LAYER: &str = "lora";

pub use bcwan_lora::shard::{ShardCounters, ShardedLora};

/// The dense-deployment preset; `pure_aloha` swaps the CSMA MAC out.
pub fn new_world(shards: u32, nodes_per_shard: u32, seed: u64, pure_aloha: bool) -> ShardedLora {
    let mut cfg = ShardConfig::dense(shards, nodes_per_shard, seed);
    if pure_aloha {
        cfg.mac = MacConfig::pure_aloha();
    }
    let _s = span(LAYER, "shard_new");
    ShardedLora::new(&cfg)
}

/// Steps every shard to `sim_secs` of simulated time on `threads` threads.
pub fn step_until(world: &mut ShardedLora, sim_secs: u64, threads: usize) {
    let _s = span(LAYER, "step_until");
    world.step_until(SimTime::ZERO + SimDuration::from_secs(sim_secs), threads);
}

pub fn counters(world: &ShardedLora) -> ShardCounters {
    world.counters()
}
