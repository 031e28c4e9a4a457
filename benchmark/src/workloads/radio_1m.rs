//! `radio_1m`: a million sensors under the sharded CSMA radio for one
//! simulated hour. Only `lora::shard` and `sim::rng` run, so every
//! chain, crypto or transport change must leave it flat — and it is the
//! first mover when the sharded radio goes under `World`.

use crate::harness::{measure, Ctx, Outcome};
use crate::layers::lora as api;
use crate::stats::median;
use crate::{deadline, micro};
use std::time::Instant;

const SIM_SECS: u64 = 3600;

/// One timed simulated hour; the counters it ended with.
fn hour(mut world: api::ShardedLora, threads: usize) -> (f64, api::ShardCounters) {
    let t = Instant::now();
    api::step_until(&mut world, SIM_SECS, threads);
    (t.elapsed().as_secs_f64(), api::counters(&world))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let shards = ctx.size(1000, 100) as u32;
    let per_shard = 1000;
    let nodes = f64::from(shards) * f64::from(per_shard);
    let node_ticks = nodes * SIM_SECS as f64;
    let threads = crate::nproc().min(4);

    deadline::phase("ShardedLora::new + step_until repetitions");
    let measured = measure(
        ctx,
        || api::new_world(shards, per_shard, ctx.seed, false),
        |world| hour(world, threads),
    );

    deadline::phase("checks");
    let mut out = Outcome::default();
    let first = measured.outputs[0];
    for (i, c) in measured.all_outputs().enumerate() {
        out.attempted += c.attempted;
        out.check(*c == first, || {
            format!("rep {i}: counters differ from rep 0's")
        });
        let accounted = c.delivered + c.lost_link + c.lost_collision + c.demod_dropped;
        out.check(c.attempted == accounted, || {
            format!(
                "rep {i}: {} frames attempted, {accounted} accounted for",
                c.attempted
            )
        });
        out.check(c.delivered > 0, || format!("rep {i}: nothing delivered"));
    }
    out.exact("fired", first.fired);
    out.exact("attempted", first.attempted);
    out.exact("delivered", first.delivered);
    out.exact("lost_link", first.lost_link);
    out.exact("lost_collision", first.lost_collision);
    out.exact("demod_dropped", first.demod_dropped);
    out.exact("cca_busy", first.cca_busy);
    out.exact("airtime_s", first.airtime_s);

    out.end_to_end = measured.end_to_end(node_ticks, &measured.times.wall_s);
    out.per_layer = measured.bench_layer(threads);

    if let Some(traced) = &measured.traced {
        deadline::phase("one-thread and pure-ALOHA repetitions");
        let csma = median(&traced.times.wall_s);
        let one_thread = hour(api::new_world(shards, per_shard, ctx.seed, false), 1);
        out.check(one_thread.1 == first, || {
            "one-thread counters differ from the threaded run's".to_string()
        });
        let aloha = hour(api::new_world(shards, per_shard, ctx.seed, true), threads);
        let attempted = first.attempted as f64;
        out.layer("lora.shard_new_s", median(&measured.times.setup_s), "s");
        out.layer("lora.csma_ns_per_node_tick", csma * 1e9 / node_ticks, "ns");
        out.layer(
            "lora.aloha_ns_per_node_tick",
            aloha.0 * 1e9 / node_ticks,
            "ns",
        );
        out.layer("lora.thread_scaling", one_thread.0 / csma, "1");
        out.layer(
            "lora.delivered_share",
            first.delivered as f64 / attempted,
            "share",
        );
        out.layer(
            "lora.collision_share",
            first.lost_collision as f64 / attempted,
            "share",
        );
        out.layer(
            "lora.cca_busy_share",
            first.cca_busy as f64 / (attempted + first.cca_busy as f64),
            "share",
        );
        out.per_layer.extend(micro::sim(ctx.seed));
    }
    out.spans = measured.into_spans();
    out
}
