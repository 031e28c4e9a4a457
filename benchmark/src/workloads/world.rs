//! `fig5_paper` and `fleet_gossip`: the same `World`, two regimes.
//!
//! `fig5_paper` is the paper's testbed — six hosts, and per-exchange real
//! cryptography (RSA-512 keygen, seal, two signatures, the Listing-1
//! script) does most of the work while gossip fan-out is tiny.
//! `fleet_gossip` is the opposite: hundreds of hosts each admit and
//! validate every transaction and block, so cost goes with hosts × txs
//! and per-exchange cryptography is a rounding error.
//!
//! `World::run` is one opaque span from outside, so the traced run
//! attributes its wall time by the registry's counts × unit costs and
//! states the rest as unattributed.

use crate::harness::{measure, Ctx, Outcome};
use crate::layers::bcwan as api;
use crate::micro;
use crate::stats::{median, quantile, tail_percentile};
use crate::{alloc, deadline};
use std::time::Instant;

/// Which regime, and how big.
pub struct Shape {
    pub hosts: Option<u32>,
    pub exchanges: usize,
}

pub fn fig5_paper(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        Shape {
            hosts: None,
            exchanges: ctx.size(400, 25),
        },
    )
}

pub fn fleet_gossip(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        Shape {
            hosts: Some(ctx.size(200, 40) as u32),
            exchanges: ctx.size(24, 6),
        },
    )
}

/// What is kept of one repetition: the whole result only for the first
/// (the registry snapshot is large), the checked fields for the rest.
struct Rep {
    completed: usize,
    failed: usize,
    invariant_violations: u64,
    escrows_open: usize,
    app_readings: usize,
    utxo_fingerprint: u64,
    allocs: alloc::Counts,
    result: Option<api::ExperimentResult>,
}

fn run(ctx: &Ctx, shape: Shape) -> Outcome {
    deadline::phase("inputs");
    let cfg = match shape.hosts {
        None => api::fig5_config(shape.exchanges, ctx.seed),
        Some(hosts) => api::fleet_config(hosts, shape.exchanges, ctx.seed),
    };

    deadline::phase("World::new + World::run repetitions");
    let mut keep_result = true;
    let measured = measure(
        ctx,
        || api::world_new(&cfg),
        |world| {
            let allocs0 = alloc::counts();
            let t = Instant::now();
            let result = api::world_run(world);
            let wall = t.elapsed().as_secs_f64();
            let rep = Rep {
                completed: result.completed,
                failed: result.failed,
                invariant_violations: result.invariant_violations,
                escrows_open: result.escrows_open,
                app_readings: result.app_readings,
                utxo_fingerprint: result.utxo_fingerprint,
                allocs: alloc::counts().since(allocs0),
                result: std::mem::take(&mut keep_result).then_some(result),
            };
            (wall, rep)
        },
    );

    deadline::phase("checks");
    let mut out = Outcome::default();
    let first = measured.outputs[0]
        .result
        .as_ref()
        .expect("first result kept");
    for (i, r) in measured.all_outputs().enumerate() {
        out.attempted += shape.exchanges as u64;
        out.failed += (shape.exchanges - r.completed.min(shape.exchanges)) as u64;
        out.check(r.completed == shape.exchanges, || {
            format!("rep {i}: completed {} of {}", r.completed, shape.exchanges)
        });
        out.check(r.failed == 0, || {
            format!("rep {i}: {} exchanges failed", r.failed)
        });
        out.check(r.invariant_violations == 0, || {
            format!("rep {i}: {} invariant violations", r.invariant_violations)
        });
        out.check(r.escrows_open == 0, || {
            format!("rep {i}: {} escrows left open", r.escrows_open)
        });
        out.check(r.app_readings == r.completed, || {
            format!(
                "rep {i}: {} readings for {} exchanges",
                r.app_readings, r.completed
            )
        });
        out.check(r.utxo_fingerprint == first.utxo_fingerprint, || {
            format!("rep {i}: UTXO fingerprint differs from rep 0's")
        });
    }

    let latencies = first.latencies.samples();
    let sim_p50 = median(latencies);
    // ≥ 10 samples beyond the tail percentile, or no tail is reported.
    let sim_tail = tail_percentile(latencies.len()).map(|p| (p, quantile(latencies, p)));
    out.exact("utxo_fingerprint", first.utxo_fingerprint);
    out.exact("exchange_sim_p50_s", sim_p50);
    if let Some((p, v)) = sim_tail {
        out.exact(&format!("exchange_sim_p{}_s", p * 100.0), v);
    }
    out.exact("sim_time_s", first.sim_time.as_secs_f64());
    out.exact("blocks_mined", first.blocks_mined);

    let settled = first.completed as f64;
    out.end_to_end = measured.end_to_end(settled, &measured.times.wall_s);
    out.per_layer = measured.bench_layer(1);

    if let Some(traced) = &measured.traced {
        deadline::phase("unit-cost microbenches");
        let wall = median(&traced.times.wall_s);
        // Counts repeat exactly, so the untraced first result serves.
        let r = first;
        let per_settled = |name: &str| api::counter(r, name) as f64 / settled;
        out.layer("bcwan.world_new_s", median(&measured.times.setup_s), "s");
        out.layer("bcwan.world_exchange_sim_p50_s", sim_p50, "s");
        if let Some((_, v)) = sim_tail {
            out.layer("bcwan.world_exchange_sim_tail_s", v, "s");
        }
        out.layer(
            "bcwan.world_msgs_per_settled",
            per_settled("net.sent_total"),
            "count",
        );
        out.layer(
            "bcwan.world_wan_bytes_per_settled",
            api::counter_sum(r, "wan.bytes.") as f64 / settled,
            "B",
        );
        out.layer(
            "bcwan.world_admits_per_settled",
            per_settled("mempool.accepted_total"),
            "count",
        );
        let ecdsa = per_settled("validate.sigcache.miss");
        let rsa = per_settled("validate.sigcache.rsa.miss");
        out.layer("bcwan.world_ecdsa_verifies_per_settled", ecdsa, "count");
        out.layer("bcwan.world_rsa_checks_per_settled", rsa, "count");
        out.layer(
            "bcwan.world_blocks_accepted_per_settled",
            per_settled("daemon.blocks_accepted_total"),
            "count",
        );
        let allocs = traced.outputs[0].allocs;
        out.layer(
            "bcwan.world_allocs_per_settled",
            allocs.calls as f64 / settled,
            "count",
        );
        out.layer(
            "bcwan.world_alloc_mib_per_settled",
            allocs.bytes as f64 / (1 << 20) as f64 / settled,
            "MiB",
        );
        out.layer(
            "bcwan.world_sim_s_per_wall_s",
            r.sim_time.as_secs_f64() / wall,
            "1",
        );

        // Attribution: count × unit cost ÷ wall. Verification reached
        // through validation is `crypto`; what admission costs beyond its
        // signature check is `script_chain`; the per-exchange protocol
        // functions (which hold their own RSA and signing) are `exchange`.
        let mut crypto = micro::crypto_rsa(ctx.seed);
        crypto.extend(micro::crypto_ecdsa(ctx.seed));
        let script = micro::script(ctx.seed);
        let exchange = micro::exchange(ctx.seed);
        let admit = micro::chain_admit(ctx.seed);
        let us = |rows: &[crate::harness::Metric], name: &str| {
            rows.iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let verify_us = us(&crypto, "crypto.ecdsa_verify_us");
        let crypto_s = settled
            * (ecdsa * verify_us
                + rsa * us(&crypto, "crypto.rsa512_pair_check_us")
                + us(&crypto, "crypto.rsa512_keygen_us"))
            / 1e6;
        let admit_beyond_verify_us = (us(&admit, "chain.admit_us") - verify_us).max(0.0);
        let script_chain_s =
            settled * per_settled("mempool.accepted_total") * admit_beyond_verify_us / 1e6;
        let exchange_s = settled
            * [
                "bcwan.seal_reading_us",
                "bcwan.verify_uplink_us",
                "bcwan.open_reading_us",
                "bcwan.build_escrow_us",
                "bcwan.build_claim_us",
            ]
            .iter()
            .map(|n| us(&exchange, n))
            .sum::<f64>()
            / 1e6;
        let shares = [crypto_s / wall, script_chain_s / wall, exchange_s / wall];
        out.layer("bcwan.world_share_crypto", shares[0], "share");
        out.layer("bcwan.world_share_script_chain", shares[1], "share");
        out.layer("bcwan.world_share_exchange", shares[2], "share");
        out.layer(
            "bcwan.world_share_unattributed",
            1.0 - shares.iter().sum::<f64>(),
            "share",
        );
        out.per_layer.extend(crypto);
        out.per_layer.extend(micro::crypto_bulk());
        out.per_layer.extend(script);
        out.per_layer.extend(exchange);
        out.per_layer.extend(admit);
        out.per_layer.extend(micro::sim(ctx.seed));
    }
    out.spans = measured.into_spans();
    out
}
