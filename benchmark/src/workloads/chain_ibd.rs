//! `chain_ibd`: the chain layer driven directly, four ways, on the same
//! pre-signed P2PKH transactions — admission (single verify, script
//! eval), cold connect into a store (batch ECDSA, UTXO apply, append and
//! flush), reopen (store reads, no scripts) and a depth-2 reorg (undo) —
//! so a gain for one that costs another shows. No `World`, no radio, no
//! sockets. The store lives in a scratch directory with fsync off; disk
//! behaviour is not claimed.

use crate::harness::{measure, timed, Ctx, Outcome};
use crate::layers::chain as api;
use crate::stats::median;
use crate::{alloc, deadline, layers, micro, trace};
use std::path::PathBuf;
use std::time::Instant;

struct Fixture {
    builder: api::Chain,
    pool: api::Mempool,
    ibd: api::Chain,
    dir: PathBuf,
}

/// Section timings and outputs of one repetition.
struct Rep {
    admit_s: f64,
    warm_connect_s: f64,
    cold_s: f64,
    flush_s: f64,
    reopen_s: f64,
    reorg_s: f64,
    rejected: u64,
    built: api::Summary,
    synced: api::Summary,
    reopened: Option<(api::Summary, bool)>,
    reorged: bool,
    store: (u64, u64),
    sigcache_warm: (u64, u64),
    sigcache_cold: (u64, u64),
    cold_allocs: alloc::Counts,
    /// The blocks built, kept for the first repetition only.
    blocks: Option<Vec<api::Block>>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    deadline::phase("inputs (signing)");
    let blocks = ctx.size(20, 4);
    let per_block = ctx.size(500, 250);
    let inputs = api::inputs(&mut layers::input_rng(ctx.seed, 0xc4a1), blocks, per_block);
    let txs = inputs.tx_count();
    let scratch = ctx.scratch_dir();
    let mut rep_no = 0u32;
    let mut keep_blocks = true;

    deadline::phase("build / IBD / restart / reorg repetitions");
    let measured = measure(
        ctx,
        || {
            rep_no += 1;
            let dir = scratch.join(format!("rep{rep_no}"));
            let builder = api::new_chain(&inputs);
            Fixture {
                pool: api::new_pool(&builder),
                builder,
                ibd: api::create_with_store(&inputs, &dir),
                dir,
            }
        },
        |mut f| {
            let job = Instant::now();
            // (a) Build pass: admit every spend, template, mine, connect warm.
            let mut rep_blocks = Vec::with_capacity(blocks);
            let (mut admit_s, mut warm_connect_s, mut rejected) = (0.0, 0.0, 0u64);
            for batch in &inputs.batches {
                let (s, ok) = timed(|| {
                    batch
                        .iter()
                        .filter(|tx| api::admit(&mut f.pool, tx, &f.builder))
                        .count()
                });
                admit_s += s;
                rejected += (batch.len() - ok) as u64;
                let block = api::template_and_mine(&f.pool, &f.builder);
                let (s, action) = timed(|| api::connect("connect_warm", &mut f.builder, &block));
                warm_connect_s += s;
                rejected += u64::from(action.is_none());
                api::remove_confirmed(&mut f.pool, &block);
                rep_blocks.push(block);
            }
            let built = api::summary(&f.builder);
            let sigcache_warm = api::sigcache_counters(&f.builder);

            // (b) IBD pass: a fresh store-backed chain connects every block cold.
            let allocs0 = alloc::counts();
            let (cold_s, cold_ok) = timed(|| {
                rep_blocks
                    .iter()
                    .filter(|b| api::connect("connect_cold", &mut f.ibd, b).is_some())
                    .count()
            });
            let cold_allocs = alloc::counts().since(allocs0);
            let (flush_s, ()) = timed(|| api::flush(&mut f.ibd));
            rejected += (rep_blocks.len() - cold_ok) as u64;
            let synced = api::summary(&f.ibd);
            let store = api::store_counters(&f.ibd);
            let sigcache_cold = api::sigcache_counters(&f.ibd);
            drop(f.ibd);

            // (c) Restart pass.
            let (reopen_s, reopened) = timed(|| api::reopen(&inputs, &f.dir));
            let reopened = reopened.map(|(chain, reindexed)| (api::summary(&chain), reindexed));

            // (d) Depth-2 reorg on the in-memory chain.
            let fork = api::depth2_fork(&f.builder);
            let (reorg_s, last) = timed(|| {
                fork.iter()
                    .map(|b| api::connect("connect_fork", &mut f.builder, b))
                    .last()
                    .flatten()
            });
            let reorged = matches!(
                last,
                Some(api::BlockAction::Reorganized {
                    disconnected: 2,
                    connected: 3
                })
            );
            let wall = job.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&f.dir);
            let rep = Rep {
                admit_s,
                warm_connect_s,
                cold_s,
                flush_s,
                reopen_s,
                reorg_s,
                rejected,
                built,
                synced,
                reopened,
                reorged,
                store,
                sigcache_warm,
                sigcache_cold,
                cold_allocs,
                blocks: std::mem::take(&mut keep_blocks).then_some(rep_blocks),
            };
            (wall, rep)
        },
    );
    let _ = std::fs::remove_dir_all(&scratch);

    deadline::phase("checks");
    let mut out = Outcome::default();
    let first = &measured.outputs[0];
    let first_blocks = first.blocks.as_ref().expect("first blocks kept");
    for (i, rep) in measured.all_outputs().enumerate() {
        // Every spend is admitted once and connected cold once.
        out.attempted += 2 * txs as u64;
        out.failed += rep.rejected;
        out.check(rep.rejected == 0, || {
            format!(
                "rep {i}: {} valid transactions or blocks rejected",
                rep.rejected
            )
        });
        out.check(rep.built.height == blocks as u64, || {
            format!("rep {i}: built chain at height {}", rep.built.height)
        });
        out.check(rep.synced == rep.built, || {
            format!(
                "rep {i}: IBD chain {:?} != built chain {:?}",
                rep.synced, rep.built
            )
        });
        out.check(rep.reopened == Some((rep.built.clone(), false)), || {
            format!(
                "rep {i}: reopened chain {:?} (want built chain, no reindex)",
                rep.reopened
            )
        });
        out.check(rep.reorged, || {
            format!("rep {i}: fork did not reorganize at depth 2")
        });
        out.check(rep.built == first.built, || {
            format!("rep {i}: built chain differs from rep 0's")
        });
    }
    // A change that skips verification cannot pass: block 1 with one
    // signature byte flipped must be refused.
    let forged = api::with_flipped_signature_byte(&first_blocks[0], &inputs.params);
    let mut fresh = api::new_chain(&inputs);
    out.check(
        api::connect("connect_forged", &mut fresh, &forged).is_none(),
        || "a block with a flipped signature byte was accepted".to_string(),
    );
    out.check(
        api::connect("connect_cold", &mut fresh, &first_blocks[0]).is_some(),
        || "the untampered block 1 was refused".to_string(),
    );

    out.exact("tip", &first.built.tip);
    out.exact("height", first.built.height);
    out.exact("utxo_total", first.built.utxo_total);
    out.exact("utxo_len", first.built.utxo_len);
    out.exact("store_flush_total", first.store.0);
    out.exact("store_bytes_written", first.store.1);

    // The unit of work is a transaction taken through all four passes. The
    // cold connect alone (two validation threads, half a second) reads
    // 14 000 or 20 000 tx/s depending on whether the machine gives the
    // second thread a core of its own, so its rate is a per-layer number.
    out.end_to_end = measured.end_to_end(txs as f64, &measured.times.wall_s);
    out.per_layer = measured.bench_layer(crate::nproc());

    if let Some(traced) = &measured.traced {
        deadline::phase("unit-cost microbenches");
        let reps = &traced.outputs;
        let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let n = txs as f64;
        let totals = trace::totals(&traced.spans);
        let span_us = |name| totals.get(&("chain", name)).map_or(0.0, |t| t.mean_us());
        let hit_share = |(hits, misses): (u64, u64)| hits as f64 / (hits + misses).max(1) as f64;
        let r = &reps[0];
        out.layer("chain.admit_tx_per_s", n / med(|r| r.admit_s), "1/s");
        out.layer("chain.admit_us", span_us("admit"), "us");
        out.layer("chain.admit_rejected_total", r.rejected as f64, "count");
        out.layer(
            "chain.connect_warm_tx_per_s",
            n / med(|r| r.warm_connect_s),
            "1/s",
        );
        out.layer(
            "chain.connect_cold_tx_per_s",
            n / med(|r| r.cold_s + r.flush_s),
            "1/s",
        );
        // The same cold connect with no store attached prices the store.
        let nostore = median(
            &(0..ctx.min_reps())
                .map(|_| {
                    let mut bare = api::new_chain(&inputs);
                    timed(|| {
                        for b in first_blocks {
                            api::connect("connect_cold_nostore", &mut bare, b);
                        }
                    })
                    .0
                })
                .collect::<Vec<_>>(),
        );
        out.layer("chain.connect_cold_nostore_tx_per_s", n / nostore, "1/s");
        out.layer(
            "chain.store_overhead_share",
            1.0 - nostore / med(|r| r.cold_s + r.flush_s),
            "share",
        );
        out.layer(
            "chain.sigcache_hit_share_warm",
            hit_share(r.sigcache_warm),
            "share",
        );
        out.layer(
            "chain.sigcache_hit_share_cold",
            hit_share(r.sigcache_cold),
            "share",
        );
        out.layer("chain.template_us", span_us("template"), "us");
        out.layer("chain.flush_s", med(|r| r.flush_s), "s");
        out.layer("chain.flush_total", r.store.0 as f64, "count");
        out.layer("chain.store_bytes_per_tx", r.store.1 as f64 / n, "B");
        out.layer("chain.reopen_s", med(|r| r.reopen_s), "s");
        out.layer(
            "chain.reopen_blocks_per_s",
            blocks as f64 / med(|r| r.reopen_s),
            "1/s",
        );
        out.layer("chain.reorg_depth2_ms", med(|r| r.reorg_s) * 1e3, "ms");
        out.layer(
            "chain.allocs_per_tx_cold",
            r.cold_allocs.calls as f64 / n,
            "count",
        );
        out.layer(
            "chain.alloc_bytes_per_tx_cold",
            r.cold_allocs.bytes as f64 / n,
            "B",
        );
        out.per_layer.extend(micro::chain_codec(&first_blocks[0]));
        out.per_layer.extend(micro::crypto_ecdsa(ctx.seed));
        out.per_layer.extend(micro::script(ctx.seed));
    }
    out.spans = measured.into_spans();
    out
}
