//! Throughput check against Multichain's §5.2 claim.
//!
//! "Multichain advertises a transaction throughput of up to 1000 tx/s
//! (transaction per second) in its latest version. We saw different
//! results during our experiments…" This harness measures what *our*
//! chain substrate sustains on the reference machine — mempool admission
//! (full script verification) and block connection — so the stall model's
//! premise (verification is the bottleneck, not BcWAN) is checkable.
//!
//! Usage: `chain_throughput [N_TXS] [--json PATH]`.

use bcwan_bench::{bench_fn_stats, parse_harness_args, BenchReport};
use bcwan_chain::{
    validate_block_with, Block, BlockValidationOptions, Chain, ChainParams, Mempool, OutPoint,
    SigCache, Transaction, TxOut, Wallet,
};
use bcwan_crypto::ecdsa::{batch_verify, EcdsaPrivateKey};
use bcwan_script::Script;
use bcwan_sim::{Json, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Validates `block` against the chain's UTXO set with a fresh (cold)
/// signature cache and returns the tx/s rate.
fn cold_connect_rate(
    chain: &Chain,
    block: &Block,
    params: &ChainParams,
    height: u64,
    n: usize,
    batch: bool,
) -> f64 {
    let cache = SigCache::default();
    let opts = BlockValidationOptions {
        cache: Some(&cache),
        workers: 0,
        batch,
    };
    let t = std::time::Instant::now();
    validate_block_with(block, chain.utxo(), height, params, &opts).expect("block valid");
    n as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let (target, json) = parse_harness_args();
    let n = target.unwrap_or(2_000);

    let mut rng = StdRng::seed_from_u64(1);
    let mut params = ChainParams::multichain_like();
    params.coinbase_maturity = 1;
    let wallet = Wallet::generate(&mut rng);
    let allocations: Vec<_> = (0..n).map(|_| (wallet.address(), 1_000u64)).collect();
    let genesis = Chain::make_genesis(&params, &allocations);
    let mut chain = Chain::new(params.clone(), genesis);
    // Mature the genesis coinbase.
    let cb = Transaction::coinbase(
        1,
        b"w",
        vec![TxOut {
            value: params.coinbase_reward,
            script_pubkey: Script::new(),
        }],
    );
    let warm = Block::mine(chain.tip(), 1, params.difficulty_bits, vec![cb]);
    chain.add_block(warm).expect("warmup");
    let genesis_txid = chain.block_at(0).unwrap().transactions[0].txid();

    eprintln!("building {n} signed transactions…");
    let txs: Vec<Transaction> = (0..n as u32)
        .map(|vout| {
            wallet.build_payment(
                vec![(
                    OutPoint {
                        txid: genesis_txid,
                        vout,
                    },
                    wallet.locking_script(),
                )],
                vec![TxOut {
                    value: 990,
                    script_pubkey: Script::new(),
                }],
                0,
            )
        })
        .collect();

    // Mempool admission rate (ECDSA verify + UTXO checks per tx). The
    // pool shares the chain's signature cache so that block connection
    // below exercises the admission-warmed fast path, exactly as the
    // daemon wires it.
    let mut pool = Mempool::with_cache(chain.sig_cache().clone());
    let t0 = std::time::Instant::now();
    for tx in &txs {
        pool.insert(tx.clone(), chain.utxo(), chain.height() + 1, &params)
            .expect("valid");
    }
    let admit_rate = n as f64 / t0.elapsed().as_secs_f64();

    // Block connection rate (re-verification inside block validation).
    let height = chain.height() + 1;
    let mut block_txs = vec![Transaction::coinbase(
        height,
        b"big",
        vec![TxOut {
            value: params.coinbase_reward,
            script_pubkey: Script::new(),
        }],
    )];
    block_txs.extend(txs.iter().cloned());
    let block = Block::mine(chain.tip(), height, params.difficulty_bits, block_txs);

    // Cold-cache connect: validating this block as a fresh peer would —
    // no admission-warmed sigcache, so every spend pays real ECDSA work.
    // This is the path batch verification accelerates (the warm connect
    // below hits the cache and never reaches the verifier). Measured with
    // batching on and off to surface the block-level speedup.
    let cold_batch_rate = cold_connect_rate(&chain, &block, &params, height, n, true);
    let cold_seq_rate = cold_connect_rate(&chain, &block, &params, height, n, false);

    let t1 = std::time::Instant::now();
    chain.add_block(block).expect("block valid");
    let connect_rate = n as f64 / t1.elapsed().as_secs_f64();

    // Fold the substrate's own counters into the report: the mempool and
    // chainstate stats the world-level runs also export.
    let mut registry = Registry::new();
    pool.stats().export(&mut registry);
    chain.stats().export(&mut registry);
    let admit_gauge = registry.gauge("bench.mempool_admission_tx_per_s");
    registry.set(admit_gauge, admit_rate);
    let connect_gauge = registry.gauge("bench.block_connect_tx_per_s");
    registry.set(connect_gauge, connect_rate);
    chain.sig_cache().export(&mut registry);

    // Hot-path microbench: one ECDSA verify over a fixed digest — the
    // dominant per-transaction cost at admission. Exported with its
    // bootstrap CI bounds so the compare job can hold the fixed-limb
    // field arithmetic to a tight threshold without tripping on noise.
    let ec = EcdsaPrivateKey::generate(&mut rng);
    let digest = [0x5au8; 32];
    let sig = ec.sign_digest(&digest);
    let public = ec.public_key();
    let verify = bench_fn_stats(200, || public.verify_digest(&digest, &sig));
    registry.set_gauge("bench.ecdsa_verify_digest_s", verify.mean_s);
    registry.set_gauge("bench.ecdsa_verify_digest_ci95_lo_s", verify.ci95_lo_s);
    registry.set_gauge("bench.ecdsa_verify_digest_ci95_hi_s", verify.ci95_hi_s);

    // Batch-verification microbench: 64 signatures in the block-realistic
    // shape (8 wallets × 8 spends each, so pubkey coalescing engages).
    // The speedup gauge is per-signature: sequential cost of 64 single
    // verifies over the batch call's cost.
    let wallets: Vec<EcdsaPrivateKey> = (0..8)
        .map(|_| EcdsaPrivateKey::generate(&mut rng))
        .collect();
    let mut batch_digests = Vec::new();
    let mut batch_sigs = Vec::new();
    let mut batch_pubs = Vec::new();
    for i in 0..64usize {
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let key = &wallets[i / 8];
        batch_sigs.push(key.sign_digest(&d));
        batch_pubs.push(key.public_key());
        batch_digests.push(d);
    }
    let items: Vec<_> = (0..64)
        .map(|i| (&batch_digests[i], &batch_sigs[i], &batch_pubs[i]))
        .collect();
    let batch64 = bench_fn_stats(30, || batch_verify(&items).unwrap());
    let batch_speedup = verify.mean_s * 64.0 / batch64.mean_s;
    registry.set_gauge("bench.ecdsa_batch_verify64_s", batch64.mean_s);
    registry.set_gauge("bench.ecdsa_batch_verify64_ci95_lo_s", batch64.ci95_lo_s);
    registry.set_gauge("bench.ecdsa_batch_verify64_ci95_hi_s", batch64.ci95_hi_s);
    registry.set_gauge("bench.batch_verify_speedup", batch_speedup);
    registry.set_gauge("bench.block_connect_cold_tx_per_s", cold_batch_rate);
    registry.set_gauge("bench.block_connect_cold_seq_tx_per_s", cold_seq_rate);

    println!("transactions:              {n}");
    println!("mempool admission:         {admit_rate:9.0} tx/s");
    println!("block connection:          {connect_rate:9.0} tx/s");
    println!("cold connect (batched):    {cold_batch_rate:9.0} tx/s");
    println!("cold connect (sequential): {cold_seq_rate:9.0} tx/s");
    println!(
        "sigcache:                  {} hits / {} misses",
        chain.sig_cache().hits(),
        chain.sig_cache().misses()
    );
    println!(
        "ecdsa verify:              {:9.1} µs  ci95 [{:.1}, {:.1}] µs",
        verify.mean_s * 1e6,
        verify.ci95_lo_s * 1e6,
        verify.ci95_hi_s * 1e6
    );
    println!(
        "ecdsa batch64 verify:      {:9.1} µs/sig  ({batch_speedup:.2}x per-sig speedup)",
        batch64.mean_s * 1e6 / 64.0
    );
    println!("multichain's §5.2 claim:        1000 tx/s (advertised)");
    println!();
    println!("Admission pays the full ECDSA verify (Montgomery modexp + windowed");
    println!("scalar mul); block connection then hits the shared signature cache");
    println!("warmed at admission, so connecting a block of mempool transactions");
    println!("skips script re-verification entirely. Both paths exceed the BcWAN");
    println!("workload (~5 tx/s at full Fig. 5 load) by orders of magnitude,");
    println!("consistent with the paper's finding that raw throughput was never");
    println!("the issue; the *stall on block arrival* was.");
    if let Some(path) = json {
        BenchReport::new("chain_throughput")
            .config("transactions", Json::size(n))
            .rows(Json::Array(vec![Json::object()
                .with("transactions", Json::size(n))
                .with("mempool_admission_tx_per_s", Json::num(admit_rate))
                .with("block_connect_tx_per_s", Json::num(connect_rate))
                .with("multichain_advertised_tx_per_s", Json::num(1000.0))]))
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
