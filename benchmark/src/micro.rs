//! Unit costs: medians over at least 200 timed calls into one public
//! function, on inputs shaped like the workloads'. They run only in the
//! traced run, after the spans are taken, and feed the attribution of
//! the `World` workloads' opaque wall time.

use crate::harness::{metric, unit_cost_s, Metric};
use crate::layers::{self, bcwan, chain, crypto, p2p, script, sim};
use std::hint::black_box;

const CALLS: usize = 200;

/// Bytes hashed, MACed or encrypted per call of a throughput microbench.
const BULK: usize = 64 * 1024;

fn us(name: &str, seconds: f64) -> Metric {
    metric(name, seconds * 1e6, "us")
}

fn mib_s(name: &str, bytes: usize, seconds: f64) -> Metric {
    metric(name, bytes as f64 / (1 << 20) as f64 / seconds, "MiB/s")
}

/// Hash, MAC and cipher throughput on 64 KiB.
pub fn crypto_bulk() -> Vec<Metric> {
    let bulk = vec![0xa5u8; BULK];
    vec![
        mib_s(
            "crypto.sha256_mib_s",
            BULK,
            unit_cost_s(CALLS, || {
                black_box(crypto::sha256(black_box(&bulk)));
            }),
        ),
        mib_s(
            "crypto.hmac_sha256_mib_s",
            BULK,
            unit_cost_s(CALLS, || {
                black_box(crypto::hmac_sha256(&[7; 32], black_box(&bulk)));
            }),
        ),
        mib_s(
            "crypto.aes256_cbc_mib_s",
            BULK,
            unit_cost_s(CALLS, || {
                black_box(crypto::aes256_cbc_encrypt(
                    &[9; 32],
                    &[1; 16],
                    black_box(&bulk),
                ));
            }),
        ),
    ]
}

pub fn crypto_rsa(seed: u64) -> Vec<Metric> {
    let mut rng = layers::input_rng(seed, 0xc0);
    let (pk, sk) = crypto::rsa512_keygen(&mut rng);
    // What the exchange wraps under ePk: a 16-byte IV plus one AES block.
    let plain = [0x42u8; 32];
    let cipher = crypto::rsa512_encrypt(&pk, &mut rng, &plain);
    vec![
        us(
            "crypto.rsa512_keygen_us",
            unit_cost_s(CALLS, || {
                black_box(crypto::rsa512_keygen(&mut rng));
            }),
        ),
        us(
            "crypto.rsa512_encrypt_us",
            unit_cost_s(CALLS, || {
                black_box(crypto::rsa512_encrypt(&pk, &mut rng, black_box(&plain)));
            }),
        ),
        us(
            "crypto.rsa512_decrypt_us",
            unit_cost_s(CALLS, || {
                black_box(crypto::rsa512_decrypt(&sk, black_box(&cipher)));
            }),
        ),
        us(
            "crypto.rsa512_pair_check_us",
            unit_cost_s(CALLS, || {
                black_box(crypto::rsa512_pair_check(black_box(&pk), &sk));
            }),
        ),
    ]
}

pub fn crypto_ecdsa(seed: u64) -> Vec<Metric> {
    let mut rng = layers::input_rng(seed, 0xec);
    let ecdsa = crypto::ecdsa_fixture(&mut rng);
    let batch = crypto::ecdsa_batch64_fixture(&mut rng);
    vec![
        us(
            "crypto.ecdsa_sign_us",
            unit_cost_s(CALLS, || {
                black_box(crypto::ecdsa_sign(black_box(&ecdsa)));
            }),
        ),
        us(
            "crypto.ecdsa_verify_us",
            unit_cost_s(CALLS, || {
                assert!(crypto::ecdsa_verify(black_box(&ecdsa)));
            }),
        ),
        us(
            "crypto.ecdsa_batch64_us_per_sig",
            unit_cost_s(CALLS, || {
                assert!(crypto::ecdsa_batch64_verify(black_box(&batch)));
            }) / 64.0,
        ),
    ]
}

pub fn script(seed: u64) -> Vec<Metric> {
    let spends = script::spends(&mut layers::input_rng(seed, 0x5c));
    [
        ("script.p2pkh_eval_us", "p2pkh_eval", &spends.p2pkh),
        (
            "script.escrow_claim_eval_us",
            "escrow_claim_eval",
            &spends.escrow_claim,
        ),
        (
            "script.escrow_refund_eval_us",
            "escrow_refund_eval",
            &spends.escrow_refund,
        ),
    ]
    .into_iter()
    .map(|(metric_name, span_name, spend)| {
        us(
            metric_name,
            unit_cost_s(CALLS, || assert!(script::eval(span_name, black_box(spend)))),
        )
    })
    .collect()
}

/// The per-exchange protocol functions of Fig. 3.
pub fn exchange(seed: u64) -> Vec<Metric> {
    let mut rng = layers::input_rng(seed, 0xe8);
    let f = bcwan::exchange_fixture(&mut rng);
    vec![
        us(
            "bcwan.seal_reading_us",
            unit_cost_s(CALLS, || {
                black_box(bcwan::seal(&f, &mut rng));
            }),
        ),
        us(
            "bcwan.verify_uplink_us",
            unit_cost_s(CALLS, || assert!(bcwan::verify(black_box(&f)))),
        ),
        us(
            "bcwan.open_reading_us",
            unit_cost_s(CALLS, || assert!(bcwan::open(black_box(&f)))),
        ),
        us(
            "bcwan.build_escrow_us",
            unit_cost_s(CALLS, || {
                black_box(bcwan::escrow(black_box(&f)));
            }),
        ),
        us(
            "bcwan.build_claim_us",
            unit_cost_s(CALLS, || {
                black_box(bcwan::claim(black_box(&f)));
            }),
        ),
    ]
}

/// Median cost of admitting one pre-signed P2PKH spend to a pool.
pub fn chain_admit(seed: u64) -> Vec<Metric> {
    let inputs = chain::inputs(&mut layers::input_rng(seed, 0xad), 1, CALLS);
    let state = chain::new_chain(&inputs);
    let mut pool = chain::new_pool(&state);
    let mut txs = inputs.batches[0].iter();
    let cost = unit_cost_s(CALLS - 5, || {
        let tx = txs.next().expect("one spend per timed call");
        assert!(chain::admit(&mut pool, tx, &state));
    });
    vec![us("chain.admit_us", cost)]
}

pub fn sim(seed: u64) -> Vec<Metric> {
    const BATCH: usize = 10_000;
    let ns = |name: &str, seconds: f64| metric(name, seconds * 1e9 / BATCH as f64, "ns");
    let (mut queue, mut qrng) = sim::queue_with(100_000, seed);
    let mut rng = sim::rng(seed);
    let samples: Vec<f64> = (0..400).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let series = sim::series_of(&samples);
    vec![
        ns(
            "sim.queue_push_pop_ns",
            unit_cost_s(CALLS, || {
                black_box(sim::queue_push_pop(&mut queue, &mut qrng, BATCH));
            }),
        ),
        ns(
            "sim.rng_next_ns",
            unit_cost_s(CALLS, || {
                black_box(sim::rng_draws(&mut rng, BATCH));
            }),
        ),
        ns(
            "sim.registry_add_ns",
            unit_cost_s(CALLS, || {
                black_box(sim::registry_adds(BATCH));
            }),
        ),
        us(
            "sim.series_summary_us",
            unit_cost_s(CALLS, || assert!(sim::series_summary(black_box(&series)))),
        ),
    ]
}

/// Frame and wire codecs on the two message sizes `live_tcp` streams.
pub fn frame_and_wire(small: &bcwan::WanMessage, block: &bcwan::WanMessage) -> Vec<Metric> {
    let small_bytes = bcwan::wire_encode("wire_encode_small", small);
    let block_bytes = bcwan::wire_encode("wire_encode_block", block);
    let small_frame = p2p::frame_encode("frame_encode_small", &small_bytes);
    let bulk = vec![0x3cu8; BULK];
    let bulk_frame = p2p::frame_encode("frame_encode_bulk", &bulk);
    let bad = p2p::frame_with_flipped_mac(&small_bytes);
    vec![
        us(
            "bcwan.wire_encode_small_us",
            unit_cost_s(CALLS, || {
                black_box(bcwan::wire_encode("wire_encode_small", black_box(small)));
            }),
        ),
        us(
            "bcwan.wire_decode_small_us",
            unit_cost_s(CALLS, || {
                assert!(bcwan::wire_decode("wire_decode_small", black_box(&small_bytes)).is_some());
            }),
        ),
        mib_s(
            "bcwan.wire_block_encode_mib_s",
            block_bytes.len(),
            unit_cost_s(CALLS, || {
                black_box(bcwan::wire_encode("wire_encode_block", black_box(block)));
            }),
        ),
        mib_s(
            "bcwan.wire_block_decode_mib_s",
            block_bytes.len(),
            unit_cost_s(CALLS, || {
                assert!(bcwan::wire_decode("wire_decode_block", black_box(&block_bytes)).is_some());
            }),
        ),
        us(
            "p2p.frame_encode_small_us",
            unit_cost_s(CALLS, || {
                black_box(p2p::frame_encode(
                    "frame_encode_small",
                    black_box(&small_bytes),
                ));
            }),
        ),
        us(
            "p2p.frame_decode_small_us",
            unit_cost_s(CALLS, || {
                assert!(p2p::frame_decode("frame_decode_small", black_box(&small_frame)).is_some());
            }),
        ),
        mib_s(
            "p2p.frame_encode_mib_s",
            BULK,
            unit_cost_s(CALLS, || {
                black_box(p2p::frame_encode("frame_encode_bulk", black_box(&bulk)));
            }),
        ),
        mib_s(
            "p2p.frame_decode_mib_s",
            BULK,
            unit_cost_s(CALLS, || {
                assert!(p2p::frame_decode("frame_decode_bulk", black_box(&bulk_frame)).is_some());
            }),
        ),
        metric(
            "p2p.frame_bad_mac_rejected",
            f64::from(u8::from(
                p2p::frame_decode("frame_decode_small", &bad).is_none(),
            )),
            "share",
        ),
    ]
}

/// Block codec throughput on one of `chain_ibd`'s blocks.
pub fn chain_codec(block: &chain::Block) -> Vec<Metric> {
    let bytes = chain::encode(block);
    vec![
        mib_s(
            "chain.codec_block_encode_mib_s",
            bytes.len(),
            unit_cost_s(CALLS, || {
                black_box(chain::encode(black_box(block)));
            }),
        ),
        mib_s(
            "chain.codec_block_decode_mib_s",
            bytes.len(),
            unit_cost_s(
                CALLS,
                || assert!(chain::decode(black_box(&bytes)).is_some()),
            ),
        ),
    ]
}
