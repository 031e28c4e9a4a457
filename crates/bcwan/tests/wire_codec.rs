//! Deterministic round-trip fuzz for the `WanMessage` wire codec.
//!
//! Random messages drawn from a seeded `StdRng` must encode→decode to an
//! identical value; every truncated prefix must be rejected; byte
//! corruption must never panic (it may decode to a different message —
//! the frame layer's CRC catches corruption in transit; this layer only
//! guarantees totality).

use bcwan::exchange::SealedUplink;
use bcwan::provisioning::DeviceId;
use bcwan::wire::WanMessage;
use bcwan_chain::{Block, BlockHash, BlockHeader, OutPoint, Transaction, TxId, TxIn, TxOut};
use bcwan_p2p::ChainMessage;
use bcwan_script::{Opcode, Script};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn random_hash(rng: &mut StdRng) -> [u8; 32] {
    let mut hash = [0u8; 32];
    rng.fill_bytes(&mut hash);
    hash
}

// Pushes only (1–120 bytes, exercising both direct-push and PUSHDATA1
// prefixes) plus opcodes whose byte form round-trips unambiguously.
// Empty pushes are excluded: `to_bytes` canonicalizes them to `OP_0`,
// which parses back as the opcode, so they are not wire-stable.
fn random_script(rng: &mut StdRng) -> Script {
    let mut builder = Script::builder();
    for _ in 0..rng.gen_range(0..4usize) {
        if rng.gen_range(0..3u8) == 0 {
            let op = [Opcode::Dup, Opcode::CheckSig][rng.gen_range(0..2usize)];
            builder = builder.op(op);
        } else {
            let len = rng.gen_range(1..120usize);
            builder = builder.push(random_bytes(rng, len));
        }
    }
    builder.build()
}

fn random_tx(rng: &mut StdRng) -> Transaction {
    let inputs = (0..rng.gen_range(0..3usize))
        .map(|_| TxIn {
            prevout: OutPoint {
                txid: TxId(random_hash(rng)),
                vout: rng.gen(),
            },
            script_sig: random_script(rng),
            sequence: rng.gen(),
        })
        .collect();
    let outputs = (0..rng.gen_range(0..3usize))
        .map(|_| TxOut {
            value: rng.gen(),
            script_pubkey: random_script(rng),
        })
        .collect();
    Transaction {
        version: rng.gen(),
        inputs,
        outputs,
        lock_time: rng.gen(),
    }
}

fn random_block(rng: &mut StdRng) -> Block {
    Block {
        header: BlockHeader {
            version: rng.gen(),
            prev_hash: BlockHash(random_hash(rng)),
            merkle_root: random_hash(rng),
            time_us: rng.gen(),
            bits: rng.gen(),
            nonce: rng.gen(),
        },
        transactions: (0..rng.gen_range(0..3usize))
            .map(|_| random_tx(rng))
            .collect(),
    }
}

fn random_message(rng: &mut StdRng) -> WanMessage {
    match rng.gen_range(0..5u8) {
        0 => WanMessage::Chain(ChainMessage::Tx(random_tx(rng))),
        1 => WanMessage::Chain(ChainMessage::Block(random_block(rng))),
        2 => WanMessage::Chain(ChainMessage::GetBlocksFrom(rng.gen())),
        3 => WanMessage::Chain(ChainMessage::TipAnnounce {
            hash: BlockHash(random_hash(rng)),
            height: rng.gen(),
        }),
        _ => {
            let pk_len = rng.gen_range(0..200usize);
            let em_len = rng.gen_range(0..300usize);
            let sig_len = rng.gen_range(0..100usize);
            WanMessage::Deliver {
                device_id: DeviceId(rng.gen()),
                e_pk_bytes: random_bytes(rng, pk_len),
                uplink: SealedUplink {
                    em: random_bytes(rng, em_len),
                    sig: random_bytes(rng, sig_len),
                },
            }
        }
    }
}

#[test]
fn random_messages_round_trip_identically() {
    let mut rng = StdRng::seed_from_u64(0xb0c4);
    for i in 0..300 {
        let msg = random_message(&mut rng);
        let bytes = msg.encode();
        let decoded = WanMessage::decode(&bytes)
            .unwrap_or_else(|e| panic!("iteration {i}: decode failed: {e} for {msg:?}"));
        assert_eq!(decoded, msg, "iteration {i}");
        // Determinism: re-encoding the decoded value is byte-identical.
        assert_eq!(decoded.encode(), bytes, "iteration {i}");
    }
}

#[test]
fn every_truncated_prefix_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    for _ in 0..30 {
        let bytes = random_message(&mut rng).encode();
        for cut in 0..bytes.len() {
            assert!(
                WanMessage::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn corrupted_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for _ in 0..150 {
        let mut bytes = random_message(&mut rng).encode();
        if bytes.is_empty() {
            continue;
        }
        let at = rng.gen_range(0..bytes.len());
        let mask = (rng.gen_range(0..255u8)) + 1; // never a no-op flip
        bytes[at] ^= mask;
        // Either error or a (different) valid message — but never a panic
        // and never an oversized allocation.
        let _ = WanMessage::decode(&bytes);
    }
}

#[test]
fn pure_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x9a4b);
    for _ in 0..300 {
        let len = rng.gen_range(0..200usize);
        let bytes = random_bytes(&mut rng, len);
        let _ = WanMessage::decode(&bytes);
    }
}
