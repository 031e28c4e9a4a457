//! Seeded property tests: UTXO conservation, merkle soundness and txid
//! commitment under randomized inputs.
//!
//! Each property runs [`CASES`] inputs drawn from a [`SimRng`] seeded
//! with `BASE_SEED + case`; a failure names the case's seed.

use bcwan_chain::merkle::{merkle_proof, merkle_root};
use bcwan_chain::tx::TxId;
use bcwan_chain::{OutPoint, Transaction, TxIn, TxOut, UtxoSet, SEQUENCE_FINAL};
use bcwan_script::Script;
use bcwan_sim::SimRng;
use rand::RngCore;

const BASE_SEED: u64 = 0xc4a1_7000;
const CASES: u64 = 64;

/// Runs `check(seed, rng)` once per case.
fn for_each_case(check: impl Fn(u64, &mut SimRng)) {
    for seed in BASE_SEED..BASE_SEED + CASES {
        check(seed, &mut SimRng::seed_from_u64(seed));
    }
}

fn coinbase(height: u64, values: &[u64]) -> Transaction {
    Transaction::coinbase(
        height,
        b"prop",
        values
            .iter()
            .map(|&value| TxOut {
                value,
                script_pubkey: Script::new(),
            })
            .collect(),
    )
}

fn spend_all(prev: &[(OutPoint, u64)], outs: usize) -> Transaction {
    let total: u64 = prev.iter().map(|(_, v)| v).sum();
    let share = total / outs as u64;
    let mut outputs: Vec<TxOut> = (0..outs)
        .map(|_| TxOut {
            value: share,
            script_pubkey: Script::new(),
        })
        .collect();
    outputs[0].value += total - share * outs as u64; // remainder
    Transaction {
        version: 1,
        inputs: prev
            .iter()
            .map(|(op, _)| TxIn {
                prevout: *op,
                script_sig: Script::new(),
                sequence: SEQUENCE_FINAL,
            })
            .collect(),
        outputs,
        lock_time: 0,
    }
}

fn txids(rng: &mut SimRng, min: usize, max: usize) -> Vec<TxId> {
    (0..min + rng.index(max - min))
        .map(|_| {
            let mut id = [0u8; 32];
            rng.fill_bytes(&mut id);
            TxId(id)
        })
        .collect()
}

/// Applying random full-value spends never changes total UTXO value,
/// and undoing blocks restores the exact pre-block state.
#[test]
fn utxo_value_conserved_and_undo_exact() {
    for_each_case(|seed, rng| {
        let initial: Vec<u64> = (0..1 + rng.index(7))
            .map(|_| 1 + rng.index(9_999) as u64)
            .collect();
        let mut set = UtxoSet::new();
        let cb = coinbase(0, &initial);
        set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let minted: u64 = initial.iter().sum();
        assert_eq!(set.total_value(), minted, "seed {seed:#x}");

        let mut history = Vec::new();
        for height in 1..=1 + rng.index(9) as u64 {
            // Spend every currently-unspent output into 1–4 new ones.
            let prev: Vec<(OutPoint, u64)> =
                set.iter().map(|(op, e)| (*op, e.output.value)).collect();
            let tx = spend_all(&prev, 1 + rng.index(4));
            let undo = set.apply_block(std::slice::from_ref(&tx), height).unwrap();
            history.push((tx, undo));
            assert_eq!(
                set.total_value(),
                minted,
                "seed {seed:#x}: conservation at height {height}"
            );
        }
        for (tx, undo) in history.iter().rev() {
            set.undo_block(std::slice::from_ref(tx), undo);
            assert_eq!(set.total_value(), minted, "seed {seed:#x}: after undo");
        }
        // Exactly the genesis outputs remain.
        assert_eq!(set.len(), initial.len(), "seed {seed:#x}");
        for vout in 0..initial.len() as u32 {
            let outpoint = OutPoint {
                txid: cb.txid(),
                vout,
            };
            assert!(
                set.contains(&outpoint),
                "seed {seed:#x}: genesis output {vout} missing after undo"
            );
        }
    });
}

/// Every merkle proof verifies against the root; any single-bit txid
/// perturbation breaks it.
#[test]
fn merkle_proofs_sound() {
    for_each_case(|seed, rng| {
        let ids = txids(rng, 1, 20);
        let flip_bit = rng.index(256);
        let root = merkle_root(&ids);
        for i in 0..ids.len() {
            let proof = merkle_proof(&ids, i).unwrap();
            assert!(proof.verify(&root), "seed {seed:#x}: leaf {i}");
            let mut corrupt = proof.clone();
            corrupt.txid.0[flip_bit / 8] ^= 1 << (flip_bit % 8);
            assert!(
                !corrupt.verify(&root),
                "seed {seed:#x}: leaf {i} verified with bit {flip_bit} flipped"
            );
        }
    });
}

/// The root is order-sensitive for distinct id lists.
#[test]
fn merkle_root_order_sensitive() {
    for_each_case(|seed, rng| {
        let ids = txids(rng, 2, 12);
        let (a, b) = (rng.index(ids.len()), rng.index(ids.len()));
        if a == b {
            return;
        }
        let mut swapped = ids.clone();
        swapped.swap(a, b);
        assert_ne!(
            merkle_root(&ids),
            merkle_root(&swapped),
            "seed {seed:#x}: swapped {a} and {b}"
        );
    });
}

/// Transaction ids commit to every output value.
#[test]
fn txid_sensitive_to_value_changes() {
    for_each_case(|seed, rng| {
        let values: Vec<u64> = (0..1 + rng.index(5))
            .map(|_| 1 + rng.index(999) as u64)
            .collect();
        let tx = coinbase(3, &values);
        let mut modified = tx.clone();
        modified.outputs[rng.index(values.len())].value += 1;
        assert_ne!(tx.txid(), modified.txid(), "seed {seed:#x}");
    });
}
