//! A fleet boots from one chain: [`Chain::fork`] hands out duplicates
//! that share the bootstrapped blocks and read one frozen UTXO base.
//!
//! Pinned here: a duplicate is indistinguishable from a replay of the
//! same blocks; block bodies really are shared; whatever a duplicate
//! does after the fork — connect, spend, create, reorganize below the
//! fork point — stays its own; and a based [`UtxoSet`] answers every
//! read exactly as a flat one does, under validation too.

use bcwan_chain::{
    validate_block, Block, BlockAction, BlockHash, Chain, ChainParams, Mempool, OutPoint, SigCache,
    Transaction, TxId, TxIn, TxOut, UtxoEntry, UtxoSet, Wallet, SEQUENCE_FINAL,
};
use bcwan_script::Script;
use bcwan_sim::SimRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Coins the genesis gives the wallet.
const COINS: u32 = 6;

/// Mines a block containing `txs` (after the coinbase) on top of `parent`.
fn mine_on(
    chain: &Chain,
    parent: BlockHash,
    height: u64,
    tag: &[u8],
    txs: Vec<Transaction>,
) -> Block {
    let mut transactions = vec![Transaction::coinbase(
        height,
        tag,
        vec![TxOut {
            value: chain.params().coinbase_reward,
            script_pubkey: Script::new(),
        }],
    )];
    transactions.extend(txs);
    Block::mine(parent, height, chain.params().difficulty_bits, transactions)
}

fn extend(chain: &mut Chain, tag: &[u8], txs: Vec<Transaction>) -> Block {
    let height = chain.height() + 1;
    let block = mine_on(chain, chain.tip(), height, tag, txs);
    assert_eq!(
        chain.add_block(block.clone()),
        Ok(BlockAction::Extended(height))
    );
    block
}

/// Genesis coin `vout` of the wallet.
fn coin(chain: &Chain, wallet: &Wallet, vout: u32) -> (OutPoint, Script) {
    let txid = chain.block_at(0).unwrap().transactions[0].txid();
    (OutPoint { txid, vout }, wallet.locking_script())
}

/// Spends `coin` back to the wallet.
fn pay(wallet: &Wallet, coin: (OutPoint, Script), value: u64) -> Transaction {
    wallet.build_payment(
        vec![coin],
        vec![TxOut {
            value,
            script_pubkey: wallet.locking_script(),
        }],
        0,
    )
}

/// A chain whose genesis funds `wallet` with [`COINS`] spendable coins,
/// bootstrapped with three blocks: coin 0 spent in block 1, an empty
/// block, coin 1 spent in block 3.
fn bootstrapped() -> (Chain, Wallet) {
    let mut rng = StdRng::seed_from_u64(23);
    let wallet = Wallet::generate(&mut rng);
    let mut params = ChainParams::fast_test();
    params.coinbase_maturity = 0;
    let allocations = vec![(wallet.address(), 1_000); COINS as usize];
    let genesis = Chain::make_genesis(&params, &allocations);
    let mut chain = Chain::new(params, genesis);
    let spend0 = pay(&wallet, coin(&chain, &wallet, 0), 990);
    extend(&mut chain, b"b1", vec![spend0]);
    extend(&mut chain, b"b2", vec![]);
    let spend1 = pay(&wallet, coin(&chain, &wallet, 1), 980);
    extend(&mut chain, b"b3", vec![spend1]);
    (chain, wallet)
}

/// The chain reached by validating `source`'s main chain from genesis.
fn replay(source: &Chain) -> Chain {
    let mut blocks = source.iter_main().cloned();
    let mut chain = Chain::new(source.params().clone(), blocks.next().unwrap());
    for block in blocks {
        chain.add_block(block).unwrap();
    }
    chain
}

/// The order-independent XOR-of-FNV-1a fingerprint `World::run` reports.
fn fingerprint(utxo: &UtxoSet) -> u64 {
    let mut fp = 0u64;
    for (op, entry) in utxo.iter() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        eat(&op.txid.0);
        eat(&op.vout.to_le_bytes());
        eat(&entry.output.value.to_le_bytes());
        fp ^= h;
    }
    fp
}

fn sorted(utxo: &UtxoSet) -> Vec<(OutPoint, UtxoEntry)> {
    let mut entries: Vec<_> = utxo.iter().map(|(op, e)| (*op, e.clone())).collect();
    entries.sort_unstable_by_key(|(op, _)| *op);
    entries
}

fn assert_same_chain(a: &Chain, b: &Chain) {
    assert_eq!(a.tip(), b.tip());
    assert_eq!(a.height(), b.height());
    assert_eq!(a.utxo().len(), b.utxo().len());
    assert_eq!(a.utxo().total_value(), b.utxo().total_value());
    assert_eq!(fingerprint(a.utxo()), fingerprint(b.utxo()));
    assert_eq!(sorted(a.utxo()), sorted(b.utxo()));
    for height in 0..=a.height() {
        assert_eq!(
            a.block_at(height).unwrap().hash(),
            b.block_at(height).unwrap().hash(),
            "height {height}"
        );
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn a_fork_equals_a_replay() {
    let (mut chain, _) = bootstrapped();
    let replayed = replay(&chain);
    let fork = chain.fork();
    assert_same_chain(&fork, &replayed);
    // Forking moved the source's entries into the shared base; it reads
    // the same as before, and a fork of a fork is the same chain again.
    assert_same_chain(&chain, &replayed);
    assert_same_chain(&chain.fork().fork(), &replayed);
    assert!(!fork.has_store());
}

#[test]
fn forks_share_block_bodies() {
    let (mut chain, _) = bootstrapped();
    let (a, b) = (chain.fork(), chain.fork());
    for height in 0..=chain.height() {
        let hash = chain.block_at(height).unwrap().hash();
        let body = chain.shared_block(&hash).unwrap();
        assert!(Arc::ptr_eq(body, a.shared_block(&hash).unwrap()));
        assert!(Arc::ptr_eq(body, b.shared_block(&hash).unwrap()));
        assert_eq!(a.block_txids(&hash), chain.block_txids(&hash));
    }
    // A replay, by contrast, holds copies.
    let genesis = chain.block_at(0).unwrap().hash();
    assert!(!Arc::ptr_eq(
        chain.shared_block(&genesis).unwrap(),
        replay(&chain).shared_block(&genesis).unwrap()
    ));
}

#[test]
fn forks_keep_their_spends_and_creates_to_themselves() {
    let (mut chain, wallet) = bootstrapped();
    let before = replay(&chain);
    let (mut a, mut b) = (chain.fork(), chain.fork());
    let (coin2, coin3) = (coin(&chain, &wallet, 2), coin(&chain, &wallet, 3));

    let spend_a = pay(&wallet, coin2.clone(), 900);
    let spend_b = pay(&wallet, coin3.clone(), 800);
    let made_by_a = OutPoint {
        txid: spend_a.txid(),
        vout: 0,
    };
    let made_by_b = OutPoint {
        txid: spend_b.txid(),
        vout: 0,
    };
    extend(&mut a, b"a4", vec![spend_a]);
    extend(&mut b, b"b4", vec![spend_b]);

    assert!(!a.utxo().contains(&coin2.0) && a.utxo().contains(&coin3.0));
    assert!(b.utxo().contains(&coin2.0) && !b.utxo().contains(&coin3.0));
    assert!(a.utxo().contains(&made_by_a) && !a.utxo().contains(&made_by_b));
    assert!(b.utxo().contains(&made_by_b) && !b.utxo().contains(&made_by_a));
    assert_ne!(a.tip(), b.tip());
    // Each is what a replay of its own blocks gives, and the source never
    // moved.
    assert_same_chain(&a, &replay(&a));
    assert_same_chain(&b, &replay(&b));
    assert_same_chain(&chain, &before);
    assert_eq!(
        a.stats().blocks_connected,
        chain.stats().blocks_connected + 1
    );
}

#[test]
fn a_reorg_below_the_fork_point_stays_in_that_fork() {
    let (mut chain, wallet) = bootstrapped();
    let before = replay(&chain);
    let (mut a, b) = (chain.fork(), chain.fork());

    // Blocks 1–3 were connected before the fork. A four-block branch off
    // genesis disconnects all three in `a`: coins 0 and 1 come back (into
    // `a`'s own map), and what blocks 1 and 3 created goes (into `a`'s
    // spent set) — all of it recorded in the shared base.
    let (coin0, coin1) = (coin(&chain, &wallet, 0), coin(&chain, &wallet, 1));
    let made_in_b1 = OutPoint {
        txid: chain.block_at(1).unwrap().transactions[1].txid(),
        vout: 0,
    };
    let respend0 = pay(&wallet, coin0.clone(), 700);
    let mut parent = chain.block_at(0).unwrap().hash();
    let mut action = None;
    for height in 1..=4u64 {
        let txs = if height == 2 {
            vec![respend0.clone()]
        } else {
            vec![]
        };
        let block = mine_on(&a, parent, height, b"alt", txs);
        parent = block.hash();
        action = Some(a.add_block(block).unwrap());
    }
    assert_eq!(
        action,
        Some(BlockAction::Reorganized {
            disconnected: 3,
            connected: 4
        })
    );
    assert!(!a.utxo().contains(&coin0.0), "re-spent on the new branch");
    assert!(a.utxo().contains(&coin1.0), "restored by the disconnect");
    assert!(!a.utxo().contains(&made_in_b1), "removed by the disconnect");
    assert_same_chain_state(&a, &replay(&a));

    // The sibling and the source still stand on the old branch.
    assert!(b.utxo().contains(&made_in_b1) && !b.utxo().contains(&coin1.0));
    assert_same_chain(&b, &before);
    assert_same_chain(&chain, &before);

    // And back: the old branch grows past the new one and `a` returns to
    // it, re-applying the shared blocks over its own changes.
    let mut old = replay(&chain);
    for tag in [b"o4", b"o5"] {
        let block = extend(&mut old, tag, vec![]);
        a.add_block(block).unwrap();
    }
    assert_eq!(a.tip(), old.tip());
    assert_same_chain_state(&a, &old);
}

/// [`assert_same_chain`] without the lifetime counters (a chain that
/// reorganized has counted disconnects its replay never saw).
fn assert_same_chain_state(a: &Chain, b: &Chain) {
    assert_eq!(a.tip(), b.tip());
    assert_eq!(a.utxo().len(), b.utxo().len());
    assert_eq!(a.utxo().total_value(), b.utxo().total_value());
    assert_eq!(sorted(a.utxo()), sorted(b.utxo()));
}

#[test]
fn validation_over_a_based_set_gives_the_flat_verdicts() {
    let (mut chain, wallet) = bootstrapped();
    // Give the fork own entries and base spends of its own on top of the
    // shared base, and the flat replay the same history.
    let mut based = chain.fork();
    let spend2 = pay(&wallet, coin(&chain, &wallet, 2), 970);
    let made_in_b4 = (
        OutPoint {
            txid: spend2.txid(),
            vout: 0,
        },
        wallet.locking_script(),
    );
    extend(&mut based, b"b4", vec![spend2]);
    let flat = replay(&based);
    let height = flat.height() + 1;
    let params = flat.params().clone();

    let good_base = pay(&wallet, coin(&chain, &wallet, 4), 960);
    let good_own = pay(&wallet, made_in_b4.clone(), 950);
    let chained = pay(
        &wallet,
        (
            OutPoint {
                txid: good_own.txid(),
                vout: 0,
            },
            wallet.locking_script(),
        ),
        940,
    );
    let spent_before_fork = pay(&wallet, coin(&chain, &wallet, 0), 10);
    let spent_after_fork = pay(&wallet, coin(&chain, &wallet, 2), 10);
    let overspend = pay(&wallet, coin(&chain, &wallet, 5), 1_001);
    let mut forged = pay(&wallet, coin(&chain, &wallet, 5), 900);
    forged.outputs[0].value = 901; // signature no longer covers it
    let conflict = pay(&wallet, coin(&chain, &wallet, 4), 955);

    // Admission, one pool per view, same order.
    let (mut pool_flat, mut pool_based) = (Mempool::new(), Mempool::new());
    let offered = [
        &good_base,
        &good_own,
        &chained,
        &spent_before_fork,
        &spent_after_fork,
        &overspend,
        &forged,
        &conflict,
        &good_base,
    ];
    let mut admitted = 0;
    for tx in offered {
        let over_flat = pool_flat.insert(tx.clone(), flat.utxo(), height, &params);
        let over_based = pool_based.insert(tx.clone(), based.utxo(), height, &params);
        assert_eq!(over_flat, over_based);
        admitted += usize::from(over_based.is_ok());
    }
    assert_eq!(admitted, 3, "the three good ones and nothing else");

    // Block validation (a `BlockOverlay` over either view).
    let replayed_coinbase = Block::mine(
        flat.tip(),
        height,
        params.difficulty_bits,
        vec![flat.block_at(1).unwrap().transactions[0].clone()],
    );
    let candidates = [
        mine_on(&flat, flat.tip(), height, b"ok", vec![good_base.clone()]),
        mine_on(
            &flat,
            flat.tip(),
            height,
            b"chain",
            vec![good_own.clone(), chained.clone()],
        ),
        mine_on(
            &flat,
            flat.tip(),
            height,
            b"twice",
            vec![good_base.clone(), conflict.clone()],
        ),
        mine_on(&flat, flat.tip(), height, b"gone", vec![spent_before_fork]),
        mine_on(&flat, flat.tip(), height, b"gone2", vec![spent_after_fork]),
        mine_on(&flat, flat.tip(), height, b"forged", vec![forged]),
        replayed_coinbase,
    ];
    let mut valid = 0;
    for block in &candidates {
        let over_flat = validate_block(block, flat.utxo(), height, &params, &SigCache::default());
        let over_based = validate_block(block, based.utxo(), height, &params, &SigCache::default());
        assert_eq!(over_flat, over_based);
        valid += usize::from(over_based.is_ok());
    }
    assert_eq!(valid, 2, "the plain spend and the intra-block chain");
}

// ---- a based set against a flat one, step by step -------------------

const BASE_SEED: u64 = 0x5a4e_d000;
const CASES: u64 = 1_024;

fn coinbase(tag: u64, values: &[u64]) -> Transaction {
    Transaction::coinbase(
        tag,
        b"based",
        values
            .iter()
            .map(|&value| TxOut {
                value,
                script_pubkey: Script::new(),
            })
            .collect(),
    )
}

fn spend(prev: Vec<OutPoint>, values: &[u64]) -> Transaction {
    Transaction {
        version: 1,
        inputs: prev
            .into_iter()
            .map(|prevout| TxIn {
                prevout,
                script_sig: Script::new(),
                sequence: SEQUENCE_FINAL,
            })
            .collect(),
        outputs: coinbase(0, values).outputs,
        lock_time: 0,
    }
}

/// A random block over `set`: a coinbase creating 0–2 outputs, then up
/// to two transactions that each spend 1–2 unspent outputs (sometimes one
/// the block itself just made) into 0–3 new ones.
fn random_block(rng: &mut SimRng, set: &UtxoSet, tag: u64) -> Vec<Transaction> {
    let values = |rng: &mut SimRng, max: usize| -> Vec<u64> {
        (0..rng.index(max + 1))
            .map(|_| 1 + rng.index(500) as u64)
            .collect()
    };
    let cb = coinbase(tag, &values(rng, 2));
    let mut spendable: Vec<OutPoint> = sorted(set).into_iter().map(|(op, _)| op).collect();
    spendable.extend((0..cb.outputs.len() as u32).map(|vout| OutPoint {
        txid: cb.txid(),
        vout,
    }));
    let mut txs = vec![cb];
    for _ in 0..rng.index(3) {
        let take = (1 + rng.index(2)).min(spendable.len());
        if take == 0 {
            break;
        }
        let prev: Vec<OutPoint> = (0..take)
            .map(|_| spendable.swap_remove(rng.index(spendable.len())))
            .collect();
        let tx = spend(prev, &values(rng, 3));
        spendable.extend((0..tx.outputs.len() as u32).map(|vout| OutPoint {
            txid: tx.txid(),
            vout,
        }));
        txs.push(tx);
    }
    txs
}

/// Every read the two sets offer, over every outpoint the case has seen.
fn assert_same_reads(seed: u64, step: &str, based: &UtxoSet, flat: &UtxoSet, seen: &[OutPoint]) {
    let at = format!("seed {seed:#x}, {step}");
    assert_eq!(based.len(), flat.len(), "{at}: len");
    assert_eq!(based.is_empty(), flat.is_empty(), "{at}: is_empty");
    assert_eq!(based.total_value(), flat.total_value(), "{at}: total_value");
    assert_eq!(sorted(based), sorted(flat), "{at}: iter");
    for op in seen {
        assert_eq!(based.get(op), flat.get(op), "{at}: get {op}");
        assert_eq!(based.contains(op), flat.contains(op), "{at}: contains {op}");
    }
    let big = |e: &UtxoEntry| e.output.value > 250;
    assert_eq!(
        based.find(big).count(),
        flat.find(big).count(),
        "{at}: find"
    );
}

/// Random apply / undo / re-fork sequences: a based set and a flat one
/// fed the same blocks agree on every read after every step — including
/// undos that reach below the fork point — and the sibling left behind at
/// each fork never moves.
#[test]
fn a_based_set_reads_like_a_flat_one() {
    for seed in BASE_SEED..BASE_SEED + CASES {
        let rng = &mut SimRng::seed_from_u64(seed);
        let (mut flat, mut source) = (UtxoSet::new(), UtxoSet::new());
        let mut seen = vec![OutPoint {
            txid: TxId([0xab; 32]),
            vout: 0,
        }];
        let mut history = Vec::new();
        let mut tag = 0u64;
        let connect = |rng: &mut SimRng, flat: &mut UtxoSet, other: &mut UtxoSet, tag: &mut u64| {
            *tag += 1;
            let txs = random_block(rng, flat, *tag);
            let undo = flat.apply_block(&txs, *tag).unwrap();
            other.apply_block(&txs, *tag).unwrap();
            (txs, undo)
        };
        // History from before the fork, so undos can reach below it.
        for _ in 0..1 + rng.index(4) {
            history.push(connect(rng, &mut flat, &mut source, &mut tag));
        }
        let mut based = source.fork();
        let frozen = flat.clone();
        let mut siblings = vec![(source, frozen)];

        for step in 0..4 + rng.index(12) {
            let what = match rng.index(8) {
                0..=3 => {
                    history.push(connect(rng, &mut flat, &mut based, &mut tag));
                    "apply"
                }
                4..=6 => {
                    let Some((txs, undo)) = history.pop() else {
                        continue;
                    };
                    flat.undo_block(&txs, &undo);
                    based.undo_block(&txs, &undo);
                    "undo"
                }
                _ => {
                    // Fork the touched set (the flattening path) and go
                    // on with the child; the parent must stay put.
                    let child = based.fork();
                    siblings.push((std::mem::replace(&mut based, child), flat.clone()));
                    "fork"
                }
            };
            for (txs, _) in history.iter().rev().take(1) {
                for tx in txs {
                    seen.extend(tx.inputs.iter().map(|i| i.prevout));
                    seen.extend((0..tx.outputs.len() as u32).map(|vout| OutPoint {
                        txid: tx.txid(),
                        vout,
                    }));
                }
            }
            assert_same_reads(seed, &format!("step {step} ({what})"), &based, &flat, &seen);
        }
        for (i, (sibling, at_fork)) in siblings.iter().enumerate() {
            assert_same_reads(seed, &format!("sibling {i}"), sibling, at_fork, &seen);
        }
    }
}
