//! Persistence round-trips for the chain store (ISSUE 7 acceptance).
//!
//! Each test builds a store-backed [`Chain`], kills it (drops it, the
//! sim's process-crash model), reopens the directory with
//! [`Chain::open_store`], and asserts the recovered tip and UTXO set
//! are exactly what the live chain held. The scenarios pin the three
//! recovery paths separately: a fresh snapshot (no work), a stale
//! snapshot rolled forward without script re-validation, and a snapshot
//! stranded on a reorged-away branch that must be walked back through
//! the on-disk undo records first.

use bcwan_chain::{
    Block, BlockAction, BlockError, Chain, ChainError, ChainParams, OutPoint, StoreConfig,
    Transaction, TxOut, UtxoEntry, Wallet,
};
use bcwan_script::Script;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Fast-test consensus with maturity 0 (the tests spend genesis coins
/// right away). Must match what `setup` baked into the store.
fn params() -> ChainParams {
    let mut p = ChainParams::fast_test();
    p.coinbase_maturity = 0;
    p
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcwan-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Mines a block containing `txs` (after the coinbase) on top of `parent`.
fn mine_on(
    chain: &Chain,
    parent: bcwan_chain::BlockHash,
    height: u64,
    txs: Vec<Transaction>,
) -> Block {
    let mut transactions = vec![Transaction::coinbase(
        height,
        &height.to_le_bytes(),
        vec![TxOut {
            value: chain.params().coinbase_reward,
            script_pubkey: Script::new(),
        }],
    )];
    transactions.extend(txs);
    Block::mine(parent, height, chain.params().difficulty_bits, transactions)
}

/// A store-backed chain whose genesis funds `wallet` with two coins.
fn setup(dir: &PathBuf, cfg: StoreConfig) -> (Chain, Wallet, Vec<(OutPoint, Script)>) {
    let mut rng = StdRng::seed_from_u64(11);
    let wallet = Wallet::generate(&mut rng);
    let genesis = Chain::make_genesis(
        &params(),
        &[(wallet.address(), 1_000), (wallet.address(), 1_000)],
    );
    let cb = genesis.transactions[0].txid();
    let chain = Chain::create_with_store(params(), genesis, dir, cfg).expect("store creates");
    let coins = (0..2)
        .map(|vout| (OutPoint { txid: cb, vout }, wallet.locking_script()))
        .collect();
    (chain, wallet, coins)
}

/// Spends `coin` back to the wallet, returning the tx and the new coin.
fn churn(wallet: &Wallet, coin: (OutPoint, Script)) -> (Transaction, (OutPoint, Script)) {
    let value = 1_000;
    let tx = wallet.build_payment(
        vec![coin],
        vec![TxOut {
            value,
            script_pubkey: wallet.locking_script(),
        }],
        0,
    );
    let next = (
        OutPoint {
            txid: tx.txid(),
            vout: 0,
        },
        wallet.locking_script(),
    );
    (tx, next)
}

/// The full UTXO set as a sorted list for bit-exact comparison.
fn utxo_pairs(chain: &Chain) -> Vec<(OutPoint, UtxoEntry)> {
    let mut pairs: Vec<(OutPoint, UtxoEntry)> = chain
        .utxo()
        .iter()
        .map(|(op, e)| (*op, e.clone()))
        .collect();
    pairs.sort_unstable_by_key(|(op, _)| *op);
    pairs
}

/// Mines one block of `txs` on the tip.
fn extend(chain: &mut Chain, txs: Vec<Transaction>) {
    let height = chain.height() + 1;
    let block = mine_on(chain, chain.tip(), height, txs);
    assert!(matches!(
        chain.add_block(block).unwrap(),
        BlockAction::Extended(_)
    ));
}

/// Mines `n` blocks of wallet churn onto `chain`, threading the coin.
fn grow(
    chain: &mut Chain,
    wallet: &Wallet,
    mut coin: (OutPoint, Script),
    n: u64,
) -> (OutPoint, Script) {
    for _ in 0..n {
        let (tx, next) = churn(wallet, coin);
        coin = next;
        extend(chain, vec![tx]);
    }
    coin
}

#[test]
fn reopen_restores_tip_and_utxo_exactly() {
    let dir = temp_dir("reopen");
    let (mut chain, wallet, coins) = setup(&dir, StoreConfig::default());
    grow(&mut chain, &wallet, coins[0].clone(), 12);
    chain.flush();
    let tip = chain.tip();
    let height = chain.height();
    let utxo = utxo_pairs(&chain);
    drop(chain); // the crash: no shutdown hook runs

    let opened = Chain::open_store(params(), &dir, StoreConfig::default()).expect("store reopens");
    assert!(!opened.reindexed, "snapshot was fresh, no reindex");
    assert_eq!(opened.rolled_forward, 0, "flush left nothing to replay");
    assert_eq!(opened.undone, 0);
    assert_eq!(opened.chain.tip(), tip);
    assert_eq!(opened.chain.height(), height);
    assert_eq!(utxo_pairs(&opened.chain), utxo, "UTXO set bit-identical");

    // The reopened chain is live: it extends.
    let mut chain = opened.chain;
    let block = mine_on(&chain, chain.tip(), height + 1, vec![]);
    assert!(matches!(
        chain.add_block(block).unwrap(),
        BlockAction::Extended(_)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_into_store_copies_the_main_chain() {
    let (source_dir, dir) = (temp_dir("replay-src"), temp_dir("replay"));
    let (mut source, wallet, coins) = setup(&source_dir, StoreConfig::default());
    grow(&mut source, &wallet, coins[0].clone(), 5);
    let copy = source
        .replay_into_store(&dir, StoreConfig::default())
        .expect("store creates");
    assert!(copy.has_store());
    assert_eq!((copy.tip(), copy.height()), (source.tip(), source.height()));
    drop(copy);

    let opened = Chain::open_store(params(), &dir, StoreConfig::default()).expect("reopens");
    assert_eq!(opened.chain.tip(), source.tip());
    assert_eq!(utxo_pairs(&opened.chain), utxo_pairs(&source));
    let _ = std::fs::remove_dir_all(&source_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_snapshot_rolls_forward_without_revalidation() {
    let dir = temp_dir("rollfwd");
    // A flush interval the run never reaches: the only durable coins
    // snapshot is the one create_with_store wrote at genesis.
    let cfg = StoreConfig {
        fsync: false,
        coins_flush_interval: 1_000,
    };
    let (mut chain, wallet, coins) = setup(&dir, cfg.clone());
    grow(&mut chain, &wallet, coins[0].clone(), 6);
    let tip = chain.tip();
    let utxo = utxo_pairs(&chain);
    drop(chain);

    let opened = Chain::open_store(params(), &dir, cfg).expect("reopens");
    assert!(!opened.reindexed);
    assert_eq!(
        opened.rolled_forward, 6,
        "every block past the genesis snapshot re-applies"
    );
    assert_eq!(opened.chain.tip(), tip);
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reorg_across_restart_consumes_undo_records() {
    let dir = temp_dir("reorg");
    let cfg = StoreConfig {
        fsync: false,
        coins_flush_interval: 1_000,
    };
    let (mut chain, wallet, coins) = setup(&dir, cfg.clone());
    let g = chain.tip();

    // Branch A: one block of churn, then pin the coins snapshot to it.
    let (tx_a, _) = churn(&wallet, coins[0].clone());
    let a1 = mine_on(&chain, g, 1, vec![tx_a]);
    let a1_hash = a1.hash();
    chain.add_block(a1).unwrap();
    chain.flush(); // durable snapshot now sits on A1

    // Branch B (empty blocks) overtakes: A1 is reorged away, but the
    // on-disk snapshot still points at it.
    let b1 = mine_on(&chain, g, 1, vec![]);
    assert_eq!(chain.add_block(b1.clone()).unwrap(), BlockAction::SideChain);
    let b2 = mine_on(&chain, b1.hash(), 2, vec![]);
    assert!(matches!(
        chain.add_block(b2).unwrap(),
        BlockAction::Reorganized { .. }
    ));
    assert_ne!(chain.tip(), a1_hash);
    let tip = chain.tip();
    let utxo = utxo_pairs(&chain);
    drop(chain); // crash before any post-reorg flush

    let opened = Chain::open_store(params(), &dir, cfg).expect("reopens");
    assert!(!opened.reindexed);
    assert_eq!(
        opened.undone, 1,
        "the stale A1 snapshot walks back through its undo record"
    );
    assert_eq!(
        opened.rolled_forward, 2,
        "then rolls forward along the winning branch"
    );
    assert_eq!(opened.chain.tip(), tip);
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `block` with its coinbase swapped for another: the header — hash,
/// proof of work — stays, and its merkle root no longer commits to the
/// body.
fn lying(block: &Block, height: u64) -> Block {
    let mut lie = block.clone();
    let outputs = lie.transactions[0].outputs.clone();
    lie.transactions[0] = Transaction::coinbase(height, b"lie", outputs);
    lie
}

/// A header that lies about its merkle root is refused on a store-backed
/// chain as on a memory-only one: extending, on a reorg branch, and
/// after a reopen, when the branch it would join holds blocks read back
/// from disk (whose root is checked on their first connect).
#[test]
fn lying_merkle_root_is_refused_with_a_store() {
    let dir = temp_dir("merkle");
    let (mut chain, wallet, coins) = setup(&dir, StoreConfig::default());
    let g = chain.tip();
    let refused = Err(ChainError::Invalid(BlockError::BadMerkleRoot));
    let branch_refused = Err(ChainError::BranchInvalid(BlockError::BadMerkleRoot));

    let (tx_b, _) = churn(&wallet, coins[0].clone());
    let b1 = mine_on(&chain, g, 1, vec![tx_b]);
    assert_eq!(chain.add_block(lying(&b1, 1)), refused);
    assert_eq!(chain.add_block(b1.clone()), Ok(BlockAction::Extended(1)));

    // Branch A overtakes B; its lying tip is refused first.
    let (tx_a, _) = churn(&wallet, coins[1].clone());
    let a1 = mine_on(&chain, g, 1, vec![tx_a]);
    assert_eq!(chain.add_block(a1.clone()), Ok(BlockAction::SideChain));
    let a2 = mine_on(&chain, a1.hash(), 2, vec![]);
    assert_eq!(chain.add_block(lying(&a2, 2)), branch_refused);
    assert_eq!(chain.tip(), b1.hash());
    assert!(matches!(
        chain.add_block(a2.clone()),
        Ok(BlockAction::Reorganized { .. })
    ));
    drop(chain);

    // B1 is on disk, off the main chain: reorging back connects it.
    let mut chain = Chain::open_store(params(), &dir, StoreConfig::default())
        .expect("reopens")
        .chain;
    assert_eq!(chain.tip(), a2.hash());
    let b2 = mine_on(&chain, b1.hash(), 2, vec![]);
    assert_eq!(chain.add_block(b2.clone()), Ok(BlockAction::SideChain));
    let b3 = mine_on(&chain, b2.hash(), 3, vec![]);
    assert_eq!(chain.add_block(lying(&b3, 3)), branch_refused);
    assert_eq!(chain.tip(), a2.hash());
    assert_eq!(
        chain.add_block(b3.clone()),
        Ok(BlockAction::Reorganized {
            disconnected: 2,
            connected: 3
        })
    );
    assert_eq!(chain.tip(), b3.hash());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_coins_log_forces_reindex_once() {
    let dir = temp_dir("reindex");
    let (mut chain, wallet, coins) = setup(&dir, StoreConfig::default());
    grow(&mut chain, &wallet, coins[0].clone(), 10);
    chain.flush();
    let tip = chain.tip();
    let utxo = utxo_pairs(&chain);
    drop(chain);

    // Lose the coins table entirely; blocks and manifest survive.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().starts_with("coins-") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }

    let opened =
        Chain::open_store(params(), &dir, StoreConfig::default()).expect("reindex recovers");
    assert!(opened.reindexed, "coins table was gone");
    assert_eq!(opened.chain.tip(), tip);
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    drop(opened);

    // The reindex flushed a new generation: the next open is warm.
    let opened = Chain::open_store(params(), &dir, StoreConfig::default()).expect("second reopen");
    assert!(!opened.reindexed, "reindex wrote a durable snapshot");
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_rolls_back_to_last_commit() {
    let dir = temp_dir("torntail");
    let (mut chain, wallet, coins) = setup(&dir, StoreConfig::default());
    grow(&mut chain, &wallet, coins[0].clone(), 8);
    chain.flush();
    let tip = chain.tip();
    let utxo = utxo_pairs(&chain);
    drop(chain);

    // A torn write: garbage appended past the last commit on both the
    // block file and the manifest must be discarded, not trip recovery.
    for name in ["blocks.dat", "manifest.log"] {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(name))
            .unwrap();
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x11]).unwrap();
    }

    let opened =
        Chain::open_store(params(), &dir, StoreConfig::default()).expect("torn tail recovers");
    assert_eq!(opened.chain.tip(), tip);
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store that flushes its coins only when told to.
fn manual_flush() -> StoreConfig {
    StoreConfig {
        fsync: false,
        coins_flush_interval: u64::MAX,
    }
}

/// Coins-log bytes one `flush` appends: what the store wrote, less the
/// manifest's coins mark every flush writes (framing + generation,
/// length, tip, height).
fn flushed_coins_bytes(chain: &mut Chain) -> u64 {
    const COINS_MARK: u64 = 13 + 4 + 8 + 32 + 8;
    let written = |c: &Chain| {
        c.store_summary()
            .expect("store attached")
            .store
            .bytes_written
    };
    let before = written(chain);
    chain.flush();
    written(chain) - before - COINS_MARK
}

#[test]
fn coin_created_and_spent_between_flushes_adds_no_coins_bytes() {
    let dir = temp_dir("transient");
    let (mut chain, wallet, coins) = setup(&dir, manual_flush());
    assert_eq!(flushed_coins_bytes(&mut chain), 0, "nothing changed");
    extend(&mut chain, vec![]);
    let coinbase_put = flushed_coins_bytes(&mut chain);

    // One spend of a flushed coin: its delete, the coinbase's put and
    // the new coin's put.
    let (tx, c1) = churn(&wallet, coins[0].clone());
    extend(&mut chain, vec![tx]);
    let one_spend = flushed_coins_bytes(&mut chain);

    // c1 → c2 → c3 across two blocks and one flush: c2 is created and
    // spent in between and costs nothing; only the second coinbase is
    // extra.
    let (tx, c2) = churn(&wallet, c1);
    extend(&mut chain, vec![tx]);
    let (tx, _) = churn(&wallet, c2.clone());
    extend(&mut chain, vec![tx]);
    assert_eq!(flushed_coins_bytes(&mut chain), one_spend + coinbase_put);

    let utxo = utxo_pairs(&chain);
    drop(chain);
    let opened = Chain::open_store(params(), &dir, manual_flush()).expect("reopens");
    assert_eq!(opened.rolled_forward, 0);
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    assert!(!opened.chain.utxo().contains(&c2.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spending_a_flushed_coin_adds_one_del_record_and_undo_puts_it_back() {
    const DEL_RECORD: u64 = 13 + 36; // framing + outpoint
    let dir = temp_dir("del");
    let (mut chain, wallet, coins) = setup(&dir, manual_flush());
    let (tx, c1) = churn(&wallet, coins[0].clone());
    extend(&mut chain, vec![tx]);
    let one_spend = flushed_coins_bytes(&mut chain);
    let fork = chain.tip();

    // The same shape, spending one more flushed coin: one more `D`.
    let tx = wallet.build_payment(
        vec![c1.clone(), coins[1].clone()],
        vec![TxOut {
            value: 1_000,
            script_pubkey: wallet.locking_script(),
        }],
        0,
    );
    extend(&mut chain, vec![tx]);
    assert_eq!(flushed_coins_bytes(&mut chain), one_spend + DEL_RECORD);
    assert!(!chain.utxo().contains(&coins[1].0));

    // A longer branch from `fork` disconnects the spend: both coins
    // come back, and a reopen reads them from the coins file.
    let height = chain.height();
    let b1 = mine_on(&chain, fork, height, vec![]);
    assert_eq!(chain.add_block(b1.clone()).unwrap(), BlockAction::SideChain);
    let b2 = mine_on(&chain, b1.hash(), height + 1, vec![]);
    assert!(matches!(
        chain.add_block(b2).unwrap(),
        BlockAction::Reorganized { .. }
    ));
    chain.flush();
    let utxo = utxo_pairs(&chain);
    drop(chain);
    let opened = Chain::open_store(params(), &dir, manual_flush()).expect("reopens");
    assert_eq!(opened.rolled_forward, 0);
    assert!(opened.chain.utxo().contains(&coins[1].0));
    assert!(opened.chain.utxo().contains(&c1.0));
    assert_eq!(utxo_pairs(&opened.chain), utxo);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_coinbase_is_refused_after_its_twin_is_flushed() {
    // The duplicate-output rule sees a flushed coin as it sees any
    // other: the whole set stays in memory, so the replay is refused
    // instead of overwriting the stored coin.
    let dir = temp_dir("flushed-replay");
    let (mut chain, wallet, coins) = setup(&dir, StoreConfig::default());
    grow(&mut chain, &wallet, coins[0].clone(), 3);
    let earlier = chain.block_at(1).expect("block 1").clone();
    chain.flush();
    let twin = OutPoint {
        txid: earlier.transactions[0].txid(),
        vout: 0,
    };
    assert!(
        chain.utxo().contains(&twin),
        "block 1's coinbase is unspent"
    );

    let replay = Block::mine(
        chain.tip(),
        99,
        chain.params().difficulty_bits,
        vec![earlier.transactions[0].clone()],
    );
    let height = chain.height();
    assert!(chain.add_block(replay).is_err(), "replay refused");
    assert_eq!(chain.height(), height);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_store_reopens_to_the_same_state_as_an_unsynced_replica() {
    let mut reopened = Vec::new();
    for fsync in [true, false] {
        let dir = temp_dir(if fsync { "fsync-on" } else { "fsync-off" });
        let cfg = StoreConfig {
            fsync,
            coins_flush_interval: 4,
        };
        let (mut chain, wallet, coins) = setup(&dir, cfg.clone());
        // Ten blocks: two interval flushes on the way, two blocks past
        // the last one.
        grow(&mut chain, &wallet, coins[0].clone(), 10);
        let live = (chain.tip(), chain.height(), chain.utxo().fingerprint());
        drop(chain);

        let opened = Chain::open_store(params(), &dir, cfg).expect("store reopens");
        assert!(!opened.reindexed, "fsync {fsync}");
        assert_eq!(
            opened.rolled_forward, 2,
            "fsync {fsync}: past the last flush"
        );
        let chain = opened.chain;
        let state = (chain.tip(), chain.height(), chain.utxo().fingerprint());
        assert_eq!(state, live, "fsync {fsync}");
        reopened.push(state);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        reopened[0], reopened[1],
        "fsync moves durability, not state"
    );
}
