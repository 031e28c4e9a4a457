//! The verification memo keyed by txid is sound.
//!
//! [`SigCache`] keys a spend by `(txid, input index, spent script)` and
//! computes a sighash only on a miss. Pinned here: the hashed types'
//! digests are exactly what a fresh hash of the body gives; any change to
//! a transaction the interpreter could see — one signature byte, the lock
//! time, the *other* input's unlocking script — is a fresh miss whose
//! verdict equals uncached validation; a block connects on memo hits only
//! when it carries exactly what was admitted, while a forged one is
//! refused with the error it gets with no memo; and the outputs a pool or
//! a chain records share the body's scripts instead of copying them.

use bcwan_chain::{
    validate_block, validate_transaction, Block, BlockAction, BlockHash, Chain, ChainError,
    ChainParams, HashedBlock, HashedTx, Mempool, MempoolError, OutPoint, SigCache, Transaction,
    TxError, TxId, TxIn, TxOut, Wallet,
};
use bcwan_script::{Opcode, Script};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn bytes32(rng: &mut StdRng) -> [u8; 32] {
    std::array::from_fn(|_| rng.gen())
}

fn random_script(rng: &mut StdRng) -> Script {
    let mut builder = Script::builder();
    for _ in 0..rng.gen_range(0..4usize) {
        builder = if rng.gen_bool(0.5) {
            let len = rng.gen_range(0..80usize);
            builder.push((0..len).map(|_| rng.gen()).collect())
        } else {
            builder.op(Opcode::Dup)
        };
    }
    builder.build()
}

fn random_tx(rng: &mut StdRng) -> Transaction {
    Transaction {
        version: rng.gen_range(1..3u32),
        inputs: (0..rng.gen_range(1..5usize))
            .map(|_| TxIn {
                prevout: OutPoint {
                    txid: TxId(bytes32(rng)),
                    vout: rng.gen_range(0..8u32),
                },
                script_sig: random_script(rng),
                sequence: rng.gen(),
            })
            .collect(),
        outputs: (0..rng.gen_range(1..5usize))
            .map(|_| TxOut {
                value: rng.gen_range(0..1_000_000u64),
                script_pubkey: random_script(rng),
            })
            .collect(),
        lock_time: rng.gen_range(0..1_000u64),
    }
}

#[test]
fn hashed_digests_equal_a_fresh_hash_of_the_body() {
    let mut rng = StdRng::seed_from_u64(0x004a_54ed);
    for case in 0..64 {
        let tx = random_tx(&mut rng);
        let hashed = HashedTx::new(tx.clone());
        assert_eq!(hashed.txid(), tx.txid(), "case {case}");
        assert_eq!(hashed.size(), tx.size(), "case {case}");
        assert_eq!(*hashed.tx(), tx, "case {case}");

        let txs: Vec<Transaction> = (0..rng.gen_range(1..6usize))
            .map(|_| random_tx(&mut rng))
            .collect();
        // Difficulty 0: the first nonce is a valid proof of work.
        let block = Block::mine(BlockHash(bytes32(&mut rng)), rng.gen(), 0, txs);
        let hashed = HashedBlock::new(block.clone());
        let (txids, size) = block.txids_and_size();
        assert_eq!(hashed.hash(), block.hash(), "case {case}");
        assert_eq!(&hashed.txids()[..], &txids[..], "case {case}");
        assert_eq!(
            txids,
            block
                .transactions
                .iter()
                .map(Transaction::txid)
                .collect::<Vec<_>>()
        );
        assert_eq!(hashed.size(), size, "case {case}");
        assert_eq!(hashed.size(), block.size(), "case {case}");
        assert_eq!(*hashed.block(), block, "case {case}");
    }
}

/// A locking script any unlocking push of a truthy value opens: lets a
/// test replace an unlocking script with another *valid* one.
fn anyone_can_spend() -> Script {
    Script::builder().op(Opcode::Verify).op(Opcode::Op1).build()
}

fn push(byte: u8) -> Script {
    Script::builder().push(vec![byte]).build()
}

struct Fixture {
    params: ChainParams,
    genesis: Block,
    /// `T`: one P2PKH input.
    single: Transaction,
    /// `T2`: a P2PKH input, then an anyone-can-spend one unlocked by `push(1)`.
    double: Transaction,
}

/// Genesis pays the wallet two coins and leaves one anyone-can-spend.
fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    let wallet = Wallet::generate(&mut rng);
    let mut params = ChainParams::fast_test();
    params.coinbase_maturity = 0;
    let out = |script_pubkey| TxOut {
        value: 1_000,
        script_pubkey,
    };
    let coinbase = Transaction::coinbase(
        0,
        b"memo",
        vec![
            out(wallet.locking_script()),
            out(wallet.locking_script()),
            out(anyone_can_spend()),
        ],
    );
    let funding = coinbase.txid();
    let genesis = Block::mine(
        BlockHash::GENESIS_PREV,
        0,
        params.difficulty_bits,
        vec![coinbase],
    );
    let coin = |vout| OutPoint {
        txid: funding,
        vout,
    };
    let single = wallet.build_payment(
        vec![(coin(0), wallet.locking_script())],
        vec![out(wallet.locking_script())],
        0,
    );
    let mut double = Transaction {
        version: 1,
        inputs: [coin(1), coin(2)]
            .into_iter()
            .map(|prevout| TxIn {
                prevout,
                script_sig: Script::new(),
                sequence: 0,
            })
            .collect(),
        outputs: vec![TxOut {
            value: 1_990,
            script_pubkey: wallet.locking_script(),
        }],
        lock_time: 0,
    };
    wallet.sign_p2pkh_input(&mut double, 0, &wallet.locking_script());
    double.inputs[1].script_sig = push(1);
    Fixture {
        params,
        genesis,
        single,
        double,
    }
}

/// The changes to `T`/`T2` that the old sighash-keyed memo treated
/// differently, or that a memo must never let through on a hit.
fn variants(f: &Fixture) -> Vec<(&'static str, Transaction)> {
    let mut flipped = f.single.clone();
    let mut sig = flipped.inputs[0].script_sig.to_bytes();
    // Byte 0 is the signature's push length; byte 9 is inside it.
    sig[9] ^= 0x01;
    flipped.inputs[0].script_sig = Script::from_bytes(&sig).expect("same shape");

    let mut relocked = f.single.clone();
    relocked.lock_time = 1;

    // Input 0's signature does not cover input 1's unlocking script, so
    // both of these still carry a valid input 0.
    let mut resigned_other = f.double.clone();
    resigned_other.inputs[1].script_sig = push(2);
    let mut broken_other = f.double.clone();
    broken_other.inputs[1].script_sig = push(0);

    vec![
        ("signature byte flipped", flipped),
        ("lock time changed", relocked),
        ("other input re-unlocked", resigned_other),
        ("other input broken", broken_other),
    ]
}

fn chain(f: &Fixture, cache: &Arc<SigCache>) -> Chain {
    Chain::new(f.params.clone(), f.genesis.clone()).with_sig_cache(cache.clone())
}

fn block_on(chain: &Chain, txs: &[Transaction]) -> Block {
    let mut transactions = vec![Transaction::coinbase(
        1,
        b"memo",
        vec![TxOut {
            value: chain.params().coinbase_reward,
            script_pubkey: Script::new(),
        }],
    )];
    transactions.extend_from_slice(txs);
    Block::mine(chain.tip(), 1, chain.params().difficulty_bits, transactions)
}

fn counts(cache: &SigCache) -> (u64, u64) {
    (cache.hits(), cache.misses())
}

#[test]
fn every_change_the_interpreter_sees_is_a_fresh_miss_with_the_uncached_verdict() {
    let f = fixture();
    let cache = Arc::new(SigCache::default());
    let (a, b) = (chain(&f, &cache), chain(&f, &cache));
    let mut pool_a = Mempool::with_cache(cache.clone());
    for tx in [&f.single, &f.double] {
        pool_a
            .insert(tx.clone(), a.utxo(), 1, &f.params)
            .expect("admitted on A");
    }
    // Three spends, three script runs.
    assert_eq!(counts(&cache), (0, 3));

    let mut valid = 0;
    for (what, variant) in variants(&f) {
        let hashed = HashedTx::new(variant.clone());
        let uncached = validate_transaction(&hashed, b.utxo(), 1, &f.params, &SigCache::default());
        let (hits, misses) = counts(&cache);
        let mut pool_b = Mempool::with_cache(cache.clone());
        let verdict = pool_b.insert(variant.clone(), b.utxo(), 1, &f.params);
        assert_eq!(
            verdict,
            uncached.clone().map_err(MempoolError::Invalid),
            "{what}"
        );
        assert_eq!(cache.hits(), hits, "{what}: no lookup may hit");
        // Every input up to and including a failing one was looked up.
        let looked_up = match &uncached {
            Err(TxError::ScriptFailed { input, .. }) => input + 1,
            _ => variant.inputs.len(),
        };
        assert_eq!(cache.misses(), misses + looked_up as u64, "{what}");
        valid += usize::from(uncached.is_ok());
    }
    assert_eq!(valid, 1, "only the re-unlocked variant is valid");

    // The admitted bodies themselves are hits on B: no script runs.
    let (hits, misses) = counts(&cache);
    let mut pool_b = Mempool::with_cache(cache.clone());
    for tx in [&f.single, &f.double] {
        pool_b
            .insert(HashedTx::new(tx.clone()), b.utxo(), 1, &f.params)
            .expect("admitted on B");
    }
    assert_eq!(counts(&cache), (hits + 3, misses));
}

#[test]
fn a_block_connects_on_hits_only_and_a_forged_one_fails_as_without_a_memo() {
    let f = fixture();
    let cache = Arc::new(SigCache::default());
    let mut pool = Mempool::with_cache(cache.clone());
    let admitted = chain(&f, &cache);
    for tx in [&f.single, &f.double] {
        pool.insert(tx.clone(), admitted.utxo(), 1, &f.params)
            .expect("admitted");
    }

    // The block carrying exactly what was admitted: every spend a hit.
    let mut b = chain(&f, &cache);
    let (hits, misses) = counts(&cache);
    let block = block_on(&b, &[f.single.clone(), f.double.clone()]);
    assert_eq!(b.add_block(block), Ok(BlockAction::Extended(1)));
    assert_eq!(counts(&cache), (hits + 3, misses));

    // Each variant in a block: the memo never changes the verdict.
    let mut refused = 0;
    for (what, variant) in variants(&f) {
        let mut c = chain(&f, &cache);
        let forged = block_on(&c, &[variant]);
        let expected = validate_block(&forged, c.utxo(), 1, &f.params, &SigCache::default());
        let (hits, _) = counts(&cache);
        let verdict = c.add_block(forged);
        match expected {
            Ok(()) => assert_eq!(verdict, Ok(BlockAction::Extended(1)), "{what}"),
            Err(e) => {
                assert_eq!(verdict, Err(ChainError::Invalid(e)), "{what}");
                assert_eq!(c.height(), 0, "{what}");
                refused += 1;
            }
        }
        assert_eq!(cache.hits(), hits, "{what}: no lookup may hit");
    }
    assert_eq!(refused, 3);
}

/// The instruction buffer `script` shares with every clone of it.
fn body_of(script: &Script) -> *const bcwan_script::Instruction {
    script.instructions().as_ptr()
}

#[test]
fn recorded_outputs_share_the_bodys_scripts() {
    let f = fixture();
    let cache = Arc::new(SigCache::default());
    let mut chain = chain(&f, &cache);
    let genesis = chain.block(&f.genesis.hash()).expect("genesis stored");
    let coinbase = &genesis.transactions[0];
    let coin = OutPoint {
        txid: coinbase.txid(),
        vout: 2,
    };
    let entry = chain.utxo().get(&coin).expect("unspent");
    assert_eq!(
        body_of(&entry.output.script_pubkey),
        body_of(&coinbase.outputs[2].script_pubkey)
    );

    // Pool admission: the pooled body shares the caller's output, since a
    // clone of the body is shallow. (That the pool's created entry shares
    // it too is `mempool::tests::created_outputs_share_the_pooled_body`.)
    let mut pool = Mempool::with_cache(cache.clone());
    let txid = f.single.txid();
    pool.insert(f.single.clone(), chain.utxo(), 1, &f.params)
        .expect("admitted");
    let pooled = pool.get(&txid).expect("pooled");
    assert_eq!(
        body_of(&pooled.outputs[0].script_pubkey),
        body_of(&f.single.outputs[0].script_pubkey)
    );

    // Block connect: every new UTXO entry shares the stored body's output.
    let block = block_on(&chain, &[f.single.clone(), f.double.clone()]);
    let hash = block.hash();
    assert_eq!(chain.add_block(block), Ok(BlockAction::Extended(1)));
    let stored = chain.block(&hash).expect("block stored");
    for tx in &stored.transactions {
        for (vout, output) in tx.outputs.iter().enumerate() {
            let outpoint = OutPoint {
                txid: tx.txid(),
                vout: vout as u32,
            };
            let entry = chain.utxo().get(&outpoint).expect("unspent");
            assert_eq!(
                body_of(&entry.output.script_pubkey),
                body_of(&output.script_pubkey)
            );
        }
    }
}
