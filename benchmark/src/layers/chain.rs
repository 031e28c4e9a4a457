//! Adapter for `bcwan-chain`: admission, template, connect (warm and
//! cold), the persistent store (create / flush / reopen), reorg and the
//! block codec.

use crate::trace::span;
use bcwan_chain::codec::{decode_block, encode_block, Reader};
use bcwan_chain::{ChainParams, OutPoint, StoreConfig, TxOut, Wallet};
use bcwan_script::Script;
use rand::rngs::StdRng;
use std::path::Path;

const LAYER: &str = "chain";

/// Wallets the pre-signed spends are spread over, so that per-pubkey
/// coalescing in batch verification engages as it does on a real block.
const WALLETS: usize = 8;

/// The types workloads hold between calls.
pub use bcwan_chain::{Block, BlockAction, Chain, Mempool, Transaction};

/// Everything `chain_ibd` is fed: a genesis that funds every spend and
/// the pre-signed P2PKH transactions, grouped by the block they go in.
pub struct Inputs {
    pub params: ChainParams,
    pub genesis: Block,
    pub batches: Vec<Vec<Transaction>>,
}

impl Inputs {
    pub fn tx_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Builds the inputs (signing is the one-off part: ~0.1 ms per spend).
pub fn inputs(rng: &mut StdRng, blocks: usize, txs_per_block: usize) -> Inputs {
    let mut params = ChainParams::fast_test();
    // Genesis outputs are coinbase outputs; let block 1 spend them.
    params.coinbase_maturity = 0;
    let wallets: Vec<Wallet> = (0..WALLETS).map(|_| Wallet::generate(rng)).collect();
    let total = blocks * txs_per_block;
    let allocations: Vec<_> = (0..total)
        .map(|i| (wallets[i % WALLETS].address(), 1_000u64))
        .collect();
    let genesis = Chain::make_genesis(&params, &allocations);
    let funding = genesis.transactions[0].txid();
    let spend = |i: usize| {
        let owner = &wallets[i % WALLETS];
        let payee = &wallets[(i + 1) % WALLETS];
        owner.build_payment(
            vec![(
                OutPoint {
                    txid: funding,
                    vout: i as u32,
                },
                owner.locking_script(),
            )],
            vec![TxOut {
                value: 990,
                script_pubkey: payee.locking_script(),
            }],
            0,
        )
    };
    let batches = (0..blocks)
        .map(|b| {
            (0..txs_per_block)
                .map(|j| spend(b * txs_per_block + j))
                .collect()
        })
        .collect();
    Inputs {
        params,
        genesis,
        batches,
    }
}

pub fn new_chain(inputs: &Inputs) -> Chain {
    let _s = span(LAYER, "chain_new");
    Chain::new(inputs.params.clone(), inputs.genesis.clone())
}

/// A pool sharing the chain's signature cache, as the daemon wires it.
pub fn new_pool(chain: &Chain) -> Mempool {
    Mempool::with_cache(chain.sig_cache().clone())
}

pub fn create_with_store(inputs: &Inputs, dir: &Path) -> Chain {
    let _s = span(LAYER, "create_with_store");
    Chain::create_with_store(
        inputs.params.clone(),
        inputs.genesis.clone(),
        dir,
        StoreConfig::default(),
    )
    .expect("store directory is writable")
}

pub fn admit(pool: &mut Mempool, tx: &Transaction, chain: &Chain) -> bool {
    let _s = span(LAYER, "admit");
    pool.insert(tx.clone(), chain.utxo(), chain.height() + 1, chain.params())
        .is_ok()
}

fn coinbase(chain: &Chain, height: u64, tag: &[u8]) -> Transaction {
    Transaction::coinbase(
        height,
        tag,
        vec![TxOut {
            value: chain.params().coinbase_reward,
            script_pubkey: Script::new(),
        }],
    )
}

/// Template from the pool plus proof of work, on top of the chain's tip.
pub fn template_and_mine(pool: &Mempool, chain: &Chain) -> Block {
    let height = chain.height() + 1;
    let cb = coinbase(chain, height, b"perf");
    let budget = chain.params().max_block_size.saturating_sub(cb.size() + 88);
    let mut txs = vec![cb];
    {
        let _s = span(LAYER, "template");
        txs.extend(pool.block_template(budget));
    }
    let _s = span(LAYER, "mine");
    Block::mine(chain.tip(), height, chain.params().difficulty_bits, txs)
}

/// `Some(action)` when the chain accepted the block.
pub fn connect(name: &'static str, chain: &mut Chain, block: &Block) -> Option<BlockAction> {
    let _s = span(LAYER, name);
    chain.add_block(block.clone()).ok()
}

pub fn remove_confirmed(pool: &mut Mempool, block: &Block) {
    let _s = span(LAYER, "remove_confirmed");
    pool.remove_confirmed(&block.transactions);
}

pub fn flush(chain: &mut Chain) {
    let _s = span(LAYER, "flush");
    chain.flush();
}

/// Reopens a store; the chain plus whether the coins table had to be
/// rebuilt from the block file.
pub fn reopen(inputs: &Inputs, dir: &Path) -> Option<(Chain, bool)> {
    let _s = span(LAYER, "reopen");
    Chain::open_store(inputs.params.clone(), dir, StoreConfig::default())
        .ok()
        .map(|opened| (opened.chain, opened.reindexed))
}

/// What two chains must agree on to count as the same chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub tip: String,
    pub height: u64,
    pub utxo_total: u64,
    pub utxo_len: usize,
}

pub fn summary(chain: &Chain) -> Summary {
    Summary {
        tip: chain.tip().to_hex(),
        height: chain.height(),
        utxo_total: chain.utxo().total_value(),
        utxo_len: chain.utxo().len(),
    }
}

/// Store counters of a store-backed chain: `(flushes, bytes written)`.
pub fn store_counters(chain: &Chain) -> (u64, u64) {
    chain
        .store_summary()
        .map_or((0, 0), |s| (s.store.flush_total, s.store.bytes_written))
}

/// Signature-cache `(hits, misses)` of a chain so far.
pub fn sigcache_counters(chain: &Chain) -> (u64, u64) {
    (chain.sig_cache().hits(), chain.sig_cache().misses())
}

/// A copy of `block` whose first spend has one signature byte flipped,
/// re-mined so that only the signature is wrong.
pub fn with_flipped_signature_byte(block: &Block, params: &ChainParams) -> Block {
    let mut txs = block.transactions.clone();
    let spend = txs
        .iter_mut()
        .find(|tx| !tx.is_coinbase())
        .expect("block carries a spend");
    let mut bytes = spend.inputs[0].script_sig.to_bytes();
    // Byte 0 is the push length of the 64-byte signature; byte 9 is inside it.
    bytes[9] ^= 0x01;
    spend.inputs[0].script_sig = Script::from_bytes(&bytes).expect("same shape");
    Block::mine(
        block.header.prev_hash,
        block.header.time_us,
        params.difficulty_bits,
        txs,
    )
}

/// Three coinbase-only blocks branching off two below the tip: adding
/// them in order makes the third one trigger a depth-2 reorganization.
pub fn depth2_fork(chain: &Chain) -> Vec<Block> {
    let fork_height = chain.height() - 2;
    let mut prev = chain.block_at(fork_height).expect("main block").hash();
    (1..=3)
        .map(|i| {
            let height = fork_height + i;
            let block = Block::mine(
                prev,
                height,
                chain.params().difficulty_bits,
                vec![coinbase(chain, height, b"fork")],
            );
            prev = block.hash();
            block
        })
        .collect()
}

pub fn encode(block: &Block) -> Vec<u8> {
    let _s = span(LAYER, "codec_block_encode");
    encode_block(block)
}

pub fn decode(bytes: &[u8]) -> Option<Block> {
    let _s = span(LAYER, "codec_block_decode");
    decode_block(&mut Reader::new(bytes)).ok()
}
