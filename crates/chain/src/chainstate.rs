//! The block chain: storage, best-chain selection, and reorganization.

use crate::block::{Block, BlockHash};
use crate::hashed::HashedBlock;
use crate::idmap::{IdMap, IdSet};
use crate::params::ChainParams;
use crate::store::{ChainStore, CoinsCache, StoreConfig, StoreError, StoreStats};
use crate::tx::{Transaction, TxId, TxOut};
use crate::utxo::{UndoData, UtxoSet};
use crate::validate::{validate_hashed_block, BlockError, SigCache};
use crate::wallet::Address;
use bcwan_script::templates::p2pkh;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// What happened when a block was submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockAction {
    /// Extended the main chain; the new height.
    Extended(u64),
    /// Stored on a side chain (not best).
    SideChain,
    /// Triggered a reorganization.
    Reorganized {
        /// Blocks disconnected from the old main chain.
        disconnected: usize,
        /// Blocks connected from the new branch.
        connected: usize,
    },
    /// Already known.
    AlreadyKnown,
}

/// Why a block was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The parent block is unknown (caller should fetch it first).
    Orphan(BlockHash),
    /// The block body failed validation.
    Invalid(BlockError),
    /// A block on a would-be-best branch failed validation during reorg;
    /// the chain state was restored.
    BranchInvalid(BlockError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Orphan(h) => write!(f, "orphan block, parent {h} unknown"),
            ChainError::Invalid(e) => write!(f, "invalid block: {e}"),
            ChainError::BranchInvalid(e) => write!(f, "invalid branch block: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// One indexed block: the body with its digests, shared with the chains
/// of one [`Chain::fork`] family and every chain a [`HashedBlock`] was
/// handed to, and its height.
#[derive(Clone)]
struct StoredBlock {
    block: HashedBlock,
    height: u64,
}

/// The transactions moved by a reorganization, in connect order, so the
/// caller (a daemon) can repair its mempool: re-admit `disconnected_txs`
/// that the new branch did not confirm, and evict pool entries that
/// conflict with `connected_txs` — the discipline Bitcoin Core applies in
/// its `DisconnectedBlockTransactions` / `removeForReorg` path.
#[derive(Debug, Clone, Default)]
pub struct ReorgInfo {
    /// Non-coinbase transactions from disconnected blocks, oldest block
    /// first (valid resubmission order: parents before children).
    pub disconnected_txs: Vec<Transaction>,
    /// Non-coinbase transactions confirmed by the new branch, oldest
    /// block first.
    pub connected_txs: Vec<Transaction>,
}

bcwan_sim::counters! {
    /// Lifetime counters of chain activity (`chain.*` rows in bench
    /// reports).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChainStats {
        /// Blocks connected to the main chain (extensions + reorg
        /// connects; genesis not counted).
        pub blocks_connected: u64 => "chain.blocks_connected_total",
        /// Blocks disconnected during reorganizations.
        pub blocks_disconnected: u64 => "chain.blocks_disconnected_total",
        /// Completed reorganizations.
        pub reorgs: u64 => "chain.reorgs_total",
        /// Non-coinbase transactions connected to the main chain.
        pub txs_connected: u64 => "chain.txs_connected_total",
        /// UTXO entries created while connecting blocks.
        pub utxos_created: u64 => "chain.utxos_created_total",
        /// UTXO entries spent while connecting blocks.
        pub utxos_spent: u64 => "chain.utxos_spent_total",
    }
}

impl ChainStats {
    fn connect(&mut self, block: &Block) {
        self.blocks_connected += 1;
        for tx in &block.transactions {
            if !tx.is_coinbase() {
                self.txs_connected += 1;
                self.utxos_spent += tx.inputs.len() as u64;
            }
            self.utxos_created += tx.outputs.len() as u64;
        }
    }
}

/// What [`Chain::open_store`] recovered, beyond the chain itself.
pub struct OpenedChain {
    /// The reopened chain, tip and UTXO set restored from disk.
    pub chain: Chain,
    /// The coins table was missing/corrupt and was rebuilt by replaying
    /// the block file.
    pub reindexed: bool,
    /// Blocks re-applied (without script re-validation) to advance the
    /// coins snapshot to the committed tip.
    pub rolled_forward: u64,
    /// Blocks undone to walk a stale coins snapshot back to the fork.
    pub undone: u64,
}

bcwan_sim::counters! {
    /// Store activity: the `store.*` rows.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StoreSummary {
        /// The store's lifetime counters.
        pub store: StoreStats => labeled "store.*",
    }
}

/// The chain state: all known blocks, the best chain, and its UTXO set.
pub struct Chain {
    params: ChainParams,
    blocks: IdMap<BlockHash, StoredBlock>,
    /// Main-chain hashes indexed by height.
    main: Vec<BlockHash>,
    /// Undo data for connected main-chain blocks.
    undo: IdMap<BlockHash, Arc<UndoData>>,
    coins: CoinsCache,
    /// Persistent backing; `None` for a memory-only chain.
    store: Option<ChainStore>,
    stats: ChainStats,
    /// Transactions moved by the most recent reorg, until taken.
    last_reorg: Option<ReorgInfo>,
    /// Signature cache shared with mempools (see [`Mempool::with_cache`])
    /// so block connect skips scripts verified at admission.
    ///
    /// [`Mempool::with_cache`]: crate::mempool::Mempool::with_cache
    sig_cache: Arc<SigCache>,
}

impl fmt::Debug for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chain")
            .field("height", &self.height())
            .field("blocks", &self.blocks.len())
            .field("utxos", &self.coins.set().len())
            .finish()
    }
}

impl Chain {
    /// Creates a chain from a genesis block.
    ///
    /// Genesis is accepted as-is (exempt from PoW/coinbase-value rules, as
    /// in Bitcoin, where genesis is hard-coded).
    pub fn new(params: ChainParams, genesis: Block) -> Self {
        let genesis = HashedBlock::stored(genesis);
        let hash = genesis.hash();
        let mut coins = CoinsCache::memory_only();
        let undo_data = coins
            .apply_block(&genesis, 0)
            .expect("genesis applies to empty set");
        let genesis = StoredBlock {
            block: genesis,
            height: 0,
        };
        let mut blocks = IdMap::default();
        blocks.insert(hash, genesis);
        let mut undo = IdMap::default();
        undo.insert(hash, Arc::new(undo_data));
        Chain {
            params,
            blocks,
            main: vec![hash],
            undo,
            coins,
            store: None,
            stats: ChainStats::default(),
            last_reorg: None,
            sig_cache: Arc::new(SigCache::default()),
        }
    }

    /// Creates a chain from a genesis block with a fresh persistent
    /// store in `dir` (wiping any previous store there). Every connected
    /// block is appended to disk; [`Chain::open_store`] reopens it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory or initial records cannot be
    /// written.
    pub fn create_with_store(
        params: ChainParams,
        genesis: Block,
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> Result<Self, StoreError> {
        let mut chain = Chain::new(params, genesis);
        let mut store = ChainStore::create(dir.as_ref(), cfg)?;
        let tip = chain.tip();
        let genesis_block = &chain.blocks.get(&tip).expect("genesis stored").block;
        store.append_block(genesis_block)?;
        store.append_undo(tip, chain.undo.get(&tip).expect("genesis undo"))?;
        store.commit(tip, 0)?;
        chain.store = Some(store);
        // The memory-only genesis apply tracked nothing; from here on
        // the cache answers to a (still empty) coins table.
        chain.coins.mark_all_fresh();
        chain.flush();
        Ok(chain)
    }

    /// Reopens a chain from a persistent store, recovering the last
    /// durable commit. The UTXO set is restored from the coins snapshot
    /// and advanced to the committed tip by re-applying block bodies —
    /// **without** re-running script validation (those blocks were
    /// validated when first connected). If the snapshot sits on a
    /// branch that was reorged away, the on-disk undo records walk it
    /// back to the fork first. A missing or corrupt coins table falls
    /// back to a full reindex from the block file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Empty`] when no commit survives (caller should
    /// rebuild from genesis), [`StoreError::Corrupt`] when committed
    /// data is unusable, [`StoreError::Io`] on filesystem failure.
    pub fn open_store(
        params: ChainParams,
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> Result<OpenedChain, StoreError> {
        let (mut store, loaded) = ChainStore::open(dir.as_ref(), cfg)?;

        // Rebuild the block index; parents precede children on disk.
        let mut blocks: IdMap<BlockHash, StoredBlock> = IdMap::default();
        for block in loaded.blocks {
            let block = HashedBlock::stored(block);
            let hash = block.hash();
            let height = if block.header.prev_hash == BlockHash::GENESIS_PREV {
                0
            } else {
                blocks
                    .get(&block.header.prev_hash)
                    .ok_or_else(|| {
                        StoreError::Corrupt(format!("block {hash} precedes its parent"))
                    })?
                    .height
                    + 1
            };
            blocks.insert(hash, StoredBlock { block, height });
        }

        // Main chain: walk back from the committed tip.
        let mut main = Vec::new();
        let mut cursor = loaded.tip;
        loop {
            let stored = blocks
                .get(&cursor)
                .ok_or_else(|| StoreError::Corrupt(format!("main ancestor {cursor} missing")))?;
            main.push(cursor);
            if stored.height == 0 {
                break;
            }
            cursor = stored.block.header.prev_hash;
        }
        main.reverse();
        if main.len() as u64 != loaded.height + 1 {
            return Err(StoreError::Corrupt(format!(
                "committed height {} but main chain has {} blocks",
                loaded.height,
                main.len()
            )));
        }

        // Restore the UTXO set from the coins snapshot, repairing its
        // position relative to the committed main chain.
        let mut rolled_forward = 0u64;
        let mut undone = 0u64;
        let restored = loaded.coins.and_then(|(ctip, cheight, entries)| {
            let mut cache = CoinsCache::from_snapshot(entries);
            let mut h = cheight;
            if main.get(h as usize) != Some(&ctip) {
                // Snapshot taken on a branch since reorged away: undo
                // back to the fork using the persisted undo records.
                let mut cur = ctip;
                while main.get(h as usize) != Some(&cur) {
                    let stored = blocks.get(&cur)?;
                    let u = loaded.undo.get(&cur)?;
                    cache.undo_block(&stored.block, u);
                    undone += 1;
                    cur = stored.block.header.prev_hash;
                    h = h.checked_sub(1)?;
                }
            }
            // Roll forward to the committed tip, no script validation.
            for hash in &main[(h + 1) as usize..] {
                let stored = blocks.get(hash).expect("main block indexed");
                cache.apply_block(&stored.block, stored.height).ok()?;
                rolled_forward += 1;
            }
            Some(cache)
        });

        let (coins, reindexed) = match restored {
            Some(cache) => (cache, false),
            None => {
                // Reindex: replay every main-chain block onto an empty
                // cache and restart the coins log.
                store.reset_coins()?;
                let mut cache = CoinsCache::new();
                for hash in &main {
                    let stored = blocks.get(hash).expect("main block indexed");
                    cache
                        .apply_block(&stored.block, stored.height)
                        .map_err(|e| {
                            StoreError::Corrupt(format!("reindex failed at {hash}: {e}"))
                        })?;
                }
                rolled_forward = 0;
                undone = 0;
                (cache, true)
            }
        };

        // Undo data the chain keeps resident: main-chain blocks only
        // (stale-branch records stay on disk, already consumed above).
        let main_set: IdSet<BlockHash> = main.iter().copied().collect();
        let undo = loaded
            .undo
            .into_iter()
            .filter(|(h, _)| main_set.contains(h))
            .map(|(h, u)| (h, Arc::new(u)))
            .collect();

        let mut chain = Chain {
            params,
            blocks,
            main,
            undo,
            coins,
            store: Some(store),
            stats: ChainStats::default(),
            last_reorg: None,
            sig_cache: Arc::new(SigCache::default()),
        };
        if reindexed {
            // The rebuilt set is entirely fresh; write the new coins
            // generation out now so the next crash reopens warm.
            chain.coins.mark_all_fresh();
            chain.flush();
        }
        Ok(OpenedChain {
            chain,
            reindexed,
            rolled_forward,
            undone,
        })
    }

    /// A second chain in this one's exact state — same blocks, tip, UTXO
    /// set and counters as a replay of the main chain would reach — for
    /// the price of one reference count per block: bodies, transaction
    /// ids and undo data are shared, the UTXO entries move into a frozen
    /// base both chains read through ([`UtxoSet::fork`]), and nothing is
    /// validated again. What either chain connects, disconnects (even
    /// below the fork point) or reorganizes afterwards is its own. The
    /// duplicate starts with a private signature cache and no pending
    /// reorg info.
    ///
    /// # Panics
    ///
    /// If a store is attached: two chains cannot write one directory.
    /// Replay the blocks into [`Chain::create_with_store`] instead.
    pub fn fork(&mut self) -> Chain {
        assert!(self.store.is_none(), "only a memory-only chain forks");
        Chain {
            params: self.params.clone(),
            blocks: self.blocks.clone(),
            main: self.main.clone(),
            undo: self.undo.clone(),
            coins: self.coins.fork(),
            store: None,
            stats: self.stats,
            last_reorg: None,
            sig_cache: Arc::new(SigCache::default()),
        }
    }

    /// This chain's main chain replayed into a fresh persistent store at
    /// `dir` (wiping any previous store there): the stored counterpart of
    /// [`Chain::fork`], for a host that must reopen its own directory
    /// after a crash. Every block is connected and written again.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the store cannot be created.
    ///
    /// # Panics
    ///
    /// If a block of the main chain fails to connect again.
    pub fn replay_into_store(
        &self,
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> Result<Chain, StoreError> {
        let mut blocks = self.iter_main().cloned();
        let genesis = blocks.next().expect("a chain has a genesis");
        let mut chain = Chain::create_with_store(self.params.clone(), genesis, dir, cfg)?;
        for block in blocks {
            chain
                .add_block(block)
                .expect("main-chain blocks connect again");
        }
        Ok(chain)
    }

    /// Whether this chain has a persistent store attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Flushes the coins changed since the last flush to the store and
    /// marks the snapshot at the current tip. No-op for memory-only
    /// chains.
    pub fn flush(&mut self) {
        let tip = self.tip();
        let height = self.height();
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let ops = self.coins.flush_ops();
        store
            .flush_coins(&ops, tip, height)
            .expect("chain store: coins flush failed");
    }

    /// Store activity counters, if a store is attached.
    pub fn store_summary(&self) -> Option<StoreSummary> {
        let store = self.store.as_ref()?;
        Some(StoreSummary {
            store: *store.stats(),
        })
    }

    /// Takes the transactions moved by the most recent reorganization.
    /// Returns `None` when no reorg happened since the last call — each
    /// reorg's info is handed out exactly once.
    pub fn take_last_reorg(&mut self) -> Option<ReorgInfo> {
        self.last_reorg.take()
    }

    /// The chain's signature cache. Hand a clone to [`Mempool::with_cache`]
    /// so admission-time verifications carry over to block connect.
    ///
    /// [`Mempool::with_cache`]: crate::mempool::Mempool::with_cache
    pub fn sig_cache(&self) -> &Arc<SigCache> {
        &self.sig_cache
    }

    /// Replaces the chain's private signature cache with `cache`, so
    /// several chains (and their mempools) consult one memo of verified
    /// spends. Sound for any set of chains the caller trusts equally:
    /// entries are content-keyed successes only, and every context check
    /// still runs against this chain's own UTXO view. The simulator
    /// shares one cache across its hosts; live nodes keep the default.
    pub fn with_sig_cache(mut self, cache: Arc<SigCache>) -> Self {
        self.sig_cache = cache;
        self
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// Builds a standard genesis block carrying one coinbase that
    /// allocates initial funds — the paper's AWS master "bootstraps the
    /// nodes"; these outputs are the bootstrap allocations.
    pub fn make_genesis(params: &ChainParams, allocations: &[(Address, u64)]) -> Block {
        let outputs: Vec<TxOut> = allocations
            .iter()
            .map(|(addr, value)| TxOut {
                value: *value,
                script_pubkey: p2pkh(&addr.0),
            })
            .collect();
        let coinbase = Transaction::coinbase(0, b"bcwan-genesis", outputs);
        Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            params.difficulty_bits,
            vec![coinbase],
        )
    }

    /// The consensus parameters.
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// Current best height (genesis = 0).
    pub fn height(&self) -> u64 {
        (self.main.len() - 1) as u64
    }

    /// Hash of the best block.
    pub fn tip(&self) -> BlockHash {
        *self.main.last().expect("chain never empty")
    }

    /// The UTXO set of the best chain, all of it in memory with or
    /// without a store.
    pub fn utxo(&self) -> &UtxoSet {
        self.coins.set()
    }

    /// Fetches a block by hash.
    pub fn block(&self, hash: &BlockHash) -> Option<&Block> {
        self.shared_block(hash).map(Arc::as_ref)
    }

    /// [`Chain::block`] as the shared handle the index itself holds:
    /// cloning it keeps the body without copying it.
    pub fn shared_block(&self, hash: &BlockHash) -> Option<&Arc<Block>> {
        self.blocks.get(hash).map(|s| s.block.shared())
    }

    /// A stored block's transaction ids, in block order (hashed once
    /// per stored block, then kept).
    pub fn block_txids(&self, hash: &BlockHash) -> Option<&[TxId]> {
        self.blocks.get(hash).map(|s| &**s.block.txids())
    }

    /// Height of a block if it is on the main chain.
    pub(crate) fn main_chain_height(&self, hash: &BlockHash) -> Option<u64> {
        let stored = self.blocks.get(hash)?;
        (self.main.get(stored.height as usize) == Some(hash)).then_some(stored.height)
    }

    /// Number of confirmations of a main-chain block (tip = 1).
    pub fn confirmations(&self, hash: &BlockHash) -> Option<u64> {
        self.main_chain_height(hash).map(|h| self.height() - h + 1)
    }

    /// The main-chain block at `height`.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        let hash = self.main.get(height as usize)?;
        self.block(hash)
    }

    /// Iterates main-chain blocks from genesis to tip.
    pub fn iter_main(&self) -> impl Iterator<Item = &Block> {
        self.main.iter().map(move |h| {
            self.blocks
                .get(h)
                .expect("main blocks stored")
                .block
                .block()
        })
    }

    /// Whether a transaction is confirmed on the main chain, and at which
    /// height. Linear scan — fine at simulation scale.
    pub fn find_transaction(&self, txid: &crate::tx::TxId) -> Option<(u64, &Transaction)> {
        for (height, hash) in self.main.iter().enumerate() {
            let stored = self.blocks.get(hash).expect("stored");
            if let Some(i) = stored.block.txids().iter().position(|id| id == txid) {
                return Some((height as u64, &stored.block.transactions[i]));
            }
        }
        None
    }

    /// Submits a block. A bare [`Block`] is hashed here; a
    /// [`HashedBlock`] brings its digests along and is indexed without a
    /// copy.
    ///
    /// # Errors
    ///
    /// [`ChainError::Orphan`] when the parent is unknown,
    /// [`ChainError::Invalid`] when the block fails validation on the main
    /// tip, [`ChainError::BranchInvalid`] when a reorg target is bad.
    pub fn add_block(&mut self, block: impl Into<HashedBlock>) -> Result<BlockAction, ChainError> {
        let block = block.into();
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Ok(BlockAction::AlreadyKnown);
        }
        let parent_hash = block.header.prev_hash;
        let Some(parent) = self.blocks.get(&parent_hash) else {
            return Err(ChainError::Orphan(parent_hash));
        };
        let height = parent.height + 1;
        let stored = StoredBlock { block, height };

        if parent_hash == self.tip() {
            // Fast path: extending the best chain.
            let undo = self.connect(&stored).map_err(ChainError::Invalid)?;
            self.undo.insert(hash, Arc::new(undo));
            self.main.push(hash);
            self.blocks.insert(hash, stored);
            self.persist_connected(&[hash]);
            return Ok(BlockAction::Extended(height));
        }

        // Side-chain block: store, then check whether its branch is now
        // strictly longer than the main chain (same per-block work, so
        // longest = most work).
        self.blocks.insert(hash, stored);
        if height <= self.height() {
            return Ok(BlockAction::SideChain);
        }
        self.reorganize_to(hash)
    }

    /// Reorganizes the main chain to end at `new_tip` (must be stored and
    /// strictly higher than the current tip).
    fn reorganize_to(&mut self, new_tip: BlockHash) -> Result<BlockAction, ChainError> {
        // Collect the new branch back to the fork point.
        let mut branch = Vec::new(); // new blocks, tip-first
        let mut cursor = new_tip;
        let fork_height = loop {
            let stored = self.blocks.get(&cursor).expect("branch stored");
            if self.main_chain_height(&cursor).is_some() {
                break stored.height;
            }
            branch.push(cursor);
            cursor = stored.block.header.prev_hash;
            if cursor == BlockHash::GENESIS_PREV {
                break 0; // branch from before genesis cannot happen; safety
            }
        };
        branch.reverse();

        // Disconnect main-chain blocks above the fork point.
        let mut disconnected: Vec<BlockHash> = Vec::new();
        while self.height() > fork_height {
            let hash = self.main.pop().expect("non-empty");
            let stored = self.blocks.get(&hash).expect("stored");
            let undo = self.undo.remove(&hash).expect("undo kept for main blocks");
            self.coins.undo_block(&stored.block, &undo);
            self.stats.blocks_disconnected += 1;
            disconnected.push(hash);
        }

        // Connect the new branch, validating each block.
        let mut connected = 0usize;
        for hash in &branch {
            // Taken out of the index while it connects, so the block is
            // borrowed, not cloned, next to `&mut self`.
            let stored = self.blocks.remove(hash).expect("stored");
            let validated = self.connect(&stored);
            self.blocks.insert(*hash, stored);
            match validated {
                Ok(undo) => {
                    self.undo.insert(*hash, Arc::new(undo));
                    self.main.push(*hash);
                    connected += 1;
                }
                Err(e) => {
                    // Roll back the partial branch and restore the old chain.
                    for _ in 0..connected {
                        let h = self.main.pop().expect("non-empty");
                        let stored = self.blocks.get(&h).expect("stored");
                        let undo = self.undo.remove(&h).expect("undo");
                        self.coins.undo_block(&stored.block, &undo);
                    }
                    for hash in disconnected.iter().rev() {
                        let stored = self.blocks.get(hash).expect("stored");
                        let undo = self
                            .coins
                            .apply_block(&stored.block, stored.height)
                            .expect("previously valid block re-applies");
                        self.undo.insert(*hash, Arc::new(undo));
                        self.main.push(*hash);
                    }
                    // Drop the bad block so it cannot be retried forever.
                    self.blocks.remove(&new_tip);
                    return Err(ChainError::BranchInvalid(e));
                }
            }
        }
        self.stats.reorgs += 1;
        self.persist_connected(&branch);
        let non_coinbase = |hashes: &[BlockHash]| -> Vec<Transaction> {
            hashes
                .iter()
                .flat_map(|h| &self.blocks.get(h).expect("stored").block.transactions)
                .filter(|tx| !tx.is_coinbase())
                .cloned()
                .collect()
        };
        let disconnected_oldest_first: Vec<BlockHash> =
            disconnected.iter().rev().copied().collect();
        let disconnected_txs = non_coinbase(&disconnected_oldest_first);
        let connected_txs = non_coinbase(&branch);
        self.last_reorg = Some(ReorgInfo {
            disconnected_txs,
            connected_txs,
        });
        Ok(BlockAction::Reorganized {
            disconnected: disconnected.len(),
            connected,
        })
    }

    /// Persists freshly connected main-chain blocks: block and undo
    /// records first, then the manifest commit that makes them durable.
    /// Runs only after the in-memory connect succeeded, so disk never
    /// gets ahead of a state we could not reach. Store I/O failure is
    /// fatal — a gateway that cannot write its chain must not pretend
    /// it did.
    fn persist_connected(&mut self, hashes: &[BlockHash]) {
        if self.store.is_none() {
            return;
        }
        let tip = self.tip();
        let height = self.height();
        {
            let store = self.store.as_mut().expect("checked above");
            for hash in hashes {
                let stored = self.blocks.get(hash).expect("connected block stored");
                store
                    .append_block(&stored.block)
                    .expect("chain store: block append failed");
                let undo = self.undo.get(hash).expect("undo kept for main blocks");
                store
                    .append_undo(*hash, undo)
                    .expect("chain store: undo append failed");
            }
            store
                .commit(tip, height)
                .expect("chain store: commit failed");
        }
        if self.store.as_ref().expect("checked above").flush_due() {
            self.flush();
        }
    }

    /// Validates `stored` against the current UTXO view at its height
    /// and, if it passes, commits the overlay validation built: the one
    /// body of block connect, shared by the extend path and every step of
    /// a reorganization. Returns the block's undo data; the caller records
    /// it and pushes the block onto the main chain.
    fn connect(&mut self, stored: &StoredBlock) -> Result<UndoData, BlockError> {
        let delta = validate_hashed_block(
            &stored.block,
            self.coins.set(),
            stored.height,
            &self.params,
            &self.sig_cache,
        )?;
        self.stats.connect(&stored.block);
        Ok(self.coins.commit(delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallet::Wallet;
    use bcwan_script::Script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Chain, Wallet) {
        let mut rng = StdRng::seed_from_u64(11);
        let params = ChainParams::fast_test();
        let wallet = Wallet::generate(&mut rng);
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 10_000)]);
        (Chain::new(params, genesis), wallet)
    }

    fn empty_block(chain: &Chain, parent: BlockHash, height: u64, tag: &[u8]) -> Block {
        let cb = Transaction::coinbase(
            height,
            tag,
            vec![TxOut {
                value: chain.params().coinbase_reward,
                script_pubkey: Script::new(),
            }],
        );
        Block::mine(
            parent,
            height * 1_000_000,
            chain.params().difficulty_bits,
            vec![cb],
        )
    }

    #[test]
    fn genesis_initializes_chain() {
        let (chain, wallet) = setup();
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.utxo().total_value(), 10_000);
        // The allocation is spendable by the wallet's script.
        let found = chain
            .utxo()
            .find(|e| e.output.script_pubkey == wallet.locking_script())
            .count();
        assert_eq!(found, 1);
    }

    #[test]
    fn extend_main_chain() {
        let (mut chain, _) = setup();
        let b1 = empty_block(&chain, chain.tip(), 1, b"a");
        assert_eq!(chain.add_block(b1.clone()), Ok(BlockAction::Extended(1)));
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.tip(), b1.hash());
        assert_eq!(chain.confirmations(&b1.hash()), Some(1));
        assert_eq!(chain.add_block(b1), Ok(BlockAction::AlreadyKnown));
    }

    #[test]
    fn orphan_rejected() {
        let (mut chain, _) = setup();
        let orphan = empty_block(&chain, BlockHash([0xee; 32]), 5, b"o");
        assert!(matches!(
            chain.add_block(orphan),
            Err(ChainError::Orphan(_))
        ));
    }

    #[test]
    fn side_chain_stored_without_switch() {
        let (mut chain, _) = setup();
        let genesis_hash = chain.tip();
        let b1 = empty_block(&chain, genesis_hash, 1, b"main");
        chain.add_block(b1.clone()).unwrap();
        // Competing block at the same height.
        let b1_alt = empty_block(&chain, genesis_hash, 1, b"alt");
        assert_eq!(chain.add_block(b1_alt.clone()), Ok(BlockAction::SideChain));
        assert_eq!(chain.tip(), b1.hash());
        assert_eq!(chain.confirmations(&b1_alt.hash()), None);
    }

    #[test]
    fn longer_side_chain_triggers_reorg() {
        let (mut chain, _) = setup();
        let genesis_hash = chain.tip();
        let b1 = empty_block(&chain, genesis_hash, 1, b"main");
        chain.add_block(b1.clone()).unwrap();

        let a1 = empty_block(&chain, genesis_hash, 1, b"alt1");
        chain.add_block(a1.clone()).unwrap();
        let a2 = empty_block(&chain, a1.hash(), 2, b"alt2");
        let action = chain.add_block(a2.clone()).unwrap();
        assert_eq!(
            action,
            BlockAction::Reorganized {
                disconnected: 1,
                connected: 2
            }
        );
        assert_eq!(chain.tip(), a2.hash());
        assert_eq!(chain.height(), 2);
        // The old main block lost its confirmations.
        assert_eq!(chain.confirmations(&b1.hash()), None);
        assert_eq!(chain.confirmations(&a1.hash()), Some(2));
    }

    #[test]
    fn reorg_updates_utxo_set() {
        let (mut chain, wallet) = setup();
        let genesis_hash = chain.tip();
        let genesis_coin = {
            let cb = &chain.block_at(0).unwrap().transactions[0];
            crate::tx::OutPoint {
                txid: cb.txid(),
                vout: 0,
            }
        };
        // Build main blocks until the genesis coin matures, then spend it.
        let mut parent = genesis_hash;
        for h in 1..=chain.params().coinbase_maturity {
            let b = empty_block(&chain, parent, h, b"m");
            parent = b.hash();
            chain.add_block(b).unwrap();
        }
        let spend_height = chain.height() + 1;
        let spend = wallet.build_payment(
            vec![(genesis_coin, wallet.locking_script())],
            vec![TxOut {
                value: 9_000,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let cb = Transaction::coinbase(
            spend_height,
            b"sp",
            vec![TxOut {
                value: chain.params().coinbase_reward + 1_000,
                script_pubkey: Script::new(),
            }],
        );
        let spend_block = Block::mine(
            parent,
            spend_height * 1_000_000,
            chain.params().difficulty_bits,
            vec![cb, spend],
        );
        chain.add_block(spend_block.clone()).unwrap();
        assert!(!chain.utxo().contains(&genesis_coin), "coin spent on main");

        // Build a longer empty branch from `parent` — the spend unconfirms.
        let mut alt_parent = parent;
        for i in 0..2 {
            let b = empty_block(&chain, alt_parent, spend_height + i, b"alt");
            alt_parent = b.hash();
            chain.add_block(b).unwrap();
        }
        assert!(
            chain.utxo().contains(&genesis_coin),
            "reorg must restore the spent coin"
        );
        assert!(chain
            .find_transaction(&spend_block.transactions[1].txid())
            .is_none());
    }

    #[test]
    fn invalid_block_rejected_and_state_intact() {
        let (mut chain, _) = setup();
        let bad_cb = Transaction::coinbase(
            1,
            b"greedy",
            vec![TxOut {
                value: chain.params().coinbase_reward * 10,
                script_pubkey: Script::new(),
            }],
        );
        let bad = Block::mine(chain.tip(), 1, chain.params().difficulty_bits, vec![bad_cb]);
        assert!(matches!(
            chain.add_block(bad),
            Err(ChainError::Invalid(BlockError::ExcessiveCoinbase { .. }))
        ));
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.utxo().total_value(), 10_000);
    }

    /// A well-formed block whose coinbase is byte-identical to an earlier,
    /// still-unspent one (nothing forces the height into the coinbase).
    fn replay_coinbase_block(chain: &Chain, parent: BlockHash, earlier: &Block) -> Block {
        Block::mine(
            parent,
            7_000_000,
            chain.params().difficulty_bits,
            vec![earlier.transactions[0].clone()],
        )
    }

    fn duplicate_output_at_coinbase(e: &BlockError) -> bool {
        matches!(
            e,
            BlockError::BadTransaction {
                index: 0,
                error: crate::validate::TxError::DuplicateOutput(_),
            }
        )
    }

    #[test]
    fn replayed_coinbase_is_refused_when_extending() {
        // Regression: validation skipped the coinbase, so this block
        // passed and `add_block` then panicked applying it on a
        // `DuplicateOutput`.
        let (mut chain, _) = setup();
        let b1 = empty_block(&chain, chain.tip(), 1, b"a");
        chain.add_block(b1.clone()).unwrap();
        let value_before = chain.utxo().total_value();

        let replay = replay_coinbase_block(&chain, chain.tip(), &b1);
        match chain.add_block(replay) {
            Err(ChainError::Invalid(e)) => assert!(duplicate_output_at_coinbase(&e), "{e}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.utxo().total_value(), value_before);
        // The chain is intact: an honest block still extends it.
        let b2 = empty_block(&chain, chain.tip(), 2, b"b");
        assert_eq!(chain.add_block(b2), Ok(BlockAction::Extended(2)));
    }

    #[test]
    fn replayed_coinbase_is_refused_on_a_reorg_branch() {
        // Same block shape, reached through `reorganize_to`: the side
        // branch's first block replays the coinbase of a main-chain
        // block below the fork point.
        let (mut chain, _) = setup();
        let a1 = empty_block(&chain, chain.tip(), 1, b"a1");
        chain.add_block(a1.clone()).unwrap();
        let a2 = empty_block(&chain, a1.hash(), 2, b"a2");
        chain.add_block(a2.clone()).unwrap();
        let value_before = chain.utxo().total_value();

        let b2 = replay_coinbase_block(&chain, a1.hash(), &a1);
        assert_eq!(chain.add_block(b2.clone()), Ok(BlockAction::SideChain));
        let b3 = empty_block(&chain, b2.hash(), 3, b"b3");
        match chain.add_block(b3) {
            Err(ChainError::BranchInvalid(e)) => {
                assert!(duplicate_output_at_coinbase(&e), "{e}")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        // The old main chain is back, block for block and coin for coin.
        assert_eq!(chain.tip(), a2.hash());
        assert_eq!(chain.height(), 2);
        assert_eq!(chain.utxo().total_value(), value_before);
        assert_eq!(chain.stats().reorgs, 0);
    }

    #[test]
    fn find_transaction_reports_height() {
        let (mut chain, _) = setup();
        let b1 = empty_block(&chain, chain.tip(), 1, b"x");
        let cb_txid = b1.transactions[0].txid();
        chain.add_block(b1).unwrap();
        let (height, tx) = chain.find_transaction(&cb_txid).unwrap();
        assert_eq!(height, 1);
        assert!(tx.is_coinbase());
        assert!(chain.find_transaction(&crate::tx::TxId([1; 32])).is_none());
    }

    #[test]
    fn stats_track_connects_and_reorgs() {
        let (mut chain, _) = setup();
        assert_eq!(chain.stats(), ChainStats::default());
        let genesis_hash = chain.tip();
        let b1 = empty_block(&chain, genesis_hash, 1, b"main");
        chain.add_block(b1).unwrap();
        let s = chain.stats();
        assert_eq!(s.blocks_connected, 1);
        assert_eq!(s.utxos_created, 1); // the coinbase output
        assert_eq!(s.txs_connected, 0); // coinbase doesn't count

        // Two-block side branch forces a reorg: 1 disconnect, 2 connects.
        let a1 = empty_block(&chain, genesis_hash, 1, b"alt1");
        chain.add_block(a1.clone()).unwrap();
        let a2 = empty_block(&chain, a1.hash(), 2, b"alt2");
        chain.add_block(a2).unwrap();
        let s = chain.stats();
        assert_eq!(s.reorgs, 1);
        assert_eq!(s.blocks_disconnected, 1);
        assert_eq!(s.blocks_connected, 3);
    }

    #[test]
    fn iter_main_yields_in_order() {
        let (mut chain, _) = setup();
        let b1 = empty_block(&chain, chain.tip(), 1, b"1");
        chain.add_block(b1.clone()).unwrap();
        let b2 = empty_block(&chain, chain.tip(), 2, b"2");
        chain.add_block(b2.clone()).unwrap();
        let hashes: Vec<_> = chain.iter_main().map(|b| b.hash()).collect();
        assert_eq!(hashes.len(), 3);
        assert_eq!(hashes[1], b1.hash());
        assert_eq!(hashes[2], b2.hash());
    }
}
