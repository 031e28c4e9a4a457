//! The UTXO set with a record of what changed since the last flush.
//!
//! [`CoinsCache`] wraps the in-memory [`UtxoSet`], which always holds
//! every coin, and notes each outpoint a block connect or disconnect
//! touches. [`CoinsCache::flush_ops`] drains those notes into a
//! deterministic (outpoint-sorted) list: a `Put` for each touched coin
//! still in the set, a `Del` for each one gone. The store's coins index
//! is the only record of what the coins file holds, so the store writes
//! a `Del` only for an outpoint it holds — a coin created and spent
//! between two flushes (the common case for short-lived escrow outputs)
//! never reaches disk.
//!
//! A cache with no store under it ([`CoinsCache::memory_only`]) notes
//! nothing: nothing will ever flush, so block connect touches the set
//! alone.

use crate::hashed::HashedBlock;
use crate::idmap::{IdMap, IdSet};
use crate::tx::{OutPoint, Transaction, TxId};
use crate::utxo::{BlockDelta, UndoData, UtxoEntry, UtxoError, UtxoSet};

/// One operation a flush hands to the store, in outpoint order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushOp {
    /// Write (or overwrite) this entry in the coins table.
    Put(OutPoint, UtxoEntry),
    /// Delete this outpoint from the coins table, if the table holds it.
    Del(OutPoint),
}

/// The UTXO set and what changed in it since the last flush (see
/// module docs).
#[derive(Debug, Clone)]
pub struct CoinsCache {
    set: UtxoSet,
    /// Whether changes are noted at all.
    tracking: bool,
    /// Outpoints created or spent since the last flush.
    touched: IdSet<OutPoint>,
}

impl Default for CoinsCache {
    fn default() -> Self {
        CoinsCache::new()
    }
}

impl CoinsCache {
    /// An empty cache over an empty coins table: everything applied
    /// from here on is owed to the next flush.
    pub fn new() -> Self {
        CoinsCache::over(UtxoSet::new(), true)
    }

    /// An empty cache that will never be flushed and so notes nothing.
    /// [`CoinsCache::mark_all_fresh`] turns noting on when a store is
    /// attached after all.
    pub(crate) fn memory_only() -> Self {
        CoinsCache::over(UtxoSet::new(), false)
    }

    fn over(set: UtxoSet, tracking: bool) -> Self {
        CoinsCache {
            set,
            tracking,
            touched: IdSet::default(),
        }
    }

    /// A memory-only cache with this one's contents, shared rather than
    /// copied (see [`UtxoSet::fork`]).
    pub fn fork(&mut self) -> Self {
        CoinsCache::over(self.set.fork(), false)
    }

    /// A cache holding a loaded coins snapshot, every entry as on disk.
    pub(crate) fn from_snapshot(entries: IdMap<OutPoint, UtxoEntry>) -> Self {
        CoinsCache::over(UtxoSet::from_loaded(entries), true)
    }

    /// The UTXO set. Callers that only read (validation, wallets, coin
    /// selection) keep working against this view.
    pub fn set(&self) -> &UtxoSet {
        &self.set
    }

    /// Applies a block at `height` to the set, noting what it touched.
    ///
    /// # Errors
    ///
    /// As [`UtxoSet::apply_block`]; the cache (set and notes) is
    /// unchanged on error.
    pub fn apply_block(&mut self, block: &HashedBlock, height: u64) -> Result<UndoData, UtxoError> {
        let delta = BlockDelta::of(&self.set, &block.transactions, block.txids(), height)?;
        Ok(self.commit(delta))
    }

    /// Commits a block's overlay over [`CoinsCache::set`] (see
    /// [`UtxoSet::commit`]), noting what it touched.
    pub(crate) fn commit(&mut self, delta: BlockDelta) -> UndoData {
        if self.tracking {
            self.touched.extend(delta.touched());
        }
        self.set.commit(delta)
    }

    /// Disconnects a block from the set, noting what it touched.
    pub fn undo_block(&mut self, block: &HashedBlock, undo: &UndoData) {
        let (transactions, txids) = (&block.transactions, block.txids());
        self.set.undo_block_ids(transactions, txids, undo);
        if self.tracking {
            self.touch(transactions, txids);
        }
    }

    /// Notes every outpoint the block's transactions spend or create.
    fn touch(&mut self, transactions: &[Transaction], txids: &[TxId]) {
        for (tx, &txid) in transactions.iter().zip(txids) {
            if !tx.is_coinbase() {
                self.touched
                    .extend(tx.inputs.iter().map(|input| input.prevout));
            }
            self.touched
                .extend((0..tx.outputs.len() as u32).map(|vout| OutPoint { txid, vout }));
        }
    }

    /// Drains the notes into an outpoint-sorted list of flush
    /// operations: each touched outpoint is put if the set holds it and
    /// deleted if not.
    pub(crate) fn flush_ops(&mut self) -> Vec<FlushOp> {
        let mut keys: Vec<OutPoint> = self.touched.drain().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|op| match self.set.get(&op) {
                Some(entry) => FlushOp::Put(op, entry.clone()),
                None => FlushOp::Del(op),
            })
            .collect()
    }

    /// Notes every entry in the set, as after a reindex: the coins file
    /// is being rebuilt from scratch, so the next flush must write the
    /// full set into a new generation.
    pub(crate) fn mark_all_fresh(&mut self) {
        self.tracking = true;
        self.touched.clear();
        self.touched.extend(self.set.iter().map(|(op, _)| *op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHash};
    use crate::codec::{decode_outpoint, Reader};
    use crate::store::{coins_path, files, ChainStore, StoreConfig, KIND_DEL, KIND_PUT};
    use crate::tx::{TxIn, TxOut, SEQUENCE_FINAL};
    use crate::Transaction;
    use bcwan_script::Script;
    use std::path::PathBuf;

    fn coinbase(height: u64, value: u64) -> Transaction {
        Transaction::coinbase(
            height,
            b"c",
            vec![TxOut {
                value,
                script_pubkey: Script::new(),
            }],
        )
    }

    fn spend(prev: OutPoint, value: u64) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: prev,
                script_sig: Script::new(),
                sequence: SEQUENCE_FINAL,
            }],
            outputs: vec![TxOut {
                value,
                script_pubkey: Script::new(),
            }],
            lock_time: 0,
        }
    }

    /// A real store the cache flushes into, read back one flush at a time.
    struct Disk {
        dir: PathBuf,
        store: ChainStore,
        seen: usize,
    }

    impl Disk {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("bcwan-coins-{tag}-{}", std::process::id()));
            let store = ChainStore::create(&dir, StoreConfig::default()).unwrap();
            Disk {
                dir,
                store,
                seen: 0,
            }
        }

        /// Flushes `cache` and returns the (kind, outpoint) of each
        /// coins-log record the flush appended.
        fn flush(&mut self, cache: &mut CoinsCache) -> Vec<(u8, OutPoint)> {
            let ops = cache.flush_ops();
            self.store.flush_coins(&ops, BlockHash([0; 32]), 0).unwrap();
            let path = coins_path(&self.dir, self.store.coins_gen);
            let (records, _) = files::read_valid_prefix(&path).unwrap();
            let new = records[self.seen..]
                .iter()
                .map(|r| {
                    (
                        r.kind,
                        decode_outpoint(&mut Reader::new(&r.payload)).unwrap(),
                    )
                })
                .collect();
            self.seen = records.len();
            new
        }
    }

    impl Drop for Disk {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// `txs` as a block (no proof of work: the cache checks none).
    fn block(txs: &[Transaction]) -> HashedBlock {
        HashedBlock::new(Block::mine(BlockHash([0; 32]), 0, 0, txs.to_vec()))
    }

    fn coin(tx: &Transaction) -> OutPoint {
        OutPoint {
            txid: tx.txid(),
            vout: 0,
        }
    }

    #[test]
    fn fresh_spent_before_flush_never_reaches_disk() {
        let mut disk = Disk::new("fresh");
        let mut cache = CoinsCache::new();
        let cb = coinbase(1, 50);
        let op = coin(&cb);
        cache.apply_block(&block(&[cb]), 1).unwrap();
        assert_eq!(cache.touched.len(), 1);
        let txs = [coinbase(2, 50), spend(op, 50)];
        cache.apply_block(&block(&txs), 2).unwrap();
        // The spent-then-created chain flushes only the survivors: the
        // spender's output and block 2's coinbase — never `op`.
        let mut survivors: Vec<OutPoint> = txs.iter().map(coin).collect();
        survivors.sort_unstable();
        let written = disk.flush(&mut cache);
        assert_eq!(
            written,
            survivors.iter().map(|&o| (KIND_PUT, o)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_only_cache_tracks_nothing_until_a_store_is_attached() {
        let mut cache = CoinsCache::memory_only();
        let cb = coinbase(1, 50);
        let op = coin(&cb);
        let one = block(&[cb]);
        let undo = cache.apply_block(&one, 1).unwrap();
        cache.undo_block(&one, &undo);
        cache.apply_block(&one, 1).unwrap();
        assert!(cache.touched.is_empty());
        assert!(cache.flush_ops().is_empty());

        // `Chain::create_with_store`: the whole set is owed to the new
        // coins table, and later blocks are tracked.
        let mut disk = Disk::new("attach");
        cache.mark_all_fresh();
        assert_eq!(disk.flush(&mut cache), [(KIND_PUT, op)]);
        let txs = [coinbase(2, 50), spend(op, 50)];
        cache.apply_block(&block(&txs), 2).unwrap();
        assert!(disk.flush(&mut cache).contains(&(KIND_DEL, op)));
    }

    #[test]
    fn backed_spend_erases_and_undo_restores() {
        let mut disk = Disk::new("backed");
        let mut cache = CoinsCache::new();
        let cb = coinbase(1, 50);
        let op = coin(&cb);
        cache.apply_block(&block(&[cb]), 1).unwrap();
        assert_eq!(disk.flush(&mut cache), [(KIND_PUT, op)]);

        // Spend the flushed coin: the flush deletes it, once.
        let txs = [coinbase(2, 50), spend(op, 49)];
        let two = block(&txs);
        let undo = cache.apply_block(&two, 2).unwrap();
        let written = disk.flush(&mut cache);
        assert_eq!(written.iter().filter(|w| **w == (KIND_DEL, op)).count(), 1);

        // Undo the spend: the coin is put back, and block 2's outputs,
        // flushed a moment ago, are deleted.
        cache.undo_block(&two, &undo);
        let mut expect: Vec<(u8, OutPoint)> = txs.iter().map(|t| (KIND_DEL, coin(t))).collect();
        expect.push((KIND_PUT, op));
        expect.sort_unstable_by_key(|(_, o)| *o);
        assert_eq!(disk.flush(&mut cache), expect);

        // Spent and restored between two flushes: a redundant re-put of
        // the same value, never a delete.
        let undo = cache.apply_block(&two, 2).unwrap();
        cache.undo_block(&two, &undo);
        assert_eq!(disk.flush(&mut cache), [(KIND_PUT, op)]);
        assert!(cache.set().contains(&op));
    }
}
