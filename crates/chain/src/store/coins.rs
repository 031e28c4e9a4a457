//! Write-back UTXO cache layered over the on-disk coins table.
//!
//! [`CoinsCache`] wraps the in-memory [`UtxoSet`] and tracks, per
//! outpoint, how the cached view diverges from the flat coins file
//! underneath (the *backing*):
//!
//! - **Fresh** — created since the last flush and never flushed; if it
//!   is spent again before the next flush the entry vanishes without
//!   ever touching disk (the common case for short-lived escrow
//!   outputs).
//! - **Write** — present in the backing but the cached value differs
//!   (created over an erased slot, or restored by a reorg undo).
//! - **Erase** — present in the backing but spent in the cache; the
//!   flush must delete it.
//!
//! [`CoinsCache::flush_ops`] drains the dirty map into a deterministic
//! (outpoint-sorted) list of put/delete operations for the store to
//! append, and re-labels everything clean. Clean entries can be
//! evicted with [`CoinsCache::trim_clean`] and read back through
//! [`CoinsCache::insert_clean`] on a miss — the `backed` key set
//! remembers what the coins file holds so a miss is distinguishable
//! from a genuinely absent output.
//!
//! A cache with no store under it ([`CoinsCache::memory_only`]) keeps
//! none of this: nothing will ever flush, so `dirty` and `backed` stay
//! empty and block connect touches the set alone.

use crate::tx::{OutPoint, Transaction, TxId};
use crate::utxo::{UndoData, UtxoEntry, UtxoError, UtxoSet};
use std::collections::{HashMap, HashSet};

/// How a cached entry diverges from the on-disk backing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirty {
    /// Created since the last flush; the backing has never seen it.
    Fresh,
    /// In the backing, but the cached value supersedes it.
    Write,
    /// In the backing, but spent in the cache; flush must delete it.
    Erase,
}

/// One operation a flush hands to the store, in outpoint order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushOp {
    /// Write (or overwrite) this entry in the coins table.
    Put(OutPoint, UtxoEntry),
    /// Delete this outpoint from the coins table.
    Del(OutPoint),
}

/// Write-back cache over the UTXO set (see module docs).
#[derive(Debug, Clone)]
pub struct CoinsCache {
    set: UtxoSet,
    /// Whether divergence from a backing is tracked at all.
    tracking: bool,
    dirty: HashMap<OutPoint, Dirty>,
    backed: HashSet<OutPoint>,
    hits: u64,
    misses: u64,
}

impl Default for CoinsCache {
    fn default() -> Self {
        CoinsCache::new()
    }
}

/// Result of probing the cache for an outpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Resident in the cache (counted as a hit).
    InCache,
    /// Not resident, but the coins file holds it (counted as a miss —
    /// the caller should read it back and `CoinsCache::insert_clean`).
    OnDisk,
    /// Unknown to both cache and backing.
    Absent,
}

impl CoinsCache {
    /// An empty cache over an empty backing: everything applied from
    /// here on is dirty until flushed.
    pub fn new() -> Self {
        CoinsCache::over(UtxoSet::new(), true)
    }

    /// An empty cache that will never be flushed and so tracks nothing.
    /// [`CoinsCache::mark_all_fresh`] turns tracking on when a store is
    /// attached after all.
    pub(crate) fn memory_only() -> Self {
        CoinsCache::over(UtxoSet::new(), false)
    }

    fn over(set: UtxoSet, tracking: bool) -> Self {
        CoinsCache {
            set,
            tracking,
            dirty: HashMap::new(),
            backed: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// A memory-only cache with this one's contents, shared rather than
    /// copied (see [`UtxoSet::fork`]). Only a cache nothing was flushed
    /// from is sure to have its whole set resident to share.
    pub fn fork(&mut self) -> Self {
        debug_assert!(self.backed.is_empty(), "a backed cache may be trimmed");
        CoinsCache::over(self.set.fork(), false)
    }

    /// A cache warmed from a loaded coins snapshot: every entry is
    /// resident, clean, and known to be in the backing.
    pub(crate) fn from_backed(entries: HashMap<OutPoint, UtxoEntry>) -> Self {
        let mut cache = CoinsCache::new();
        cache.backed.reserve(entries.len());
        for (op, entry) in entries {
            cache.backed.insert(op);
            cache.set.insert_loaded(op, entry);
        }
        cache
    }

    /// The resident UTXO set. Callers that only read (validation,
    /// wallets, coin selection) keep working against this view.
    pub fn set(&self) -> &UtxoSet {
        &self.set
    }

    /// Cache hits counted by [`CoinsCache::probe`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses counted by [`CoinsCache::probe`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Where an outpoint lives, bumping the hit/miss counters.
    pub fn probe(&mut self, op: &OutPoint) -> Probe {
        if self.set.contains(op) {
            self.hits += 1;
            Probe::InCache
        } else if self.trimmed(op) {
            self.misses += 1;
            Probe::OnDisk
        } else {
            Probe::Absent
        }
    }

    /// Whether `op` is unspent but only the coins file holds it (evicted
    /// by `CoinsCache::trim_clean`). Uncounted: block connect asks
    /// this about the outputs a block would *create*, which are expected
    /// to be absent, so they are no cache traffic.
    pub fn trimmed(&self, op: &OutPoint) -> bool {
        !self.set.contains(op)
            && self.backed.contains(op)
            && self.dirty.get(op) != Some(&Dirty::Erase)
    }

    /// Re-inserts an entry read back from the coins file after a
    /// [`Probe::OnDisk`] miss. The entry is clean (it matches disk).
    pub(crate) fn insert_clean(&mut self, op: OutPoint, entry: UtxoEntry) {
        debug_assert!(self.backed.contains(&op), "insert_clean without backing");
        self.set.insert_loaded(op, entry);
    }

    /// Applies a block through the cache, maintaining dirty flags.
    /// `txids[i]` is `transactions[i].txid()` — the chain computes the
    /// ids once per block and every layer below reuses them.
    ///
    /// # Errors
    ///
    /// As [`UtxoSet::apply_block`]; the cache (set and flags) is
    /// unchanged on error.
    pub fn apply_block(
        &mut self,
        transactions: &[Transaction],
        txids: &[TxId],
        height: u64,
    ) -> Result<UndoData, UtxoError> {
        let undo = self.set.apply_block_ids(transactions, txids, height)?;
        if !self.tracking {
            return Ok(undo);
        }
        for (tx, &txid) in transactions.iter().zip(txids) {
            if !tx.is_coinbase() {
                for input in &tx.inputs {
                    self.note_remove(input.prevout);
                }
            }
            for vout in 0..tx.outputs.len() as u32 {
                self.note_write(OutPoint { txid, vout });
            }
        }
        Ok(undo)
    }

    /// Disconnects a block through the cache, maintaining dirty flags.
    pub fn undo_block(&mut self, transactions: &[Transaction], txids: &[TxId], undo: &UndoData) {
        self.set.undo_block_ids(transactions, txids, undo);
        if !self.tracking {
            return;
        }
        // Mirror the per-transaction reverse order of the set's undo so
        // intra-block spend chains end with the right final flag.
        for (tx, &txid) in transactions.iter().zip(txids).rev() {
            for vout in 0..tx.outputs.len() as u32 {
                self.note_remove(OutPoint { txid, vout });
            }
            if !tx.is_coinbase() {
                for input in tx.inputs.iter().rev() {
                    self.note_write(input.prevout);
                }
            }
        }
    }

    /// An outpoint was (re)written into the set.
    fn note_write(&mut self, op: OutPoint) {
        let flag = match self.dirty.get(&op) {
            Some(Dirty::Fresh) => Dirty::Fresh,
            Some(Dirty::Write) | Some(Dirty::Erase) => Dirty::Write,
            None => {
                if self.backed.contains(&op) {
                    Dirty::Write
                } else {
                    Dirty::Fresh
                }
            }
        };
        self.dirty.insert(op, flag);
    }

    /// An outpoint was removed from the set.
    fn note_remove(&mut self, op: OutPoint) {
        match self.dirty.get(&op) {
            // Never hit disk: spending a fresh entry cancels it outright.
            Some(Dirty::Fresh) => {
                self.dirty.remove(&op);
            }
            _ => {
                if self.backed.contains(&op) {
                    self.dirty.insert(op, Dirty::Erase);
                } else {
                    self.dirty.remove(&op);
                }
            }
        }
    }

    /// Drains the dirty map into a deterministic, outpoint-sorted list
    /// of flush operations and marks everything clean. The `backed` key
    /// set is updated to reflect the coins file after these operations
    /// are applied.
    pub(crate) fn flush_ops(&mut self) -> Vec<FlushOp> {
        let mut keys: Vec<(OutPoint, Dirty)> = self.dirty.drain().collect();
        keys.sort_unstable_by_key(|(op, _)| *op);
        let mut ops = Vec::with_capacity(keys.len());
        for (op, flag) in keys {
            match flag {
                Dirty::Fresh | Dirty::Write => {
                    let entry = self
                        .set
                        .get(&op)
                        .expect("dirty put entry resident in cache")
                        .clone();
                    self.backed.insert(op);
                    ops.push(FlushOp::Put(op, entry));
                }
                Dirty::Erase => {
                    self.backed.remove(&op);
                    ops.push(FlushOp::Del(op));
                }
            }
        }
        ops
    }

    /// Marks every resident entry fresh-dirty, as after a reindex: the
    /// coins file is being rebuilt from scratch, so the next flush must
    /// write the full set into a new generation.
    pub(crate) fn mark_all_fresh(&mut self) {
        self.tracking = true;
        self.backed.clear();
        self.dirty.clear();
        let keys: Vec<OutPoint> = self.set.iter().map(|(op, _)| *op).collect();
        for op in keys {
            self.dirty.insert(op, Dirty::Fresh);
        }
    }

    /// Evicts clean, backed entries from the resident set (they can be
    /// read back through [`CoinsCache::probe`] / `insert_clean`).
    /// Returns how many were evicted.
    pub(crate) fn trim_clean(&mut self) -> usize {
        let evict: Vec<OutPoint> = self
            .set
            .iter()
            .map(|(op, _)| *op)
            .filter(|op| self.backed.contains(op) && !self.dirty.contains_key(op))
            .collect();
        for op in &evict {
            self.set.remove_loaded(op);
        }
        evict.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{txids_of, TxIn, TxOut, SEQUENCE_FINAL};
    use crate::Transaction;
    use bcwan_script::Script;

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

    #[test]
    fn fresh_spent_before_flush_never_reaches_disk() {
        let mut cache = CoinsCache::new();
        let cb = coinbase(1, 50);
        let op = OutPoint {
            txid: cb.txid(),
            vout: 0,
        };
        cache
            .apply_block(std::slice::from_ref(&cb), &[cb.txid()], 1)
            .unwrap();
        assert_eq!(cache.dirty.len(), 1);
        let sp = spend(op, 50);
        let cb2 = coinbase(2, 50);
        let txs = [cb2, sp];
        cache.apply_block(&txs, &txids_of(&txs), 2).unwrap();
        let ops = cache.flush_ops();
        // The spent-then-created chain flushes only the survivors: the
        // spender's output and block 2's coinbase — never `op`.
        assert_eq!(ops.len(), 2);
        assert!(ops
            .iter()
            .all(|o| !matches!(o, FlushOp::Put(p, _) if *p == op)));
        assert!(!ops.iter().any(|o| matches!(o, FlushOp::Del(_))));
    }

    #[test]
    fn memory_only_cache_tracks_nothing_until_a_store_is_attached() {
        let mut cache = CoinsCache::memory_only();
        let cb = coinbase(1, 50);
        let op = OutPoint {
            txid: cb.txid(),
            vout: 0,
        };
        let txs = [cb];
        let undo = cache.apply_block(&txs, &txids_of(&txs), 1).unwrap();
        cache.undo_block(&txs, &txids_of(&txs), &undo);
        cache.apply_block(&txs, &txids_of(&txs), 1).unwrap();
        assert_eq!((cache.dirty.len(), cache.backed.len()), (0, 0));
        assert!(cache.flush_ops().is_empty());

        // `Chain::create_with_store`: the whole resident set is owed to
        // the new coins table, and later blocks are tracked.
        cache.mark_all_fresh();
        assert_eq!(cache.flush_ops().len(), 1);
        let txs = [coinbase(2, 50), spend(op, 50)];
        cache.apply_block(&txs, &txids_of(&txs), 2).unwrap();
        assert_eq!(cache.dirty.get(&op), Some(&Dirty::Erase));
    }

    #[test]
    fn backed_spend_erases_and_undo_restores() {
        let mut cache = CoinsCache::new();
        let cb = coinbase(1, 50);
        let op = OutPoint {
            txid: cb.txid(),
            vout: 0,
        };
        cache
            .apply_block(std::slice::from_ref(&cb), &[cb.txid()], 1)
            .unwrap();
        cache.flush_ops();
        assert_eq!(cache.backed.len(), 1);

        // Spend the backed coin: flush must delete it.
        let sp = spend(op, 49);
        let txs = [coinbase(2, 50), sp];
        let undo = cache.apply_block(&txs, &txids_of(&txs), 2).unwrap();
        assert!(cache
            .dirty
            .iter()
            .any(|(k, f)| *k == op && *f == Dirty::Erase));

        // Undo before flushing: the coin is back and clean-equivalent
        // (flag Write — the backing still holds the same value, a
        // redundant but safe re-put).
        cache.undo_block(&txs, &txids_of(&txs), &undo);
        let ops = cache.flush_ops();
        assert!(ops
            .iter()
            .all(|o| !matches!(o, FlushOp::Del(d) if *d == op)));
        assert!(cache.set().contains(&op));
    }

    #[test]
    fn trim_and_readthrough_counts_hits_and_misses() {
        let mut cache = CoinsCache::new();
        let cb = coinbase(1, 50);
        let op = OutPoint {
            txid: cb.txid(),
            vout: 0,
        };
        cache
            .apply_block(std::slice::from_ref(&cb), &[cb.txid()], 1)
            .unwrap();
        cache.flush_ops();
        assert_eq!(cache.probe(&op), Probe::InCache);
        assert_eq!(cache.hits(), 1);

        assert_eq!(cache.trim_clean(), 1);
        assert!(!cache.set().contains(&op));
        assert_eq!(cache.probe(&op), Probe::OnDisk);
        assert_eq!(cache.misses(), 1);

        let entry = UtxoEntry {
            output: TxOut {
                value: 50,
                script_pubkey: Script::new(),
            },
            height: 1,
            coinbase: true,
        };
        cache.insert_clean(op, entry);
        assert_eq!(cache.probe(&op), Probe::InCache);

        let absent = OutPoint {
            txid: crate::TxId([9; 32]),
            vout: 0,
        };
        assert_eq!(cache.probe(&absent), Probe::Absent);
    }
}
