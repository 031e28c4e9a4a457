//! The transaction memory pool.
//!
//! First-seen policy: a transaction conflicting with one already pooled is
//! rejected, which is exactly the window the paper's §6 double-spend
//! discussion turns on — whichever conflicting transaction reaches the
//! miner's pool first wins the block.

use crate::hashed::HashedTx;
use crate::idmap::{IdMap, IdSet};
use crate::params::ChainParams;
use crate::tx::{txids_of, OutPoint, Transaction, TxId};
use crate::utxo::{UtxoEntry, UtxoSet};
use crate::validate::{validate_transaction, SigCache, TxError};
use std::fmt;
use std::sync::Arc;

/// Why the pool refused a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MempoolError {
    /// Already pooled.
    Duplicate(TxId),
    /// Conflicts with a pooled transaction spending the same output.
    Conflict {
        /// The output contested.
        outpoint: OutPoint,
        /// The transaction already holding it.
        existing: TxId,
    },
    /// Failed stateless/stateful validation.
    Invalid(TxError),
}

impl fmt::Display for MempoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MempoolError::Duplicate(id) => write!(f, "duplicate transaction {id}"),
            MempoolError::Conflict { outpoint, existing } => {
                write!(f, "conflicts on {outpoint} with {existing}")
            }
            MempoolError::Invalid(e) => write!(f, "invalid transaction: {e}"),
        }
    }
}

impl std::error::Error for MempoolError {}

struct PoolEntry {
    /// The shared body with the id and size it was hashed with where it
    /// entered, so neither admission nor template building re-serializes
    /// or re-hashes a pooled transaction.
    tx: HashedTx,
    fee: u64,
}

bcwan_sim::counters! {
    /// Lifetime counters of pool activity (`mempool.*` rows in bench
    /// reports).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MempoolStats {
        /// Transactions admitted.
        pub accepted: u64 => "mempool.accepted_total",
        /// Rejections: already pooled.
        pub rejected_duplicate: u64 => "mempool.rejected_duplicate_total",
        /// Rejections: double-spend of a pooled input (first-seen wins).
        pub rejected_conflict: u64 => "mempool.rejected_conflict_total",
        /// Rejections: failed validation.
        pub rejected_invalid: u64 => "mempool.rejected_invalid_total",
        /// Transactions removed because a block confirmed them (or a
        /// conflict).
        pub evicted: u64 => "mempool.evicted_total",
    }
}

/// The UTXO state as the pool sees it: base set plus pooled outputs minus
/// pooled spends. A borrow-only overlay — no cloning.
struct PoolView<'a> {
    base: &'a UtxoSet,
    created: &'a IdMap<OutPoint, UtxoEntry>,
    spent: &'a IdMap<OutPoint, TxId>,
}

impl crate::utxo::UtxoView for PoolView<'_> {
    fn view_get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
        if self.spent.contains_key(outpoint) {
            return None;
        }
        self.created
            .get(outpoint)
            .or_else(|| self.base.view_get(outpoint))
    }
}

/// The memory pool.
///
/// Chained unconfirmed transactions are accepted (a child may spend a
/// pooled parent's output) — BcWAN's claim transaction spends the escrow
/// before it confirms, exactly the paper's §6 zero-confirmation choice.
#[derive(Default)]
pub struct Mempool {
    entries: IdMap<TxId, PoolEntry>,
    by_outpoint: IdMap<OutPoint, TxId>,
    /// Outputs created by pooled transactions, for the overlay view.
    created: IdMap<OutPoint, UtxoEntry>,
    stats: MempoolStats,
    /// Signature cache populated at admission; shared with a chain, it
    /// lets block connect skip re-verifying the same spends.
    sig_cache: Arc<SigCache>,
}

impl fmt::Debug for Mempool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mempool")
            .field("transactions", &self.entries.len())
            .finish()
    }
}

impl Mempool {
    /// An empty pool with a private signature cache.
    pub fn new() -> Self {
        Mempool::default()
    }

    /// An empty pool sharing `cache` with the chain: script verifications
    /// done at admission are not repeated when a block later connects.
    pub fn with_cache(cache: Arc<SigCache>) -> Self {
        Mempool {
            sig_cache: cache,
            ..Mempool::default()
        }
    }

    /// Lifetime accept/reject/evict counters.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// Number of pooled transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a transaction is pooled.
    pub fn contains(&self, txid: &TxId) -> bool {
        self.entries.contains_key(txid)
    }

    /// Fetches a pooled transaction.
    pub fn get(&self, txid: &TxId) -> Option<&Transaction> {
        self.entries.get(txid).map(|e| e.tx.tx())
    }

    /// Admits a transaction after validating it against `utxo` at `height`.
    /// Returns the fee on success. A bare [`Transaction`] is hashed here;
    /// a [`HashedTx`] brings its id along and is pooled without a copy.
    ///
    /// # Errors
    ///
    /// [`MempoolError`] on duplicates, conflicts, or validation failure.
    pub fn insert(
        &mut self,
        tx: impl Into<HashedTx>,
        utxo: &UtxoSet,
        height: u64,
        params: &ChainParams,
    ) -> Result<u64, MempoolError> {
        let tx = tx.into();
        let txid = tx.txid();
        if self.entries.contains_key(&txid) {
            self.stats.rejected_duplicate += 1;
            return Err(MempoolError::Duplicate(txid));
        }
        for input in &tx.inputs {
            if let Some(existing) = self.by_outpoint.get(&input.prevout) {
                self.stats.rejected_conflict += 1;
                return Err(MempoolError::Conflict {
                    outpoint: input.prevout,
                    existing: *existing,
                });
            }
        }
        // Validate against the UTXO view extended with pooled outputs, so
        // children of unconfirmed parents are admissible.
        let view = PoolView {
            base: utxo,
            created: &self.created,
            spent: &self.by_outpoint,
        };
        let fee = match validate_transaction(&tx, &view, height, params, &self.sig_cache) {
            Ok(fee) => fee,
            Err(e) => {
                self.stats.rejected_invalid += 1;
                return Err(MempoolError::Invalid(e));
            }
        };
        for input in &tx.inputs {
            self.by_outpoint.insert(input.prevout, txid);
        }
        for (vout, output) in tx.outputs.iter().enumerate() {
            self.created.insert(
                OutPoint {
                    txid,
                    vout: vout as u32,
                },
                UtxoEntry {
                    output: output.clone(),
                    height,
                    coinbase: false,
                },
            );
        }
        self.stats.accepted += 1;
        self.entries.insert(txid, PoolEntry { tx, fee });
        Ok(fee)
    }

    /// Selects transactions for a block template, highest fee-rate first,
    /// within `max_bytes` (which should leave room for the coinbase).
    ///
    /// A dependent transaction is only selected once its pooled parents
    /// are, keeping the template topologically valid.
    pub fn block_template(&self, max_bytes: usize) -> Vec<Transaction> {
        self.block_template_excluding(max_bytes, |_| false)
    }

    /// [`Mempool::block_template`] with a censorship predicate: pooled
    /// transactions for which `exclude` returns true are silently left
    /// out of the template, as are (automatically, via the dependency
    /// rule) any pooled descendants spending their outputs. This is the
    /// hook a Byzantine miner uses to censor settlement transactions —
    /// the censored entries stay pooled and are *not* announced as
    /// rejected, which is exactly what makes censorship hard to observe
    /// directly and worth detecting statistically.
    pub fn block_template_excluding<F>(&self, max_bytes: usize, exclude: F) -> Vec<Transaction>
    where
        F: Fn(&Transaction) -> bool,
    {
        let mut candidates: Vec<&PoolEntry> = self
            .entries
            .values()
            .filter(|e| !exclude(e.tx.tx()))
            .collect();
        candidates.sort_by(|a, b| {
            let rate_a = a.fee as f64 / a.tx.size() as f64;
            let rate_b = b.fee as f64 / b.tx.size() as f64;
            rate_b
                .partial_cmp(&rate_a)
                .expect("finite rates")
                .then_with(|| a.tx.txid().cmp(&b.tx.txid()))
        });
        let mut out: Vec<Transaction> = Vec::new();
        let mut selected: IdSet<TxId> = IdSet::default();
        let mut used = 0usize;
        let mut progressed = true;
        while progressed {
            progressed = false;
            for entry in &candidates {
                let txid = entry.tx.txid();
                if selected.contains(&txid) {
                    continue;
                }
                // Parents must be confirmed (not pooled) or already chosen.
                let deps_ok = entry.tx.inputs.iter().all(|i| {
                    !self.entries.contains_key(&i.prevout.txid)
                        || selected.contains(&i.prevout.txid)
                });
                if !deps_ok {
                    continue;
                }
                if used + entry.tx.size() > max_bytes {
                    continue;
                }
                used += entry.tx.size();
                selected.insert(txid);
                out.push(entry.tx.tx().clone());
                progressed = true;
            }
        }
        out
    }

    /// Removes transactions confirmed in a block, plus any pooled
    /// transaction conflicting with them and, recursively, the
    /// descendants of evicted conflicts. Returns how many left the pool.
    pub fn remove_confirmed(&mut self, confirmed: &[Transaction]) -> usize {
        self.remove_confirmed_ids(confirmed, &txids_of(confirmed))
    }

    /// [`Mempool::remove_confirmed`] for a caller that already holds the
    /// confirmed transactions' ids (`txids[i]` is `confirmed[i].txid()`),
    /// as the chain does for every block it stores
    /// ([`Chain::block_txids`](crate::chainstate::Chain::block_txids)).
    pub fn remove_confirmed_ids(&mut self, confirmed: &[Transaction], txids: &[TxId]) -> usize {
        let mut evicted = 0;
        for (tx, txid) in confirmed.iter().zip(txids) {
            // Direct removal: descendants stay — they remain valid now
            // that the parent is confirmed.
            if self.remove_one(txid) {
                evicted += 1;
            }
            // Conflict eviction: anything spending the same outputs, and
            // everything built on top of it.
            for input in &tx.inputs {
                if let Some(loser) = self.by_outpoint.get(&input.prevout).copied() {
                    evicted += self.remove_recursive(&loser);
                }
            }
        }
        self.stats.evicted += evicted as u64;
        evicted
    }

    /// Removes a transaction and every pooled descendant.
    fn remove_recursive(&mut self, txid: &TxId) -> usize {
        let Some(entry) = self.entries.remove(txid) else {
            return 0;
        };
        for input in &entry.tx.inputs {
            self.by_outpoint.remove(&input.prevout);
        }
        let mut removed = 1;
        // Children spend this tx's outputs.
        for vout in 0..entry.tx.outputs.len() as u32 {
            let op = OutPoint { txid: *txid, vout };
            self.created.remove(&op);
            if let Some(child) = self.by_outpoint.get(&op).copied() {
                removed += self.remove_recursive(&child);
            }
        }
        removed
    }

    fn remove_one(&mut self, txid: &TxId) -> bool {
        match self.entries.remove(txid) {
            Some(entry) => {
                for input in &entry.tx.inputs {
                    self.by_outpoint.remove(&input.prevout);
                }
                for vout in 0..entry.tx.outputs.len() as u32 {
                    self.created.remove(&OutPoint { txid: *txid, vout });
                }
                true
            }
            None => false,
        }
    }

    /// Re-validates every pooled transaction against `utxo` (which may
    /// just have been rewritten by a reorganization) and drops entries
    /// that no longer validate — inputs re-spent by the new branch,
    /// locktimes no longer satisfied at `height`, or parents that were
    /// themselves dropped. Returns how many left the pool.
    ///
    /// Bitcoin Core runs the same sweep (`removeForReorg`) after every
    /// reorg; without it the pool can hold transactions that can never
    /// be mined and block conflicting re-broadcasts forever.
    pub fn evict_invalid(&mut self, utxo: &UtxoSet, height: u64, params: &ChainParams) -> usize {
        let before = self.entries.len();
        if before == 0 {
            return 0;
        }
        let mut pending: Vec<HashedTx> = std::mem::take(&mut self.entries)
            .into_values()
            .map(|e| e.tx)
            .collect();
        pending.sort_by_key(HashedTx::txid);
        // Rebuild the pool by re-admission: survivors re-validate against
        // the new UTXO view (cheap — the shared sig cache still holds
        // their script verdicts), everything else stays out.
        let saved_stats = self.stats;
        *self = Mempool::with_cache(self.sig_cache.clone());
        // Fixpoint over dependency order: a child only re-admits after
        // its pooled parent, so loop until no transaction makes it in.
        let mut progressed = true;
        while progressed && !pending.is_empty() {
            progressed = false;
            let mut still_out = Vec::new();
            for tx in pending {
                let retry = tx.clone();
                if self.insert(tx, utxo, height, params).is_ok() {
                    progressed = true;
                } else {
                    still_out.push(retry);
                }
            }
            pending = still_out;
        }
        let dropped = before - self.entries.len();
        self.stats = saved_stats;
        self.stats.evicted += dropped as u64;
        dropped
    }

    /// Drops every pooled transaction — a crash restart losing volatile
    /// state. Returns how many were dropped. Lifetime stats survive (the
    /// metrics layer reads them at end of run).
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.by_outpoint.clear();
        self.created.clear();
        n
    }

    /// Iterates over pooled transactions (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.entries.values().map(|e| e.tx.tx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TxOut;
    use crate::wallet::Wallet;
    use bcwan_script::Script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        params: ChainParams,
        utxo: UtxoSet,
        wallet: Wallet,
        coins: Vec<(OutPoint, Script)>,
        height: u64,
    }

    fn fixture(n_coins: usize) -> Fixture {
        let mut rng = StdRng::seed_from_u64(7);
        let params = ChainParams::fast_test();
        let wallet = Wallet::generate(&mut rng);
        let cb = Transaction::coinbase(
            0,
            b"m",
            (0..n_coins)
                .map(|_| TxOut {
                    value: 1000,
                    script_pubkey: wallet.locking_script(),
                })
                .collect(),
        );
        let mut utxo = UtxoSet::new();
        utxo.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let coins = (0..n_coins as u32)
            .map(|vout| {
                (
                    OutPoint {
                        txid: cb.txid(),
                        vout,
                    },
                    wallet.locking_script(),
                )
            })
            .collect();
        Fixture {
            height: params.coinbase_maturity,
            params,
            utxo,
            wallet,
            coins,
        }
    }

    fn payment(f: &Fixture, coin: usize, fee: u64) -> Transaction {
        f.wallet.build_payment(
            vec![f.coins[coin].clone()],
            vec![TxOut {
                value: 1000 - fee,
                script_pubkey: Script::new(),
            }],
            0,
        )
    }

    #[test]
    fn insert_and_report_fee() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let tx = payment(&f, 0, 25);
        let fee = pool
            .insert(tx.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        assert_eq!(fee, 25);
        assert!(pool.contains(&tx.txid()));
    }

    #[test]
    fn created_outputs_share_the_pooled_body() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let tx = f.wallet.build_payment(
            vec![f.coins[0].clone()],
            vec![TxOut {
                value: 990,
                script_pubkey: f.wallet.locking_script(),
            }],
            0,
        );
        pool.insert(tx.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        let txid = tx.txid();
        let created = &pool.created[&OutPoint { txid, vout: 0 }];
        let pooled = pool.get(&txid).expect("pooled");
        // Pointer-equal instruction buffers: the overlay's entry is the
        // pooled body's script, not a copy of it.
        assert_eq!(
            created.output.script_pubkey.instructions().as_ptr(),
            pooled.outputs[0].script_pubkey.instructions().as_ptr()
        );
    }

    #[test]
    fn duplicate_rejected() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let tx = payment(&f, 0, 10);
        pool.insert(tx.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        assert!(matches!(
            pool.insert(tx, &f.utxo, f.height, &f.params),
            Err(MempoolError::Duplicate(_))
        ));
    }

    #[test]
    fn conflicting_double_spend_rejected_first_seen_wins() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let tx1 = payment(&f, 0, 10);
        let tx2 = payment(&f, 0, 500); // higher fee — still loses: first-seen
        pool.insert(tx1.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        let err = pool.insert(tx2, &f.utxo, f.height, &f.params).unwrap_err();
        assert!(matches!(err, MempoolError::Conflict { existing, .. } if existing == tx1.txid()));
    }

    #[test]
    fn invalid_transaction_rejected() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let mut tx = payment(&f, 0, 10);
        tx.outputs[0].value = 10_000; // overspend (also breaks the signature)
        assert!(matches!(
            pool.insert(tx, &f.utxo, f.height, &f.params),
            Err(MempoolError::Invalid(_))
        ));
    }

    #[test]
    fn block_template_orders_by_fee_rate() {
        let f = fixture(3);
        let mut pool = Mempool::new();
        let cheap = payment(&f, 0, 1);
        let rich = payment(&f, 1, 300);
        let mid = payment(&f, 2, 50);
        for tx in [&cheap, &rich, &mid] {
            pool.insert(tx.clone(), &f.utxo, f.height, &f.params)
                .unwrap();
        }
        let template = pool.block_template(1 << 20);
        assert_eq!(template.len(), 3);
        assert_eq!(template[0].txid(), rich.txid());
        assert_eq!(template[1].txid(), mid.txid());
        assert_eq!(template[2].txid(), cheap.txid());
    }

    #[test]
    fn block_template_respects_size() {
        let f = fixture(3);
        let mut pool = Mempool::new();
        for i in 0..3 {
            pool.insert(payment(&f, i, 10), &f.utxo, f.height, &f.params)
                .unwrap();
        }
        let one_tx_size = pool.iter().next().unwrap().size();
        let template = pool.block_template(one_tx_size + 10);
        assert_eq!(template.len(), 1);
    }

    #[test]
    fn excluding_template_censors_tx_and_its_descendants() {
        let f = fixture(2);
        let mut pool = Mempool::new();
        let honest = payment(&f, 1, 10);
        let censored = f.wallet.build_payment(
            vec![f.coins[0].clone()],
            vec![TxOut {
                value: 900,
                script_pubkey: f.wallet.locking_script(),
            }],
            0,
        );
        let child = f.wallet.build_payment(
            vec![(
                OutPoint {
                    txid: censored.txid(),
                    vout: 0,
                },
                f.wallet.locking_script(),
            )],
            vec![TxOut {
                value: 800,
                script_pubkey: Script::new(),
            }],
            0,
        );
        for tx in [&honest, &censored, &child] {
            pool.insert(tx.clone(), &f.utxo, f.height, &f.params)
                .unwrap();
        }
        let victim = censored.txid();
        let template = pool.block_template_excluding(1 << 20, |tx| tx.txid() == victim);
        // The censored parent is gone and the dependency rule silently
        // drags its pooled child out with it; the honest payment stays.
        assert_eq!(template.len(), 1);
        assert_eq!(template[0].txid(), honest.txid());
        // Censorship is not eviction: all three stay pooled.
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn template_order_on_500_entries_with_fee_rate_ties() {
        // The order the comparator defined when it re-serialized and
        // re-hashed per comparison — fee rate descending, txid ascending
        // among equal rates — recomputed here from scratch; the ids and
        // sizes recorded at admission must reproduce it exactly.
        let f = fixture(500);
        let mut pool = Mempool::new();
        let mut expected: Vec<(f64, TxId)> = Vec::new();
        for coin in 0..500 {
            // Five fee levels on same-sized payments: ~100-way ties.
            let tx = payment(&f, coin, 10 * (coin as u64 % 5));
            expected.push((tx.size() as f64, tx.txid()));
            let fee = pool.insert(tx, &f.utxo, f.height, &f.params).unwrap();
            let last = expected.last_mut().unwrap();
            last.0 = fee as f64 / last.0;
        }
        expected.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let ties = expected.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(ties > 400, "{ties} adjacent fee-rate ties");

        let template = pool.block_template(1 << 22);
        let order: Vec<TxId> = template.iter().map(Transaction::txid).collect();
        let expected: Vec<TxId> = expected.into_iter().map(|(_, txid)| txid).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn remove_confirmed_evicts_tx_and_conflicts() {
        let f = fixture(2);
        let mut pool = Mempool::new();
        let tx_a = payment(&f, 0, 10);
        let tx_b = payment(&f, 1, 10);
        pool.insert(tx_a.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        pool.insert(tx_b.clone(), &f.utxo, f.height, &f.params)
            .unwrap();

        // A block confirms a *conflicting* spend of coin 0 plus tx_b itself.
        let conflict = f.wallet.build_payment(
            vec![f.coins[0].clone()],
            vec![TxOut {
                value: 500,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let evicted = pool.remove_confirmed(&[conflict, tx_b.clone()]);
        assert_eq!(evicted, 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn unconfirmed_chains_accepted_and_templated_in_order() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let parent = f.wallet.build_payment(
            vec![f.coins[0].clone()],
            vec![TxOut {
                value: 900,
                script_pubkey: f.wallet.locking_script(),
            }],
            0,
        );
        pool.insert(parent.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        // Child spends the parent's unconfirmed output — the BcWAN claim
        // transaction does exactly this to the unconfirmed escrow.
        let child = f.wallet.build_payment(
            vec![(
                OutPoint {
                    txid: parent.txid(),
                    vout: 0,
                },
                f.wallet.locking_script(),
            )],
            vec![TxOut {
                value: 800,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let fee = pool
            .insert(child.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        assert_eq!(fee, 100);
        // The template includes both, parent before child, despite the
        // parent's lower fee rate.
        let template = pool.block_template(1 << 20);
        assert_eq!(template.len(), 2);
        let parent_pos = template
            .iter()
            .position(|t| t.txid() == parent.txid())
            .unwrap();
        let child_pos = template
            .iter()
            .position(|t| t.txid() == child.txid())
            .unwrap();
        assert!(parent_pos < child_pos);
    }

    #[test]
    fn stats_count_accepts_rejects_evictions() {
        let f = fixture(2);
        let mut pool = Mempool::new();
        let tx1 = payment(&f, 0, 10);
        pool.insert(tx1.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        let _ = pool.insert(tx1.clone(), &f.utxo, f.height, &f.params); // duplicate
        let _ = pool.insert(payment(&f, 0, 99), &f.utxo, f.height, &f.params); // conflict
        let mut bad = payment(&f, 1, 10);
        bad.outputs[0].value = 10_000;
        let _ = pool.insert(bad, &f.utxo, f.height, &f.params); // invalid
        pool.remove_confirmed(&[tx1]);
        let s = pool.stats();
        assert_eq!(s.accepted, 1);
        assert_eq!(s.rejected_duplicate, 1);
        assert_eq!(s.rejected_conflict, 1);
        assert_eq!(s.rejected_invalid, 1);
        assert_eq!(s.evicted, 1);
    }

    #[test]
    fn conflict_eviction_takes_descendants() {
        let f = fixture(1);
        let mut pool = Mempool::new();
        let parent = f.wallet.build_payment(
            vec![f.coins[0].clone()],
            vec![TxOut {
                value: 900,
                script_pubkey: f.wallet.locking_script(),
            }],
            0,
        );
        pool.insert(parent.clone(), &f.utxo, f.height, &f.params)
            .unwrap();
        let child = f.wallet.build_payment(
            vec![(
                OutPoint {
                    txid: parent.txid(),
                    vout: 0,
                },
                f.wallet.locking_script(),
            )],
            vec![TxOut {
                value: 800,
                script_pubkey: Script::new(),
            }],
            0,
        );
        pool.insert(child, &f.utxo, f.height, &f.params).unwrap();
        // A block confirms a conflicting spend of the original coin: the
        // parent is evicted and the now-orphaned child with it.
        let conflict = f.wallet.build_payment(
            vec![f.coins[0].clone()],
            vec![TxOut {
                value: 1,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let evicted = pool.remove_confirmed(&[conflict]);
        assert_eq!(evicted, 2);
        assert!(pool.is_empty());
    }
}
