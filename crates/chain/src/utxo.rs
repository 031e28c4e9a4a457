//! The unspent-transaction-output set with per-block undo data for reorgs.

use crate::idmap::{IdMap, IdSet};
use crate::tx::{txids_of, OutPoint, Transaction, TxId, TxOut};
use std::fmt;
use std::sync::Arc;

/// One unspent output plus the metadata validation needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtxoEntry {
    /// The output itself.
    pub output: TxOut,
    /// Height of the block that created it.
    pub height: u64,
    /// Whether it came from a coinbase (maturity rules apply).
    pub coinbase: bool,
}

/// Undo data for one connected block: the entries its transactions spent,
/// in spend order.
#[derive(Debug, Clone, Default)]
pub struct UndoData {
    spent: Vec<(OutPoint, UtxoEntry)>,
}

impl UndoData {
    /// Rebuilds undo data from a spent-entry list, as read back from a
    /// persistent undo record (see [`crate::codec::decode_undo`]).
    pub(crate) fn from_spent(spent: Vec<(OutPoint, UtxoEntry)>) -> Self {
        UndoData { spent }
    }

    /// The entries this block's transactions spent, in spend order.
    pub(crate) fn spent_entries(&self) -> &[(OutPoint, UtxoEntry)] {
        &self.spent
    }
}

/// Read access to an unspent-output state: the concrete [`UtxoSet`] or a
/// cheap overlay such as the mempool's pool-extended view.
pub trait UtxoView {
    /// Looks up an unspent output.
    fn view_get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry>;
}

/// The UTXO set.
///
/// A set made by [`UtxoSet::fork`] reads through a frozen `base` it
/// shares with its siblings: a lookup tries the set's own entries, then
/// — unless this set has spent the outpoint — the base. Everything a
/// set does after the fork (spends, creates, undos that reach below the
/// fork point) lands in its own `map` and `spent`, so siblings never see
/// each other's changes. A set that was never forked has no base and
/// pays one `Option` branch for the possibility.
#[derive(Debug, Clone, Default)]
pub struct UtxoSet {
    /// Entries this set owns: all of them without a base, otherwise
    /// those created or restored since the fork.
    map: IdMap<OutPoint, UtxoEntry>,
    base: Option<Base>,
}

/// The entries that existed at a fork point, and which of them one
/// holder has since removed. No live base entry is also in the holder's
/// own map (see [`UtxoSet::insert`]).
#[derive(Debug, Clone)]
struct Base {
    shared: Arc<IdMap<OutPoint, UtxoEntry>>,
    spent: IdSet<OutPoint>,
}

impl Base {
    fn get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
        self.shared
            .get(outpoint)
            .filter(|_| !self.spent.contains(outpoint))
    }

    fn iter(&self) -> impl Iterator<Item = (&OutPoint, &UtxoEntry)> {
        self.shared
            .iter()
            .filter(|(op, _)| !self.spent.contains(op))
    }
}

impl UtxoView for UtxoSet {
    fn view_get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
        self.get(outpoint)
    }
}

/// The state a block's transactions see while it is being applied:
/// `base` plus the outputs earlier transactions of the block created,
/// minus what they spent. Borrow-only — the shape of the mempool's pool
/// view — so validating a block never copies the UTXO set, and intra-
/// block chains (B spends A's output) still resolve. It is the one place
/// a block changes the set: [`UtxoSet::commit`] takes what it recorded.
pub(crate) struct BlockOverlay<'a> {
    base: &'a UtxoSet,
    delta: BlockDelta,
}

/// What a block's overlay recorded, ready to commit.
pub(crate) struct BlockDelta {
    /// Outputs the block created and did not spend.
    created: IdMap<OutPoint, UtxoEntry>,
    /// Outpoints of the base the block spent.
    spent: IdSet<OutPoint>,
    /// Every entry the block spent, in spend order: its undo data.
    undo: Vec<(OutPoint, UtxoEntry)>,
}

impl UtxoView for BlockOverlay<'_> {
    fn view_get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
        match self.delta.created.get(outpoint) {
            Some(entry) => Some(entry),
            None if self.delta.spent.contains(outpoint) => None,
            None => self.base.view_get(outpoint),
        }
    }
}

impl<'a> BlockOverlay<'a> {
    /// An overlay that changes nothing yet, its maps sized for
    /// `transactions`' inputs and outputs.
    pub(crate) fn new(base: &'a UtxoSet, transactions: &[Transaction]) -> Self {
        let (mut inputs, mut outputs) = (0, 0);
        for tx in transactions {
            if !tx.is_coinbase() {
                inputs += tx.inputs.len();
            }
            outputs += tx.outputs.len();
        }
        BlockOverlay {
            base,
            delta: BlockDelta {
                created: IdMap::with_capacity_and_hasher(outputs, Default::default()),
                spent: IdSet::with_capacity_and_hasher(inputs, Default::default()),
                undo: Vec::with_capacity(inputs),
            },
        }
    }

    /// Applies one transaction (`txid` is its id): spends each input,
    /// recording the entry it held, then creates each output. The one
    /// statement of the rule that an input must be live and an output
    /// must not be.
    ///
    /// # Errors
    ///
    /// [`UtxoError`] for the first input that is missing or output that
    /// collides. The overlay may then hold part of the transaction: drop
    /// it, the base is untouched.
    pub(crate) fn apply(
        &mut self,
        tx: &Transaction,
        txid: TxId,
        height: u64,
    ) -> Result<(), UtxoError> {
        let coinbase = tx.is_coinbase();
        if !coinbase {
            for input in &tx.inputs {
                let op = input.prevout;
                let entry = match self.delta.created.remove(&op) {
                    Some(entry) => entry,
                    None => match self.base.get(&op) {
                        Some(entry) if self.delta.spent.insert(op) => entry.clone(),
                        _ => return Err(UtxoError::MissingInput(op)),
                    },
                };
                self.delta.undo.push((op, entry));
            }
        }
        for (vout, output) in tx.outputs.iter().enumerate() {
            let op = OutPoint {
                txid,
                vout: vout as u32,
            };
            if self.view_get(&op).is_some() {
                return Err(UtxoError::DuplicateOutput(op));
            }
            let entry = UtxoEntry {
                output: output.clone(),
                height,
                coinbase,
            };
            self.delta.created.insert(op, entry);
        }
        Ok(())
    }

    /// What the overlay recorded.
    pub(crate) fn into_delta(self) -> BlockDelta {
        self.delta
    }
}

impl BlockDelta {
    /// `transactions` (whose ids are `txids`) applied in order over
    /// `base` at `height`.
    ///
    /// # Errors
    ///
    /// As [`BlockOverlay::apply`].
    pub(crate) fn of(
        base: &UtxoSet,
        transactions: &[Transaction],
        txids: &[TxId],
        height: u64,
    ) -> Result<Self, UtxoError> {
        let mut view = BlockOverlay::new(base, transactions);
        for (tx, &txid) in transactions.iter().zip(txids) {
            view.apply(tx, txid, height)?;
        }
        Ok(view.into_delta())
    }

    /// Every outpoint the block spent or created.
    pub(crate) fn touched(&self) -> impl Iterator<Item = OutPoint> + '_ {
        let spent = self.undo.iter().map(|(op, _)| *op);
        spent.chain(self.created.keys().copied())
    }
}

/// Errors applying transactions to the UTXO set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtxoError {
    /// Input refers to a missing (unknown or already spent) output.
    MissingInput(OutPoint),
    /// A transaction tried to create an output that already exists.
    DuplicateOutput(OutPoint),
}

impl fmt::Display for UtxoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtxoError::MissingInput(op) => write!(f, "missing input {op}"),
            UtxoError::DuplicateOutput(op) => write!(f, "duplicate output {op}"),
        }
    }
}

impl std::error::Error for UtxoError {}

impl UtxoSet {
    /// An empty set.
    pub fn new() -> Self {
        UtxoSet::default()
    }

    /// A set with this one's contents that shares them instead of
    /// copying: the entries move into a frozen base both sets read
    /// through, and each keeps what it does afterwards to itself (see
    /// the type docs). Freezing costs one pass over the entries this
    /// set changed since its last fork — none when it is forked again
    /// untouched — and every fork after that is two empty maps and a
    /// reference count.
    pub fn fork(&mut self) -> UtxoSet {
        let untouched =
            self.map.is_empty() && self.base.as_ref().is_some_and(|b| b.spent.is_empty());
        if !untouched {
            let mut all = std::mem::take(&mut self.map);
            if let Some(base) = self.base.take() {
                all.extend(base.iter().map(|(op, entry)| (*op, entry.clone())));
            }
            self.base = Some(Base {
                shared: Arc::new(all),
                spent: IdSet::default(),
            });
        }
        self.clone()
    }

    /// Number of unspent outputs.
    pub fn len(&self) -> usize {
        let based = self
            .base
            .as_ref()
            .map_or(0, |b| b.shared.len() - b.spent.len());
        self.map.len() + based
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up an unspent output.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
        match self.map.get(outpoint) {
            Some(entry) => Some(entry),
            None => self.base.as_ref()?.get(outpoint),
        }
    }

    /// Whether an output is unspent.
    pub fn contains(&self, outpoint: &OutPoint) -> bool {
        self.get(outpoint).is_some()
    }

    /// Total value of all unspent outputs.
    pub fn total_value(&self) -> u64 {
        self.iter().map(|(_, e)| e.output.value).sum()
    }

    /// An order-independent fingerprint of the set: the XOR of one
    /// FNV-1a hash per entry over its outpoint and value. Two sets that
    /// hold the same coins agree however they were built, so same-seed
    /// runs can be compared by one number.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = 0u64;
        for (op, entry) in self.iter() {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let (vout, value) = (op.vout.to_le_bytes(), entry.output.value.to_le_bytes());
            for b in op.txid.0.iter().chain(&vout).chain(&value) {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            fp ^= h;
        }
        fp
    }

    /// Iterates over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &UtxoEntry)> {
        self.map.iter().chain(self.base.iter().flat_map(Base::iter))
    }

    /// Puts `entry` at `outpoint` in this set's own map. Callers insert
    /// only what is absent — a checked create, or the restore of a spent
    /// entry (a base one stays marked spent under its private copy) — so
    /// no live base entry is ever shadowed and `len` stays a sum.
    fn insert(&mut self, outpoint: OutPoint, entry: UtxoEntry) {
        debug_assert!(
            self.base.as_ref().and_then(|b| b.get(&outpoint)).is_none(),
            "{outpoint} is live in the base"
        );
        self.map.insert(outpoint, entry);
    }

    /// Takes the entry at `outpoint` out of the set; a base entry is
    /// marked spent for this set only.
    fn remove(&mut self, outpoint: &OutPoint) {
        if self.map.remove(outpoint).is_some() {
            return;
        }
        if let Some(base) = self.base.as_mut() {
            if base.shared.contains_key(outpoint) {
                base.spent.insert(*outpoint);
            }
        }
    }

    /// All outpoints locked by scripts matching `predicate` — used by
    /// wallets to find their spendable coins.
    pub fn find<'a>(
        &'a self,
        mut predicate: impl FnMut(&UtxoEntry) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a OutPoint, &'a UtxoEntry)> {
        self.iter().filter(move |(_, e)| predicate(e))
    }

    /// Applies a whole block (transactions in order), returning its undo
    /// data.
    ///
    /// # Errors
    ///
    /// [`UtxoError`] for the first input that is missing or output that
    /// collides; the set is then unchanged.
    pub fn apply_block(
        &mut self,
        transactions: &[Transaction],
        height: u64,
    ) -> Result<UndoData, UtxoError> {
        let delta = BlockDelta::of(self, transactions, &txids_of(transactions), height)?;
        Ok(self.commit(delta))
    }

    /// Commits a block's overlay over this set: removes what it spent,
    /// moves in what it created, and returns its undo data.
    pub(crate) fn commit(&mut self, delta: BlockDelta) -> UndoData {
        // Spends first: a block may recreate an outpoint it spent.
        for op in &delta.spent {
            self.remove(op);
        }
        // The two maps are disjoint: keep the larger, move the other in
        // (genesis into an empty set moves nothing).
        let mut created = delta.created;
        if created.len() > self.map.len() {
            std::mem::swap(&mut self.map, &mut created);
        }
        for (op, entry) in created {
            self.insert(op, entry);
        }
        UndoData { spent: delta.undo }
    }

    /// A set holding exactly `entries`, as loaded from persistent
    /// storage: the map moves in whole, nothing is rehashed.
    pub(crate) fn from_loaded(entries: IdMap<OutPoint, UtxoEntry>) -> Self {
        UtxoSet {
            map: entries,
            base: None,
        }
    }

    /// Disconnects a block previously applied with [`UtxoSet::apply_block`].
    ///
    /// `transactions` must be the same list, and `undo` its undo data.
    pub fn undo_block(&mut self, transactions: &[Transaction], undo: &UndoData) {
        self.undo_block_ids(transactions, &txids_of(transactions), undo);
    }

    /// [`UtxoSet::undo_block`] for a caller that already holds the
    /// transactions' ids.
    pub(crate) fn undo_block_ids(
        &mut self,
        transactions: &[Transaction],
        txids: &[TxId],
        undo: &UndoData,
    ) {
        // Per transaction, newest first: drop its created outputs, then
        // restore what it spent. The interleaving matters when a block
        // contains an intra-block spend chain (escrow created and claimed
        // in the same block): restoring the claim's inputs resurrects the
        // escrow output, and only the escrow's own undo step — which runs
        // *after* under reverse order — removes it again. Undoing all
        // creates first and all spends second leaves such outputs behind.
        let mut tail = undo.spent.len();
        for (tx, &txid) in transactions.iter().zip(txids).rev() {
            for vout in 0..tx.outputs.len() as u32 {
                self.remove(&OutPoint { txid, vout });
            }
            let spent = if tx.is_coinbase() { 0 } else { tx.inputs.len() };
            for (outpoint, entry) in undo.spent[tail - spent..tail].iter().rev() {
                self.insert(*outpoint, entry.clone());
            }
            tail -= spent;
        }
        debug_assert_eq!(tail, 0, "undo data covers exactly these transactions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{TxIn, SEQUENCE_FINAL};
    use bcwan_script::Script;

    fn coinbase(height: u64, value: u64) -> Transaction {
        Transaction::coinbase(
            height,
            b"t",
            vec![TxOut {
                value,
                script_pubkey: Script::new(),
            }],
        )
    }

    fn spend(prev: OutPoint, values: &[u64]) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: prev,
                script_sig: Script::new(),
                sequence: SEQUENCE_FINAL,
            }],
            outputs: values
                .iter()
                .map(|&value| TxOut {
                    value,
                    script_pubkey: Script::new(),
                })
                .collect(),
            lock_time: 0,
        }
    }

    #[test]
    fn apply_coinbase_creates_outputs() {
        let mut set = UtxoSet::new();
        let cb = coinbase(0, 100);
        let undo = set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_value(), 100);
        let entry = set
            .get(&OutPoint {
                txid: cb.txid(),
                vout: 0,
            })
            .unwrap();
        assert!(entry.coinbase);
        assert_eq!(entry.height, 0);
        assert!(undo.spent.is_empty());
    }

    #[test]
    fn spend_moves_value() {
        let mut set = UtxoSet::new();
        let cb = coinbase(0, 100);
        set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let tx = spend(
            OutPoint {
                txid: cb.txid(),
                vout: 0,
            },
            &[60, 40],
        );
        set.apply_block(std::slice::from_ref(&tx), 1).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_value(), 100);
        assert!(!set.contains(&OutPoint {
            txid: cb.txid(),
            vout: 0
        }));
    }

    #[test]
    fn double_spend_rejected() {
        let mut set = UtxoSet::new();
        let cb = coinbase(0, 100);
        set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let prev = OutPoint {
            txid: cb.txid(),
            vout: 0,
        };
        set.apply_block(&[spend(prev, &[100])], 1).unwrap();
        let err = set.apply_block(&[spend(prev, &[1])], 2).unwrap_err();
        assert_eq!(err, UtxoError::MissingInput(prev));
    }

    #[test]
    fn failed_block_leaves_set_unchanged() {
        let mut set = UtxoSet::new();
        let cb = coinbase(0, 100);
        set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let before: Vec<_> = set.iter().map(|(k, _)| *k).collect();
        let good = spend(
            OutPoint {
                txid: cb.txid(),
                vout: 0,
            },
            &[100],
        );
        let bad = spend(
            OutPoint {
                txid: TxId([0xde; 32]),
                vout: 0,
            },
            &[5],
        );
        assert!(set.apply_block(&[good, bad], 1).is_err());
        let after: Vec<_> = set.iter().map(|(k, _)| *k).collect();
        assert_eq!(before.len(), after.len());
        assert_eq!(set.total_value(), 100);
    }

    #[test]
    fn undo_block_restores_exactly() {
        let mut set = UtxoSet::new();
        let cb = coinbase(0, 100);
        set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let snapshot_value = set.total_value();
        let snapshot_len = set.len();

        let txs = vec![spend(
            OutPoint {
                txid: cb.txid(),
                vout: 0,
            },
            &[70, 30],
        )];
        let undo = set.apply_block(&txs, 1).unwrap();
        assert_eq!(set.len(), 2);

        set.undo_block(&txs, &undo);
        assert_eq!(set.len(), snapshot_len);
        assert_eq!(set.total_value(), snapshot_value);
        assert!(set.contains(&OutPoint {
            txid: cb.txid(),
            vout: 0
        }));
    }

    #[test]
    fn undo_block_with_intra_block_spend_chain() {
        // Regression: a block holding both a transaction and a spend of
        // its output (escrow + claim mined together). Disconnecting the
        // block must not leave the intermediate output behind: the
        // claim's undo resurrects it, and the escrow's own undo step must
        // then remove it again.
        let mut set = UtxoSet::new();
        let cb = coinbase(0, 100);
        set.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let snapshot_len = set.len();
        let snapshot_value = set.total_value();

        let escrow = spend(
            OutPoint {
                txid: cb.txid(),
                vout: 0,
            },
            &[100],
        );
        let escrow_out = OutPoint {
            txid: escrow.txid(),
            vout: 0,
        };
        let claim = spend(escrow_out, &[100]);
        let txs = vec![escrow, claim.clone()];
        let undo = set.apply_block(&txs, 1).unwrap();
        assert!(!set.contains(&escrow_out), "claimed inside the block");

        set.undo_block(&txs, &undo);
        assert!(!set.contains(&escrow_out), "must not resurrect");
        assert!(!set.contains(&OutPoint {
            txid: claim.txid(),
            vout: 0
        }));
        assert_eq!(set.len(), snapshot_len);
        assert_eq!(set.total_value(), snapshot_value);
    }

    #[test]
    fn fingerprint_ignores_order_and_sees_every_coin() {
        let (a, b) = ([coinbase(0, 50)], [coinbase(1, 70)]);
        let mut forward = UtxoSet::new();
        forward.apply_block(&a, 0).unwrap();
        forward.apply_block(&b, 1).unwrap();
        let mut backward = UtxoSet::new();
        backward.apply_block(&b, 1).unwrap();
        backward.apply_block(&a, 0).unwrap();
        assert_eq!(forward.fingerprint(), backward.fingerprint());
        let prev = OutPoint {
            txid: a[0].txid(),
            vout: 0,
        };
        let before = forward.fingerprint();
        forward.apply_block(&[spend(prev, &[50])], 2).unwrap();
        assert_ne!(forward.fingerprint(), before, "a spend moves it");
        assert_ne!(UtxoSet::new().fingerprint(), before);
    }

    #[test]
    fn value_conservation_across_chain() {
        let mut set = UtxoSet::new();
        let mut minted = 0u64;
        let mut prev: Option<OutPoint> = None;
        for h in 0..10 {
            let cb = coinbase(h, 50);
            minted += 50;
            let mut txs = vec![cb.clone()];
            if let Some(p) = prev {
                txs.push(spend(p, &[25, 25]));
            }
            set.apply_block(&txs, h).unwrap();
            prev = Some(OutPoint {
                txid: cb.txid(),
                vout: 0,
            });
            assert_eq!(set.total_value(), minted, "height {h}");
        }
    }
}
