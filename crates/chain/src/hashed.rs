//! Transactions and blocks carried with their digests.
//!
//! A body is hashed once where it enters a process — decoded off a
//! socket, built by a wallet, mined — and from then on travels as a
//! reference-counted handle next to its ids, so every host, pool and
//! chain that sees it reads the digests instead of re-serializing and
//! re-hashing. The only constructors hash the body themselves, so a
//! digest can never disagree with the body it names: the txid-keyed
//! signature memo ([`SigCache`](crate::validate::SigCache)) relies on
//! exactly that.

use crate::block::{Block, BlockHash};
use crate::tx::{Transaction, TxId};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A transaction with its id and serialized size.
#[derive(Debug, Clone)]
pub struct HashedTx {
    tx: Arc<Transaction>,
    txid: TxId,
    size: usize,
}

impl HashedTx {
    /// Hashes `tx` (one serialization).
    pub fn new(tx: Transaction) -> Self {
        let (txid, size) = tx.txid_and_size();
        HashedTx {
            tx: Arc::new(tx),
            txid,
            size,
        }
    }

    /// The transaction.
    pub fn tx(&self) -> &Transaction {
        &self.tx
    }

    /// `tx().txid()`.
    pub fn txid(&self) -> TxId {
        self.txid
    }

    /// `tx().size()`.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Deref for HashedTx {
    type Target = Transaction;

    fn deref(&self) -> &Transaction {
        &self.tx
    }
}

impl From<Transaction> for HashedTx {
    fn from(tx: Transaction) -> Self {
        HashedTx::new(tx)
    }
}

/// A block with its hash, its transactions' ids, its serialized size and
/// whether its header's merkle root commits to those ids.
#[derive(Debug, Clone)]
pub struct HashedBlock {
    block: Arc<Block>,
    hash: BlockHash,
    /// The ids and the size: computed by [`HashedBlock::new`], or — for
    /// a block read back from a store — on first use, so reopening a
    /// store hashes no transaction it does not connect.
    digests: OnceLock<(Arc<[TxId]>, usize)>,
    /// The merkle verdict, likewise: a reopen that only rolls blocks
    /// forward never builds a merkle tree.
    merkle_ok: OnceLock<bool>,
}

impl HashedBlock {
    /// Hashes `block`: the header, every transaction once, and the merkle
    /// root over their ids — so every chain the block is handed to reads
    /// the root's verdict instead of recomputing it.
    pub fn new(block: Block) -> Self {
        let (txids, size) = block.txids_and_size();
        HashedBlock {
            hash: block.hash(),
            merkle_ok: OnceLock::from(block.header.commits_to(&txids)),
            digests: OnceLock::from((txids.into(), size)),
            block: Arc::new(block),
        }
    }

    /// A block read back from a store: the header is hashed now, the
    /// rest on first use.
    pub(crate) fn stored(block: Block) -> Self {
        HashedBlock {
            hash: block.hash(),
            digests: OnceLock::new(),
            merkle_ok: OnceLock::new(),
            block: Arc::new(block),
        }
    }

    /// The block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The shared body: cloning it keeps the block without copying it.
    pub fn shared(&self) -> &Arc<Block> {
        &self.block
    }

    /// `block().hash()`.
    pub fn hash(&self) -> BlockHash {
        self.hash
    }

    fn digests(&self) -> &(Arc<[TxId]>, usize) {
        self.digests.get_or_init(|| {
            let (txids, size) = self.block.txids_and_size();
            (txids.into(), size)
        })
    }

    /// `block().transactions[i].txid()`, in block order.
    pub fn txids(&self) -> &Arc<[TxId]> {
        &self.digests().0
    }

    /// `block().size()`.
    pub fn size(&self) -> usize {
        self.digests().1
    }

    /// Whether the header's merkle root commits to [`txids`](Self::txids).
    pub(crate) fn merkle_ok(&self) -> bool {
        *self
            .merkle_ok
            .get_or_init(|| self.block.header.commits_to(self.txids()))
    }
}

impl Deref for HashedBlock {
    type Target = Block;

    fn deref(&self) -> &Block {
        &self.block
    }
}

impl From<Block> for HashedBlock {
    fn from(block: Block) -> Self {
        HashedBlock::new(block)
    }
}
