//! # bcwan-chain
//!
//! The blockchain substrate: a UTXO chain with Bitcoin-style transactions
//! and Multichain-style tunable consensus, standing in for the Multichain
//! daemon the paper's proof of concept ran (§5.1).
//!
//! - [`tx`] — transactions, txids, SIGHASH_ALL signature hashes,
//! - [`wallet`] — single-key wallets and `HASH160` addresses (the BcWAN
//!   blockchain identity `@R`),
//! - [`merkle`] — merkle roots and inclusion proofs,
//! - [`block`] — headers, proof-of-work, block assembly,
//! - [`hashed`] — transactions and blocks carried with their digests,
//!   hashed once where they enter,
//! - [`idmap`] — the keyed hasher under every map keyed by a digest or
//!   a dense id ([`IdMap`], [`IdSet`]),
//! - [`params`] — the tunable consensus knobs Multichain advertises
//!   (block interval, block size) and the **block-verification stall
//!   model** behind the paper's Fig. 6,
//! - [`utxo`] — the UTXO set with reorg-grade undo data,
//! - [`validate`] — transaction and block validation (full script
//!   verification, BIP-65 lock-time finality, coinbase maturity, checked
//!   value sums): one path through the [`SigCache`], with no settings,
//! - [`mempool`] — first-seen transaction pool with fee-ordered templates,
//! - [`chainstate`] — best-chain selection and reorganization,
//! - [`codec`] — canonical binary decoding shared by the wire layer and
//!   the store (txids survive every round-trip),
//! - [`store`] — persistent chain storage: append-only block/undo
//!   files, the in-memory UTXO set written back to a flat coins table,
//!   and a crash-safe manifest (see `Chain::create_with_store` /
//!   `Chain::open_store`).
//!
//! ## Example
//!
//! ```
//! use bcwan_chain::chainstate::Chain;
//! use bcwan_chain::params::ChainParams;
//! use bcwan_chain::wallet::Wallet;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let wallet = Wallet::generate(&mut rng);
//! let params = ChainParams::multichain_like();
//! let genesis = Chain::make_genesis(&params, &[(wallet.address(), 1_000_000)]);
//! let chain = Chain::new(params, genesis);
//! assert_eq!(chain.height(), 0);
//! assert_eq!(chain.utxo().total_value(), 1_000_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod chainstate;
pub mod codec;
pub mod hashed;
pub mod idmap;
pub mod mempool;
pub mod merkle;
pub mod params;
pub mod store;
pub mod tx;
pub mod utxo;
pub mod validate;
pub mod wallet;

pub use block::{Block, BlockHash, BlockHeader};
pub use chainstate::{
    BlockAction, Chain, ChainError, ChainStats, OpenedChain, ReorgInfo, StoreSummary,
};
pub use codec::CodecError;
pub use hashed::{HashedBlock, HashedTx};
pub use idmap::{IdMap, IdSet};
pub use mempool::{Mempool, MempoolError, MempoolStats};
pub use params::{ChainParams, StallModel};
pub use store::{CoinsCache, StoreConfig, StoreError};
pub use tx::{OutPoint, Transaction, TxId, TxIn, TxOut, SEQUENCE_FINAL};
pub use utxo::{UtxoEntry, UtxoSet};
pub use validate::{
    validate_block, validate_transaction, BlockError, SigCache, SigKey, SigKind, TxError,
};
pub use wallet::{Address, Wallet};
