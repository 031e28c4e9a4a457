//! Blocks, headers, and proof-of-work.

use crate::merkle::merkle_root;
use crate::tx::{Transaction, TxId};
use bcwan_crypto::{sha256, sha256d, Sha256};
use std::fmt;

/// A block hash (double-SHA256 of the serialized header).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockHash(pub [u8; 32]);

impl BlockHash {
    /// The all-zero hash that the genesis block's header points at.
    pub const GENESIS_PREV: BlockHash = BlockHash([0; 32]);

    /// Number of leading zero bits — the proof-of-work measure.
    pub(crate) fn leading_zero_bits(&self) -> u32 {
        let mut bits = 0;
        for &b in &self.0 {
            if b == 0 {
                bits += 8;
            } else {
                bits += b.leading_zeros();
                break;
            }
        }
        bits
    }

    /// Full lowercase hex.
    pub fn to_hex(&self) -> String {
        bcwan_crypto::hex::encode(&self.0)
    }
}

impl fmt::Debug for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockHash({self})")
    }
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.to_hex();
        write!(f, "{}…{}", &hex[..8], &hex[56..])
    }
}

/// A block header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Format version.
    pub version: u32,
    /// Hash of the previous block.
    pub prev_hash: BlockHash,
    /// Merkle root over the block's transaction ids.
    pub merkle_root: [u8; 32],
    /// Simulation timestamp (microseconds) when the block was mined.
    pub time_us: u64,
    /// Required leading-zero bits (difficulty target, compact form).
    pub bits: u32,
    /// Proof-of-work nonce.
    pub nonce: u64,
}

impl BlockHeader {
    /// Serializes the header for hashing.
    pub fn serialize(&self) -> [u8; 88] {
        let mut out = [0u8; 88];
        out[0..4].copy_from_slice(&self.version.to_le_bytes());
        out[4..36].copy_from_slice(&self.prev_hash.0);
        out[36..68].copy_from_slice(&self.merkle_root);
        out[68..76].copy_from_slice(&self.time_us.to_le_bytes());
        out[76..80].copy_from_slice(&self.bits.to_le_bytes());
        out[80..88].copy_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// The header (block) hash.
    pub fn hash(&self) -> BlockHash {
        BlockHash(sha256d(&self.serialize()))
    }

    /// Whether this header's merkle root commits to `txids`, a block's
    /// transaction ids in order: the one merkle rule validation applies.
    pub(crate) fn commits_to(&self, txids: &[TxId]) -> bool {
        merkle_root(txids) == self.merkle_root
    }

    /// Whether the hash meets this header's own difficulty claim.
    pub fn meets_target(&self) -> bool {
        self.hash().leading_zero_bits() >= self.bits
    }
}

/// A block: header plus ordered transactions (first must be coinbase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The transactions.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Assembles a block and solves its proof of work by nonce search.
    ///
    /// With the small difficulties of a Multichain-like permissioned chain
    /// this takes milliseconds at most; the *block schedule* comes from the
    /// simulator, not from hash grinding (see `bcwan-p2p`'s miner driver).
    ///
    /// The nonce is the header's last field, so its first 64 bytes —
    /// version, parent hash and most of the merkle root — are hashed once
    /// (the SHA-256 midstate), and each nonce costs two compressions: the
    /// 24-byte tail and the second pass over the digest. It returns the
    /// first nonce [`BlockHeader::meets_target`] accepts, as a plain
    /// `sha256d` loop over whole headers would.
    pub fn mine(
        prev_hash: BlockHash,
        time_us: u64,
        bits: u32,
        transactions: Vec<Transaction>,
    ) -> Block {
        let txids: Vec<_> = transactions.iter().map(|t| t.txid()).collect();
        let mut header = BlockHeader {
            version: 1,
            prev_hash,
            merkle_root: merkle_root(&txids),
            time_us,
            bits,
            nonce: 0,
        };
        let bytes = header.serialize();
        let mut midstate = Sha256::new();
        midstate.update(&bytes[..64]);
        let mut tail: [u8; 24] = bytes[64..].try_into().expect("88-byte header");
        loop {
            tail[16..].copy_from_slice(&header.nonce.to_le_bytes());
            let mut first = midstate.clone();
            first.update(&tail);
            if BlockHash(sha256(&first.finalize())).leading_zero_bits() >= bits {
                break;
            }
            header.nonce += 1;
        }
        Block {
            header,
            transactions,
        }
    }

    /// The block hash.
    pub fn hash(&self) -> BlockHash {
        self.header.hash()
    }

    /// Serialized size in bytes (header + transactions).
    pub fn size(&self) -> usize {
        88 + self
            .transactions
            .iter()
            .map(Transaction::size)
            .sum::<usize>()
    }

    /// Every transaction's id, in block order, plus the block's
    /// serialized size — one serialization per transaction. Block
    /// connect computes this once and threads the ids through the merkle
    /// check, the UTXO overlay, the coins cache and the mempool.
    pub fn txids_and_size(&self) -> (Vec<TxId>, usize) {
        let mut size = 88;
        let txids = self
            .transactions
            .iter()
            .map(|tx| {
                let (txid, tx_size) = tx.txid_and_size();
                size += tx_size;
                txid
            })
            .collect();
        (txids, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chainstate::{BlockAction, Chain, ChainError};
    use crate::params::ChainParams;
    use crate::tx::TxOut;
    use crate::validate::BlockError;
    use bcwan_script::Script;

    fn coinbase(height: u64) -> Transaction {
        Transaction::coinbase(
            height,
            b"test",
            vec![TxOut {
                value: 50_000,
                script_pubkey: Script::new(),
            }],
        )
    }

    #[test]
    fn mine_finds_valid_pow() {
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, 8, vec![coinbase(0)]);
        assert!(block.header.meets_target());
        assert!(block.hash().leading_zero_bits() >= 8);
    }

    /// The midstate search returns the nonce the plain loop over whole
    /// headers finds, at every difficulty up to 14 bits (8 in a debug
    /// build, where each hash is an order of magnitude slower), over 50
    /// templates that vary every header field.
    #[test]
    fn midstate_mine_finds_the_plain_loops_nonce() {
        let hardest = if cfg!(debug_assertions) { 8 } else { 14 };
        for template in 0..50u8 {
            let prev_hash = BlockHash([template.wrapping_mul(97); 32]);
            let time_us = u64::from(template) * 1_000_003;
            let cb = coinbase(u64::from(template));
            for bits in 0..=hardest {
                let block = Block::mine(prev_hash, time_us, bits, vec![cb.clone()]);
                let mut plain = BlockHeader {
                    nonce: 0,
                    ..block.header.clone()
                };
                while !plain.meets_target() {
                    plain.nonce += 1;
                }
                assert_eq!(block.header, plain, "template {template}, {bits} bits");
            }
        }
    }

    #[test]
    fn hash_changes_with_nonce() {
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, 4, vec![coinbase(0)]);
        let mut header2 = block.header.clone();
        header2.nonce += 1;
        assert_ne!(block.hash(), header2.hash());
    }

    #[test]
    fn leading_zero_bits_math() {
        assert_eq!(BlockHash([0xff; 32]).leading_zero_bits(), 0);
        assert_eq!(BlockHash([0; 32]).leading_zero_bits(), 256);
        let mut h = [0u8; 32];
        h[0] = 0x0f;
        assert_eq!(BlockHash(h).leading_zero_bits(), 4);
        let mut h2 = [0u8; 32];
        h2[1] = 0x80;
        assert_eq!(BlockHash(h2).leading_zero_bits(), 8);
    }

    /// The merkle rule lives in block validation: a chain refuses a
    /// body its header's root does not commit to, and takes the honest
    /// body under the very same header.
    #[test]
    fn merkle_root_detects_tx_swap() {
        let params = ChainParams::fast_test();
        let bits = params.difficulty_bits;
        let mut chain = Chain::new(
            params,
            Block::mine(BlockHash::GENESIS_PREV, 0, bits, vec![coinbase(0)]),
        );
        let honest = Block::mine(chain.tip(), 1, bits, vec![coinbase(1)]);
        let mut swapped = honest.clone();
        swapped.transactions[0] = coinbase(2);
        let refused = Err(ChainError::Invalid(BlockError::BadMerkleRoot));
        assert_eq!(chain.add_block(swapped), refused);
        let mut pair = Block::mine(chain.tip(), 1, bits, vec![coinbase(1), coinbase(2)]);
        pair.transactions.swap(0, 1);
        assert_eq!(chain.add_block(pair), refused);
        assert_eq!(chain.add_block(honest), Ok(BlockAction::Extended(1)));
    }

    #[test]
    fn size_accounts_header_and_txs() {
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, 4, vec![coinbase(0)]);
        assert_eq!(block.size(), 88 + block.transactions[0].size());
    }

    #[test]
    fn display_forms() {
        let h = BlockHash([0xab; 32]);
        assert!(h.to_string().contains('…'));
        assert_eq!(h.to_hex().len(), 64);
    }
}
