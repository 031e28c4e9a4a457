//! Chain gossip messages and the relay dedupe.
//!
//! In BcWAN each gateway runs a full node: transactions and blocks flood
//! the overlay, and "on start-up, each node retrieves the recent blocks
//! from other nodes" (paper §5.1). [`ChainMessage`] is the wire
//! vocabulary; a [`SeenFilter`] over txids and block hashes decides what
//! to re-flood.

use bcwan_chain::{Block, BlockHash, BlockHeader, IdSet, Transaction};

/// Messages gateways exchange about the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainMessage {
    /// A new transaction for the mempool.
    Tx(Transaction),
    /// A freshly mined block.
    Block(Block),
    /// Request main-chain blocks *strictly above* a height (initial
    /// sync and partition catch-up). Servers answer with a bounded
    /// batch of `Block` messages; a still-behind requester re-asks from
    /// its new tip.
    GetBlocksFrom(u64),
    /// Inventory announcement of the sender's tip.
    TipAnnounce {
        /// Sender's best hash.
        hash: BlockHash,
        /// Sender's best height.
        height: u64,
    },
    /// Headers-first sync, step 1: request main-chain headers *strictly
    /// above* a height. Servers answer with one bounded [`Headers`]
    /// batch; the requester walks back (doubling its look-behind) until
    /// a batch connects to its own chain, locating the fork without
    /// transferring bodies.
    ///
    /// [`Headers`]: ChainMessage::Headers
    GetHeadersFrom(u64),
    /// Headers-first sync, step 2: a bounded batch of main-chain
    /// headers answering [`GetHeadersFrom`].
    ///
    /// [`GetHeadersFrom`]: ChainMessage::GetHeadersFrom
    Headers {
        /// Height the batch starts above: `headers[i]` sits at
        /// `start_height + 1 + i` on the sender's main chain.
        start_height: u64,
        /// The headers, parent before child.
        headers: Vec<BlockHeader>,
    },
}

/// Gossip relay dedupe: tracks message ids a node has already seen so
/// flooded broadcasts terminate.
#[derive(Debug, Clone, Default)]
pub struct SeenFilter {
    seen: IdSet<[u8; 32]>,
}

impl SeenFilter {
    /// A fresh filter.
    pub fn new() -> Self {
        SeenFilter::default()
    }

    /// Returns `true` the first time `id` is offered, `false` afterwards.
    pub fn first_sighting(&mut self, id: [u8; 32]) -> bool {
        self.seen.insert(id)
    }

    /// Forgets `id`, so its next sighting counts as the first again.
    /// Returns whether it was known. Used when a reorg orphans a
    /// transaction: the owner will re-broadcast it, and relays that
    /// remembered the txid would otherwise drop the recovery flood.
    pub fn forget(&mut self, id: &[u8; 32]) -> bool {
        self.seen.remove(id)
    }

    /// Number of distinct ids seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_chain::{ChainParams, Wallet};
    use rand::SeedableRng;

    fn sample_block() -> Block {
        let params = ChainParams::fast_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = Wallet::generate(&mut rng);
        bcwan_chain::Chain::make_genesis(&params, &[(w.address(), 10)])
    }

    #[test]
    fn seen_filter_dedupes() {
        let mut filter = SeenFilter::new();
        assert!(filter.first_sighting([1; 32]));
        assert!(!filter.first_sighting([1; 32]));
        assert!(filter.first_sighting([2; 32]));
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn self_originated_marking() {
        // A node marks its own block seen when it mines it, so the copy
        // that echoes back through the overlay is not re-flooded.
        let block = sample_block();
        let mut relay = SeenFilter::new();
        assert!(relay.first_sighting(block.hash().0));
        assert!(!relay.first_sighting(block.hash().0));
    }

    #[test]
    fn forget_reopens_relay() {
        let block = sample_block();
        let id = block.hash().0;
        let mut relay = SeenFilter::new();
        assert!(relay.first_sighting(id));
        assert!(!relay.first_sighting(id));
        assert!(relay.forget(&id));
        assert!(relay.first_sighting(id), "re-broadcast relays again");
        assert!(!relay.forget(&[9; 32]), "unknown id");
    }
}
