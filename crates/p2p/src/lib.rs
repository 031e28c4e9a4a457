//! # bcwan-p2p
//!
//! The gateway-to-gateway overlay. BcWAN "removes the central core
//! network … any gateway in the system can communicate directly with
//! another gateway in a peer-to-peer manner"; this crate supplies that
//! fabric for live fleets and the vocabulary the simulator shares with
//! them:
//!
//! - a **real TCP/IP transport** ([`transport`]): a framed, checksummed
//!   wire format and a per-host runtime on `std::net` (accept loop,
//!   connection pool, timeouts, retry with backoff): [`TcpHost`],
//! - the overlay's names and gossip rules: [`NodeId`], the block/
//!   transaction vocabulary [`ChainMessage`] and the flood dedupe
//!   [`SeenFilter`] ([`chain_msg`]).
//!
//! The simulated WAN (latency, loss, duplication, the gossip graph) is
//! not here: it is a leg of `bcwan::world::World`, which schedules each
//! delivery straight into its event queue.
//!
//! ## Example
//!
//! ```
//! use bcwan_p2p::SeenFilter;
//!
//! // A relay re-floods a block hash only the first time it sees it.
//! let mut relay = SeenFilter::new();
//! assert!(relay.first_sighting([7; 32]));
//! assert!(!relay.first_sighting([7; 32]));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chain_msg;
pub mod transport;

use std::fmt;

pub use chain_msg::{ChainMessage, SeenFilter};
pub use transport::{
    Codec, CodecError, Envelope, Inbox, TcpConfig, TcpHost, TransportError, TransportStats,
};

/// A peer identifier on the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
