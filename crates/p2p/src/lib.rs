//! # bcwan-p2p
//!
//! The gateway-to-gateway overlay. BcWAN "removes the central core
//! network … any gateway in the system can communicate directly with
//! another gateway in a peer-to-peer manner"; this crate supplies that
//! fabric in two forms:
//!
//! - a **simulated** overlay for experiments: [`topology`] (mesh/ring/
//!   custom graphs), [`network`] (latency, loss, duplication, partitions —
//!   calibrated to the paper's PlanetLab deployment via
//!   `bcwan_sim::LatencyModel::planetlab`), and [`chain_msg`] (the block/
//!   transaction gossip vocabulary with flood dedup),
//! - a **real TCP/IP transport** ([`transport`]): a framed, checksummed
//!   wire format and a per-host runtime on `std::net` (accept loop,
//!   connection pool, timeouts, retry with backoff): [`TcpHost`].
//!
//! ## Example
//!
//! ```
//! use bcwan_p2p::network::Network;
//! use bcwan_p2p::topology::{NodeId, Topology};
//! use bcwan_sim::{LatencyModel, SimRng};
//!
//! let mut network = Network::new(Topology::full_mesh(5), LatencyModel::planetlab());
//! let mut rng = SimRng::seed_from_u64(1);
//! let deliveries = network.broadcast(&mut rng, NodeId(0), &"new block");
//! assert_eq!(deliveries.len(), 4); // every other PlanetLab node
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chain_msg;
pub mod network;
pub mod topology;
pub mod transport;

pub use chain_msg::ChainMessage;
pub use network::{Delivery, FaultModel, NetStats, Network, SeenFilter};
pub use topology::{NodeId, Topology};
pub use transport::{
    Codec, CodecError, Envelope, Inbox, TcpConfig, TcpHost, TransportError, TransportStats,
};
