//! # bcwan
//!
//! A from-scratch reproduction of **BcWAN: A Federated Low-Power WAN for
//! the Internet of Things** (Bezahaf, Cathelain, Ducrocq — Middleware '18
//! Industry). BcWAN replaces the LoRaWAN network server with a blockchain:
//! sensors deliver data to their home network through *foreign* gateways,
//! gateways find recipients through an on-chain IP directory, and a
//! fair-exchange contract (a custom `OP_CHECKRSA512PAIR` script) pays the
//! gateway if and only if it discloses the ephemeral decryption key.
//!
//! Modules, by paper section:
//!
//! - [`provisioning`] — the shared-key setup of §4.4 (`K`, `Sk`/`Pk`),
//! - [`exchange`] — the double encryption and signatures of Fig. 3
//!   steps 3–4, 8 and 10,
//! - [`device`] — the end device: the sensor's half of Fig. 3 (request,
//!   seal, send, retransmit) and its duty-cycle gate, written once
//!   against its `DeviceEnv` and run by both [`world`] and [`fleet`],
//! - [`directory`] — the `OP_RETURN` IP directory of §4.3/§5.1,
//! - [`app_server`] — the final hop of Figs. 1–2: the recipient's
//!   application server,
//! - [`escrow`] — the Listing 1 escrow, claim and refund transactions,
//! - [`fsm`] — the escrow's reorg-aware settlement machine and the
//!   retry clock behind re-delivery and the escrow sweep,
//! - [`daemon`] — the per-host chain daemon with the Multichain
//!   block-verification **stall model** (§5.2),
//! - [`costs`] — CPU cost table for Nucleo/Pi/VM-class hardware,
//! - [`keyahead`] — a node's key stream, with its next two ephemeral
//!   keypairs generated ahead on a spare core, bit-identical to the
//!   inline draw,
//! - [`world`] — the full §5.2 testbed simulation (Figs. 5 and 6),
//! - [`audit`] — the always-on settlement auditor: per-block value
//!   conservation, at-most-one settlement per escrow, and the
//!   honest-vs-adversarial revenue split,
//! - [`sync`] — the §5.1 start-up block synchronization,
//! - [`wire`] — the host-to-host message vocabulary and its binary
//!   wire encoding,
//! - [`net`] — the §4.3 delivery glue: the wire codec packaged for the
//!   `bcwan-p2p` TCP transport, and directory endpoints as socket
//!   addresses,
//! - [`node`] — the gateway daemon itself: every reaction to an inbound
//!   message and every operator action, written once against
//!   [`NodeEnv`] and run by both [`world`] and [`fleet`],
//! - [`fleet`] — live nodes over a transport: the same scenario over
//!   the in-process bus or real TCP sockets.
//!
//! ## Quickstart
//!
//! ```no_run
//! use bcwan::world::{WorkloadConfig, World};
//!
//! // The paper's Fig. 5 experiment (block verification disabled).
//! let result = World::new(WorkloadConfig::paper_fig5()).run();
//! println!("mean latency: {:.3}s", result.latencies.summary().unwrap().mean);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app_server;
pub mod audit;
pub mod costs;
pub mod daemon;
pub mod device;
pub mod directory;
pub mod escrow;
pub mod exchange;
pub mod fleet;
pub mod fsm;
pub mod keyahead;
pub mod net;
pub mod node;
pub mod provisioning;
pub mod sync;
pub mod wire;
pub mod world;

pub use audit::GatewayOutcome;
pub use costs::CostModel;
pub use daemon::{Daemon, DaemonStats};
pub use directory::{Directory, IpAnnouncement, NetAddr};
pub use escrow::{build_claim, build_escrow, build_escrow_with_delta, build_refund, Escrow};
pub use exchange::{open_reading, seal_reading, verify_uplink, ExchangeError, SealedUplink};
pub use fleet::{
    fig3_partition_recovery, BusFleet, Fleet, FleetNode, FleetOutcome, FleetTransport, TcpFleet,
};
pub use fsm::{FsmEvent, Phase};
pub use net::WanCodec;
pub use node::{Node, NodeEnv, Note};
pub use provisioning::{DeviceCredentials, DeviceId, DeviceRecord, DeviceRegistry};
pub use wire::{WanMessage, WireError};
pub use world::{ExperimentResult, WorkloadConfig, World};
