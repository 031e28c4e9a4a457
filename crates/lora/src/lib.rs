//! # bcwan-lora
//!
//! A LoRa PHY/MAC simulator: everything the BcWAN reproduction needs from
//! the radio layer the paper ran on real hardware (Nucleo-144 node,
//! Raspberry Pi + RFM95 gateway, C. Pham's gateway stack).
//!
//! - [`params`] — spreading factors, bandwidths, coding rates, regional
//!   payload caps and receiver sensitivities,
//! - [`airtime`] — the Semtech AN1200.13 time-on-air formula, from which
//!   the paper's "183 messages per sensor per hour" workload cap derives,
//! - [`duty_cycle`] — ETSI 1 % duty-cycle enforcement,
//! - [`frame`] — the paper's frames: Fig. 4's 34-byte encrypted reading
//!   and the request / ephemeral-key / data-uplink exchange of Fig. 3,
//! - [`link`] — log-distance path loss with shadowing, for roaming
//!   scenarios with physical gateway placement,
//! - [`radio`] — a per-device front-end tying it all together,
//! - [`collision`] — unslotted-ALOHA contention per `(channel, SF)` key,
//! - [`mac`] — CSMA backoff, capture effect and demodulator saturation,
//! - [`shard`] — the sharded, columnar million-sensor world (plus the
//!   per-`Radio` scalar reference it is benchmarked against),
//! - [`energy`] — node energy costs and coin-cell battery projections.
//!
//! ## Example
//!
//! ```
//! use bcwan_lora::airtime::max_messages_per_hour;
//! use bcwan_lora::params::RadioConfig;
//!
//! // The paper's workload: 128-byte payload + 4-byte header, SF7, 1% duty.
//! let per_hour = max_messages_per_hour(&RadioConfig::paper_sf7(), 132, 0.01);
//! assert!(per_hour > 150.0 && per_hour < 200.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod airtime;
pub mod collision;
pub mod duty_cycle;
pub mod energy;
pub mod frame;
pub mod link;
pub mod mac;
pub mod params;
pub mod radio;
pub mod shard;

pub use airtime::{max_messages_per_hour, time_on_air};
pub use collision::{LoadKey, OfferedLoads};
pub use duty_cycle::DutyCycleGovernor;
pub use frame::{EncryptedReading, FrameError, LoraFrame, ADDRESS_LEN};
pub use link::{LinkModel, Position};
pub use mac::MacConfig;
pub use params::{Bandwidth, CodingRate, RadioConfig, SpreadingFactor};
pub use radio::{Radio, RadioError, Transmission};
pub use shard::{ScalarFleet, Shard, ShardConfig, ShardCounters, ShardedLora};
