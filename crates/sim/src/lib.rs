//! # bcwan-sim
//!
//! A deterministic discrete-event simulation kernel. The BcWAN paper
//! evaluated its proof of concept on PlanetLab hardware that no longer
//! exists; this crate replaces the testbed with a simulated clock, a
//! time-ordered event queue, seeded randomness, WAN latency models
//! (including a PlanetLab-shaped preset), and measurement collection.
//!
//! Layers above (`bcwan-lora`, `bcwan-p2p`, `bcwan`) define their own
//! event types and drive them through [`EventQueue`].
//!
//! ## Example
//!
//! ```
//! use bcwan_sim::{run, Actor, EventQueue, SimDuration, SimTime};
//!
//! struct Pinger { pongs: u32 }
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! impl Actor<Ev> for Pinger {
//!     fn handle(&mut self, _now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
//!         match ev {
//!             Ev::Ping => q.schedule_in(SimDuration::from_millis(40), Ev::Pong),
//!             Ev::Pong => self.pongs += 1,
//!         }
//!     }
//! }
//!
//! let mut world = Pinger { pongs: 0 };
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::ZERO, Ev::Ping);
//! run(&mut world, &mut q, None);
//! assert_eq!(world.pongs, 1);
//! assert_eq!(q.now().as_micros(), 40_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod json;
pub mod latency;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod time;

pub use chaos::{ChaosEngine, ChaosFault, ChaosPlan, ChaosProfile, ChaosStats};
pub use json::Json;
pub use latency::LatencyModel;
pub use metrics::{
    labeled, split_label, Bucket, CounterId, GaugeId, HistogramId, HistogramSummary, LogHistogram,
    Metric, Registry, Series, Snapshot, SnapshotSeries, Summary,
};
pub use queue::{run, Actor, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
