//! The overlay transport layer: how a host's messages actually move.
//!
//! The paper's gateways "open a direct TCP/IP connection" to the
//! recipient they looked up on chain (§4.3). This module tree makes that
//! a first-class, failure-prone subsystem instead of an in-process
//! stand-in:
//!
//! - [`frame`] — the versioned, checksummed, *authenticated*
//!   length-prefixed frame every byte stream carries (HMAC tag over
//!   header and payload under the federation's provisioned
//!   [`FrameKey`]),
//! - [`tcp`] — an event-driven runtime on `std::net`: one accept
//!   poller plus a bounded worker pool, each blocked in `poll(2)` until
//!   a socket it serves is ready, multiplex *all* of a fleet's
//!   connections, so a fleet of hosts costs a handful of threads
//!   instead of one per connection; per-peer connection pooling,
//!   connect/write deadlines, and bounded exponential-backoff retry on
//!   the send side. (`poll` and the wakers that interrupt it are bound
//!   in the private `sys` module, the one place in the workspace that
//!   makes a foreign call.)
//! - each host's depth-tracked [`Inbox`] of [`Envelope`]s, and the
//!   doorbell every delivery into one rings (the private `inbox`
//!   module).
//!
//! Serialization is delegated to a [`Codec`], keeping the transport
//! generic over the message vocabulary (the `bcwan` crate supplies the
//! `WanMessage` codec; tests use toy codecs).

pub mod frame;
mod inbox;
#[allow(unsafe_code)]
mod sys;
pub mod tcp;

use bcwan_sim::{Metric, Registry};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Serializes and deserializes one message vocabulary for the wire.
pub trait Codec<M>: Send + Sync + 'static {
    /// Deterministically encodes `msg` into payload bytes.
    fn encode(&self, msg: &M) -> Vec<u8>;

    /// Decodes payload bytes; must reject garbage, never panic.
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing why the bytes are not a valid message.
    fn decode(&self, bytes: &[u8]) -> Result<M, CodecError>;

    /// Number of distinct payload kinds (width of per-kind counters).
    fn kind_count(&self) -> usize {
        1
    }

    /// Dense kind index of `msg` (`< kind_count()`).
    fn kind_index(&self, _msg: &M) -> usize {
        0
    }

    /// Short metric label for a kind index.
    fn kind_label(&self, _index: usize) -> &'static str {
        "msg"
    }
}

/// A decode failure (the payload was framed correctly but is not a valid
/// message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable reason.
    pub reason: String,
}

impl CodecError {
    /// Builds an error from any displayable reason.
    pub fn new(reason: impl fmt::Display) -> Self {
        CodecError {
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload did not decode: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

/// Errors surfaced by [`TcpHost::send`](tcp::TcpHost::send) after retries are exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer could not be reached (dial failures, unknown node).
    Unreachable(String),
    /// A connect/read/write deadline expired.
    Timeout(String),
    /// The connection died while writing and retries ran out.
    Io(String),
    /// The encoded message exceeds the frame ceiling.
    Oversize {
        /// Encoded payload length.
        len: usize,
        /// The ceiling (`frame::MAX_FRAME_PAYLOAD`).
        max: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Unreachable(what) => write!(f, "peer unreachable: {what}"),
            TransportError::Timeout(what) => write!(f, "transport timeout: {what}"),
            TransportError::Io(what) => write!(f, "transport failure: {what}"),
            TransportError::Oversize { len, max } => {
                write!(f, "message of {len} bytes exceeds frame ceiling {max}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// One counter per codec payload kind, exported as one row per kind:
/// `{kind}` in the row template becomes the codec's label.
#[derive(Debug, Default)]
pub struct KindCounters {
    labels: Vec<&'static str>,
    slots: Vec<AtomicU64>,
}

impl std::ops::Deref for KindCounters {
    type Target = [AtomicU64];
    fn deref(&self) -> &[AtomicU64] {
        &self.slots
    }
}

impl Metric for KindCounters {
    fn merge(&mut self, other: &Self) {
        for (slot, theirs) in self.slots.iter_mut().zip(&other.slots) {
            slot.merge(theirs);
        }
    }
    fn export(&self, reg: &mut Registry, row: &str) {
        for (label, slot) in self.labels.iter().zip(&self.slots) {
            slot.export(reg, &row.replace("{kind}", label));
        }
    }
}

bcwan_sim::counters! {
    /// Atomic transport counters, shared across the sender, accept, and
    /// reader threads of one host (`transport.*` rows; see
    /// `TcpHost::export_metrics`).
    #[derive(Debug, Default)]
    pub struct TransportStats {
        /// Frame + payload bytes written (successful sends only).
        pub bytes_sent: AtomicU64 => "transport.bytes_sent_total",
        /// Frame + payload bytes of frames received intact.
        pub bytes_received: AtomicU64 => "transport.bytes_received_total",
        /// Outbound connection attempts.
        pub dials: AtomicU64 => "transport.dials_total",
        /// Outbound connection attempts that failed.
        pub dial_failures: AtomicU64 => "transport.dial_failures_total",
        /// Send attempts retried after a dial/write failure.
        pub retries: AtomicU64 => "transport.retries_total",
        /// Connect/read/write deadline expiries.
        pub timeouts: AtomicU64 => "transport.timeouts_total",
        /// Sends that reused a pooled connection.
        pub pool_hits: AtomicU64 => "transport.pool_hits_total",
        /// Sends that had to dial a fresh connection.
        pub pool_misses: AtomicU64 => "transport.pool_misses_total",
        /// Inbound connections accepted.
        pub conns_accepted: AtomicU64 => "transport.conns_accepted_total",
        /// Frames rejected by the reader (bad magic/version/checksum,
        /// truncation, undecodable payload, failed authentication).
        pub frames_rejected: AtomicU64 => "transport.frames_rejected_total",
        /// Frames whose authentication tag did not verify (forged `from`
        /// header, corrupted tag, or a peer holding a different
        /// [`FrameKey`]); always a subset of `frames_rejected`.
        pub auth_failures: AtomicU64 => "transport.auth.fail_total",
        /// Sends that ultimately failed after all retries.
        pub send_failures: AtomicU64 => "transport.send_failures_total",
        /// Injected send-side faults fired (frames torn mid-write).
        pub faults_send: AtomicU64 => "transport.fault.send_total",
        /// Injected receive-side faults fired (reader threads killed
        /// mid-frame).
        pub faults_recv: AtomicU64 => "transport.fault.recv_total",
        /// Frames sent, by codec kind index.
        pub frames_sent: KindCounters => "transport.frames_sent_{kind}_total",
        /// Frames received intact, by codec kind index.
        pub frames_received: KindCounters => "transport.frames_received_{kind}_total",
    }
}

impl TransportStats {
    /// Zeroed stats with one per-kind slot per codec label (at least
    /// one, so a kind index always has a slot to clamp to).
    pub fn new(mut kind_labels: Vec<&'static str>) -> Self {
        if kind_labels.is_empty() {
            kind_labels.push("msg");
        }
        let per_kind = || KindCounters {
            labels: kind_labels.clone(),
            slots: kind_labels.iter().map(|_| AtomicU64::new(0)).collect(),
        };
        TransportStats {
            frames_sent: per_kind(),
            frames_received: per_kind(),
            ..TransportStats::default()
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_by(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    pub(crate) fn kind_slot(slots: &[AtomicU64], kind: usize) -> &AtomicU64 {
        &slots[kind.min(slots.len() - 1)]
    }

    /// Current value of one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

pub use frame::FrameKey;
pub use inbox::{Envelope, Inbox};
pub use tcp::{TcpConfig, TcpHost, TcpRuntime};
