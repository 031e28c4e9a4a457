//! Adapter for `bcwan-p2p`: the authenticated frame codec and the
//! event-driven TCP transport, on loopback only.

use super::bcwan::{WanCodec, WanMessage};
use crate::trace::span;
use bcwan_p2p::transport::frame::{encode_frame, FrameAssembler, HEADER_LEN, TAG_LEN};
use bcwan_p2p::transport::{FrameKey, TcpConfig, TcpHost, TcpRuntime, TransportStats};
use bcwan_p2p::{Inbox, NodeId};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const LAYER: &str = "p2p";

pub type Host = TcpHost<WanMessage, WanCodec>;
pub type HostInbox = Inbox<WanMessage>;

/// One end of a two-host loopback link.
pub struct Endpoint {
    pub host: Host,
    pub inbox: HostInbox,
    pub addr: SocketAddr,
}

/// Two hosts on one shared runtime with a single connection worker.
pub fn pair() -> (Endpoint, Endpoint) {
    let _s = span(LAYER, "tcp_bind_pair");
    let runtime: TcpRuntime<WanMessage, WanCodec> =
        TcpRuntime::new(1).expect("spawn transport threads");
    let bind = |id: u32| {
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
        let (host, inbox) = TcpHost::bind_with_runtime(
            &runtime,
            loopback,
            NodeId(id),
            WanCodec,
            TcpConfig::fast_test(),
        )
        .expect("bind a loopback port");
        Endpoint {
            addr: host.local_addr(),
            host,
            inbox,
        }
    };
    (bind(0), bind(1))
}

/// `true` when the transport took the message.
pub fn send(name: &'static str, from: &Host, to: SocketAddr, msg: &WanMessage) -> bool {
    let _s = span(LAYER, name);
    from.send(to, msg).is_ok()
}

/// Blocks until a message arrives or `timeout` passes.
pub fn recv(inbox: &HostInbox, timeout: Duration) -> Option<WanMessage> {
    let _s = span(LAYER, "recv_wait");
    inbox.recv_timeout(timeout).map(|env| env.msg)
}

pub fn inbox_depth(inbox: &HostInbox) -> u64 {
    inbox.depth()
}

/// The transport counters the ledger reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub retries: u64,
    pub auth_failures: u64,
    pub send_failures: u64,
    pub frames_sent: u64,
}

pub fn counters(host: &Host) -> Counters {
    let stats = host.stats();
    let get = TransportStats::get;
    Counters {
        retries: get(&stats.retries),
        auth_failures: get(&stats.auth_failures),
        send_failures: get(&stats.send_failures),
        frames_sent: stats.frames_sent.iter().map(get).sum(),
    }
}

pub fn shutdown(host: &Host) {
    host.shutdown();
}

pub fn frame_encode(name: &'static str, payload: &[u8]) -> Vec<u8> {
    let key = FrameKey::dev();
    let _s = span(LAYER, name);
    encode_frame(&key, 7, 0, payload)
}

/// `Some(payload length)` when the bytes hold one frame that verifies.
pub fn frame_decode(name: &'static str, wire: &[u8]) -> Option<usize> {
    let key = FrameKey::dev();
    let _s = span(LAYER, name);
    let mut assembler = FrameAssembler::new();
    assembler.extend(wire);
    match assembler.next_frame(&key) {
        Ok(Some(frame)) => Some(frame.payload.len()),
        _ => None,
    }
}

/// A well-formed frame with one byte of its MAC tag flipped.
pub fn frame_with_flipped_mac(payload: &[u8]) -> Vec<u8> {
    let mut wire = encode_frame(&FrameKey::dev(), 7, 0, payload);
    wire[HEADER_LEN - TAG_LEN] ^= 0x01;
    wire
}

/// Writes raw bytes to a host's listener, as a peer outside the
/// federation would.
pub fn inject_raw(to: SocketAddr, bytes: &[u8]) -> bool {
    let _s = span(LAYER, "inject_raw");
    TcpStream::connect(to)
        .and_then(|mut stream| stream.write_all(bytes))
        .is_ok()
}
