//! Glue between BcWAN's message vocabulary, the on-chain directory, and
//! the real TCP transport in `bcwan-p2p`:
//!
//! - [`WanCodec`] — [`WanMessage`]'s binary encoding packaged as the
//!   transport layer's [`Codec`], with per-kind metric labels,
//! - [`NetAddr`]↔[`SocketAddr`] conversions, so the endpoint format the
//!   chain stores in `OP_RETURN` outputs plugs directly into `std::net`.

use crate::directory::NetAddr;
use crate::wire::{WanMessage, KIND_COUNT, KIND_LABELS};
use bcwan_p2p::transport::{Codec, CodecError};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, SocketAddrV4};

/// [`WanMessage`]'s binary encoding as a transport [`Codec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WanCodec;

impl Codec<WanMessage> for WanCodec {
    fn encode(&self, msg: &WanMessage) -> Vec<u8> {
        msg.encode()
    }

    fn decode(&self, bytes: &[u8]) -> Result<WanMessage, CodecError> {
        WanMessage::decode(bytes).map_err(CodecError::new)
    }

    fn kind_count(&self) -> usize {
        KIND_COUNT
    }

    fn kind_index(&self, msg: &WanMessage) -> usize {
        msg.kind_index()
    }

    fn kind_label(&self, index: usize) -> &'static str {
        KIND_LABELS[index]
    }
}

impl NetAddr {
    /// The `std::net` socket address this endpoint names.
    pub fn to_socket_addr(self) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(
            Ipv4Addr::new(self.ip[0], self.ip[1], self.ip[2], self.ip[3]),
            self.port,
        ))
    }

    /// Builds an endpoint from a socket address (`None` for IPv6 — the
    /// on-chain payload format only carries IPv4 octets).
    pub fn from_socket_addr(addr: SocketAddr) -> Option<Self> {
        match addr.ip() {
            IpAddr::V4(v4) => Some(NetAddr {
                ip: v4.octets(),
                port: addr.port(),
            }),
            IpAddr::V6(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_p2p::ChainMessage;

    #[test]
    fn netaddr_socket_addr_round_trip() {
        let net = NetAddr {
            ip: [127, 0, 0, 1],
            port: 4433,
        };
        let sock = net.to_socket_addr();
        assert_eq!(sock.to_string(), "127.0.0.1:4433");
        assert_eq!(NetAddr::from_socket_addr(sock), Some(net));
        let v6: SocketAddr = "[::1]:80".parse().unwrap();
        assert_eq!(NetAddr::from_socket_addr(v6), None);
    }

    #[test]
    fn codec_labels_cover_all_kinds() {
        let codec = WanCodec;
        let msg = WanMessage::Chain(ChainMessage::GetBlocksFrom(0));
        assert_eq!(codec.kind_label(codec.kind_index(&msg)), "sync");
        let decoded = codec.decode(&codec.encode(&msg)).unwrap();
        assert_eq!(decoded, msg);
        assert!(codec.decode(b"junk").is_err());
    }
}
