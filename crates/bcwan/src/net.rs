//! Glue between BcWAN's message vocabulary, the on-chain directory, and
//! the real TCP transport in `bcwan-p2p`.
//!
//! Three pieces:
//!
//! - [`WanCodec`] — [`WanMessage`]'s binary encoding packaged as the
//!   transport layer's [`Codec`], with per-kind metric labels,
//! - [`NetAddr`]↔[`SocketAddr`] conversions, so the endpoint format the
//!   chain stores in `OP_RETURN` outputs plugs directly into `std::net`,
//! - [`OverlayDialer`] — the paper's §4.3 delivery step as code: resolve
//!   the recipient's published endpoint in the [`Directory`] scanned off
//!   the chain, then send over whatever `SocketAddr` transport it wraps.

use crate::directory::{Directory, NetAddr};
use crate::wire::{WanMessage, KIND_COUNT, KIND_LABELS};
use bcwan_chain::Address;
use bcwan_p2p::transport::{Codec, CodecError, Transport, TransportError};
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
    pub(crate) fn to_socket_addr(self) -> SocketAddr {
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

/// Why a directory-driven delivery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DialError {
    /// The recipient's blockchain address has no published endpoint.
    NotInDirectory(Address),
    /// The transport gave up after its retry policy.
    Transport(TransportError),
}

impl std::fmt::Display for DialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DialError::NotInDirectory(addr) => {
                write!(f, "no directory entry for {addr}")
            }
            DialError::Transport(e) => write!(f, "delivery failed: {e}"),
        }
    }
}

impl std::error::Error for DialError {}

/// Directory-driven dialing: the lookup-then-connect a foreign gateway
/// performs to deliver a sensor's data (paper §4.3, Fig. 3 step 7).
#[derive(Debug, Clone)]
pub struct OverlayDialer<T> {
    transport: T,
    directory: Directory,
}

impl<T: Transport<SocketAddr, WanMessage>> OverlayDialer<T> {
    /// Wraps a `SocketAddr` transport with a directory view.
    pub fn new(transport: T, directory: Directory) -> Self {
        OverlayDialer {
            transport,
            directory,
        }
    }

    /// The current directory view.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Resolves `recipient`'s published endpoint and sends `msg` there.
    ///
    /// # Errors
    ///
    /// [`DialError::NotInDirectory`] when the address never announced, or
    /// the transport's error once its retries are exhausted.
    pub fn deliver(&self, recipient: &Address, msg: &WanMessage) -> Result<SocketAddr, DialError> {
        let endpoint = self
            .directory
            .lookup(recipient)
            .ok_or(DialError::NotInDirectory(*recipient))?
            .to_socket_addr();
        self.transport
            .send(endpoint, msg)
            .map_err(DialError::Transport)?;
        Ok(endpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::IpAnnouncement;
    use bcwan_p2p::ChainMessage;
    use std::sync::Mutex;

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

    /// Transport stub that records where messages were sent.
    struct Recorder(Mutex<Vec<SocketAddr>>);

    impl Transport<SocketAddr, WanMessage> for Recorder {
        fn send(&self, to: SocketAddr, _msg: &WanMessage) -> Result<(), TransportError> {
            self.0.lock().unwrap().push(to);
            Ok(())
        }
    }

    #[test]
    fn dialer_resolves_through_directory() {
        let recipient = Address([0xbb; 20]);
        let mut directory = Directory::new();
        directory.absorb(IpAnnouncement {
            address: recipient,
            endpoint: NetAddr {
                ip: [127, 0, 0, 1],
                port: 9111,
            },
            seq: 1,
        });
        let dialer = OverlayDialer::new(Recorder(Mutex::new(Vec::new())), directory);
        let msg = WanMessage::Chain(ChainMessage::GetBlocksFrom(0));
        let endpoint = dialer.deliver(&recipient, &msg).unwrap();
        assert_eq!(endpoint.to_string(), "127.0.0.1:9111");
        assert_eq!(dialer.transport.0.lock().unwrap().as_slice(), &[endpoint]);

        let unknown = Address([0xcc; 20]);
        assert_eq!(
            dialer.deliver(&unknown, &msg),
            Err(DialError::NotInDirectory(unknown))
        );
    }
}
