//! Messages BcWAN hosts exchange over TCP/IP (the overlay), and their
//! deterministic binary wire encoding.
//!
//! [`WanMessage::encode`] / [`WanMessage::decode`] are the payload codec
//! the transport layer frames (see `bcwan-p2p`'s `transport` module): a
//! one-byte variant tag followed by the variant's fields, every integer
//! little-endian, every variable-length field `u32`-length-prefixed.
//!
//! ```text
//! offset  size  field
//!      0     1  message tag (0 Tx, 1 Block, 3 GetBlocksFrom,
//!               4 TipAnnounce, 5 Deliver, 6 GetHeadersFrom, 7 Headers;
//!               2 was GetBlock and is not reused)
//!      1     …  tag-specific fields, in declaration order:
//!               integers u32/u64 LE; hashes raw 32 bytes; headers raw
//!               88 bytes; variable fields (scripts, ePk, Em, Sig)
//!               u32-length-prefixed
//! ```
//!
//! This is the *payload* layout only. Integrity and authenticity are
//! deliberately **not** here: the CRC-32 and the 16-byte HMAC tag live
//! in the 38-byte transport frame header (`bcwan-p2p`'s
//! `transport::frame`) that wraps this payload on the byte stream —
//! earlier revisions of this doc implied the checksum was part of the
//! payload, which it never was. Transactions, blocks, and headers reuse
//! the chain's canonical `serialize()` layout byte-for-byte and decode
//! through the shared [`bcwan_chain::codec`] readers (the same ones the
//! persistent store uses), so a decoded transaction re-hashes to the
//! same txid it had on the sending host. Decoding is total: any byte
//! slice either yields a message or a [`WireError`] — never a panic,
//! and never an allocation larger than the input it was handed.

use crate::exchange::SealedUplink;
use crate::provisioning::DeviceId;
use bcwan_chain::codec::{decode_block, decode_header, decode_transaction, CodecError, Reader};
use bcwan_chain::BlockHash;
use bcwan_p2p::ChainMessage;
use std::fmt;

/// A wide-area message between BcWAN hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WanMessage {
    /// Chain gossip (transactions, blocks, sync traffic).
    Chain(ChainMessage),
    /// Step 7: the gateway forwards `(Em, ePk, Sig)` to the recipient it
    /// looked up in the directory.
    Deliver {
        /// Which provisioned device produced the data.
        device_id: DeviceId,
        /// Serialized ephemeral public key `ePk`.
        e_pk_bytes: Vec<u8>,
        /// The sealed payload and node signature.
        uplink: SealedUplink,
    },
}

/// Number of distinct [`WanMessage::kind`] labels (`tx`, `block`, `sync`,
/// `deliver`) — the width of per-kind counter arrays.
pub(crate) const KIND_COUNT: usize = 4;

/// The [`WanMessage::kind`] labels, indexed by [`WanMessage::kind_index`]:
/// the one spelling of each per-kind metric row's `{kind}`.
pub(crate) const KIND_LABELS: [&str; KIND_COUNT] = ["tx", "block", "sync", "deliver"];

impl WanMessage {
    /// Short label for logs/metrics.
    pub fn kind(&self) -> &'static str {
        KIND_LABELS[self.kind_index()]
    }

    /// Dense index of [`WanMessage::kind`], for per-kind counter arrays
    /// (`< KIND_COUNT`).
    pub fn kind_index(&self) -> usize {
        match self {
            WanMessage::Chain(ChainMessage::Tx(_)) => 0,
            WanMessage::Chain(ChainMessage::Block(_)) => 1,
            WanMessage::Chain(_) => 2,
            WanMessage::Deliver { .. } => 3,
        }
    }

    /// Approximate on-the-wire size in bytes: one tag byte plus the
    /// payload's serialized size. Used for traffic accounting, not for
    /// actual framing.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            WanMessage::Chain(ChainMessage::Tx(tx)) => 1 + tx.size(),
            WanMessage::Chain(ChainMessage::Block(block)) => 1 + block.size(),
            WanMessage::Chain(ChainMessage::Headers { headers, .. }) => {
                1 + 8 + 4 + 88 * headers.len()
            }
            // Remaining sync requests/announces carry at most a hash
            // and a height.
            WanMessage::Chain(_) => 1 + 32 + 8,
            WanMessage::Deliver {
                e_pk_bytes, uplink, ..
            } => 1 + 4 + e_pk_bytes.len() + uplink.em.len() + uplink.sig.len(),
        }
    }
}

/// Why bytes did not decode into a [`WanMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the message did.
    Truncated,
    /// Bytes were left over after a complete message.
    TrailingBytes(usize),
    /// The leading variant tag is not one this version knows.
    UnknownTag(u8),
    /// An embedded script failed to parse.
    BadScript(String),
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::TrailingBytes(n) => WireError::TrailingBytes(n),
            CodecError::BadScript(why) => WireError::BadScript(why),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::BadScript(why) => write!(f, "embedded script invalid: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

// Variant tags. Order is wire format — append, never renumber. Tag 2
// (a request no node sent) is retired and decodes as unknown.
const TAG_TX: u8 = 0;
const TAG_BLOCK: u8 = 1;
const TAG_GET_BLOCKS_FROM: u8 = 3;
const TAG_TIP_ANNOUNCE: u8 = 4;
const TAG_DELIVER: u8 = 5;
const TAG_GET_HEADERS_FROM: u8 = 6;
const TAG_HEADERS: u8 = 7;

impl WanMessage {
    /// Deterministic binary encoding: one tag byte, then the variant's
    /// fields (integers LE, variable-length fields `u32`-prefixed).
    /// Transactions and blocks use the chain's canonical serialization.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        match self {
            WanMessage::Chain(ChainMessage::Tx(tx)) => {
                out.push(TAG_TX);
                tx.serialize_into(&mut out);
            }
            WanMessage::Chain(ChainMessage::Block(block)) => {
                out.push(TAG_BLOCK);
                out.extend_from_slice(&block.header.serialize());
                out.extend_from_slice(&(block.transactions.len() as u32).to_le_bytes());
                for tx in &block.transactions {
                    tx.serialize_into(&mut out);
                }
            }
            WanMessage::Chain(ChainMessage::GetBlocksFrom(height)) => {
                out.push(TAG_GET_BLOCKS_FROM);
                out.extend_from_slice(&height.to_le_bytes());
            }
            WanMessage::Chain(ChainMessage::TipAnnounce { hash, height }) => {
                out.push(TAG_TIP_ANNOUNCE);
                out.extend_from_slice(&hash.0);
                out.extend_from_slice(&height.to_le_bytes());
            }
            WanMessage::Chain(ChainMessage::GetHeadersFrom(height)) => {
                out.push(TAG_GET_HEADERS_FROM);
                out.extend_from_slice(&height.to_le_bytes());
            }
            WanMessage::Chain(ChainMessage::Headers {
                start_height,
                headers,
            }) => {
                out.push(TAG_HEADERS);
                out.extend_from_slice(&start_height.to_le_bytes());
                out.extend_from_slice(&(headers.len() as u32).to_le_bytes());
                for header in headers {
                    out.extend_from_slice(&header.serialize());
                }
            }
            WanMessage::Deliver {
                device_id,
                e_pk_bytes,
                uplink,
            } => {
                out.push(TAG_DELIVER);
                out.extend_from_slice(&device_id.0.to_le_bytes());
                push_vec(&mut out, e_pk_bytes);
                push_vec(&mut out, &uplink.em);
                push_vec(&mut out, &uplink.sig);
            }
        }
        out
    }

    /// Decodes bytes produced by [`WanMessage::encode`].
    ///
    /// # Errors
    ///
    /// A [`WireError`] for truncated, trailing, or malformed input; never
    /// panics, never allocates more than the input's length.
    pub fn decode(bytes: &[u8]) -> Result<WanMessage, WireError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_TX => WanMessage::Chain(ChainMessage::Tx(decode_transaction(&mut r)?)),
            TAG_BLOCK => WanMessage::Chain(ChainMessage::Block(decode_block(&mut r)?)),
            TAG_GET_BLOCKS_FROM => WanMessage::Chain(ChainMessage::GetBlocksFrom(r.u64()?)),
            TAG_TIP_ANNOUNCE => WanMessage::Chain(ChainMessage::TipAnnounce {
                hash: BlockHash(r.array32()?),
                height: r.u64()?,
            }),
            TAG_DELIVER => WanMessage::Deliver {
                device_id: DeviceId(r.u32()?),
                e_pk_bytes: r.vec()?,
                uplink: SealedUplink {
                    em: r.vec()?,
                    sig: r.vec()?,
                },
            },
            TAG_GET_HEADERS_FROM => WanMessage::Chain(ChainMessage::GetHeadersFrom(r.u64()?)),
            TAG_HEADERS => {
                let start_height = r.u64()?;
                let count = r.u32()?;
                let mut headers = Vec::new();
                for _ in 0..count {
                    headers.push(decode_header(&mut r)?);
                }
                WanMessage::Chain(ChainMessage::Headers {
                    start_height,
                    headers,
                })
            }
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(msg)
    }
}

fn push_vec(out: &mut Vec<u8>, bytes: &[u8]) {
    bcwan_chain::codec::push_vec(out, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        let deliver = WanMessage::Deliver {
            device_id: DeviceId(1),
            e_pk_bytes: vec![],
            uplink: SealedUplink {
                em: vec![],
                sig: vec![],
            },
        };
        assert_eq!(deliver.kind(), "deliver");
        assert_eq!(
            WanMessage::Chain(ChainMessage::GetBlocksFrom(0)).kind(),
            "sync"
        );
    }

    #[test]
    fn kind_index_is_dense() {
        let deliver = WanMessage::Deliver {
            device_id: DeviceId(1),
            e_pk_bytes: vec![0; 10],
            uplink: SealedUplink {
                em: vec![0; 64],
                sig: vec![0; 64],
            },
        };
        assert!(deliver.kind_index() < KIND_COUNT);
        assert_eq!(deliver.wire_size(), 1 + 4 + 10 + 64 + 64);
        let sync = WanMessage::Chain(ChainMessage::GetBlocksFrom(7));
        assert_eq!(sync.wire_size(), 41);
        assert_ne!(sync.kind_index(), deliver.kind_index());
    }

    fn sample_block() -> bcwan_chain::Block {
        use rand::SeedableRng;
        let params = bcwan_chain::ChainParams::fast_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let wallet = bcwan_chain::Wallet::generate(&mut rng);
        bcwan_chain::Chain::make_genesis(&params, &[(wallet.address(), 25)])
    }

    fn round_trip(msg: WanMessage) {
        let bytes = msg.encode();
        assert_eq!(WanMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn every_variant_round_trips() {
        let block = sample_block();
        let tx = block.transactions[0].clone();
        round_trip(WanMessage::Chain(ChainMessage::Tx(tx)));
        round_trip(WanMessage::Chain(ChainMessage::Block(block.clone())));
        round_trip(WanMessage::Chain(ChainMessage::GetBlocksFrom(u64::MAX)));
        round_trip(WanMessage::Chain(ChainMessage::TipAnnounce {
            hash: block.hash(),
            height: 12,
        }));
        round_trip(WanMessage::Chain(ChainMessage::GetHeadersFrom(3)));
        round_trip(WanMessage::Chain(ChainMessage::Headers {
            start_height: 0,
            headers: vec![block.header.clone(), block.header.clone()],
        }));
        round_trip(WanMessage::Chain(ChainMessage::Headers {
            start_height: 9,
            headers: vec![],
        }));
        round_trip(WanMessage::Deliver {
            device_id: DeviceId(77),
            e_pk_bytes: vec![1, 2, 3, 4],
            uplink: SealedUplink {
                em: vec![9; 120],
                sig: vec![7; 64],
            },
        });
    }

    #[test]
    fn decoded_tx_keeps_its_txid() {
        let block = sample_block();
        let tx = block.transactions[0].clone();
        let txid = tx.txid();
        let bytes = WanMessage::Chain(ChainMessage::Tx(tx)).encode();
        match WanMessage::decode(&bytes).unwrap() {
            WanMessage::Chain(ChainMessage::Tx(decoded)) => assert_eq!(decoded.txid(), txid),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_tag_empty_and_trailing() {
        assert_eq!(WanMessage::decode(&[]), Err(WireError::Truncated));
        assert_eq!(
            WanMessage::decode(&[0xee]),
            Err(WireError::UnknownTag(0xee))
        );
        // The retired tag 2, with the 32-byte hash it once carried.
        let mut retired = vec![2u8];
        retired.extend_from_slice(&[7; 32]);
        assert_eq!(WanMessage::decode(&retired), Err(WireError::UnknownTag(2)));
        let mut bytes = WanMessage::Chain(ChainMessage::GetBlocksFrom(1)).encode();
        bytes.push(0);
        assert_eq!(WanMessage::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_length_prefix_is_truncated_not_oom() {
        // A Deliver whose e_pk length claims 4 GiB.
        let mut bytes = vec![5u8]; // TAG_DELIVER
        bytes.extend_from_slice(&7u32.to_le_bytes()); // device id
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile length
        assert_eq!(WanMessage::decode(&bytes), Err(WireError::Truncated));
        // A block claiming 4 billion transactions.
        let block = sample_block();
        let mut bytes = vec![1u8]; // TAG_BLOCK
        bytes.extend_from_slice(&block.header.serialize());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(WanMessage::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn truncation_at_every_cut_errors_cleanly() {
        let block = sample_block();
        let bytes = WanMessage::Chain(ChainMessage::Block(block)).encode();
        for cut in 0..bytes.len() {
            assert!(
                WanMessage::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
