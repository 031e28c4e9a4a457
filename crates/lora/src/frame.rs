//! BcWAN LoRa frame formats.
//!
//! Three frames cross the radio in the paper's exchange (Fig. 3):
//!
//! 1. [`LoraFrame::UplinkRequest`] — the node's initial request (step "0",
//!    mentioned but not illustrated in the paper) carrying the recipient's
//!    blockchain address `@R` and the device id,
//! 2. [`LoraFrame::DownlinkEphemeralKey`] — the gateway's ephemeral RSA
//!    public key `ePk` (step 2),
//! 3. [`LoraFrame::DataUplink`] — the double-encrypted message `Em` and the
//!    node's signature `Sig` (step 5). With RSA-512 this is the paper's
//!    "predefined minimum payload of 128 bytes, 64 bytes for the double
//!    data encryption and 64 bytes for the signature", preceded by the
//!    4-byte length header of §5.2.
//!
//! [`EncryptedReading`] is the *inner* 34-byte structure of paper Fig. 4
//! (`len ‖ IV ‖ len ‖ ciphertext`) that the node RSA-wraps into `Em`.

use std::fmt;

/// Size of a blockchain address (HASH160) used as `@R`.
pub const ADDRESS_LEN: usize = 20;

/// The 4-byte PHY length header of §5.2: magic byte, frame type, and a
/// big-endian payload length.
pub const HEADER_LEN: usize = 4;

const MAGIC: u8 = 0xbc;

/// On-air size of a [`LoraFrame::UplinkRequest`]: header, device id and
/// `@R`.
pub const REQUEST_PHY_LEN: usize = HEADER_LEN + 4 + ADDRESS_LEN;

/// On-air size of a [`LoraFrame::DataUplink`] whose `Em` is `em_len`
/// bytes and whose `Sig` is `sig_len`: header, device id, `@R`, then
/// each block behind its 2-byte length. RSA-512 blocks give the
/// paper's 160 bytes.
pub const fn data_uplink_phy_len(em_len: usize, sig_len: usize) -> usize {
    HEADER_LEN + 4 + ADDRESS_LEN + 2 + em_len + 2 + sig_len
}

/// The inner encrypted message of paper Fig. 4.
///
/// For a ≤16-byte sensor reading under AES-256-CBC this serializes to
/// exactly 34 bytes: `1 (IV len) + 16 (IV) + 1 (ct len) + 16 (ciphertext)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedReading {
    /// CBC initialization vector.
    pub iv: [u8; 16],
    /// AES-256-CBC ciphertext (multiple of 16 bytes).
    pub ciphertext: Vec<u8>,
}

/// Errors from frame encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Magic byte or frame type unknown.
    BadHeader(u8),
    /// A declared length was inconsistent.
    BadLength {
        /// Length a prefix claimed.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Payload exceeds what the spreading factor permits.
    PayloadTooLarge {
        /// Attempted payload length.
        len: usize,
        /// Regional maximum.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadHeader(b) => write!(f, "bad frame header byte 0x{b:02x}"),
            FrameError::BadLength {
                declared,
                available,
            } => {
                write!(
                    f,
                    "declared length {declared} but {available} bytes available"
                )
            }
            FrameError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds radio limit {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl EncryptedReading {
    /// Serializes to the Fig. 4 layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 16 + self.ciphertext.len());
        out.push(16u8);
        out.extend_from_slice(&self.iv);
        out.push(self.ciphertext.len() as u8);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the Fig. 4 layout.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncation or inconsistent lengths.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        if bytes.len() < 18 {
            return Err(FrameError::Truncated);
        }
        if bytes[0] != 16 {
            return Err(FrameError::BadLength {
                declared: bytes[0] as usize,
                available: 16,
            });
        }
        let mut iv = [0u8; 16];
        iv.copy_from_slice(&bytes[1..17]);
        let ct_len = bytes[17] as usize;
        let rest = &bytes[18..];
        if rest.len() != ct_len {
            return Err(FrameError::BadLength {
                declared: ct_len,
                available: rest.len(),
            });
        }
        Ok(EncryptedReading {
            iv,
            ciphertext: rest.to_vec(),
        })
    }
}

/// A frame on the LoRa radio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoraFrame {
    /// Node → gateway: "I have data for `@R`, give me an ephemeral key."
    UplinkRequest {
        /// The sending device's identifier.
        device_id: u32,
        /// Blockchain address of the home recipient.
        recipient: [u8; ADDRESS_LEN],
    },
    /// Gateway → node: the serialized ephemeral RSA public key.
    DownlinkEphemeralKey {
        /// Target device.
        device_id: u32,
        /// `RsaPublicKey::to_bytes()` payload.
        public_key: Vec<u8>,
    },
    /// Node → gateway: the encrypted message and its signature.
    DataUplink {
        /// The sending device's identifier.
        device_id: u32,
        /// Blockchain address of the home recipient (`@R`).
        recipient: [u8; ADDRESS_LEN],
        /// RSA-wrapped [`EncryptedReading`] (`Em`, one RSA block).
        em: Vec<u8>,
        /// Node signature over `Em ‖ ePk` (`Sig`, one RSA block).
        sig: Vec<u8>,
    },
}

const TYPE_REQUEST: u8 = 1;
const TYPE_EPHEMERAL_KEY: u8 = 2;
const TYPE_DATA: u8 = 3;

impl LoraFrame {
    /// The frame type byte on the wire.
    fn type_byte(&self) -> u8 {
        match self {
            LoraFrame::UplinkRequest { .. } => TYPE_REQUEST,
            LoraFrame::DownlinkEphemeralKey { .. } => TYPE_EPHEMERAL_KEY,
            LoraFrame::DataUplink { .. } => TYPE_DATA,
        }
    }

    /// Serializes header + payload to radio bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            LoraFrame::UplinkRequest {
                device_id,
                recipient,
            } => {
                payload.extend_from_slice(&device_id.to_be_bytes());
                payload.extend_from_slice(recipient);
            }
            LoraFrame::DownlinkEphemeralKey {
                device_id,
                public_key,
            } => {
                payload.extend_from_slice(&device_id.to_be_bytes());
                payload.extend_from_slice(public_key);
            }
            LoraFrame::DataUplink {
                device_id,
                recipient,
                em,
                sig,
            } => {
                payload.extend_from_slice(&device_id.to_be_bytes());
                payload.extend_from_slice(recipient);
                payload.extend_from_slice(&(em.len() as u16).to_be_bytes());
                payload.extend_from_slice(em);
                payload.extend_from_slice(&(sig.len() as u16).to_be_bytes());
                payload.extend_from_slice(sig);
            }
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.push(MAGIC);
        out.push(self.type_byte());
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses radio bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on bad magic, unknown type, or truncation.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let magic = bytes[0];
        if magic != MAGIC {
            return Err(FrameError::BadHeader(magic));
        }
        let frame_type = bytes[1];
        let declared = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        let buf = &bytes[HEADER_LEN..];
        if buf.len() != declared {
            return Err(FrameError::BadLength {
                declared,
                available: buf.len(),
            });
        }
        let read_u32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        match frame_type {
            TYPE_REQUEST => {
                if buf.len() < 4 + ADDRESS_LEN {
                    return Err(FrameError::Truncated);
                }
                let device_id = read_u32(buf);
                let mut recipient = [0u8; ADDRESS_LEN];
                recipient.copy_from_slice(&buf[4..4 + ADDRESS_LEN]);
                Ok(LoraFrame::UplinkRequest {
                    device_id,
                    recipient,
                })
            }
            TYPE_EPHEMERAL_KEY => {
                if buf.len() < 4 {
                    return Err(FrameError::Truncated);
                }
                let device_id = read_u32(buf);
                Ok(LoraFrame::DownlinkEphemeralKey {
                    device_id,
                    public_key: buf[4..].to_vec(),
                })
            }
            TYPE_DATA => {
                if buf.len() < 4 + ADDRESS_LEN + 2 {
                    return Err(FrameError::Truncated);
                }
                let device_id = read_u32(buf);
                let mut recipient = [0u8; ADDRESS_LEN];
                recipient.copy_from_slice(&buf[4..4 + ADDRESS_LEN]);
                let mut rest = &buf[4 + ADDRESS_LEN..];
                let em_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                rest = &rest[2..];
                if rest.len() < em_len + 2 {
                    return Err(FrameError::Truncated);
                }
                let em = rest[..em_len].to_vec();
                rest = &rest[em_len..];
                let sig_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                rest = &rest[2..];
                if rest.len() != sig_len {
                    return Err(FrameError::BadLength {
                        declared: sig_len,
                        available: rest.len(),
                    });
                }
                let sig = rest.to_vec();
                Ok(LoraFrame::DataUplink {
                    device_id,
                    recipient,
                    em,
                    sig,
                })
            }
            other => Err(FrameError::BadHeader(other)),
        }
    }

    /// Total on-air PHY size (header + payload).
    pub fn phy_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_lengths_match_the_encoding() {
        let request = LoraFrame::UplinkRequest {
            device_id: 7,
            recipient: [1; ADDRESS_LEN],
        };
        assert_eq!(request.phy_len(), REQUEST_PHY_LEN);
        for (em, sig) in [(64, 64), (128, 64), (256, 256)] {
            let data = LoraFrame::DataUplink {
                device_id: 7,
                recipient: [1; ADDRESS_LEN],
                em: vec![2; em],
                sig: vec![3; sig],
            };
            assert_eq!(data.phy_len(), data_uplink_phy_len(em, sig));
        }
        assert_eq!(REQUEST_PHY_LEN, 28);
        assert_eq!(data_uplink_phy_len(64, 64), 160, "§5.2's RSA-512 frame");
    }

    #[test]
    fn fig4_encrypted_reading_is_34_bytes() {
        let reading = EncryptedReading {
            iv: [0xab; 16],
            ciphertext: vec![0xcd; 16],
        };
        let encoded = reading.encode();
        assert_eq!(encoded.len(), 34, "paper Fig. 4: 34 bytes");
        assert_eq!(EncryptedReading::decode(&encoded).unwrap(), reading);
    }

    #[test]
    fn encrypted_reading_multi_block() {
        let reading = EncryptedReading {
            iv: [1; 16],
            ciphertext: vec![2; 48],
        };
        let round = EncryptedReading::decode(&reading.encode()).unwrap();
        assert_eq!(round, reading);
    }

    #[test]
    fn encrypted_reading_decode_errors() {
        assert_eq!(EncryptedReading::decode(&[]), Err(FrameError::Truncated));
        assert_eq!(
            EncryptedReading::decode(&[0u8; 10]),
            Err(FrameError::Truncated)
        );
        // Wrong IV length marker.
        let mut bad = EncryptedReading {
            iv: [0; 16],
            ciphertext: vec![0; 16],
        }
        .encode();
        bad[0] = 8;
        assert!(matches!(
            EncryptedReading::decode(&bad),
            Err(FrameError::BadLength { .. })
        ));
        // Ciphertext length mismatch.
        let mut bad2 = EncryptedReading {
            iv: [0; 16],
            ciphertext: vec![0; 16],
        }
        .encode();
        bad2.pop();
        assert!(matches!(
            EncryptedReading::decode(&bad2),
            Err(FrameError::BadLength { .. })
        ));
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            LoraFrame::UplinkRequest {
                device_id: 42,
                recipient: [7; ADDRESS_LEN],
            },
            LoraFrame::DownlinkEphemeralKey {
                device_id: 42,
                public_key: vec![9; 71],
            },
            LoraFrame::DataUplink {
                device_id: 42,
                recipient: [7; ADDRESS_LEN],
                em: vec![1; 64],
                sig: vec![2; 64],
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(LoraFrame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn paper_data_uplink_size() {
        // Em (64) + Sig (64) = the paper's 128-byte minimum payload; our
        // wire adds device id, @R, and two 2-byte length prefixes on top of
        // the 4-byte header.
        let frame = LoraFrame::DataUplink {
            device_id: 1,
            recipient: [0; ADDRESS_LEN],
            em: vec![0; 64],
            sig: vec![0; 64],
        };
        let expected = HEADER_LEN + 4 + ADDRESS_LEN + 2 + 64 + 2 + 64;
        assert_eq!(frame.phy_len(), expected);
        assert_eq!(frame.phy_len(), 160);
    }

    #[test]
    fn decode_rejects_bad_magic_and_type() {
        let good = LoraFrame::UplinkRequest {
            device_id: 1,
            recipient: [0; ADDRESS_LEN],
        }
        .encode();
        let mut bad_magic = good.to_vec();
        bad_magic[0] = 0x00;
        assert!(matches!(
            LoraFrame::decode(&bad_magic),
            Err(FrameError::BadHeader(0))
        ));
        let mut bad_type = good.to_vec();
        bad_type[1] = 0x77;
        assert!(matches!(
            LoraFrame::decode(&bad_type),
            Err(FrameError::BadHeader(0x77))
        ));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let good = LoraFrame::DataUplink {
            device_id: 1,
            recipient: [3; ADDRESS_LEN],
            em: vec![1; 64],
            sig: vec![2; 64],
        }
        .encode();
        for cut in [0, 3, 10, good.len() - 1] {
            assert!(LoraFrame::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut extra = good.to_vec();
        extra.push(0xee);
        assert!(LoraFrame::decode(&extra).is_err());
    }
}
