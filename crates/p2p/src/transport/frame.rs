//! The length-prefixed, authenticated binary frame every overlay byte
//! stream carries.
//!
//! A frame is a fixed 38-byte header followed by an opaque payload the
//! [`Codec`](super::Codec) produced:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "BCWF"
//!      4     1  version (currently 2)
//!      5     1  kind    (codec's dense payload-kind index, for metrics)
//!      6     8  from    (sender NodeId, u64 LE)
//!     14     4  len     (payload length, u32 LE, ≤ MAX_FRAME_PAYLOAD)
//!     18     4  crc     (CRC-32/IEEE of the payload, u32 LE)
//!     22    16  tag     (HMAC-SHA256(key, header[0..22] ‖ payload),
//!                        truncated to 16 bytes)
//! ```
//!
//! The header is validated before a single payload byte is allocated, so
//! a garbage or hostile stream cannot force an oversized allocation; the
//! checksum rejects corruption that TCP's own checksum missed (or that a
//! fault-injected half-written frame produced).
//!
//! The **tag** is what makes the `from` field trustworthy at fleet
//! scale: it authenticates the entire pre-tag header *and* the payload
//! under the federation's provisioned [`FrameKey`], so a peer that does
//! not hold the key can neither forge a sender identity nor splice a
//! payload onto someone else's header. Authentication is mandatory —
//! there is no unauthenticated mode; frames whose tag does not verify
//! are rejected ([`FrameError::BadAuth`]) and counted as
//! `transport.auth.fail_total`. Version-1 frames (pre-auth) are rejected
//! as [`FrameError::BadVersion`].

use bcwan_crypto::crc32::crc32;
use bcwan_crypto::hmac::{derive_key, HmacSha256Key};
use std::fmt;

/// Frame magic — first bytes of every frame on the wire.
pub const MAGIC: [u8; 4] = *b"BCWF";

/// Current frame format version. Version 2 added the mandatory
/// authentication tag; version-1 frames are rejected.
pub(crate) const FRAME_VERSION: u8 = 2;

/// Length of the truncated HMAC-SHA256 authentication tag.
pub const TAG_LEN: usize = 16;

/// Bytes of header covered by the tag (everything before the tag).
const AUTH_PREFIX_LEN: usize = 22;

/// Header length in bytes.
pub const HEADER_LEN: usize = AUTH_PREFIX_LEN + TAG_LEN;

/// Hard ceiling on payload size (4 MiB — far above any block this chain
/// produces, far below anything that could wedge a host's memory).
pub(crate) const MAX_FRAME_PAYLOAD: usize = 4 << 20;

/// The provisioned symmetric key a host's transport authenticates frames
/// with.
///
/// Every gateway in one BcWAN federation is provisioned with the same
/// 32-byte frame key (derived from the federation's master secret, the
/// same provisioning ceremony that hands devices their AES keys). Two
/// hosts with different keys cannot exchange a single frame: the tag
/// check fails before the payload is ever decoded. The key is held as
/// its HMAC midstates, so no tag re-hashes the key pads.
#[derive(Clone, PartialEq, Eq)]
pub struct FrameKey(HmacSha256Key);

impl fmt::Debug for FrameKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "FrameKey(..)")
    }
}

impl FrameKey {
    /// Wraps raw key bytes.
    pub fn new(bytes: [u8; 32]) -> Self {
        FrameKey(HmacSha256Key::new(&bytes))
    }

    /// Derives the frame key from a federation master secret (HKDF-style
    /// expansion with a fixed info string, so the same master secret
    /// yields the same key on every host).
    pub(crate) fn from_master(master: &[u8]) -> Self {
        FrameKey(HmacSha256Key::new(&derive_key(
            master,
            b"bcwan-frame-auth-v2",
            32,
        )))
    }

    /// The well-known development key used by tests, examples, and
    /// single-machine experiments. Real deployments provision their own
    /// master secret; this one only proves the machinery works.
    pub fn dev() -> Self {
        FrameKey::from_master(b"bcwan-dev-network")
    }

    /// The truncated tag, `HMAC-SHA256(key, prefix ‖ payload)`.
    fn tag(&self, prefix: &[u8], payload: &[u8]) -> [u8; TAG_LEN] {
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&self.0.tag(&[prefix, payload])[..TAG_LEN]);
        tag
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender's node id as stamped in the header (authenticated by the
    /// frame tag).
    pub from: u64,
    /// The codec's payload-kind index (metrics only; decoding re-derives
    /// the real kind from the payload).
    pub kind: u8,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Total on-the-wire size of this frame.
    pub(crate) fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream does not start with [`MAGIC`] — peer desynchronized or
    /// not speaking the protocol.
    BadMagic([u8; 4]),
    /// Unknown frame format version.
    BadVersion(u8),
    /// Declared payload length exceeds `MAX_FRAME_PAYLOAD`.
    Oversize(u32),
    /// Payload checksum mismatch.
    BadChecksum {
        /// CRC the header declared.
        declared: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The authentication tag does not verify under our [`FrameKey`]:
    /// the peer holds a different key, or the header (e.g. the `from`
    /// field) was tampered with in flight.
    BadAuth,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversize(len) => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds {MAX_FRAME_PAYLOAD}"
                )
            }
            FrameError::BadChecksum { declared, computed } => {
                write!(
                    f,
                    "frame checksum {computed:08x} != declared {declared:08x}"
                )
            }
            FrameError::BadAuth => write!(f, "frame authentication tag rejected"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether this is an authentication failure (for the
    /// `transport.auth.fail_total` counter).
    pub(crate) fn is_auth(&self) -> bool {
        matches!(self, FrameError::BadAuth)
    }
}

/// Serializes a frame into a standalone byte vector, tag included.
///
/// # Panics
///
/// Panics if `payload` exceeds `MAX_FRAME_PAYLOAD`; senders are
/// expected to reject oversized messages before framing (see
/// `TcpHost::send`).
pub fn encode_frame(key: &FrameKey, from: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "payload of {} bytes exceeds the frame ceiling",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind);
    out.extend_from_slice(&from.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    let tag = key.tag(&out[..AUTH_PREFIX_LEN], payload);
    out.extend_from_slice(&tag);
    out.extend_from_slice(payload);
    out
}

/// Validates a complete header + payload pair in place and copies the
/// payload out only once it verifies. `header` is the full
/// [`HEADER_LEN`] bytes (magic/version/oversize are assumed checked).
fn finish_frame(key: &FrameKey, header: &[u8], payload: &[u8]) -> Result<Frame, FrameError> {
    let kind = header[5];
    let from = u64::from_le_bytes(header[6..14].try_into().expect("8 header bytes"));
    let declared = u32::from_le_bytes(header[18..22].try_into().expect("4 header bytes"));
    let computed = crc32(payload);
    if computed != declared {
        return Err(FrameError::BadChecksum { declared, computed });
    }
    let expected = key.tag(&header[..AUTH_PREFIX_LEN], payload);
    // Not constant-time; none of this workspace's crypto is (see the
    // README security notes), and the tag gates identity, not secrecy.
    if expected[..] != header[AUTH_PREFIX_LEN..HEADER_LEN] {
        return Err(FrameError::BadAuth);
    }
    Ok(Frame {
        from,
        kind,
        payload: payload.to_vec(),
    })
}

/// Checks the fixed leading fields of a header (which need no payload):
/// magic, version, and the declared length against the ceiling.
fn check_header_prefix(header: &[u8]) -> Result<u32, FrameError> {
    if header[0..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != FRAME_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes(header[14..18].try_into().expect("4 header bytes"));
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversize(len));
    }
    Ok(len)
}

/// Incremental frame parser for non-blocking streams.
///
/// The event-driven transport workers read whatever bytes a socket has
/// ready and feed them in with [`FrameAssembler::extend`]; complete
/// frames pop out of [`FrameAssembler::next_frame`] as they finish.
/// Header validation still happens as soon as the first
/// [`HEADER_LEN`] bytes arrive, so an oversized or hostile declared
/// length is rejected before any payload is buffered beyond what the
/// peer already pushed.
///
/// Frames are read at a cursor into the buffer: `next_frame` checks a
/// frame where it lies and copies only its payload out, and the bytes
/// already read are dropped once per `extend`, not once per frame. The
/// buffer keeps its capacity between reads.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Start of the first unread byte in `buf`.
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Whether no partial frame is buffered (a clean point to hang up).
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` while the frame is still incomplete. After any
    /// `Err` the stream is desynchronized or hostile and the connection
    /// must be dropped.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]: bad magic or version and an oversize declared
    /// length as soon as the header is buffered, a checksum or
    /// authentication failure once the payload is.
    pub fn next_frame(&mut self, key: &FrameKey) -> Result<Option<Frame>, FrameError> {
        let unread = &self.buf[self.pos..];
        if unread.len() < HEADER_LEN {
            return Ok(None);
        }
        let (header, rest) = unread.split_at(HEADER_LEN);
        let len = check_header_prefix(header)? as usize;
        if rest.len() < len {
            return Ok(None);
        }
        let frame = finish_frame(key, header, &rest[..len])?;
        self.pos += HEADER_LEN + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FrameKey {
        FrameKey::dev()
    }

    /// Feeds `bytes` to a fresh assembler in one piece and asks for one
    /// frame, as the reactor does after a single read.
    fn decode(bytes: &[u8]) -> Result<Option<Frame>, FrameError> {
        let mut asm = FrameAssembler::new();
        asm.extend(bytes);
        asm.next_frame(&key())
    }

    #[test]
    fn round_trip() {
        let bytes = encode_frame(&key(), 42, 3, b"hello overlay");
        assert_eq!(bytes.len(), HEADER_LEN + 13);
        let frame = decode(&bytes).unwrap().unwrap();
        assert_eq!(frame.from, 42);
        assert_eq!(frame.kind, 3);
        assert_eq!(frame.payload, b"hello overlay");
        assert_eq!(frame.wire_len(), bytes.len());
    }

    #[test]
    fn encoding_is_byte_identical_with_auth_enabled() {
        // Same key, same inputs → bit-for-bit identical frames, and a
        // decode returns exactly the encoded fields. Fuzz over lengths
        // and senders to pin byte-identity of the v2 format.
        let k = key();
        for (i, len) in [0usize, 1, 7, 64, 1000].into_iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| (j as u8).wrapping_mul(31)).collect();
            let from = 0x0123_4567_89ab_cdefu64.wrapping_add(i as u64);
            let a = encode_frame(&k, from, i as u8, &payload);
            let b = encode_frame(&k, from, i as u8, &payload);
            assert_eq!(a, b, "encoding must be deterministic");
            let frame = decode(&a).unwrap().unwrap();
            assert_eq!(frame.from, from);
            assert_eq!(frame.kind, i as u8);
            assert_eq!(frame.payload, payload);
        }
    }

    /// The streamed tag is the RFC 2104 HMAC of the joined message, for
    /// keys with high bits set and payloads on both sides of a block.
    #[test]
    fn tag_is_the_hmac_of_prefix_and_payload() {
        use bcwan_crypto::hmac::hmac_sha256;
        for (i, len) in [0usize, 1, 41, 42, 100, 5000].into_iter().enumerate() {
            let bytes: [u8; 32] = std::array::from_fn(|j| (j * 29 + i * 7) as u8 | 0x80);
            let k = FrameKey::new(bytes);
            let prefix: Vec<u8> = (0..AUTH_PREFIX_LEN as u8).collect();
            let payload: Vec<u8> = (0..len).map(|j| (j as u8).wrapping_mul(13)).collect();
            let joined = [&prefix[..], &payload[..]].concat();
            assert_eq!(
                k.tag(&prefix, &payload)[..],
                hmac_sha256(&bytes, &joined)[..TAG_LEN],
                "payload of {len} bytes"
            );
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode_frame(&key(), 1, 0, b"x");
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(FrameError::BadMagic(_))));
        let mut bytes = encode_frame(&key(), 1, 0, b"x");
        bytes[4] = 9;
        assert!(matches!(decode(&bytes), Err(FrameError::BadVersion(9))));
        // A version-1 (pre-auth) frame is rejected, not silently trusted.
        let mut bytes = encode_frame(&key(), 1, 0, b"x");
        bytes[4] = 1;
        assert!(matches!(decode(&bytes), Err(FrameError::BadVersion(1))));
    }

    #[test]
    fn rejects_oversize_before_allocating() {
        // Only the header has arrived: the declared length alone kills
        // the frame, before any payload is buffered or allocated.
        let mut bytes = encode_frame(&key(), 1, 0, b"x");
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes[..HEADER_LEN]),
            Err(FrameError::Oversize(u32::MAX))
        ));
    }

    #[test]
    fn rejects_corrupted_payload() {
        let mut bytes = encode_frame(&key(), 1, 0, b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        match decode(&bytes) {
            Err(FrameError::BadChecksum { declared, computed }) => assert_ne!(declared, computed),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_tampered_from_header() {
        // CRC only covers the payload, so identity forgery must be
        // caught by the tag: flip one byte of `from` and the frame dies.
        let mut bytes = encode_frame(&key(), 42, 0, b"payload");
        bytes[6] ^= 0x01;
        let err = decode(&bytes).unwrap_err();
        assert!(err.is_auth(), "tampered from must fail auth, got {err:?}");
    }

    #[test]
    fn rejects_bad_or_missing_mac() {
        // Corrupt the tag itself.
        let mut bytes = encode_frame(&key(), 7, 1, b"reading");
        bytes[AUTH_PREFIX_LEN] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(FrameError::BadAuth)));
        // Zero the tag entirely ("missing" tag).
        let mut bytes = encode_frame(&key(), 7, 1, b"reading");
        bytes[AUTH_PREFIX_LEN..HEADER_LEN].fill(0);
        assert!(matches!(decode(&bytes), Err(FrameError::BadAuth)));
        // A frame honestly built under a different key.
        let other = FrameKey::from_master(b"some-other-federation");
        let bytes = encode_frame(&other, 7, 1, b"reading");
        assert!(matches!(decode(&bytes), Err(FrameError::BadAuth)));
    }

    #[test]
    fn key_derivation_is_deterministic_and_domain_separated() {
        assert_eq!(FrameKey::dev(), FrameKey::dev());
        assert_eq!(
            FrameKey::from_master(b"secret"),
            FrameKey::from_master(b"secret")
        );
        assert_ne!(
            FrameKey::from_master(b"secret"),
            FrameKey::from_master(b"secret2")
        );
        assert_eq!(format!("{:?}", FrameKey::dev()), "FrameKey(..)");
    }

    #[test]
    fn every_strict_prefix_waits_for_more_bytes() {
        let bytes = encode_frame(&key(), 7, 1, b"truncate me");
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).unwrap().is_none(),
                "cut at {cut}: a strict prefix is incomplete, not an error"
            );
        }
        let frame = decode(&bytes).unwrap().unwrap();
        assert_eq!(frame.payload, b"truncate me");
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_chunking() {
        let k = key();
        let mut wire = Vec::new();
        for i in 0..5u64 {
            wire.extend_from_slice(&encode_frame(
                &k,
                i,
                i as u8,
                &vec![i as u8; i as usize * 7],
            ));
        }
        // Feed the stream one byte at a time — worst-case fragmentation.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for byte in &wire {
            asm.extend(std::slice::from_ref(byte));
            while let Some(frame) = asm.next_frame(&k).unwrap() {
                got.push(frame);
            }
        }
        assert!(asm.is_empty());
        assert_eq!(got.len(), 5);
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame.from, i as u64);
            assert_eq!(frame.payload.len(), i * 7);
        }
    }

    #[test]
    fn assembler_waits_for_incomplete_frames() {
        let k = key();
        let wire = encode_frame(&k, 9, 2, b"pending");
        let mut asm = FrameAssembler::new();
        asm.extend(&wire[..HEADER_LEN + 3]);
        assert!(asm.next_frame(&k).unwrap().is_none());
        assert!(!asm.is_empty());
        asm.extend(&wire[HEADER_LEN + 3..]);
        let frame = asm.next_frame(&k).unwrap().unwrap();
        assert_eq!(frame.payload, b"pending");
        assert!(asm.is_empty());
    }

    /// A stream of the three sizes the overlay carries — empty, one `Tx`
    /// (201 B) and a block (80 KiB) — with the byte offset each frame
    /// ends at.
    fn mixed_stream(k: &FrameKey) -> (Vec<u8>, Vec<usize>) {
        let sizes = [0usize, 201, 80 << 10, 201, 0, 80 << 10, 201, 0];
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| (j * 31 + i) as u8).collect();
            wire.extend_from_slice(&encode_frame(k, i as u64, i as u8, &payload));
            ends.push(wire.len());
        }
        (wire, ends)
    }

    /// Feeds `wire` in `chunk`-byte reads, draining after each as
    /// `poll_conn` does; checks after every read that the assembler is
    /// empty exactly when the bytes fed so far end on a frame boundary.
    /// Returns the frames, then the error that stopped the stream.
    fn feed(
        k: &FrameKey,
        wire: &[u8],
        chunk: usize,
        ends: &[usize],
    ) -> (Vec<Frame>, Option<FrameError>) {
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut fed = 0;
        for piece in wire.chunks(chunk) {
            asm.extend(piece);
            fed += piece.len();
            loop {
                match asm.next_frame(k) {
                    Ok(Some(frame)) => got.push(frame),
                    Ok(None) => break,
                    Err(e) => return (got, Some(e)),
                }
            }
            assert_eq!(
                asm.is_empty(),
                ends.contains(&fed),
                "{chunk}-byte reads, {fed} bytes fed"
            );
        }
        (got, None)
    }

    #[test]
    fn assembler_chunking_yields_the_one_shot_frames() {
        let k = key();
        let (wire, ends) = mixed_stream(&k);
        let (one_shot, err) = feed(&k, &wire, wire.len(), &ends);
        assert!(err.is_none());
        assert_eq!(one_shot.len(), ends.len());
        assert_eq!(one_shot[2].payload.len(), 80 << 10);
        for chunk in [1, 7, 4093, 65536] {
            let (frames, err) = feed(&k, &wire, chunk, &ends);
            assert!(err.is_none(), "{chunk}-byte reads: {err:?}");
            assert_eq!(frames, one_shot, "{chunk}-byte reads");
        }
    }

    #[test]
    fn forged_frame_after_good_ones_yields_them_then_bad_auth() {
        let k = key();
        let (good, good_ends) = mixed_stream(&k);
        let (one_shot, _) = feed(&k, &good, good.len(), &good_ends);
        for kept in 0..=3 {
            let cut = if kept == 0 { 0 } else { good_ends[kept - 1] };
            let mut wire = good[..cut].to_vec();
            let mut forged = encode_frame(&k, 99, 0, &[0x42; 201]);
            forged[AUTH_PREFIX_LEN] ^= 0x01;
            wire.extend_from_slice(&forged);
            // Good frames after the forgery must never surface.
            wire.extend_from_slice(&good[cut..]);
            let ends: Vec<usize> = good_ends[..kept].to_vec();
            for chunk in [1, 7, 4093, 65536] {
                let (frames, err) = feed(&k, &wire, chunk, &ends);
                assert_eq!(frames[..], one_shot[..kept], "{chunk}-byte reads");
                assert!(
                    matches!(err, Some(FrameError::BadAuth)),
                    "{chunk}-byte reads after {kept} good frames: {err:?}"
                );
            }
        }
    }
}
