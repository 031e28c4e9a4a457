//! HMAC-SHA256 (RFC 2104), needed for RFC 6979 deterministic ECDSA nonces,
//! the provisioning key-derivation helper and the overlay's frame tags.

use crate::sha256::Sha256;
use std::fmt;

/// An HMAC-SHA256 key with its two pads already absorbed.
///
/// HMAC hashes `key ⊕ ipad` ahead of the message and `key ⊕ opad` ahead
/// of the inner digest; each pad is one 64-byte block. Construction
/// compresses both blocks once, and every tag under the key starts from
/// clones of those two midstates — a short message's tag costs two
/// compressions fewer than [`hmac_sha256`] from the raw key.
///
/// # Examples
///
/// ```
/// use bcwan_crypto::hmac::{hmac_sha256, HmacSha256Key};
///
/// let key = HmacSha256Key::new(b"key");
/// assert_eq!(
///     key.tag(&[b"The quick brown fox ", b"jumps over the lazy dog"]),
///     hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog")
/// );
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HmacSha256Key {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacSha256Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates are as good as the key: never print them.
        write!(f, "HmacSha256Key(..)")
    }
}

impl HmacSha256Key {
    /// Absorbs `key`'s two pads. A key longer than the 64-byte block is
    /// hashed first, as RFC 2104 says.
    pub fn new(key: &[u8]) -> Self {
        const BLOCK: usize = 64;
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|k| k ^ byte));
            h
        };
        HmacSha256Key {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// `HMAC-SHA256(key, parts joined)`, each part streamed into the
    /// inner hash rather than copied together.
    pub fn tag(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Examples
///
/// ```
/// use bcwan_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     bcwan_crypto::hex::encode(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacSha256Key::new(key).tag(&[message])
}

/// Simple HKDF-style expansion used to derive per-device keys from an
/// actor's master secret during provisioning (`info` disambiguates usage).
pub fn derive_key(master: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * 32, "derive_key output too long");
    let mut out = Vec::with_capacity(out_len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut msg = previous.clone();
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(master, &msg);
        previous = block.to_vec();
        out.extend_from_slice(&block);
        counter = counter.wrapping_add(1);
    }
    out.truncate(out_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// A keyed tag fed in parts equals the one-shot HMAC, for keys
    /// shorter than, equal to and longer than the 64-byte block (hashed
    /// first), and one key serves any number of tags.
    #[test]
    fn keyed_parts_equal_one_shot() {
        let message: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let raw: Vec<u8> = (0..key_len).map(|i| (i as u8) ^ 0xa5).collect();
            let key = HmacSha256Key::new(&raw);
            for split in [0, 1, 22, 64, 150, 300] {
                assert_eq!(
                    key.tag(&[&message[..split], &message[split..]]),
                    hmac_sha256(&raw, &message),
                    "key of {key_len} bytes, split at {split}"
                );
            }
        }
        assert_eq!(HmacSha256Key::new(b"k"), HmacSha256Key::new(b"k"));
        assert_ne!(HmacSha256Key::new(b"k"), HmacSha256Key::new(b"j"));
        assert_eq!(
            format!("{:?}", HmacSha256Key::new(b"k")),
            "HmacSha256Key(..)"
        );
    }

    #[test]
    fn derive_key_lengths_and_determinism() {
        let a = derive_key(b"master", b"aes", 32);
        let b = derive_key(b"master", b"aes", 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let c = derive_key(b"master", b"sig", 32);
        assert_ne!(a, c, "different info must give different keys");
        let long = derive_key(b"master", b"x", 100);
        assert_eq!(long.len(), 100);
        assert_eq!(&long[..32], &derive_key(b"master", b"x", 32)[..]);
    }
}
