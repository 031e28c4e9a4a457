//! The cryptographic heart of the exchange (paper Fig. 3 steps 3–4, 8, 10).
//!
//! - [`seal_reading`] — node side: AES-256-CBC under the shared key `K`,
//!   wrap the Fig. 4 structure under the gateway's ephemeral `ePk`, and
//!   sign `(Em ‖ ePk)` with the provisioned key `Sk`.
//! - [`verify_uplink`] — recipient side, step 8: authenticity of `(Em, ePk)`.
//! - [`open_reading`] — recipient side, step 10: with the revealed `eSk`,
//!   peel RSA then AES to recover the plaintext reading.

use crate::provisioning::{DeviceCredentials, DeviceRecord};
use bcwan_crypto::aes::{cbc_decrypt, cbc_encrypt, CbcError};
use bcwan_crypto::rsa::{RsaError, RsaPrivateKey, RsaPublicKey};
use bcwan_lora::frame::{EncryptedReading, FrameError};
use rand::RngCore;
use std::fmt;

/// The sealed uplink material the node radios to the gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedUplink {
    /// `Em`: the RSA-wrapped Fig. 4 structure (one RSA block).
    pub em: Vec<u8>,
    /// `Sig`: the node's signature over `Em ‖ ePk`.
    pub sig: Vec<u8>,
}

/// Errors in sealing/opening readings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The reading is too large to fit the Fig. 4 frame under RSA-512.
    ReadingTooLarge {
        /// Reading length supplied.
        len: usize,
        /// Maximum supported by the configured RSA size.
        max: usize,
    },
    /// RSA failure (wrong key size, corrupt block…).
    Rsa(RsaError),
    /// The inner Fig. 4 structure failed to parse after RSA decryption.
    Frame(FrameError),
    /// AES-CBC decryption failed (wrong `K` or corrupted ciphertext).
    Aes(CbcError),
    /// The node signature did not verify.
    BadSignature,
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::ReadingTooLarge { len, max } => {
                write!(f, "reading of {len} bytes exceeds {max}")
            }
            ExchangeError::Rsa(e) => write!(f, "rsa failure: {e}"),
            ExchangeError::Frame(e) => write!(f, "inner frame malformed: {e}"),
            ExchangeError::Aes(e) => write!(f, "aes failure: {e}"),
            ExchangeError::BadSignature => write!(f, "node signature invalid"),
        }
    }
}

impl std::error::Error for ExchangeError {}

impl From<RsaError> for ExchangeError {
    fn from(e: RsaError) -> Self {
        ExchangeError::Rsa(e)
    }
}

impl From<FrameError> for ExchangeError {
    fn from(e: FrameError) -> Self {
        ExchangeError::Frame(e)
    }
}

impl From<CbcError> for ExchangeError {
    fn from(e: CbcError) -> Self {
        ExchangeError::Aes(e)
    }
}

/// Largest plaintext reading the Fig. 4 structure can carry through an
/// RSA-512 wrap: the 34-byte frame (16-byte ciphertext = one AES block)
/// holds ≤ 15 plaintext bytes after PKCS#7 (16 bytes pad to two blocks →
/// 50-byte frame, still under the 53-byte RSA-512 ceiling — so 31).
pub(crate) fn max_reading_len(e_pk: &RsaPublicKey) -> usize {
    let rsa_capacity = e_pk.block_len().saturating_sub(11); // PKCS#1 overhead
    let frame_overhead = 2 + 16; // two length bytes + IV
    let ct_capacity = rsa_capacity.saturating_sub(frame_overhead);
    // Whole AES blocks only; PKCS#7 always pads, so usable = blocks*16 - 1.
    let blocks = ct_capacity / 16;
    (blocks * 16).saturating_sub(1)
}

/// Node side (steps 3–4): seals `reading` for the home recipient via the
/// gateway's ephemeral key.
///
/// # Errors
///
/// [`ExchangeError::ReadingTooLarge`] or an RSA error.
pub fn seal_reading<R: RngCore>(
    rng: &mut R,
    credentials: &DeviceCredentials,
    e_pk: &RsaPublicKey,
    reading: &[u8],
) -> Result<SealedUplink, ExchangeError> {
    let max = max_reading_len(e_pk);
    if reading.len() > max {
        return Err(ExchangeError::ReadingTooLarge {
            len: reading.len(),
            max,
        });
    }
    // Step 3a: AES-256-CBC with a fresh IV (Fig. 4).
    let mut iv = [0u8; 16];
    rng.fill_bytes(&mut iv);
    let ciphertext = cbc_encrypt(&credentials.aes_key, &iv, reading);
    let inner = EncryptedReading { iv, ciphertext };
    // Step 3b: wrap under the ephemeral public key.
    let em = e_pk.encrypt(rng, &inner.encode())?;
    // Step 4: sign Em ‖ ePk with the provisioned key.
    let mut signed = em.clone();
    signed.extend_from_slice(&e_pk.to_bytes());
    let sig = credentials.signing_key.sign(&signed);
    Ok(SealedUplink { em, sig })
}

/// Recipient side, step 8: verifies that `(em, e_pk)` was produced by the
/// provisioned device.
pub fn verify_uplink(record: &DeviceRecord, e_pk: &RsaPublicKey, uplink: &SealedUplink) -> bool {
    let mut signed = uplink.em.clone();
    signed.extend_from_slice(&e_pk.to_bytes());
    record.verify_key.verify(&signed, &uplink.sig)
}

/// Recipient side, step 10: decrypts with the revealed ephemeral private
/// key, then the shared AES key.
///
/// # Errors
///
/// Any [`ExchangeError`] from the two decryption layers.
pub fn open_reading(
    record: &DeviceRecord,
    e_sk: &RsaPrivateKey,
    em: &[u8],
) -> Result<Vec<u8>, ExchangeError> {
    let inner_bytes = e_sk.decrypt(em)?;
    let inner = EncryptedReading::decode(&inner_bytes)?;
    Ok(cbc_decrypt(&record.aes_key, &inner.iv, &inner.ciphertext)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provisioning::{DeviceId, DeviceRegistry};
    use bcwan_chain::Address;
    use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        rng: StdRng,
        creds: DeviceCredentials,
        registry: DeviceRegistry,
        e_pk: RsaPublicKey,
        e_sk: RsaPrivateKey,
    }

    fn setup() -> Setup {
        let mut rng = StdRng::seed_from_u64(2018);
        let mut registry = DeviceRegistry::new();
        let creds = registry.provision(&mut rng, DeviceId(1), Address([9; 20]));
        let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
        Setup {
            rng,
            creds,
            registry,
            e_pk,
            e_sk,
        }
    }

    #[test]
    fn full_round_trip_matches_paper_steps() {
        let mut s = setup();
        let reading = b"t=21.5C;h=40%";
        let sealed = seal_reading(&mut s.rng, &s.creds, &s.e_pk, reading).unwrap();
        // The paper's 128-byte accounting: Em and Sig are one RSA block each.
        assert_eq!(sealed.em.len(), 64);
        assert_eq!(sealed.sig.len(), 64);

        let record = s.registry.get(&DeviceId(1)).unwrap();
        assert!(verify_uplink(record, &s.e_pk, &sealed));
        let opened = open_reading(record, &s.e_sk, &sealed.em).unwrap();
        assert_eq!(opened, reading);
    }

    #[test]
    fn gateway_cannot_read_without_esk() {
        let mut s = setup();
        let sealed = seal_reading(&mut s.rng, &s.creds, &s.e_pk, b"secret").unwrap();
        // A different RSA key (the "gateway's own") fails to decrypt.
        let (_, wrong_sk) = generate_keypair(&mut s.rng, RsaKeySize::Rsa512);
        let record = s.registry.get(&DeviceId(1)).unwrap();
        assert!(open_reading(record, &wrong_sk, &sealed.em).is_err());
    }

    #[test]
    fn tampered_em_detected_by_signature() {
        let mut s = setup();
        let mut sealed = seal_reading(&mut s.rng, &s.creds, &s.e_pk, b"data").unwrap();
        sealed.em[0] ^= 1;
        let record = s.registry.get(&DeviceId(1)).unwrap();
        assert!(!verify_uplink(record, &s.e_pk, &sealed));
    }

    #[test]
    fn swapped_ephemeral_key_detected() {
        // A malicious gateway substituting its own ePk after the node
        // signed is caught, because the signature covers ePk (step 4).
        let mut s = setup();
        let sealed = seal_reading(&mut s.rng, &s.creds, &s.e_pk, b"data").unwrap();
        let (other_pk, _) = generate_keypair(&mut s.rng, RsaKeySize::Rsa512);
        let record = s.registry.get(&DeviceId(1)).unwrap();
        assert!(!verify_uplink(record, &other_pk, &sealed));
    }

    #[test]
    fn wrong_device_record_rejects() {
        let mut s = setup();
        let sealed = seal_reading(&mut s.rng, &s.creds, &s.e_pk, b"data").unwrap();
        let other_creds = s
            .registry
            .provision(&mut s.rng, DeviceId(2), Address([9; 20]));
        let _ = other_creds;
        let record2 = s.registry.get(&DeviceId(2)).unwrap();
        assert!(!verify_uplink(record2, &s.e_pk, &sealed));
    }

    #[test]
    fn oversized_reading_rejected() {
        let mut s = setup();
        let max = max_reading_len(&s.e_pk);
        assert_eq!(max, 31, "RSA-512 carries up to 31 reading bytes");
        let too_big = vec![0u8; max + 1];
        assert!(matches!(
            seal_reading(&mut s.rng, &s.creds, &s.e_pk, &too_big),
            Err(ExchangeError::ReadingTooLarge { .. })
        ));
        let just_right = vec![0u8; max];
        assert!(seal_reading(&mut s.rng, &s.creds, &s.e_pk, &just_right).is_ok());
    }

    #[test]
    fn sixteen_byte_reading_yields_fig4_34_bytes() {
        // ≤15-byte readings (the paper's "temperature, humidity level")
        // produce exactly the 34-byte inner structure of Fig. 4.
        let mut s = setup();
        let reading = b"temp=21.5C;h=40"; // 15 bytes → one AES block
        let mut iv = [7u8; 16];
        s.rng.fill_bytes(&mut iv);
        let ct = cbc_encrypt(&s.creds.aes_key, &iv, reading);
        let inner = EncryptedReading { iv, ciphertext: ct };
        assert_eq!(inner.encode().len(), 34);
    }

    #[test]
    fn corrupted_em_fails_open_cleanly() {
        let mut s = setup();
        let sealed = seal_reading(&mut s.rng, &s.creds, &s.e_pk, b"data").unwrap();
        let mut bad = sealed.em.clone();
        bad[10] ^= 0xff;
        let record = s.registry.get(&DeviceId(1)).unwrap();
        assert!(open_reading(record, &s.e_sk, &bad).is_err());
    }
}
