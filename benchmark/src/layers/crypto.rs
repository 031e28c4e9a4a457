//! Adapter for `bcwan-crypto`: hashes, AES-CBC, RSA-512, secp256k1 ECDSA.

use crate::trace::span;
use bcwan_crypto::ecdsa::{batch_verify, EcdsaPrivateKey, EcdsaPublicKey, Signature};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use rand::rngs::StdRng;

const LAYER: &str = "crypto";

pub fn sha256(data: &[u8]) -> [u8; 32] {
    let _s = span(LAYER, "sha256");
    bcwan_crypto::sha256(data)
}

pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let _s = span(LAYER, "hmac_sha256");
    bcwan_crypto::hmac::hmac_sha256(key, message)
}

pub fn aes256_cbc_encrypt(key: &[u8; 32], iv: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
    let _s = span(LAYER, "aes256_cbc_encrypt");
    bcwan_crypto::cbc_encrypt(key, iv, plaintext)
}

pub type RsaPair = (RsaPublicKey, RsaPrivateKey);

pub fn rsa512_keygen(rng: &mut StdRng) -> RsaPair {
    let _s = span(LAYER, "rsa512_keygen");
    generate_keypair(rng, RsaKeySize::Rsa512)
}

pub fn rsa512_encrypt(pk: &RsaPublicKey, rng: &mut StdRng, plaintext: &[u8]) -> Vec<u8> {
    let _s = span(LAYER, "rsa512_encrypt");
    pk.encrypt(rng, plaintext)
        .expect("plaintext fits one RSA-512 block")
}

pub fn rsa512_decrypt(sk: &RsaPrivateKey, ciphertext: &[u8]) -> Vec<u8> {
    let _s = span(LAYER, "rsa512_decrypt");
    sk.decrypt(ciphertext)
        .expect("ciphertext made by rsa512_encrypt")
}

/// The check behind `OP_CHECKRSA512PAIR`.
pub fn rsa512_pair_check(pk: &RsaPublicKey, sk: &RsaPrivateKey) -> bool {
    let _s = span(LAYER, "rsa512_pair_check");
    pk.matches_private(sk)
}

pub struct EcdsaFixture {
    pub key: EcdsaPrivateKey,
    pub public: EcdsaPublicKey,
    pub digest: [u8; 32],
    pub sig: Signature,
}

pub fn ecdsa_fixture(rng: &mut StdRng) -> EcdsaFixture {
    let key = EcdsaPrivateKey::generate(rng);
    let digest = [0x5a; 32];
    EcdsaFixture {
        public: key.public_key(),
        sig: key.sign_digest(&digest),
        key,
        digest,
    }
}

pub fn ecdsa_sign(f: &EcdsaFixture) -> Signature {
    let _s = span(LAYER, "ecdsa_sign");
    f.key.sign_digest(&f.digest)
}

pub fn ecdsa_verify(f: &EcdsaFixture) -> bool {
    let _s = span(LAYER, "ecdsa_verify");
    f.public.verify_digest(&f.digest, &f.sig)
}

/// 64 signatures in the shape a block has: 8 keys × 8 spends each, so
/// per-pubkey coalescing engages.
pub struct BatchFixture {
    digests: Vec<[u8; 32]>,
    sigs: Vec<Signature>,
    pubs: Vec<EcdsaPublicKey>,
}

pub fn ecdsa_batch64_fixture(rng: &mut StdRng) -> BatchFixture {
    let keys: Vec<EcdsaPrivateKey> = (0..8).map(|_| EcdsaPrivateKey::generate(rng)).collect();
    let mut f = BatchFixture {
        digests: Vec::new(),
        sigs: Vec::new(),
        pubs: Vec::new(),
    };
    for i in 0..64u64 {
        let mut digest = [0u8; 32];
        digest[..8].copy_from_slice(&i.to_le_bytes());
        let key = &keys[(i / 8) as usize];
        f.sigs.push(key.sign_digest(&digest));
        f.pubs.push(key.public_key());
        f.digests.push(digest);
    }
    f
}

pub fn ecdsa_batch64_verify(f: &BatchFixture) -> bool {
    let items: Vec<_> = (0..f.digests.len())
        .map(|i| (&f.digests[i], &f.sigs[i], &f.pubs[i]))
        .collect();
    let _s = span(LAYER, "ecdsa_batch64_verify");
    batch_verify(&items).is_ok()
}
