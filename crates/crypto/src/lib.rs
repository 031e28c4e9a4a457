//! # bcwan-crypto
//!
//! From-scratch cryptographic primitives backing the BcWAN reproduction
//! (Bezahaf et al., Middleware '18). The paper's proof of concept leaned on
//! OpenSSL and Multichain's bundled crypto; this crate reimplements exactly
//! the primitives the protocol needs:
//!
//! - [`bignum`] — arbitrary-precision unsigned integers (the base layer),
//! - [`mod@sha256`] / [`mod@ripemd160`] / [`hmac`] — hash functions for transaction
//!   ids, `HASH160` addresses and RFC 6979,
//! - [`mod@crc32`] — the CRC-32/IEEE checksum of overlay frames and store
//!   records,
//! - [`aes`] — AES-256-CBC with PKCS#7, the node↔recipient symmetric layer,
//! - [`rsa`] — RSA-512 ephemeral keypairs, encryption and signatures, plus
//!   the pair-check that powers the `OP_CHECKRSA512PAIR` script operator,
//! - [`secp256k1`] / [`ecdsa`] — the blockchain signature scheme.
//!
//! Everything is deterministic given a seeded RNG, which the simulator
//! relies on for reproducible experiments.
//!
//! ## Example: the paper's double encryption (§4.4 step 3)
//!
//! ```
//! use bcwan_crypto::{aes, rsa};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Gateway's ephemeral keypair (paper step 1).
//! let (e_pk, e_sk) = rsa::generate_keypair(&mut rng, rsa::RsaKeySize::Rsa512);
//! // Node encrypts under the shared AES key, then under ePk.
//! let shared_key = [7u8; 32];
//! let iv = [9u8; 16];
//! let inner = aes::cbc_encrypt(&shared_key, &iv, b"t=21.5C");
//! let em = e_pk.encrypt(&mut rng, &inner)?;
//! // Recipient later recovers the inner ciphertext with the revealed eSk.
//! assert_eq!(e_sk.decrypt(&em)?, inner);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aes;
pub mod bignum;
pub mod crc32;
pub mod ecdsa;
pub mod field;
/// Raw 5×52-limb `const fn` arithmetic over the secp256k1 field prime
/// `p = 2^256 − 2^32 − 977` (lazily reduced limbs under a magnitude rule,
/// products folded through `2^256 ≡ 2^32 + 977`, branchless
/// normalization, Fermat inversion/sqrt chains). Shared with `build.rs`,
/// which `include!`s the same file to const-bake the base-point tables.
/// Prefer the [`field::FieldElement`] wrapper, which enforces the
/// magnitude rule, unless you are operating on raw limbs.
pub mod field_core;
pub(crate) mod glv;
pub mod hex;
pub mod hmac;
pub mod msm;
pub mod ripemd160;
pub mod rsa;
pub mod scalar;
pub mod secp256k1;
pub mod sha256;

pub use aes::{cbc_decrypt, cbc_encrypt, Aes256};
pub use bignum::{BigUint, MontgomeryCtx};
pub use ecdsa::{batch_verify, EcdsaPrivateKey, EcdsaPublicKey, Signature};
pub use ripemd160::{hash160, ripemd160};
pub use rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
pub use scalar::Scalar;
pub use sha256::{sha256, sha256d, Sha256};
