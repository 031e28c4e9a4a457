//! # bcwan-script
//!
//! A Bitcoin-style, non-Turing-complete, stack-based script language with
//! the two operators BcWAN's fair exchange hinges on (paper §4.4):
//!
//! - `OP_CHECKLOCKTIMEVERIFY` (BIP-65) — the refund branch's time lock,
//! - `OP_CHECKRSA512PAIR` — the paper's custom operator, which "checks
//!   that a private RSA-512 key matches a public RSA-512 key", allowing a
//!   transaction output to *pay for the disclosure of a private key*.
//!
//! The crate provides the opcode set ([`opcode`]), script container and
//! wire codec ([`script`]), the interpreter ([`interpreter`]), and the
//! standard templates ([`templates`]) including the paper's Listing 1
//! escrow script.
//!
//! ## Example: running Listing 1's reveal path
//!
//! ```
//! use bcwan_script::templates::{ephemeral_key_release, key_reveal_sig};
//! use bcwan_script::interpreter::{verify_spend, DigestChecker, ExecContext};
//! use bcwan_crypto::{generate_keypair, hash160, RsaKeySize};
//! use bcwan_crypto::ecdsa::EcdsaPrivateKey;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let wallet = EcdsaPrivateKey::generate(&mut rng);
//! let pubkey = wallet.public_key().to_bytes();
//! let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
//!
//! let escrow = ephemeral_key_release(&e_pk, &hash160(&pubkey), &[0u8; 20], 100);
//! let digest = [7u8; 32]; // stand-in for the sighash
//! let sig = wallet.sign_digest(&digest).to_bytes();
//! let unlock = key_reveal_sig(&sig, &pubkey, &e_sk);
//!
//! let checker = DigestChecker { digest };
//! let ctx = ExecContext { checker: &checker, lock_time: 0, input_final: false };
//! assert_eq!(verify_spend(&unlock, &escrow, &ctx), Ok(true));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod interpreter;
pub mod opcode;
pub mod script;
pub mod templates;

pub use interpreter::{
    run_script, verify_spend, DeferringChecker, DigestChecker, ExecContext, RejectAllChecker,
    ScriptError, SignatureChecker,
};
pub use opcode::Opcode;
pub use script::{decode_num, encode_num, Instruction, ParseScriptError, Script, ScriptBuilder};
pub use templates::PubKeyHash;
