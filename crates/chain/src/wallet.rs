//! Wallets and addresses.
//!
//! A BcWAN *actor* (gateway owner / recipient) holds one ECDSA wallet key;
//! its `HASH160` is both its payment address and — crucially for the
//! protocol — the blockchain address `@R` that sensors embed in uplinks
//! and that the IP directory keys on (paper §4.3).

use crate::tx::{Transaction, TxIn, TxOut};
use bcwan_crypto::ecdsa::{EcdsaPrivateKey, EcdsaPublicKey};
use bcwan_crypto::hash160;
use bcwan_script::templates::{p2pkh, p2pkh_sig};
use bcwan_script::Script;
use rand::RngCore;
use std::fmt;

/// A 20-byte account address (`HASH160` of the compressed public key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Builds the address of a public key.
    pub(crate) fn from_pubkey(pk: &EcdsaPublicKey) -> Self {
        Address(hash160(&pk.to_bytes()))
    }

    /// The raw 20 bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Full lowercase hex.
    pub fn to_hex(&self) -> String {
        bcwan_crypto::hex::encode(&self.0)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({self})")
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.to_hex();
        write!(f, "{}…{}", &hex[..6], &hex[34..])
    }
}

/// A single-key wallet.
pub struct Wallet {
    key: EcdsaPrivateKey,
    pubkey_bytes: [u8; 33],
    address: Address,
}

impl fmt::Debug for Wallet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Wallet({})", self.address)
    }
}

impl Wallet {
    /// Generates a fresh wallet.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        Self::from_key(EcdsaPrivateKey::generate(rng))
    }

    /// Wraps an existing key.
    pub(crate) fn from_key(key: EcdsaPrivateKey) -> Self {
        let public = key.public_key();
        let pubkey_bytes = public.to_bytes();
        let address = Address::from_pubkey(&public);
        Wallet {
            key,
            pubkey_bytes,
            address,
        }
    }

    /// The wallet's address (and BcWAN blockchain identity `@R`).
    pub fn address(&self) -> Address {
        self.address
    }

    /// The compressed public key bytes.
    pub fn pubkey_bytes(&self) -> &[u8; 33] {
        &self.pubkey_bytes
    }

    /// The locking script paying this wallet.
    pub fn locking_script(&self) -> Script {
        p2pkh(&self.address.0)
    }

    /// Signs input `index` of `tx` (which spends an output locked by
    /// `prev_script_pubkey`) and returns the compact signature bytes.
    pub fn sign_input(
        &self,
        tx: &Transaction,
        index: usize,
        prev_script_pubkey: &Script,
    ) -> [u8; 64] {
        let digest = tx.sighash(index, prev_script_pubkey);
        self.key.sign_digest(&digest).to_bytes()
    }

    /// Signs input `index` and installs the standard P2PKH unlocking
    /// script into the transaction.
    pub fn sign_p2pkh_input(
        &self,
        tx: &mut Transaction,
        index: usize,
        prev_script_pubkey: &Script,
    ) {
        let sig = self.sign_input(tx, index, prev_script_pubkey);
        tx.inputs[index].script_sig = p2pkh_sig(&sig, &self.pubkey_bytes);
    }

    /// Convenience: builds and fully signs a P2PKH payment spending the
    /// given inputs (all assumed locked to this wallet).
    pub fn build_payment(
        &self,
        inputs: Vec<(crate::tx::OutPoint, Script)>,
        outputs: Vec<TxOut>,
        lock_time: u64,
    ) -> Transaction {
        let mut tx = Transaction {
            version: 1,
            inputs: inputs
                .iter()
                .map(|(prevout, _)| TxIn {
                    prevout: *prevout,
                    script_sig: Script::new(),
                    // Non-final so lock_time (and CLTV) stay meaningful.
                    sequence: 0,
                })
                .collect(),
            outputs,
            lock_time,
        };
        for (i, (_, prev_spk)) in inputs.iter().enumerate() {
            self.sign_p2pkh_input(&mut tx, i, prev_spk);
        }
        tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{OutPoint, TxId};
    use bcwan_script::interpreter::{verify_spend, DigestChecker, ExecContext};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn address_derivation_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Wallet::generate(&mut rng);
        let again = Wallet::from_key(EcdsaPrivateKey::from_bytes(&w.key.to_bytes()).unwrap());
        assert_eq!(w.address(), again.address());
    }

    #[test]
    fn distinct_wallets_distinct_addresses() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Wallet::generate(&mut rng);
        let b = Wallet::generate(&mut rng);
        assert_ne!(a.address(), b.address());
    }

    #[test]
    fn signed_payment_passes_script_verification() {
        let mut rng = StdRng::seed_from_u64(3);
        let owner = Wallet::generate(&mut rng);
        let payee = Wallet::generate(&mut rng);
        let prev_spk = owner.locking_script();

        let tx = owner.build_payment(
            vec![(
                OutPoint {
                    txid: TxId([7; 32]),
                    vout: 0,
                },
                prev_spk.clone(),
            )],
            vec![TxOut {
                value: 10,
                script_pubkey: payee.locking_script(),
            }],
            0,
        );

        let digest = tx.sighash(0, &prev_spk);
        let checker = DigestChecker { digest };
        let ctx = ExecContext {
            checker: &checker,
            lock_time: tx.lock_time,
            input_final: false,
        };
        assert_eq!(
            verify_spend(&tx.inputs[0].script_sig, &prev_spk, &ctx),
            Ok(true)
        );
    }

    #[test]
    fn tampered_payment_fails_verification() {
        let mut rng = StdRng::seed_from_u64(4);
        let owner = Wallet::generate(&mut rng);
        let prev_spk = owner.locking_script();
        let mut tx = owner.build_payment(
            vec![(
                OutPoint {
                    txid: TxId([7; 32]),
                    vout: 0,
                },
                prev_spk.clone(),
            )],
            vec![TxOut {
                value: 10,
                script_pubkey: Script::new(),
            }],
            0,
        );
        // Tamper after signing.
        tx.outputs[0].value = 10_000;
        let digest = tx.sighash(0, &prev_spk);
        let checker = DigestChecker { digest };
        let ctx = ExecContext {
            checker: &checker,
            lock_time: 0,
            input_final: false,
        };
        assert_eq!(
            verify_spend(&tx.inputs[0].script_sig, &prev_spk, &ctx),
            Ok(false)
        );
    }

    #[test]
    fn display_abbreviates() {
        let addr = Address([0xab; 20]);
        let text = addr.to_string();
        assert!(text.starts_with("ababab"));
        assert!(text.contains('…'));
        assert_eq!(addr.to_hex().len(), 40);
    }
}
