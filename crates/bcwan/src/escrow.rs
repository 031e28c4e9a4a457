//! Escrow construction and redemption (paper Fig. 3 steps 9–10).
//!
//! The recipient funds an output locked by the Listing 1 script; the
//! gateway claims it by revealing the ephemeral private key in its
//! unlocking script; the recipient reads the key back out of the claim.

use bcwan_chain::{Address, OutPoint, Transaction, TxIn, TxOut, Wallet};
use bcwan_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use bcwan_script::templates::{
    ephemeral_key_release, extract_revealed_key, key_reveal_sig, refund_sig,
};
use bcwan_script::{Instruction, Opcode, Script};

/// The number of blocks after which the refund branch opens; the paper's
/// Listing 1 uses `block_height + 100`.
pub const REFUND_DELTA: u64 = 100;

/// A funded escrow the recipient published.
#[derive(Debug, Clone)]
pub struct Escrow {
    /// The escrow transaction.
    pub tx: Transaction,
    /// Index of the escrowed output inside `tx`.
    pub vout: u32,
    /// The Listing 1 locking script of that output.
    pub script: Script,
    /// The refund height baked into the script.
    pub refund_height: u64,
}

impl Escrow {
    /// The outpoint the gateway must spend.
    pub fn outpoint(&self) -> OutPoint {
        OutPoint {
            txid: self.tx.txid(),
            vout: self.vout,
        }
    }
}

/// Builds the escrow transaction (step 9): spends recipient coins into a
/// Listing 1 output worth `reward`, with change back to the recipient.
///
/// `coins` are `(outpoint, locking_script, value)` triples owned by
/// `wallet`; they must cover `reward + fee`.
///
/// # Panics
///
/// Panics if the coins do not cover `reward + fee` (caller selects coins).
pub fn build_escrow(
    wallet: &Wallet,
    coins: &[(OutPoint, Script, u64)],
    e_pk: &RsaPublicKey,
    gateway_address: &Address,
    reward: u64,
    fee: u64,
    current_height: u64,
) -> Escrow {
    build_escrow_with_delta(
        wallet,
        coins,
        e_pk,
        gateway_address,
        reward,
        fee,
        current_height,
        REFUND_DELTA,
    )
}

/// [`build_escrow`] with an explicit refund delta instead of the paper's
/// fixed 100 blocks — short deltas let fast test chains reach the CLTV
/// branch without mining a hundred blocks.
///
/// # Panics
///
/// Panics if the coins do not cover `reward + fee` (caller selects coins).
#[allow(clippy::too_many_arguments)] // the build_escrow tuple plus the delta
pub fn build_escrow_with_delta(
    wallet: &Wallet,
    coins: &[(OutPoint, Script, u64)],
    e_pk: &RsaPublicKey,
    gateway_address: &Address,
    reward: u64,
    fee: u64,
    current_height: u64,
    refund_delta: u64,
) -> Escrow {
    let total: u64 = coins.iter().map(|(_, _, v)| v).sum();
    assert!(
        total >= reward + fee,
        "escrow coins {total} cannot cover reward {reward} + fee {fee}"
    );
    let refund_height = current_height + refund_delta;
    let script =
        ephemeral_key_release(e_pk, &gateway_address.0, &wallet.address().0, refund_height);
    let mut outputs = vec![TxOut {
        value: reward,
        script_pubkey: script.clone(),
    }];
    let change = total - reward - fee;
    if change > 0 {
        outputs.push(TxOut {
            value: change,
            script_pubkey: wallet.locking_script(),
        });
    }
    let inputs: Vec<(OutPoint, Script)> = coins
        .iter()
        .map(|(op, spk, _)| (*op, spk.clone()))
        .collect();
    let tx = wallet.build_payment(inputs, outputs, 0);
    Escrow {
        tx,
        vout: 0,
        script,
        refund_height,
    }
}

/// Builds the gateway's claim transaction (step 10): spends the escrow,
/// revealing `e_sk` on chain. "The output of this transaction is not
/// important but should be intended to the gateway itself."
pub fn build_claim(
    gateway_wallet: &Wallet,
    escrow_outpoint: OutPoint,
    escrow_script: &Script,
    escrow_value: u64,
    e_sk: &RsaPrivateKey,
    fee: u64,
) -> Transaction {
    let mut tx = Transaction {
        version: 1,
        inputs: vec![TxIn {
            prevout: escrow_outpoint,
            script_sig: Script::new(),
            sequence: 0,
        }],
        outputs: vec![TxOut {
            value: escrow_value.saturating_sub(fee),
            script_pubkey: gateway_wallet.locking_script(),
        }],
        lock_time: 0, // reveal path has no lock-time requirement
    };
    let sig = gateway_wallet.sign_input(&tx, 0, escrow_script);
    tx.inputs[0].script_sig = key_reveal_sig(&sig, gateway_wallet.pubkey_bytes(), e_sk);
    tx
}

/// Builds the recipient's refund transaction for an unclaimed escrow:
/// valid only once `refund_height` has passed (BIP-65).
pub fn build_refund(
    recipient_wallet: &Wallet,
    escrow: &Escrow,
    escrow_value: u64,
    fee: u64,
) -> Transaction {
    let mut tx = Transaction {
        version: 1,
        inputs: vec![TxIn {
            prevout: escrow.outpoint(),
            script_sig: Script::new(),
            sequence: 0, // non-final, so CLTV applies
        }],
        outputs: vec![TxOut {
            value: escrow_value.saturating_sub(fee),
            script_pubkey: recipient_wallet.locking_script(),
        }],
        lock_time: escrow.refund_height,
    };
    let sig = recipient_wallet.sign_input(&tx, 0, &escrow.script);
    tx.inputs[0].script_sig = refund_sig(&sig, recipient_wallet.pubkey_bytes());
    tx
}

/// Scans a transaction for an output locked to the given ephemeral public
/// key (how the gateway recognizes "its" escrow in the mempool). Returns
/// the output index and value.
pub fn find_escrow_for_key(tx: &Transaction, e_pk: &RsaPublicKey) -> Option<(u32, u64)> {
    let needle = e_pk.to_bytes();
    tx.outputs
        .iter()
        .position(|output| escrow_key(&output.script_pubkey) == Some(needle.as_slice()))
        .map(|vout| (vout as u32, tx.outputs[vout].value))
}

/// The serialized ephemeral public key a Listing 1 locking script opens
/// with — its leading push, when `OP_CHECKRSA512PAIR` follows — or
/// `None` for any other script. Reading it costs no key parsing, so a
/// gateway can look the push up among its open sessions directly.
pub(crate) fn escrow_key(script_pubkey: &Script) -> Option<&[u8]> {
    match script_pubkey.instructions() {
        [Instruction::Push(key), Instruction::Op(Opcode::CheckRsa512Pair), ..] => Some(key),
        _ => None,
    }
}

/// Extracts the ephemeral private key from a transaction that spends
/// `escrow_outpoint` (how the recipient learns `eSk` from the claim).
pub fn extract_key_from_claim(
    tx: &Transaction,
    escrow_outpoint: &OutPoint,
) -> Option<RsaPrivateKey> {
    tx.inputs
        .iter()
        .find(|input| input.prevout == *escrow_outpoint)
        .and_then(|input| extract_revealed_key(&input.script_sig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_chain::{validate_transaction, Chain, ChainParams, SigCache, TxError, UtxoSet};
    use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        params: ChainParams,
        chain: Chain,
        recipient: Wallet,
        gateway: Wallet,
        coin: (OutPoint, Script, u64),
        e_pk: RsaPublicKey,
        e_sk: RsaPrivateKey,
    }

    fn setup() -> Setup {
        let mut rng = StdRng::seed_from_u64(77);
        let params = ChainParams::fast_test();
        let recipient = Wallet::generate(&mut rng);
        let gateway = Wallet::generate(&mut rng);
        let genesis = Chain::make_genesis(&params, &[(recipient.address(), 10_000)]);
        let chain = Chain::new(params.clone(), genesis);
        let cb = &chain.block_at(0).unwrap().transactions[0];
        let coin = (
            OutPoint {
                txid: cb.txid(),
                vout: 0,
            },
            recipient.locking_script(),
            10_000,
        );
        let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
        Setup {
            params,
            chain,
            recipient,
            gateway,
            coin,
            e_pk,
            e_sk,
        }
    }

    /// [`validate_transaction`] of `tx` with an empty memo.
    fn validate(
        tx: &Transaction,
        utxo: &UtxoSet,
        height: u64,
        params: &ChainParams,
    ) -> Result<u64, TxError> {
        validate_transaction(
            &tx.clone().into(),
            utxo,
            height,
            params,
            &SigCache::default(),
        )
    }

    /// Height at which the genesis coin is mature.
    fn mature(s: &Setup) -> u64 {
        s.params.coinbase_maturity
    }

    #[test]
    fn escrow_tx_validates_and_pays_reward_plus_change() {
        let s = setup();
        let escrow = build_escrow(
            &s.recipient,
            std::slice::from_ref(&s.coin),
            &s.e_pk,
            &s.gateway.address(),
            100,
            10,
            0,
        );
        assert_eq!(escrow.tx.outputs.len(), 2);
        assert_eq!(escrow.tx.outputs[0].value, 100);
        assert_eq!(escrow.tx.outputs[1].value, 9_890);
        assert_eq!(escrow.refund_height, REFUND_DELTA);
        let fee =
            validate(&escrow.tx, s.chain.utxo(), mature(&s), &s.params).expect("escrow valid");
        assert_eq!(fee, 10);
    }

    #[test]
    fn claim_reveals_key_and_validates() {
        let s = setup();
        let escrow = build_escrow(
            &s.recipient,
            std::slice::from_ref(&s.coin),
            &s.e_pk,
            &s.gateway.address(),
            100,
            10,
            0,
        );
        // Put the escrow into the UTXO view.
        let mut utxo = s.chain.utxo().clone();
        utxo.apply_block(std::slice::from_ref(&escrow.tx), mature(&s))
            .unwrap();

        let claim = build_claim(
            &s.gateway,
            escrow.outpoint(),
            &escrow.script,
            100,
            &s.e_sk,
            5,
        );
        let fee = validate(&claim, &utxo, mature(&s), &s.params)
            .expect("claim valid without any lock time");
        assert_eq!(fee, 5);

        // The recipient recovers the key from the claim.
        let recovered = extract_key_from_claim(&claim, &escrow.outpoint()).unwrap();
        assert!(s.e_pk.matches_private(&recovered));
    }

    #[test]
    fn claim_with_wrong_key_invalid() {
        let mut rng = StdRng::seed_from_u64(88);
        let s = setup();
        let escrow = build_escrow(
            &s.recipient,
            std::slice::from_ref(&s.coin),
            &s.e_pk,
            &s.gateway.address(),
            100,
            10,
            0,
        );
        let mut utxo = s.chain.utxo().clone();
        utxo.apply_block(std::slice::from_ref(&escrow.tx), mature(&s))
            .unwrap();

        let (_, wrong_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
        let claim = build_claim(
            &s.gateway,
            escrow.outpoint(),
            &escrow.script,
            100,
            &wrong_sk,
            5,
        );
        assert!(validate(&claim, &utxo, mature(&s), &s.params).is_err());
    }

    #[test]
    fn refund_only_after_lock_height() {
        let s = setup();
        let escrow = build_escrow(
            &s.recipient,
            std::slice::from_ref(&s.coin),
            &s.e_pk,
            &s.gateway.address(),
            100,
            10,
            0,
        );
        let mut utxo = s.chain.utxo().clone();
        utxo.apply_block(std::slice::from_ref(&escrow.tx), mature(&s))
            .unwrap();

        let refund = build_refund(&s.recipient, &escrow, 100, 5);
        // Too early: the transaction itself is not final.
        assert!(validate(&refund, &utxo, 50, &s.params).is_err());
        // After the lock height it validates.
        let fee = validate(&refund, &utxo, escrow.refund_height, &s.params)
            .expect("refund valid after lock height");
        assert_eq!(fee, 5);
    }

    #[test]
    fn gateway_cannot_claim_with_refund_path() {
        let s = setup();
        let escrow = build_escrow(
            &s.recipient,
            std::slice::from_ref(&s.coin),
            &s.e_pk,
            &s.gateway.address(),
            100,
            10,
            0,
        );
        let mut utxo = s.chain.utxo().clone();
        utxo.apply_block(std::slice::from_ref(&escrow.tx), mature(&s))
            .unwrap();

        // Gateway forges a "refund" to itself after the lock height.
        let fake = Escrow {
            tx: escrow.tx.clone(),
            vout: 0,
            script: escrow.script.clone(),
            refund_height: escrow.refund_height,
        };
        let theft = build_refund(&s.gateway, &fake, 100, 5);
        assert!(validate(&theft, &utxo, escrow.refund_height + 10, &s.params).is_err());
    }

    #[test]
    fn find_escrow_by_ephemeral_key() {
        let s = setup();
        let escrow = build_escrow(
            &s.recipient,
            std::slice::from_ref(&s.coin),
            &s.e_pk,
            &s.gateway.address(),
            250,
            10,
            0,
        );
        assert_eq!(find_escrow_for_key(&escrow.tx, &s.e_pk), Some((0, 250)));
        // A different key does not match.
        let mut rng = StdRng::seed_from_u64(5);
        let (other_pk, _) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
        assert_eq!(find_escrow_for_key(&escrow.tx, &other_pk), None);
        // A plain payment does not match either.
        let plain = s.recipient.build_payment(
            vec![(s.coin.0, s.coin.1.clone())],
            vec![TxOut {
                value: 1,
                script_pubkey: s.recipient.locking_script(),
            }],
            0,
        );
        assert_eq!(find_escrow_for_key(&plain, &s.e_pk), None);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn underfunded_escrow_panics() {
        let s = setup();
        build_escrow(
            &s.recipient,
            &[(s.coin.0, s.coin.1.clone(), 50)],
            &s.e_pk,
            &s.gateway.address(),
            100,
            10,
            0,
        );
    }
}
