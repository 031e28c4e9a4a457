//! Adapter for `bcwan-script`: evaluation of the three spends the
//! protocol makes — P2PKH, the Listing-1 claim (key reveal) and the
//! Listing-1 refund.

use crate::trace::span;
use bcwan_crypto::ecdsa::EcdsaPrivateKey;
use bcwan_crypto::hash160;
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
use bcwan_script::interpreter::{verify_spend, DigestChecker, ExecContext};
use bcwan_script::templates::{
    ephemeral_key_release, key_reveal_sig, p2pkh, p2pkh_sig, refund_sig,
};
use bcwan_script::Script;
use rand::rngs::StdRng;

const LAYER: &str = "script";
const DIGEST: [u8; 32] = [0x11; 32];
const REFUND_HEIGHT: u64 = 100;

/// One unlock/lock pair and the lock time it is spent at.
pub struct Spend {
    unlock: Script,
    lock: Script,
    lock_time: u64,
}

pub struct Spends {
    pub p2pkh: Spend,
    pub escrow_claim: Spend,
    pub escrow_refund: Spend,
}

pub fn spends(rng: &mut StdRng) -> Spends {
    let gateway = EcdsaPrivateKey::generate(rng);
    let buyer = EcdsaPrivateKey::generate(rng);
    let gw_pub = gateway.public_key().to_bytes();
    let buyer_pub = buyer.public_key().to_bytes();
    let gw_sig = gateway.sign_digest(&DIGEST).to_bytes();
    let buyer_sig = buyer.sign_digest(&DIGEST).to_bytes();
    let (e_pk, e_sk) = generate_keypair(rng, RsaKeySize::Rsa512);
    let escrow = ephemeral_key_release(
        &e_pk,
        &hash160(&gw_pub),
        &hash160(&buyer_pub),
        REFUND_HEIGHT,
    );
    Spends {
        p2pkh: Spend {
            unlock: p2pkh_sig(&gw_sig, &gw_pub),
            lock: p2pkh(&hash160(&gw_pub)),
            lock_time: 0,
        },
        escrow_claim: Spend {
            unlock: key_reveal_sig(&gw_sig, &gw_pub, &e_sk),
            lock: escrow.clone(),
            lock_time: 0,
        },
        escrow_refund: Spend {
            unlock: refund_sig(&buyer_sig, &buyer_pub),
            lock: escrow,
            lock_time: REFUND_HEIGHT + 50,
        },
    }
}

/// Evaluates one spend; `true` when the script accepts it.
pub fn eval(name: &'static str, spend: &Spend) -> bool {
    let checker = DigestChecker { digest: DIGEST };
    let ctx = ExecContext {
        checker: &checker,
        lock_time: spend.lock_time,
        input_final: false,
    };
    let _s = span(LAYER, name);
    verify_spend(&spend.unlock, &spend.lock, &ctx).is_ok()
}
