//! Integration test F3: the complete Fig. 3 message sequence, asserting
//! every step across the crate boundaries (lora frames, crypto, script,
//! chain validation).

use bcwan::escrow::{build_claim, build_escrow, extract_key_from_claim, find_escrow_for_key};
use bcwan::exchange::{open_reading, seal_reading, verify_uplink};
use bcwan::provisioning::{DeviceId, DeviceRegistry};
use bcwan_chain::{validate_transaction, Chain, ChainParams, OutPoint, SigCache, Wallet};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
use bcwan_lora::frame::{LoraFrame, ADDRESS_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Testbed {
    params: ChainParams,
    chain: Chain,
    recipient: Wallet,
    gateway: Wallet,
}

fn testbed(seed: u64) -> Testbed {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ChainParams::multichain_like();
    params.coinbase_maturity = 0;
    let recipient = Wallet::generate(&mut rng);
    let gateway = Wallet::generate(&mut rng);
    let genesis = Chain::make_genesis(&params, &[(recipient.address(), 5_000)]);
    let chain = Chain::new(params.clone(), genesis);
    Testbed {
        params,
        chain,
        recipient,
        gateway,
    }
}

#[test]
fn full_figure3_sequence() {
    let t = testbed(1);
    let mut rng = StdRng::seed_from_u64(100);
    // Re-provision deterministically to get node credentials.
    let mut registry = DeviceRegistry::new();
    let creds = registry.provision(&mut rng, DeviceId(7), t.recipient.address());

    // Step 0 (unillustrated): the node's uplink request frame.
    let request = LoraFrame::UplinkRequest {
        device_id: 7,
        recipient: *t.recipient.address().as_bytes(),
    };
    let decoded = LoraFrame::decode(&request.encode()).expect("request round-trips");
    assert_eq!(decoded, request);

    // Steps 1-2: ephemeral keypair, key downlink.
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let downlink = LoraFrame::DownlinkEphemeralKey {
        device_id: 7,
        public_key: e_pk.to_bytes(),
    };
    let LoraFrame::DownlinkEphemeralKey { public_key, .. } =
        LoraFrame::decode(&downlink.encode()).expect("downlink round-trips")
    else {
        panic!("wrong frame type");
    };
    let received_pk = bcwan_crypto::RsaPublicKey::from_bytes(&public_key).expect("key parses");
    assert_eq!(received_pk, e_pk);

    // Steps 3-5: seal and uplink. Em and Sig are one RSA block each — the
    // paper's "predefined minimum payload of 128 bytes".
    let reading = b"t=19.5C";
    let sealed = seal_reading(&mut rng, &creds, &received_pk, reading).expect("seals");
    assert_eq!(sealed.em.len() + sealed.sig.len(), 128);
    let data = LoraFrame::DataUplink {
        device_id: 7,
        recipient: *t.recipient.address().as_bytes(),
        em: sealed.em.clone(),
        sig: sealed.sig.clone(),
    };
    let decoded = LoraFrame::decode(&data.encode()).expect("data round-trips");
    let LoraFrame::DataUplink {
        recipient, em, sig, ..
    } = decoded
    else {
        panic!("wrong frame type");
    };
    assert_eq!(recipient.len(), ADDRESS_LEN);

    // Step 8: authenticity at the recipient.
    let record = registry.get(&DeviceId(7)).expect("provisioned");
    let received = bcwan::exchange::SealedUplink { em, sig };
    assert!(verify_uplink(record, &received_pk, &received));

    // Step 9: escrow on the real chain.
    let coin = (
        OutPoint {
            txid: t.chain.block_at(0).unwrap().transactions[0].txid(),
            vout: 0,
        },
        t.recipient.locking_script(),
        5_000u64,
    );
    let escrow = build_escrow(
        &t.recipient,
        &[coin],
        &received_pk,
        &t.gateway.address(),
        50,
        5,
        t.chain.height(),
    );
    validate_transaction(
        &escrow.tx.clone().into(),
        t.chain.utxo(),
        1,
        &t.params,
        &SigCache::default(),
    )
    .expect("escrow valid");

    // Step 10: claim reveals the key; the recipient decrypts.
    let (vout, value) = find_escrow_for_key(&escrow.tx, &received_pk).expect("found");
    assert_eq!((vout, value), (0, 50));
    let claim = build_claim(
        &t.gateway,
        escrow.outpoint(),
        &escrow.script,
        value,
        &e_sk,
        2,
    );
    let revealed = extract_key_from_claim(&claim, &escrow.outpoint()).expect("revealed");
    let opened = open_reading(record, &revealed, &received.em).expect("decrypts");
    assert_eq!(opened, reading);
}

#[test]
fn gateway_never_learns_plaintext() {
    let t = testbed(2);
    let mut rng = StdRng::seed_from_u64(200);
    let mut registry = DeviceRegistry::new();
    let creds = registry.provision(&mut rng, DeviceId(7), t.recipient.address());
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let sealed = seal_reading(&mut rng, &creds, &e_pk, b"secret-reading").expect("seals");

    // The gateway has eSk — it can strip the outer RSA layer…
    let inner = e_sk.decrypt(&sealed.em).expect("outer layer off");
    let frame = bcwan_lora::frame::EncryptedReading::decode(&inner).expect("fig4 parses");
    // …but the inner AES layer needs K, which it does not have.
    let wrong_key = [0u8; 32];
    match bcwan_crypto::cbc_decrypt(&wrong_key, &frame.iv, &frame.ciphertext) {
        Err(_) => {}
        Ok(plain) => assert_ne!(plain, b"secret-reading".to_vec()),
    }
    let _ = t;
}

#[test]
fn recipient_rejects_forged_uplinks() {
    let t = testbed(3);
    let mut rng = StdRng::seed_from_u64(300);
    let mut registry = DeviceRegistry::new();
    let _creds = registry.provision(&mut rng, DeviceId(7), t.recipient.address());
    // An attacker without the provisioned Sk fabricates an uplink.
    let mut forged_registry = DeviceRegistry::new();
    let forged_creds = forged_registry.provision(&mut rng, DeviceId(7), t.recipient.address());
    let (e_pk, _) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let forged = seal_reading(&mut rng, &forged_creds, &e_pk, b"injected").expect("seals");
    let record = registry.get(&DeviceId(7)).expect("provisioned");
    assert!(
        !verify_uplink(record, &e_pk, &forged),
        "signature from a different Sk must not verify"
    );
}
