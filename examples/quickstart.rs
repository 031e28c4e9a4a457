//! Quickstart: one BcWAN exchange, narrated step by step.
//!
//! Walks the exact message sequence of paper Fig. 3 using the library
//! primitives directly — provisioning, the ephemeral key, the double
//! encryption, the Listing 1 escrow, the revealing claim, and the final
//! decryption — validating each transaction against a real chain.
//!
//! Run with: `cargo run --release --example quickstart`

use bcwan::escrow::{build_claim, build_escrow, extract_key_from_claim, find_escrow_for_key};
use bcwan::exchange::{open_reading, seal_reading, verify_uplink};
use bcwan::provisioning::{DeviceId, DeviceRegistry};
use bcwan_chain::{validate_transaction, Chain, ChainParams, HashedTx, OutPoint, SigCache, Wallet};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
use bcwan_lora::frame::LoraFrame;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2018);

    // ------------------------------------------------------------------
    // Setup: two actors — a recipient (the sensor's home network) and a
    // foreign gateway — plus a chain bootstrapped with recipient funds.
    // ------------------------------------------------------------------
    let mut params = ChainParams::multichain_like();
    params.coinbase_maturity = 0; // keep the walkthrough focused
    let recipient_wallet = Wallet::generate(&mut rng);
    let gateway_wallet = Wallet::generate(&mut rng);
    let genesis = Chain::make_genesis(&params, &[(recipient_wallet.address(), 1_000)]);
    let chain = Chain::new(params.clone(), genesis);
    println!("chain bootstrapped at height {}", chain.height());
    println!("recipient @R = {}", recipient_wallet.address());
    println!("gateway      = {}", gateway_wallet.address());

    // Provisioning (§4.4): shared AES key K and signing pair Sk/Pk.
    let mut registry = DeviceRegistry::new();
    let device = registry.provision(&mut rng, DeviceId(1), recipient_wallet.address());
    println!(
        "\n[provisioning] device {} loaded with K and Sk",
        device.device_id
    );

    // ------------------------------------------------------------------
    // Step 1-2: the gateway generates the ephemeral RSA-512 pair and
    // sends ePk to the node over LoRa.
    // ------------------------------------------------------------------
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let downlink = LoraFrame::DownlinkEphemeralKey {
        device_id: device.device_id.0,
        public_key: e_pk.to_bytes(),
    };
    println!(
        "\n[step 1-2] gateway → node: ePk ({} bytes on air)",
        downlink.phy_len()
    );

    // ------------------------------------------------------------------
    // Steps 3-5: the node double-encrypts and signs, then uplinks.
    // ------------------------------------------------------------------
    let reading = b"t=21.5C;h=40%";
    let sealed = seal_reading(&mut rng, &device, &e_pk, reading)?;
    let uplink = LoraFrame::DataUplink {
        device_id: device.device_id.0,
        recipient: *recipient_wallet.address().as_bytes(),
        em: sealed.em.clone(),
        sig: sealed.sig.clone(),
    };
    println!(
        "[step 3-5] node → gateway: Em ({}B) + Sig ({}B), frame {}B — the paper's 128B payload",
        sealed.em.len(),
        sealed.sig.len(),
        uplink.phy_len()
    );

    // ------------------------------------------------------------------
    // Steps 6-7: the gateway looks up @R and forwards over TCP/IP.
    // (The directory lookup is exercised in the gateway_relocation
    // example; here the recipient is already known.)
    // Step 8: the recipient checks authenticity.
    // ------------------------------------------------------------------
    let record = registry.get(&device.device_id).expect("provisioned");
    assert!(verify_uplink(record, &e_pk, &sealed));
    println!("[step 8]   recipient verified Sig over (Em ‖ ePk)");

    // ------------------------------------------------------------------
    // Step 9: the recipient escrows the reward with Listing 1.
    // ------------------------------------------------------------------
    let coin = (
        OutPoint {
            txid: chain.block_at(0).unwrap().transactions[0].txid(),
            vout: 0,
        },
        recipient_wallet.locking_script(),
        1_000u64,
    );
    let escrow = build_escrow(
        &recipient_wallet,
        &[coin],
        &e_pk,
        &gateway_wallet.address(),
        100, // reward
        10,  // fee
        chain.height(),
    );
    // An empty memo: every script runs (a chain keeps its own, shared
    // with its mempool, so admission and connect verify each spend once).
    let escrow_tx = HashedTx::new(escrow.tx.clone());
    let memo = SigCache::default();
    let fee = validate_transaction(&escrow_tx, chain.utxo(), chain.height() + 1, &params, &memo)?;
    println!(
        "\n[step 9]   escrow tx {} valid (fee {fee}), locked by:\n           {}",
        escrow_tx.txid(),
        escrow.script
    );

    // ------------------------------------------------------------------
    // Step 10: the gateway recognizes its ePk, claims, and thereby
    // reveals eSk on chain.
    // ------------------------------------------------------------------
    let (vout, value) = find_escrow_for_key(&escrow.tx, &e_pk).expect("escrow pays our key");
    let claim = build_claim(
        &gateway_wallet,
        escrow.outpoint(),
        &escrow.script,
        value,
        &e_sk,
        5,
    );
    println!(
        "[step 10]  gateway claim {} spends escrow output {vout}, revealing eSk",
        claim.txid()
    );

    // The recipient reads eSk out of the claim and decrypts.
    let revealed = extract_key_from_claim(&claim, &escrow.outpoint()).expect("key revealed");
    assert!(e_pk.matches_private(&revealed));
    let opened = open_reading(record, &revealed, &sealed.em)?;
    assert_eq!(opened, reading);
    println!(
        "\n[done]     recipient decrypted the reading: {:?}",
        String::from_utf8_lossy(&opened)
    );
    println!("fair exchange complete: the gateway is paid, the recipient has the data.");
    Ok(())
}
