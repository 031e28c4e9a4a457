//! Seeded property tests over the protocol layer: sealing/opening,
//! escrow construction, and the directory codec.
//!
//! Each property runs its cases on a [`SimRng`] seeded with
//! `BASE_SEED + case`; a failure names the case's seed.

use bcwan::directory::{IpAnnouncement, NetAddr};
use bcwan::escrow::{build_claim, build_escrow, extract_key_from_claim, find_escrow_for_key};
use bcwan::exchange::{open_reading, seal_reading, verify_uplink};
use bcwan::provisioning::{DeviceCredentials, DeviceId, DeviceRegistry};
use bcwan_chain::{Address, OutPoint, TxId, Wallet};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_sim::SimRng;
use rand::RngCore;
use std::panic::catch_unwind;

const BASE_SEED: u64 = 0xbc3a_7000;

/// Runs `check(seed, rng)` once per case.
fn for_each_case(cases: u64, check: impl Fn(u64, &mut SimRng)) {
    for seed in BASE_SEED..BASE_SEED + cases {
        check(seed, &mut SimRng::seed_from_u64(seed));
    }
}

fn bytes(rng: &mut SimRng, min_len: usize, max_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; min_len + rng.index(max_len - min_len)];
    rng.fill_bytes(&mut out);
    out
}

/// One provisioned device, one ephemeral key pair, two wallets — RSA
/// keygen is the expensive part, so each test builds this once.
struct Env {
    registry: DeviceRegistry,
    creds: DeviceCredentials,
    e_pk: RsaPublicKey,
    e_sk: RsaPrivateKey,
    recipient: Wallet,
    gateway: Wallet,
}

fn env() -> Env {
    let mut rng = SimRng::seed_from_u64(0xE0);
    let mut registry = DeviceRegistry::new();
    let creds = registry.provision(&mut rng, DeviceId(1), Address([9; 20]));
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    Env {
        registry,
        creds,
        e_pk,
        e_sk,
        recipient: Wallet::generate(&mut rng),
        gateway: Wallet::generate(&mut rng),
    }
}

/// Any reading within the RSA capacity survives the full seal → open
/// path, and its signature verifies.
#[test]
fn seal_open_round_trip() {
    let env = env();
    let record = env.registry.get(&DeviceId(1)).unwrap();
    for_each_case(64, |seed, rng| {
        let reading = bytes(rng, 0, 32);
        let sealed = seal_reading(rng, &env.creds, &env.e_pk, &reading).unwrap();
        assert!(verify_uplink(record, &env.e_pk, &sealed), "seed {seed:#x}");
        assert_eq!(
            open_reading(record, &env.e_sk, &sealed.em).unwrap(),
            reading,
            "seed {seed:#x}"
        );
    });
}

/// Any single corrupted byte in Em breaks the signature.
#[test]
fn any_tamper_detected() {
    let env = env();
    let record = env.registry.get(&DeviceId(1)).unwrap();
    for_each_case(64, |seed, rng| {
        let reading = bytes(rng, 1, 16);
        let mut sealed = seal_reading(rng, &env.creds, &env.e_pk, &reading).unwrap();
        let at = rng.index(sealed.em.len());
        sealed.em[at] ^= 1 + rng.index(255) as u8;
        assert!(
            !verify_uplink(record, &env.e_pk, &sealed),
            "seed {seed:#x}: byte {at} tampered, signature still verifies"
        );
    });
}

/// Escrow construction balances value for arbitrary reward/fee/coins,
/// and the claim always recovers a matching key.
#[test]
fn escrow_value_balance() {
    let env = env();
    for_each_case(64, |seed, rng| {
        let coin_value = 20 + rng.index(99_980) as u64;
        let fee = rng.index(10) as u64;
        let reward = (coin_value - fee).min(1 + rng.index(99) as u64);
        let height = rng.index(10_000) as u64;
        let coin = (
            OutPoint {
                txid: TxId([3; 32]),
                vout: 0,
            },
            env.recipient.locking_script(),
            coin_value,
        );
        let escrow = build_escrow(
            &env.recipient,
            &[coin],
            &env.e_pk,
            &env.gateway.address(),
            reward,
            fee,
            height,
        );
        // Outputs: escrow + optional change; total = coin - fee.
        assert_eq!(
            escrow.tx.total_output(),
            Some(coin_value - fee),
            "seed {seed:#x}"
        );
        assert_eq!(escrow.tx.outputs[0].value, reward, "seed {seed:#x}");
        assert_eq!(
            escrow.refund_height,
            height + bcwan::escrow::REFUND_DELTA,
            "seed {seed:#x}"
        );
        assert_eq!(
            find_escrow_for_key(&escrow.tx, &env.e_pk),
            Some((0, reward)),
            "seed {seed:#x}"
        );

        let claim = build_claim(
            &env.gateway,
            escrow.outpoint(),
            &escrow.script,
            reward,
            &env.e_sk,
            fee.min(reward),
        );
        let revealed = extract_key_from_claim(&claim, &escrow.outpoint()).unwrap();
        assert!(env.e_pk.matches_private(&revealed), "seed {seed:#x}");
    });
}

/// The directory announcement codec round-trips any field values.
#[test]
fn announcement_codec_round_trip() {
    for_each_case(256, |seed, rng| {
        let mut address = [0u8; 20];
        rng.fill_bytes(&mut address);
        let ann = IpAnnouncement {
            address: Address(address),
            endpoint: NetAddr {
                ip: rng.next_u32().to_be_bytes(),
                port: rng.next_u32() as u16,
            },
            seq: rng.next_u32(),
        };
        assert_eq!(
            IpAnnouncement::from_payload(&ann.to_payload()),
            Some(ann),
            "seed {seed:#x}"
        );
        // And through the script embedding.
        let script = ann.to_script();
        assert_eq!(
            IpAnnouncement::from_payload(script.op_return_data().unwrap()),
            Some(ann),
            "seed {seed:#x}"
        );
    });
}

/// Garbage never parses as an announcement (wrong magic/length) — and
/// never panics the parser, with or without the magic in place.
#[test]
fn garbage_announcements_rejected() {
    for_each_case(1024, |seed, rng| {
        let mut garbage = bytes(rng, 0, 64);
        if seed % 2 == 1 && garbage.len() >= 4 {
            garbage[..4].copy_from_slice(b"BCIP");
        }
        let well_formed = garbage.len() == 34 && &garbage[..4] == b"BCIP";
        let outcome = catch_unwind(|| IpAnnouncement::from_payload(&garbage));
        assert!(
            matches!(outcome, Ok(parsed) if parsed.is_some() == well_formed),
            "seed {seed:#x}: {garbage:02x?}"
        );
    });
}
