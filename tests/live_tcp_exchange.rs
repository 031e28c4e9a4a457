//! The Fig. 3 fair exchange over real loopback TCP sockets.
//!
//! Two OS-thread hosts — a foreign gateway and the recipient — each bind
//! a `TcpHost` on 127.0.0.1, publish their endpoints in the on-chain
//! `OP_RETURN` directory, and run the complete exchange through
//! directory lookups (§4.3): uplink delivery (step 7), escrow (step 9),
//! claim revealing `eSk` (step 10), and decryption. A second run arms the
//! sender's fault injector so the connection dies mid-`Deliver` twice;
//! the exchange must still complete via the transport's retry/backoff.

use bcwan::directory::{Directory, IpAnnouncement, NetAddr};
use bcwan::escrow::{build_claim, build_escrow, extract_key_from_claim, find_escrow_for_key};
use bcwan::exchange::{open_reading, seal_reading, verify_uplink, SealedUplink};
use bcwan::net::WanCodec;
use bcwan::provisioning::{DeviceId, DeviceRegistry};
use bcwan::wire::WanMessage;
use bcwan_chain::{Address, Block, Chain, ChainParams, OutPoint, Transaction, TxOut, Wallet};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPublicKey};
use bcwan_p2p::transport::{TcpConfig, TcpHost, TransportError, TransportStats};
use bcwan_p2p::{ChainMessage, NodeId};
use bcwan_script::Script;
use bcwan_sim::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const READING: &[u8] = b"pm2.5=12ug/m3";
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

struct Outcome {
    decrypted: Vec<u8>,
    claim_pays_gateway: bool,
    gateway: TcpHost<WanMessage, WanCodec>,
    recipient: TcpHost<WanMessage, WanCodec>,
}

/// Fig. 3 step 7's lookup-then-send: resolves `to`'s endpoint in the
/// directory scanned off the chain and sends `msg` there over `host`.
fn send_to(
    host: &TcpHost<WanMessage, WanCodec>,
    directory: &Directory,
    to: &Address,
    msg: &WanMessage,
) -> Result<(), TransportError> {
    let endpoint = directory.lookup(to).expect("published on chain");
    host.send(endpoint.to_socket_addr(), msg)
}

/// Runs the full exchange over loopback TCP, with `faults` injected
/// connection kills on the gateway's side before the `Deliver` lands.
fn run_exchange(seed: u64, faults: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ChainParams::fast_test();
    params.coinbase_maturity = 0;

    let recipient_wallet = Wallet::generate(&mut rng);
    let gateway_wallet = Wallet::generate(&mut rng);
    let recipient_address = recipient_wallet.address();
    let gateway_address = gateway_wallet.address();

    // Bind both hosts first so the real OS-assigned ports can be
    // published on chain.
    let loopback = "127.0.0.1:0".parse().unwrap();
    let (gateway_host, gateway_inbox) =
        TcpHost::bind(loopback, NodeId(1), WanCodec, TcpConfig::fast_test()).expect("gateway bind");
    let (recipient_host, recipient_inbox) =
        TcpHost::bind(loopback, NodeId(2), WanCodec, TcpConfig::fast_test())
            .expect("recipient bind");

    // Chain: genesis funds the recipient; block 1 carries both hosts'
    // directory announcements in coinbase OP_RETURN outputs (§4.3).
    let genesis = Chain::make_genesis(&params, &[(recipient_address, 1_000)]);
    let mut chain = Chain::new(params.clone(), genesis);
    let announce = |address, host: &TcpHost<WanMessage, WanCodec>| IpAnnouncement {
        address,
        endpoint: NetAddr::from_socket_addr(host.local_addr()).expect("loopback is v4"),
        seq: 1,
    };
    let coinbase = Transaction::coinbase(
        1,
        b"directory",
        vec![
            TxOut {
                value: params.coinbase_reward,
                script_pubkey: Script::new(),
            },
            announce(recipient_address, &recipient_host).to_output(),
            announce(gateway_address, &gateway_host).to_output(),
        ],
    );
    let block = Block::mine(chain.tip(), 1, params.difficulty_bits, vec![coinbase]);
    chain.add_block(block).expect("announcement block");

    // Each side scans the chain into its own directory view and looks
    // its peer up there — no side channel carries any endpoint.
    let directory = Directory::from_chain(&chain);
    assert_eq!(directory.len(), 2, "both hosts published");
    let (recipient_view, recipient_sender) = (directory.clone(), recipient_host.clone());

    let mut registry = DeviceRegistry::new();
    let device = registry.provision(&mut rng, DeviceId(1), recipient_address);
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let sealed = seal_reading(&mut rng, &device, &e_pk, READING).expect("seal");

    let coin = (
        OutPoint {
            txid: chain.block_at(0).unwrap().transactions[0].txid(),
            vout: 0,
        },
        recipient_wallet.locking_script(),
        1_000u64,
    );

    // --- recipient thread: verify, escrow, extract eSk, decrypt --------
    let recipient = std::thread::spawn(move || {
        let mut pending: Option<SealedUplink> = None;
        let mut escrow_outpoint: Option<OutPoint> = None;
        loop {
            let env = recipient_inbox
                .recv_timeout(RECV_TIMEOUT)
                .expect("recipient starved");
            match env.msg {
                WanMessage::Deliver {
                    device_id,
                    e_pk_bytes,
                    uplink,
                } => {
                    let pk = RsaPublicKey::from_bytes(&e_pk_bytes).expect("key parses");
                    let record = registry.get(&device_id).expect("provisioned");
                    assert!(verify_uplink(record, &pk, &uplink), "step 8 authenticity");
                    let escrow = build_escrow(
                        &recipient_wallet,
                        std::slice::from_ref(&coin),
                        &pk,
                        &gateway_address,
                        100,
                        10,
                        0,
                    );
                    escrow_outpoint = Some(OutPoint {
                        txid: escrow.tx.txid(),
                        vout: escrow.vout,
                    });
                    pending = Some(uplink);
                    let escrow = WanMessage::Chain(ChainMessage::Tx(escrow.tx));
                    send_to(
                        &recipient_sender,
                        &recipient_view,
                        &gateway_address,
                        &escrow,
                    )
                    .expect("escrow delivered");
                }
                WanMessage::Chain(ChainMessage::Tx(tx)) => {
                    let outpoint = escrow_outpoint.expect("escrow preceded claim");
                    let Some(revealed) = extract_key_from_claim(&tx, &outpoint) else {
                        continue;
                    };
                    let record = registry.get(&DeviceId(1)).expect("provisioned");
                    let uplink = pending.take().expect("delivery preceded claim");
                    return open_reading(record, &revealed, &uplink.em).expect("decrypts");
                }
                other => panic!("unexpected message at recipient: {other:?}"),
            }
        }
    });

    // --- gateway (this thread): deliver, wait for escrow, claim --------
    if faults > 0 {
        gateway_host.inject_send_faults(faults);
    }
    let deliver = WanMessage::Deliver {
        device_id: DeviceId(1),
        e_pk_bytes: e_pk.to_bytes(),
        uplink: sealed,
    };
    send_to(&gateway_host, &directory, &recipient_address, &deliver)
        .expect("deliver survives faults via retry");

    let claim_pays_gateway;
    loop {
        let env = gateway_inbox
            .recv_timeout(RECV_TIMEOUT)
            .expect("gateway starved");
        let WanMessage::Chain(ChainMessage::Tx(tx)) = env.msg else {
            continue;
        };
        let Some((vout, value)) = find_escrow_for_key(&tx, &e_pk) else {
            continue;
        };
        let outpoint = OutPoint {
            txid: tx.txid(),
            vout,
        };
        let script = tx.outputs[vout as usize].script_pubkey.clone();
        let claim = build_claim(&gateway_wallet, outpoint, &script, value, &e_sk, 5);
        claim_pays_gateway = claim
            .outputs
            .iter()
            .any(|o| o.script_pubkey == gateway_wallet.locking_script());
        let claim = WanMessage::Chain(ChainMessage::Tx(claim));
        send_to(&gateway_host, &directory, &recipient_address, &claim).expect("claim delivered");
        break;
    }

    let decrypted = recipient.join().expect("recipient thread");
    Outcome {
        decrypted,
        claim_pays_gateway,
        gateway: gateway_host,
        recipient: recipient_host,
    }
}

fn counter(reg: &mut Registry, host: &TcpHost<WanMessage, WanCodec>, name: &str) -> u64 {
    host.export_metrics(reg);
    reg.snapshot()
        .counter(name)
        .unwrap_or_else(|| panic!("{name} missing from snapshot"))
}

#[test]
fn fig3_exchange_over_loopback_tcp() {
    let out = run_exchange(42, 0);
    assert_eq!(out.decrypted, READING, "recipient decrypted the reading");
    assert!(out.claim_pays_gateway, "gateway claimed the escrow");

    // Transport metrics appear in the registry snapshot.
    let mut reg = Registry::new();
    assert_eq!(
        counter(
            &mut reg,
            &out.gateway,
            "transport.frames_sent_deliver_total"
        ),
        1
    );
    assert_eq!(
        counter(&mut reg, &out.gateway, "transport.frames_sent_tx_total"),
        1,
        "the claim rode as chain gossip"
    );
    assert!(counter(&mut reg, &out.gateway, "transport.bytes_sent_total") > 0);
    assert_eq!(
        counter(&mut reg, &out.gateway, "transport.retries_total"),
        0
    );
    let mut reg = Registry::new();
    assert_eq!(
        counter(
            &mut reg,
            &out.recipient,
            "transport.frames_received_deliver_total"
        ),
        1
    );
    assert!(counter(&mut reg, &out.recipient, "transport.bytes_received_total") > 0);
    out.gateway.shutdown();
    out.recipient.shutdown();
}

#[test]
fn fig3_exchange_completes_despite_killed_deliver_connections() {
    const FAULTS: u64 = 2;
    let out = run_exchange(7, FAULTS);
    assert_eq!(out.decrypted, READING, "exchange completed via retry");
    assert!(out.claim_pays_gateway);

    let mut reg = Registry::new();
    assert!(
        counter(&mut reg, &out.gateway, "transport.retries_total") >= FAULTS,
        "each killed connection forced a retry"
    );
    assert_eq!(
        counter(
            &mut reg,
            &out.gateway,
            "transport.frames_sent_deliver_total"
        ),
        1,
        "exactly one intact Deliver made it out"
    );
    // The recipient eventually observes both torn frames as rejects.
    let deadline = Instant::now() + Duration::from_secs(5);
    while TransportStats::get(&out.recipient.stats().frames_rejected) < FAULTS
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        TransportStats::get(&out.recipient.stats().frames_rejected) >= FAULTS,
        "torn frames were rejected, not silently accepted"
    );
    out.gateway.shutdown();
    out.recipient.shutdown();
}
