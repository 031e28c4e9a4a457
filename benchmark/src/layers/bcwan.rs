//! Adapter for the `bcwan` protocol crate: the wire codec, the Fig. 3
//! exchange functions, the fleet scenario on both fabrics, and `World`.

use crate::trace::span;
use bcwan::escrow::{build_claim, build_escrow, Escrow};
use bcwan::exchange::{open_reading, seal_reading, verify_uplink, SealedUplink};
use bcwan::fleet::{fig3_partition_recovery, BusFleet, Fleet, TcpFleet, FLEET_READING};
use bcwan::provisioning::{DeviceCredentials, DeviceId, DeviceRegistry};
use bcwan::world::{WorkloadConfig, World};
use bcwan_chain::{Address, Block, Chain, ChainParams, OutPoint, Transaction, Wallet};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_p2p::transport::{TcpConfig, TransportStats};
use bcwan_p2p::ChainMessage;
use bcwan_script::Script;
use rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const LAYER: &str = "bcwan";

pub use bcwan::net::WanCodec;
pub use bcwan::wire::WanMessage;
pub use bcwan::world::ExperimentResult;

// ---- wire codec -----------------------------------------------------

pub fn tx_message(tx: &Transaction) -> WanMessage {
    WanMessage::Chain(ChainMessage::Tx(tx.clone()))
}

pub fn block_message(block: &Block) -> WanMessage {
    WanMessage::Chain(ChainMessage::Block(block.clone()))
}

pub fn wire_encode(name: &'static str, msg: &WanMessage) -> Vec<u8> {
    let _s = span(LAYER, name);
    msg.encode()
}

pub fn wire_decode(name: &'static str, bytes: &[u8]) -> Option<WanMessage> {
    let _s = span(LAYER, name);
    WanMessage::decode(bytes).ok()
}

// ---- Fig. 3 exchange functions --------------------------------------

/// One provisioned device, one ephemeral keypair, one funded recipient:
/// the operands of every per-exchange function.
pub struct ExchangeFixture {
    registry: DeviceRegistry,
    credentials: DeviceCredentials,
    e_pk: RsaPublicKey,
    e_sk: RsaPrivateKey,
    sealed: SealedUplink,
    recipient: Wallet,
    gateway: Wallet,
    coin: (OutPoint, Script, u64),
    escrow: Escrow,
}

const READING: &[u8] = b"t=21.5C;h=40%";

pub fn exchange_fixture(rng: &mut StdRng) -> ExchangeFixture {
    let mut registry = DeviceRegistry::new();
    let credentials = registry.provision(rng, DeviceId(1), Address([1; 20]));
    let (e_pk, e_sk) = generate_keypair(rng, RsaKeySize::Rsa512);
    let sealed = seal_reading(rng, &credentials, &e_pk, READING).expect("reading fits");
    let params = ChainParams::multichain_like();
    let recipient = Wallet::generate(rng);
    let gateway = Wallet::generate(rng);
    let genesis = Chain::make_genesis(&params, &[(recipient.address(), 1_000)]);
    let coin = (
        OutPoint {
            txid: genesis.transactions[0].txid(),
            vout: 0,
        },
        recipient.locking_script(),
        1_000u64,
    );
    let escrow = build_escrow(
        &recipient,
        std::slice::from_ref(&coin),
        &e_pk,
        &gateway.address(),
        100,
        10,
        0,
    );
    ExchangeFixture {
        registry,
        credentials,
        e_pk,
        e_sk,
        sealed,
        recipient,
        gateway,
        coin,
        escrow,
    }
}

pub fn seal(f: &ExchangeFixture, rng: &mut StdRng) -> usize {
    let _s = span(LAYER, "seal_reading");
    seal_reading(rng, &f.credentials, &f.e_pk, READING)
        .expect("reading fits")
        .em
        .len()
}

pub fn verify(f: &ExchangeFixture) -> bool {
    let record = f.registry.get(&DeviceId(1)).expect("provisioned");
    let _s = span(LAYER, "verify_uplink");
    verify_uplink(record, &f.e_pk, &f.sealed)
}

pub fn open(f: &ExchangeFixture) -> bool {
    let record = f.registry.get(&DeviceId(1)).expect("provisioned");
    let _s = span(LAYER, "open_reading");
    open_reading(record, &f.e_sk, &f.sealed.em).is_ok_and(|r| r == READING)
}

pub fn escrow(f: &ExchangeFixture) -> usize {
    let _s = span(LAYER, "build_escrow");
    build_escrow(
        &f.recipient,
        std::slice::from_ref(&f.coin),
        &f.e_pk,
        &f.gateway.address(),
        100,
        10,
        0,
    )
    .tx
    .size()
}

pub fn claim(f: &ExchangeFixture) -> usize {
    let _s = span(LAYER, "build_claim");
    build_claim(
        &f.gateway,
        f.escrow.outpoint(),
        &f.escrow.script,
        100,
        &f.e_sk,
        5,
    )
    .size()
}

// ---- fleet scenario -------------------------------------------------

/// Nodes in the scenario fleet: miner, gateway, recipient, one relaying
/// bystander and the straggler.
const FLEET_NODES: usize = 5;
/// Per-phase timeout inside the scenario; it panics past it.
const PHASE_TIMEOUT: Duration = Duration::from_secs(10);

pub type TcpScenario = Fleet<TcpFleet>;
pub type BusScenario = Fleet<BusFleet>;

/// Binds five loopback hosts on one runtime (one worker) and builds the
/// five gateways on top.
pub fn tcp_fleet(seed: u64) -> TcpScenario {
    let _s = span(LAYER, "fleet_new_tcp");
    let transport =
        TcpFleet::new(FLEET_NODES, 1, TcpConfig::fast_test()).expect("bind loopback ports");
    Fleet::new(transport, FLEET_NODES, seed)
}

pub fn bus_fleet(seed: u64) -> BusScenario {
    let _s = span(LAYER, "fleet_new_bus");
    Fleet::new(BusFleet::new(FLEET_NODES), FLEET_NODES, seed)
}

/// What one run of the Fig. 3 + partition-recovery scenario proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The recipient decrypted exactly the reading the device sealed.
    pub decrypted_reading: bool,
    pub gateway_claimed: bool,
    pub all_heights_two: bool,
    pub straggler_caught_up: bool,
    pub sync_batches: u64,
}

fn scenario<T: bcwan::fleet::FleetTransport>(
    name: &'static str,
    fleet: &mut Fleet<T>,
) -> Option<ScenarioOutcome> {
    let _s = span(LAYER, name);
    // The scenario asserts its own phases; a timed-out phase is a failed
    // exchange here, not the end of the benchmark.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fig3_partition_recovery(fleet, PHASE_TIMEOUT)
    }))
    .ok()?;
    Some(ScenarioOutcome {
        decrypted_reading: outcome.decrypted.as_deref() == Some(FLEET_READING),
        gateway_claimed: outcome.gateway_claimed,
        all_heights_two: outcome.heights.iter().all(|h| *h == 2),
        straggler_caught_up: outcome.partitioned_caught_up,
        sync_batches: outcome.sync_batches_served,
    })
}

pub fn tcp_exchange(fleet: &mut TcpScenario) -> Option<ScenarioOutcome> {
    scenario("fig3_exchange_tcp", fleet)
}

pub fn bus_exchange(fleet: &mut BusScenario) -> Option<ScenarioOutcome> {
    scenario("fig3_exchange_bus", fleet)
}

/// Frames every host of a TCP fleet sent so far.
pub fn tcp_frames_sent(fleet: &TcpScenario) -> u64 {
    fleet
        .transport
        .hosts()
        .iter()
        .flat_map(|host| host.stats().frames_sent.iter())
        .map(TransportStats::get)
        .sum()
}

// ---- World ----------------------------------------------------------

/// The paper's Fig. 5 testbed with size and seed overridden.
pub fn fig5_config(exchanges: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        target_exchanges: exchanges,
        seed,
        ..WorkloadConfig::paper_fig5()
    }
}

pub fn fleet_config(hosts: u32, exchanges: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig::fleet(hosts, exchanges, seed)
}

pub fn world_new(cfg: &WorkloadConfig) -> World {
    let _s = span(LAYER, "world_new");
    World::new(cfg.clone())
}

pub fn world_run(world: World) -> ExperimentResult {
    let _s = span(LAYER, "world_run");
    world.run()
}

/// A registry counter of a finished run (0 when the run never set it).
pub fn counter(result: &ExperimentResult, name: &str) -> u64 {
    result.metrics.counter(name).unwrap_or(0)
}

/// Sum of every registry counter whose name starts with `prefix`.
pub fn counter_sum(result: &ExperimentResult, prefix: &str) -> u64 {
    result
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}
