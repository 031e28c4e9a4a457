//! The whole-network BcWAN simulation.
//!
//! Reconstructs the paper's §5.2 testbed: a master node that bootstraps
//! the chain and mines (the AWS EC2 instance), N actor hosts each running
//! a gateway + recipient + chain daemon (the PlanetLab nodes, mining
//! disabled), and a population of LoRa sensors that roam through foreign
//! gateways. Every exchange runs the full Fig. 3 protocol with real
//! cryptography and real transactions on the simulated chain.
//!
//! The measured latency matches the paper's definition: "from the first
//! message from the gateway to the decryption of the message by the
//! recipient".
//!
//! The protocol runs in the same code as on a live fleet: every host is
//! a [`Node`] and every sensor a `Device`. `World` supplies what
//! neither decides for itself: the event queue; the radio leg's timing
//! (airtimes, the loss coin, a crashed gateway's deafness), the WAN's
//! latency and the chaos engine; the mining schedule; and the paper's
//! measurement marks and phase boundaries, settlement auditor and
//! metrics.
//!
//! What the testbed never varies is a constant, not a [`WorkloadConfig`]
//! field: the escrow reward and fee, the SF7 radio and the EU868 duty
//! cycle here, the recovery schedules in [`fsm`](crate::fsm).

use crate::audit::{GatewayOutcome, SettlementAuditor};
use crate::costs::CostModel;
use crate::daemon::{Daemon, DaemonStats};
use crate::device::{Device, DeviceEnv, DeviceNote, DeviceSpec, Downlink, Timer, Uplink};
use crate::directory::{bootstrap_chain, Directory};
use crate::escrow;
use crate::fsm::{FsmEvent, Phase};
use crate::node::{delivery_tag, Misbehaviour, Node, NodeEnv, Note, Parcel, Terms};
use crate::provisioning::{mint_all, DeviceId, DEVICE_KEY_SIZE};
use crate::wire::{WanMessage, KIND_COUNT};
use bcwan_chain::{
    Address, Chain, ChainParams, IdSet, MempoolStats, OutPoint, SigCache, StoreConfig, Wallet,
};
use bcwan_crypto::rsa::{RsaKeySize, RsaPublicKey};
use bcwan_lora::airtime::time_on_air;
use bcwan_lora::frame::{data_uplink_phy_len, LoraFrame, REQUEST_PHY_LEN};
use bcwan_lora::params::{RadioConfig, EU868_DUTY_CYCLE};
use bcwan_p2p::{ChainMessage, Delivery, FaultModel, Network, NodeId, Topology};
use bcwan_sim::{
    run, Actor, ChaosEngine, ChaosPlan, CounterId, EventQueue, HistogramId, LatencyModel, Metric,
    Registry, Series, SimDuration, SimRng, SimTime, Snapshot, SnapshotSeries,
};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Escrow reward per delivered message; the §5.2 testbed never varies
/// it.
const REWARD: u64 = 10;
/// Transaction fee budgeted per escrow, claim and refund.
const FEE: u64 = 1;
/// Every sensor's radio: the paper's SF7, 125 kHz, CR 4/5, under the
/// EU868 duty cycle ([`EU868_DUTY_CYCLE`]).
const RADIO: RadioConfig = RadioConfig::paper_sf7();

/// Workload and environment configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Actor hosts (gateway+recipient), excluding the master. Paper: 5.
    pub actor_hosts: u32,
    /// Sensors per actor host. Paper: 30.
    pub sensors_per_host: u32,
    /// Stop after this many completed exchanges. Paper: 2000.
    pub target_exchanges: usize,
    /// Per-sensor mean send interval as a multiple of the duty-cycle
    /// minimum (1.0 = sensors saturate their duty budget).
    pub load_factor: f64,
    /// WAN latency model between hosts.
    pub latency: LatencyModel,
    /// Overlay gossip degree. `None` (the default presets) keeps the
    /// paper's 6-host full mesh. `Some(k)` builds a ring lattice where
    /// every host links to its `k` nearest neighbours instead — the
    /// shape that lets 1 000+ host soaks run without `O(n²)` links,
    /// relying on re-flooding to propagate gossip.
    pub gossip_degree: Option<u32>,
    /// Chain consensus parameters (stall model decides Fig. 5 vs Fig. 6).
    pub chain_params: ChainParams,
    /// CPU cost table.
    pub costs: CostModel,
    /// Escrow confirmations the gateway waits for before revealing the
    /// key. Paper's PoC: 0 (discussed as a double-spend risk in §6).
    pub confirmation_depth: u64,
    /// RSA modulus for ephemeral keys. Paper: 512.
    pub rsa_size: RsaKeySize,
    /// WAN fault injection (drops / duplicates).
    pub faults: FaultModel,
    /// Experiment seed.
    pub seed: u64,
    /// Hard wall on simulated time (guards against stalls starving the
    /// run forever).
    pub max_sim_time: SimDuration,
    /// Seeded fault schedule; [`ChaosPlan::none`] by default, so in a
    /// clean run every chaos query scans an empty plan and answers at
    /// once (see [`ChaosEngine`]).
    pub chaos: ChaosPlan,
    /// Blocks until the escrow's CLTV refund branch opens. The paper's
    /// Listing 1 uses 100; chaos soaks shrink it so a withheld claim
    /// reaches the refund branch within a short run.
    pub refund_delta: u64,
    /// Extra escrow-sized genesis coins allocated per actor beyond the
    /// even `target_exchanges` split, absorbing workload skew. The
    /// classic presets keep 64; the fleet preset keeps 4. Every host's
    /// chain shares one genesis block and one copy-on-write UTXO base
    /// (`Chain::fork`), so the coins are held once per run, not once
    /// per host; what the headroom still sizes is that genesis
    /// coinbase and the set each actor's `reserve_coin` scans per
    /// escrow.
    pub escrow_coin_headroom: u64,
    /// Root directory for persistent chain stores. `None` (all presets)
    /// keeps every chain in memory. `Some(dir)` gives each host an
    /// append-only block/undo/coins store under `dir/host-<i>`, and
    /// chaos restarts become **warm**: the restarted host reopens its
    /// chain from disk (`Chain::open_store`) instead of keeping the
    /// in-memory copy, then catches up headers-first. The caller owns
    /// the directory's lifetime.
    pub store_dir: Option<std::path::PathBuf>,
    /// Sample a full metrics [`Snapshot`] every interval of sim time
    /// into [`ExperimentResult::timeline`]. `None` (default) records
    /// nothing — end-of-run totals only.
    pub metrics_interval: Option<SimDuration>,
}

impl WorkloadConfig {
    /// The paper's Fig. 5 configuration: block verification disabled.
    pub fn paper_fig5() -> Self {
        WorkloadConfig {
            actor_hosts: 5,
            sensors_per_host: 30,
            target_exchanges: 2000,
            load_factor: 1.5,
            latency: LatencyModel::planetlab(),
            gossip_degree: None,
            chain_params: ChainParams::multichain_like(),
            costs: CostModel::pi_class(),
            confirmation_depth: 0,
            rsa_size: RsaKeySize::Rsa512,
            faults: FaultModel::none(),
            seed: 2018,
            max_sim_time: SimDuration::from_secs(24 * 3600),
            chaos: ChaosPlan::none(),
            refund_delta: escrow::REFUND_DELTA,
            escrow_coin_headroom: 64,
            store_dir: None,
            metrics_interval: None,
        }
    }

    /// The paper's Fig. 6 configuration: block verification stalls on.
    pub fn paper_fig6() -> Self {
        WorkloadConfig {
            chain_params: ChainParams::with_verification_stall(),
            ..Self::paper_fig5()
        }
    }

    /// A miniature configuration for tests: 2 hosts, few exchanges, fast
    /// chain, zero CPU costs.
    pub fn tiny(target_exchanges: usize, seed: u64) -> Self {
        WorkloadConfig {
            actor_hosts: 2,
            sensors_per_host: 2,
            target_exchanges,
            load_factor: 1.0,
            latency: LatencyModel::Constant(SimDuration::from_millis(20)),
            costs: CostModel::zero(),
            seed,
            ..Self::paper_fig5()
        }
    }

    /// A fleet-scale soak configuration: `actor_hosts` gateways on a
    /// degree-6 ring lattice (full mesh would be `O(n²)` links), one
    /// sensor each, zero CPU costs, and a fast chain — the shape the
    /// 1 000-host chaos soak and the `fleet_scale` bench run.
    pub fn fleet(actor_hosts: u32, target_exchanges: usize, seed: u64) -> Self {
        WorkloadConfig {
            actor_hosts,
            sensors_per_host: 1,
            gossip_degree: Some(6),
            chain_params: ChainParams::fast_test(),
            max_sim_time: SimDuration::from_secs(4 * 3600),
            escrow_coin_headroom: 4,
            ..Self::tiny(target_exchanges, seed)
        }
    }

    /// Installs a chaos plan (builder style).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Gives every host a persistent chain store under `dir` (builder
    /// style; see [`WorkloadConfig::store_dir`]).
    pub fn with_store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Samples a metrics snapshot every `every` of sim time (builder
    /// style; see [`WorkloadConfig::metrics_interval`]).
    pub fn with_metrics_interval(mut self, every: SimDuration) -> Self {
        self.metrics_interval = Some(every);
        self
    }
}

/// Result of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Completed exchanges.
    pub completed: usize,
    /// Exchanges that failed (signature rejects, lost escrows…).
    pub failed: usize,
    /// Latency samples in seconds, paper definition.
    pub latencies: Series,
    /// Simulated time consumed.
    pub sim_time: SimDuration,
    /// Blocks mined by the master.
    pub blocks_mined: u64,
    /// Blocks mined by a standby host while the master was crashed or
    /// demoted as a censorship suspect (miner failover; zero unless the
    /// chaos plan crashes host 0 or host 0 censors settlements).
    pub standby_blocks_mined: u64,
    /// Verification stalls across all actor daemons.
    pub stalls: u64,
    /// Total stalled time across all actor daemons.
    pub total_stall: SimDuration,
    /// Chain transactions confirmed on the master's main chain.
    pub confirmed_txs: usize,
    /// Readings delivered to application servers (must equal `completed`).
    pub app_readings: usize,
    /// Frozen metrics registry: `world.*`, `wan.*`, `daemon.*`,
    /// `chain.*`, `mempool.*`, and `net.*` rows (see EXPERIMENTS.md,
    /// "Reading the metrics").
    pub metrics: Snapshot,
    /// Time each exchange spent in each of the eight Fig. 3 phases, in
    /// seconds, sorted by phase name; a phase no exchange left is
    /// omitted.
    pub phases: Vec<(String, Series)>,
    /// Escrows whose claim confirmed on the master's main chain.
    pub escrows_claimed: usize,
    /// Escrows whose CLTV refund confirmed instead.
    pub escrows_refunded: usize,
    /// Escrows still unsettled when the run ended (should be 0 unless
    /// the `max_sim_time` wall cut the run short).
    pub escrows_open: usize,
    /// End-of-run invariant violations (value conservation, one-of
    /// claim/refund settlement, FSM/chain agreement). Always 0 in a
    /// correct implementation, chaotic or not.
    pub invariant_violations: u64,
    /// Total value in the master's final UTXO set.
    pub utxo_total: u64,
    /// Order-independent FNV fingerprint of the master's final UTXO set;
    /// equal across same-seed reruns (determinism invariant).
    pub utxo_fingerprint: u64,
    /// Claim revenue confirmed to gateways the chaos plan marks honest.
    pub honest_revenue: u64,
    /// Claim revenue confirmed to gateways the chaos plan marks
    /// Byzantine (equivocators, withholders, censoring miners). Fair
    /// exchange predicts honest revenue strictly dominates.
    pub adversarial_revenue: u64,
    /// Per-gateway settled/refunded escrow counts from the auditor —
    /// the observed-behavior feed for the reputation baseline (A3).
    pub gateway_settlements: Vec<GatewayOutcome>,
    /// Chaos restarts that reopened a persistent store from disk.
    pub restarts_warm: u64,
    /// Chaos restarts that kept the in-memory chain (no store attached,
    /// or the store failed to reopen).
    pub restarts_cold: u64,
    /// Interval-sampled metrics frames; `None` unless
    /// [`WorkloadConfig::metrics_interval`] was set.
    pub timeline: Option<SnapshotSeries>,
}

/// Events driving the world.
#[derive(Debug)]
enum Event {
    /// A device's timer came due.
    Device { sensor: usize, timer: Timer },
    /// A LoRa frame of one exchange.
    Radio { exchange: usize, air: Air },
    /// A WAN message arrived at a host.
    Wan(Delivery<Arc<Parcel>>),
    /// The master assembles and broadcasts the next block.
    MineTick,
    /// A host's earliest deadline came due: its watchdog runs.
    Wake { host: u32 },
    /// A crashed host comes back up (end of a chaos crash window).
    ChaosRestart { host: u32 },
}

/// The world's event queue.
type Queue = EventQueue<Event>;

/// A LoRa frame as the event queue carries it.
#[derive(Debug)]
enum Air {
    /// A device's frame ends its airtime at the exchange's gateway.
    Up(Box<Uplink>),
    /// The gateway's keygen finished: the key downlink goes on the air.
    KeyOut(Box<RsaPublicKey>),
    /// The key downlink ends its airtime at the device.
    KeyIn(Box<RsaPublicKey>),
}

/// The eight Fig. 3 phases an exchange is split into, in name order:
/// the order [`ExperimentResult::phases`] lists them in.
#[derive(Clone, Copy)]
enum Stage {
    ClaimAndDecrypt,
    ConfirmationWait,
    DataUplink,
    EscrowPublish,
    GatewayForward,
    KeyDownlink,
    Keygen,
    RequestUplink,
}

impl Stage {
    const NAMES: [&str; 8] = [
        "claim_and_decrypt",
        "confirmation_wait",
        "data_uplink",
        "escrow_publish",
        "gateway_forward",
        "key_downlink",
        "keygen",
        "request_uplink",
    ];
}

/// What only the simulator knows about one in-flight exchange: who takes
/// part and the measurement marks. The radio half lives in the sensor's
/// [`Device`]; keys, escrow, claim, refund and the lifecycle machine in
/// the gateway's and recipient's [`Node`]s, filed under this exchange's
/// index as their tag.
#[derive(Default)]
struct ExchangeState {
    sensor: usize,
    gateway: u32, // actor index (1-based host id)
    home: u32,
    /// When the gateway first sent ePk — the paper's measurement start.
    measure_start: Option<SimTime>,
    /// When the exchange entered each [`Stage`] it is in now.
    entered: [Option<SimTime>; 8],
    /// Whether the gateway has heard a request: a copy resent after that
    /// opens no second `request_uplink` sample.
    request_heard: bool,
    /// Whether the recipient published the escrow: from then on only the
    /// chain ends the exchange.
    escrowed: bool,
    done: bool,
}

impl ExchangeState {
    /// The exchange enters `stage` at `at`; entering again (a resent
    /// request or key) restarts it.
    fn enter(&mut self, stage: Stage, at: SimTime) {
        self.entered[stage as usize] = Some(at);
    }

    /// The exchange leaves `stage` at `at`: the time since it entered is
    /// one sample of `phases[stage]`. Leaving a stage it is not in
    /// records nothing.
    fn leave(&mut self, stage: Stage, at: SimTime, phases: &mut [Series; 8]) {
        if let Some(start) = self.entered[stage as usize].take() {
            let spent = at.saturating_duration_since(start);
            phases[stage as usize].record(spent.as_secs_f64());
        }
    }
}

/// Hot-path metric handles, registered once at world construction.
struct Meters {
    wan_msgs: [CounterId; KIND_COUNT],
    wan_bytes: [CounterId; KIND_COUNT],
    latency: HistogramId,
    /// Settlement events a recipient's machine refused (0 when correct).
    illegal_transitions: CounterId,
    /// Gateway → recipient re-deliveries driven by the Sealed deadline.
    deliver_retries: CounterId,
    /// Escrow/claim/refund transactions a node re-published.
    rebroadcasts: CounterId,
    /// CLTV refunds the recipient submitted.
    refunds_submitted: CounterId,
    /// Exchanges whose recipient saw two distinct claims spend its escrow.
    equivocations_detected: CounterId,
    /// Settlements whose leave-outs made a node suspect their miner.
    censorship_suspected: CounterId,
}

impl Meters {
    fn register(reg: &mut Registry) -> Self {
        let kind = |prefix: &str, k: &str| format!("wan.{prefix}.{k}_total");
        let kinds = ["tx", "block", "sync", "deliver"];
        Meters {
            wan_msgs: kinds.map(|k| reg.counter(&kind("messages", k))),
            wan_bytes: kinds.map(|k| reg.counter(&kind("bytes", k))),
            latency: reg.histogram("world.exchange_latency_seconds"),
            illegal_transitions: reg.counter("fsm.illegal_transitions_total"),
            deliver_retries: reg.counter("fsm.deliver_retries_total"),
            rebroadcasts: reg.counter("fsm.rebroadcasts_total"),
            refunds_submitted: reg.counter("fsm.refunds_submitted_total"),
            equivocations_detected: reg.counter("byzantine.equivocation_detected_total"),
            censorship_suspected: reg.counter("byzantine.censorship_suspected_total"),
        }
    }
}

bcwan_sim::counters! {
    /// One gateway's radio-leg tally: summed into the unlabeled
    /// `world.lora_*` rows, and one labeled row per host in small fleets.
    #[derive(Debug, Clone, Copy, Default)]
    struct RadioTally {
        /// Frames the loss model dropped on this gateway's radio.
        frames_lost: u64 => labeled "world.lora_frames_lost_total",
        /// Node-side retransmissions towards this gateway.
        retries: u64 => labeled "world.lora_retries_total",
    }
}

/// Publishes per-host stats tables: their sum as the unlabeled rows,
/// plus one `{host="i"}` row set per host while the fleet is small
/// enough (≤ 32) for the extra rows to stay readable.
fn fold_hosts<T: Metric + Default>(reg: &mut Registry, tables: Vec<(usize, T)>) {
    let mut total = T::default();
    for (host, table) in &tables {
        total.merge(table);
        if tables.len() <= 32 {
            table.export_labeled(reg, "", "host", host);
        }
    }
    if !tables.is_empty() {
        total.export(reg, "");
    }
}

/// The simulation world: the hosts, the sensors, and everything around
/// them.
pub struct World {
    hosts: Vec<Node>, // index 0 = master, 1..=actor_hosts = actors
    /// Every sensor, beside the host it is provisioned at.
    devices: Vec<(u32, Device)>,
    sim: Sim,
}

/// What a simulator owns and neither a host nor a device does: the
/// radio leg, the WAN model, the chaos engine, each host's pending
/// wake-up, and every instrument.
struct Sim {
    cfg: WorkloadConfig,
    rng: SimRng,
    exchanges: Vec<ExchangeState>,
    /// `(home, delivery_tag(ePk))` → exchange, filed when the key first
    /// goes down: how a recipient's `Deliver` finds its exchange.
    deliveries: HashMap<(u32, u64), usize>,
    network: Network,
    latencies: Series,
    /// Time spent in each [`Stage`]: one sample each time an exchange
    /// leaves it.
    phases: [Series; 8],
    completed: usize,
    failed: usize,
    started: usize,
    blocks_mined: u64,
    standby_blocks_mined: u64,
    /// Mean inter-send interval per sensor.
    send_interval: SimDuration,
    /// Per-gateway radio tallies (index = actor host − 1).
    radio_by_gw: Vec<RadioTally>,
    registry: Registry,
    meters: Meters,
    chaos: ChaosEngine,
    /// Always-on settlement auditor tracking the master's main chain
    /// block by block (value conservation, one settlement per escrow,
    /// honest/adversarial revenue split).
    auditor: SettlementAuditor,
    /// Hosts the chaos plan marks Byzantine (equivocators, withholders,
    /// censoring miners) — the auditor's revenue-split key.
    adversarial: HashSet<u32>,
    /// Miners some node suspected of censorship. Sticky for the rest of
    /// the run: mining duty routes around them while any other live host
    /// can mine.
    censor_suspects: HashSet<u32>,
    /// Each host's earliest scheduled [`Event::Wake`].
    wakes: Vec<Option<SimTime>>,
    /// Chaos restarts that reopened a store from disk vs kept memory.
    restarts_warm: u64,
    restarts_cold: u64,
    timeline: Option<SnapshotSeries>,
    /// The one verification memo every host's chain and mempool consult:
    /// a spend is script-verified once per run, however many hosts admit
    /// and connect it. Per-host context checks are untouched.
    sig_cache: Arc<SigCache>,
}

impl World {
    /// Builds the world: genesis with per-actor allocations, pre-matured
    /// coinbase, provisioned sensors, announced directory entries.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let n_hosts = cfg.actor_hosts as usize + 1;

        // Wallets first so genesis can allocate to them.
        let wallets: Vec<Wallet> = (0..n_hosts).map(|_| Wallet::generate(&mut rng)).collect();

        // Genesis: a pile of escrow-sized coins per actor host, plus one
        // directory announcement per actor.
        let coin_value = REWARD + 2 * FEE;
        let coins_per_actor =
            cfg.target_exchanges / cfg.actor_hosts as usize + cfg.escrow_coin_headroom as usize;
        let address_book: Arc<[Address]> = wallets.iter().map(Wallet::address).collect();
        let actors = address_book.iter().copied().enumerate().skip(1);
        let allocations: Vec<(Address, u64)> = actors
            .clone()
            .flat_map(|(_, address)| std::iter::repeat_n((address, coin_value), coins_per_actor))
            .collect();
        let mut genesis_chain =
            bootstrap_chain(&cfg.chain_params, &allocations, actors, &wallets[0]);

        // Hosts share the bootstrapped chain, the exchange terms and the
        // address book an operator would hand each of them.
        let sig_cache = Arc::new(SigCache::default());
        let terms = Arc::new(Terms {
            costs: cfg.costs.clone(),
            reward: REWARD,
            fee: FEE,
            confirmation_depth: cfg.confirmation_depth,
            refund_delta: cfg.refund_delta,
            rsa_size: cfg.rsa_size,
        });
        // Every host's chain is a fork or a replay of `genesis_chain`, so
        // one scan of it is every host's boot directory.
        let directory = Directory::from_chain(&genesis_chain);
        let mut hosts: Vec<Node> = Vec::with_capacity(n_hosts);
        for (i, wallet) in wallets.into_iter().enumerate() {
            // A stored host replays the bootstrap into its own directory,
            // so a crash-restart can reopen it instead of keeping memory.
            let chain = match &cfg.store_dir {
                Some(root) => genesis_chain
                    .replay_into_store(root.join(format!("host-{i}")), StoreConfig::default())
                    .expect("host store directory writable"),
                None => genesis_chain.fork(),
            };
            hosts.push(Node::new(
                NodeId(i as u32),
                wallet,
                Daemon::new(chain.with_sig_cache(sig_cache.clone())),
                directory.clone(),
                rng.fork(i as u64 + 1),
                cfg.seed,
                terms.clone(),
                address_book.clone(),
            ));
        }

        // Provision sensors: each belongs to one actor host. Every
        // device's RNG is forked here, in device order; the keygens then
        // run on all cores and the halves are handed out in order again,
        // so no key depends on how many cores there are.
        let devices: Vec<(u32, DeviceId)> = (1..=cfg.actor_hosts)
            .flat_map(|actor| {
                (0..cfg.sensors_per_host).map(move |s| (actor, DeviceId(actor * 10_000 + s)))
            })
            .collect();
        let rngs = devices
            .iter()
            .map(|&(actor, id)| hosts[actor as usize].rng.fork(u64::from(id.0)))
            .collect();
        // Workload pacing: the duty-cycle minimum interval for one full
        // exchange (request + data frames), scaled by load_factor.
        let request_air = time_on_air(&RADIO, REQUEST_PHY_LEN);
        let data_len = data_uplink_phy_len(cfg.rsa_size.block_len(), DEVICE_KEY_SIZE.block_len());
        let per_exchange_air = request_air + time_on_air(&RADIO, data_len);
        let min_interval =
            SimDuration::from_secs_f64(per_exchange_air.as_secs_f64() / EU868_DUTY_CYCLE);
        let send_interval =
            SimDuration::from_secs_f64(min_interval.as_secs_f64() * cfg.load_factor);
        let spec = DeviceSpec {
            seal_cost: cfg.costs.node_encrypt + cfg.costs.node_sign,
            off_time: min_interval,
            mean_gap: send_interval,
        };
        let devices = devices
            .iter()
            .zip(mint_all(rngs))
            .map(|(&(actor, device_id), keys)| {
                let host = &mut hosts[actor as usize];
                let home_addr = host.wallet.address();
                let credentials = host.registry.enroll(device_id, home_addr, keys);
                (actor, Device::new(credentials, spec))
            })
            .collect();

        let topology = match cfg.gossip_degree {
            Some(degree) => Topology::ring_lattice(n_hosts as u32, degree),
            None => Topology::full_mesh(n_hosts as u32),
        };
        let network = Network::new(topology, cfg.latency.clone()).with_faults(cfg.faults.clone());

        let mut registry = Registry::new();
        let meters = Meters::register(&mut registry);
        let chaos = ChaosEngine::new(cfg.chaos.clone(), &mut registry);
        // Registering the auditor here (not at end-of-run) means every
        // snapshot and timeline frame carries explicit `invariant.*`
        // zeros, so a clean run *proves* it was audited.
        let auditor = SettlementAuditor::new(&mut registry);
        let adversarial: HashSet<u32> = cfg.chaos.adversarial_hosts().into_iter().collect();

        let sim = Sim {
            rng,
            exchanges: Vec::new(),
            deliveries: HashMap::new(),
            network,
            latencies: Series::new(),
            phases: Default::default(),
            completed: 0,
            failed: 0,
            started: 0,
            blocks_mined: 0,
            standby_blocks_mined: 0,
            send_interval,
            radio_by_gw: vec![RadioTally::default(); cfg.actor_hosts as usize],
            registry,
            meters,
            chaos,
            auditor,
            adversarial,
            censor_suspects: HashSet::new(),
            wakes: vec![None; n_hosts],
            restarts_warm: 0,
            restarts_cold: 0,
            timeline: cfg.metrics_interval.map(SnapshotSeries::new),
            sig_cache,
            cfg,
        };
        World {
            hosts,
            devices,
            sim,
        }
    }
    /// Runs the experiment to completion and reports.
    pub fn run(mut self) -> ExperimentResult {
        let mut queue = Queue::new();
        // Stagger sensor starts across one send interval.
        let n = self.devices.len().max(1);
        for sensor in 0..self.devices.len() {
            let offset = SimDuration::from_secs_f64(
                self.sim.send_interval.as_secs_f64() * (sensor as f64 / n as f64),
            );
            let timer = Timer::Fire;
            queue.schedule_at(SimTime::ZERO + offset, Event::Device { sensor, timer });
        }
        // Mining heartbeat.
        let first_block = self.sim.next_block_delay();
        queue.schedule_in(first_block, Event::MineTick);
        // Crash windows end in restarts.
        for (host, at) in self.sim.chaos.restarts() {
            queue.schedule_at(at, Event::ChaosRestart { host });
        }

        let deadline = SimTime::ZERO + self.sim.cfg.max_sim_time;
        run(&mut self, &mut queue, Some(deadline));

        let sim_time = queue.now().saturating_duration_since(SimTime::ZERO);
        let actors = self.actor_daemons();
        let confirmed_txs = self.hosts[0]
            .daemon
            .chain
            .iter_main()
            .map(|b| b.transactions.len().saturating_sub(1))
            .sum();
        let app_readings = self.hosts.iter().map(|h| h.app.len()).sum();

        // Flush what remains dirty (the one store write a mid-run fold
        // must not cause), take the auditor's final census — one last
        // reconcile plus the FSM↔chain agreement check, which publishes
        // `chaos.invariant.violation_total` and the `invariant.*` rows —
        // then fold everything into the registry and close the timeline
        // with a frame equal to the final snapshot.
        for h in &mut self.hosts {
            h.daemon.chain.flush();
        }
        let census = self.fsm_census();
        let audit = self.sim.auditor.final_audit(
            &self.hosts[0].daemon.chain,
            &census,
            &mut self.sim.registry,
        );
        self.fold_metrics(queue.now());
        if let Some(timeline) = self.sim.timeline.as_mut() {
            timeline.sample(queue.now(), &self.sim.registry);
        }
        let utxo = self.hosts[0].daemon.chain.utxo();
        let phases = Stage::NAMES.into_iter().zip(self.sim.phases);
        let phases = phases
            .filter(|(_, s)| !s.is_empty())
            .map(|(name, s)| (name.to_string(), s))
            .collect();
        ExperimentResult {
            completed: self.sim.completed,
            failed: self.sim.failed,
            latencies: self.sim.latencies,
            sim_time,
            blocks_mined: self.sim.blocks_mined,
            standby_blocks_mined: self.sim.standby_blocks_mined,
            stalls: actors.stalls,
            total_stall: actors.total_stall,
            confirmed_txs,
            app_readings,
            metrics: self.sim.registry.snapshot(),
            phases,
            escrows_claimed: audit.claimed,
            escrows_refunded: audit.refunded,
            escrows_open: audit.open,
            invariant_violations: audit.violations,
            utxo_total: utxo.total_value(),
            utxo_fingerprint: utxo.fingerprint(),
            honest_revenue: self.sim.auditor.honest_revenue(),
            adversarial_revenue: self.sim.auditor.adversarial_revenue(),
            gateway_settlements: self.sim.auditor.gateway_outcomes(),
            restarts_warm: self.sim.restarts_warm,
            restarts_cold: self.sim.restarts_cold,
            timeline: self.sim.timeline,
        }
    }

    /// The actor daemons' statistics summed (the master's are left out:
    /// §5.2's stall observation is about the PlanetLab hosts).
    fn actor_daemons(&self) -> DaemonStats {
        let mut actors = DaemonStats::default();
        for h in self.hosts.iter().skip(1) {
            actors.merge(&h.daemon.stats());
        }
        actors
    }

    /// `(exchange, phase, is_settled)` for every exchange that published
    /// an escrow, as its recipient's machine has it — the auditor's
    /// FSM↔chain census input.
    fn fsm_census(&self) -> Vec<(usize, Phase, bool)> {
        let exchanges = self.sim.exchanges.iter().enumerate();
        exchanges
            .filter_map(|(i, ex)| {
                let fsm = self.hosts[ex.home as usize].settlement(i as u64)?;
                Some((i, fsm.phase(), fsm.is_settled()))
            })
            .collect()
    }

    /// Folds every number the run keeps outside the registry into it —
    /// the simulator's own tallies, each subsystem's stats table summed
    /// over the hosts that keep one, the shared verification memo and
    /// the settlement census — so one snapshot describes the
    /// whole experiment as of `now`. Runs at the end of the run and
    /// before each timeline frame that is due; it reads and never
    /// writes simulation state (no store flush), so sampling cannot move
    /// a number.
    fn fold_metrics(&mut self, now: SimTime) {
        let mut daemons = self.actor_daemons();
        daemons.merge(&DaemonStats {
            stalls: 0,
            total_stall: SimDuration::ZERO,
            ..self.hosts[0].daemon.stats()
        });
        let mut pools = MempoolStats::default();
        let mut stores = Vec::new();
        for (i, h) in self.hosts.iter().enumerate() {
            pools.merge(&h.daemon.mempool.stats());
            stores.extend(h.daemon.chain.store_summary().map(|s| (i, s)));
        }
        let census = self.sim.auditor.census(&self.fsm_census());

        let sim = &mut self.sim;
        let reg = &mut sim.registry;
        reg.set_counter("world.exchanges_started_total", sim.started as u64);
        reg.set_counter("world.exchanges_completed_total", sim.completed as u64);
        reg.set_counter("world.exchanges_failed_total", sim.failed as u64);
        reg.set_counter("world.blocks_mined_total", sim.blocks_mined);
        reg.set_counter("world.standby_blocks_mined_total", sim.standby_blocks_mined);
        reg.set_counter("world.restart.warm_total", sim.restarts_warm);
        reg.set_counter("world.restart.cold_total", sim.restarts_cold);
        reg.set_counter("world.escrows_claimed_total", census.claimed as u64);
        reg.set_counter("world.escrows_refunded_total", census.refunded as u64);
        reg.set_counter("world.escrows_open_total", census.open as u64);
        let elapsed = now.saturating_duration_since(SimTime::ZERO);
        reg.set_gauge("world.sim_time_seconds", elapsed.as_secs_f64());

        daemons.export(reg);
        self.hosts[0].daemon.chain.stats().export(reg);
        pools.export(reg);
        // The world-shared memo, folded once: a miss is a distinct
        // script verification (ECDSA spends under validate.sigcache.*,
        // escrow OP_CHECKRSA512PAIR spends under validate.sigcache.rsa.*),
        // a hit is a host that found the spend already verified.
        sim.sig_cache.export(reg);
        sim.network.stats().export(reg);
        fold_hosts(reg, stores);
        let gateways = (1..).zip(sim.radio_by_gw.iter().copied());
        fold_hosts(reg, gateways.collect());
    }

    /// Brings the always-on auditor in line with the master's chain.
    /// Called after every event that can move host 0's tip, so a
    /// violation is attributed to the block where it lands — visible in
    /// the very next timeline frame — instead of surfacing at end of
    /// run.
    fn audit_master(&mut self) {
        self.sim
            .auditor
            .reconcile(&self.hosts[0].daemon.chain, &mut self.sim.registry);
    }

    /// Runs `act` on one host, handing it the environment that stands
    /// for everything else: the simulator's state and the event queue.
    fn at_host<R>(
        &mut self,
        host: u32,
        queue: &mut Queue,
        act: impl FnOnce(&mut Node, &mut dyn NodeEnv) -> R,
    ) -> R {
        let mut env = Env {
            sim: &mut self.sim,
            queue,
            me: host,
        };
        act(&mut self.hosts[host as usize], &mut env)
    }

    /// Runs `act` on one device, handing it the radio as the simulator
    /// provides it.
    fn at_device<R>(
        &mut self,
        sensor: usize,
        queue: &mut Queue,
        act: impl FnOnce(&mut Device, &mut dyn DeviceEnv) -> R,
    ) -> R {
        let (home, device) = &mut self.devices[sensor];
        let mut env = RadioEnv {
            sim: &mut self.sim,
            queue,
            sensor,
            home: *home,
            seal: None,
        };
        act(device, &mut env)
    }

    /// A device's timer came due. Its send timer starts exchanges (the
    /// duty cycle permitting) until the run has started all it wants;
    /// then the sensor goes quiet.
    fn handle_timer(&mut self, now: SimTime, sensor: usize, timer: Timer, queue: &mut Queue) {
        if timer != Timer::Fire {
            self.at_device(sensor, queue, |d, env| d.on_timeout(now, timer, env));
        } else if self.sim.started < self.sim.cfg.target_exchanges {
            let tag = self.sim.exchanges.len() as u64;
            let mut reading = *b"t=....;h=40%";
            reading[2..6].copy_from_slice(&(tag as u32).to_le_bytes());
            self.at_device(sensor, queue, |d, env| d.fire(now, tag, &reading, env));
        }
    }

    /// A frame of `exchange` ends its airtime, or the gateway's key goes
    /// on the air.
    fn handle_radio(&mut self, now: SimTime, exchange: usize, air: Air, queue: &mut Queue) {
        let tag = exchange as u64;
        let sim = &mut self.sim;
        let ex = &mut sim.exchanges[exchange];
        let (sensor, gateway) = (ex.sensor, ex.gateway);
        let frame = match air {
            Air::Up(frame) => *frame,
            Air::KeyIn(e_pk) => return self.downlink(now, exchange, Downlink::Key(*e_pk), queue),
            Air::KeyOut(e_pk) => {
                let public_key = e_pk.to_bytes();
                // The paper's measurement starts at the gateway's first
                // message; a resent key keeps it. The recipient will know
                // the exchange by this key.
                if ex.measure_start.is_none() {
                    ex.measure_start = Some(now);
                    let key = (ex.home, delivery_tag(&public_key));
                    sim.deliveries.insert(key, exchange);
                    ex.leave(Stage::Keygen, now, &mut sim.phases);
                }
                ex.enter(Stage::KeyDownlink, now);
                let device_id = self.devices[sensor].1.id().0;
                let down = LoraFrame::DownlinkEphemeralKey {
                    device_id,
                    public_key,
                };
                sim.send_frame(queue, now, exchange, down.phy_len(), Air::KeyIn(e_pk));
                return;
            }
        };
        let data = matches!(frame, Uplink::Data { .. });
        if data && ex.done {
            return; // nobody takes the reading of a finished exchange
        }
        // A crashed gateway's radio hears nothing; the device's timeout
        // resends until the gateway restarts or the retries run out.
        if sim.chaos.host_down(gateway, now) {
            sim.registry.inc(sim.chaos.meters().crash_drops);
            return;
        }
        if !data {
            ex.leave(Stage::RequestUplink, now, &mut sim.phases);
            ex.request_heard = true;
        }
        let reply = self.at_host(gateway, queue, |node, env| {
            node.on_uplink(now, tag, frame, env)
        });
        match reply {
            Some((at, Downlink::Key(e_pk))) => {
                let air = Air::KeyOut(Box::new(e_pk));
                queue.schedule_at(at, Event::Radio { exchange, air });
            }
            Some((_, ack)) => {
                let sim = &mut self.sim;
                let ex = &mut sim.exchanges[exchange];
                ex.leave(Stage::DataUplink, now, &mut sim.phases);
                ex.enter(Stage::GatewayForward, now);
                self.downlink(now, exchange, ack, queue);
            }
            None => {}
        }
    }

    /// Hands `downlink` to the device of `exchange`.
    fn downlink(&mut self, now: SimTime, exchange: usize, downlink: Downlink, queue: &mut Queue) {
        let (sensor, tag) = (self.sim.exchanges[exchange].sensor, exchange as u64);
        self.at_device(sensor, queue, |d, env| d.receive(now, tag, downlink, env));
    }

    fn handle_wan(&mut self, now: SimTime, delivery: Delivery<Arc<Parcel>>, queue: &mut Queue) {
        let to = delivery.to.0;
        // A message can be in flight when its receiver crashes; it is
        // lost on arrival, not retroactively.
        if self.sim.chaos.host_down(to, now) {
            self.sim.registry.inc(self.sim.chaos.meters().crash_drops);
            return;
        }
        let moves_master_tip =
            to == 0 && matches!(delivery.msg.msg, WanMessage::Chain(ChainMessage::Block(_)));
        self.at_host(to, queue, |node, env| {
            node.handle(now, delivery.from, delivery.msg, env)
        });
        if moves_master_tip {
            self.audit_master();
        }
    }

    /// A crashed host restarts. Volatile state (mempool, relay filters,
    /// in-flight syncs) is always gone. What happens to the chain
    /// depends on durability:
    ///
    /// - **Warm** (a store is attached): the in-memory chain is
    ///   discarded — a killed process keeps nothing — and the host
    ///   reopens whatever its store committed before the crash
    ///   (`Chain::open_store`), rolling the coins snapshot forward from
    ///   undo/block records without re-validating scripts. It then
    ///   catches up to the fleet tip headers-first.
    /// - **Cold** (memory-only, or the store failed to reopen — better
    ///   than losing the host entirely): the old model — the in-memory
    ///   chain survives by fiat.
    fn handle_chaos_restart(&mut self, now: SimTime, host: u32, queue: &mut Queue) {
        let sim = &mut self.sim;
        let reopened = sim
            .cfg
            .store_dir
            .as_ref()
            .filter(|_| self.hosts[host as usize].daemon.chain.has_store())
            .and_then(|root| {
                Chain::open_store(
                    sim.cfg.chain_params.clone(),
                    root.join(format!("host-{host}")),
                    StoreConfig::default(),
                )
                .ok()
            })
            .map(|opened| opened.chain);
        if reopened.is_some() {
            sim.restarts_warm += 1;
        } else {
            sim.restarts_cold += 1;
        }
        self.at_host(host, queue, |node, env| {
            node.crash_restart(now, reopened, env)
        });
        if host == 0 {
            // A warm restart can reopen a shorter durable chain: the
            // auditor must roll its ledger back with it.
            self.audit_master();
        }
    }

    /// A host's wake-up came due: its watchdog runs, unless a nearer
    /// wake-up superseded this one or the host is down (its restart runs
    /// the watchdog).
    fn handle_wake(&mut self, now: SimTime, host: u32, queue: &mut Queue) {
        let wake = &mut self.sim.wakes[host as usize];
        if *wake != Some(now) {
            return;
        }
        *wake = None;
        if self.sim.chaos.host_down(host, now) {
            return;
        }
        self.at_host(host, queue, |node, env| node.on_deadline(now, env));
    }

    /// Who mines right now: the master (host 0) in every clean run, and
    /// under chaos the live host with the tallest chain — ties break
    /// toward the lowest id, so the master takes back over once it has
    /// caught up after a failover. Hosts suspected of claim censorship
    /// are passed over while any other live host can mine (the
    /// route-around half of the censorship defence); with nobody else
    /// up, a suspect still beats no miner at all. `None` while every
    /// host is crashed.
    fn active_miner(&self, now: SimTime) -> Option<u32> {
        let sim = &self.sim;
        if sim.chaos.is_idle() && sim.censor_suspects.is_empty() {
            return Some(0);
        }
        let live = (0..self.hosts.len() as u32).filter(|&id| !sim.chaos.host_down(id, now));
        let tallest = |ids: &mut dyn Iterator<Item = u32>| {
            ids.max_by_key(|&id| (self.hosts[id as usize].height(), Reverse(id)))
        };
        let unsuspected = &mut live.clone().filter(|id| !sim.censor_suspects.contains(id));
        tallest(unsuspected).or_else(|| tallest(&mut live.clone()))
    }

    fn handle_mine_tick(&mut self, now: SimTime, queue: &mut Queue) {
        // Interval metrics ride the mining heartbeat — the one periodic
        // event every run has. Edge-triggered, so a slow block interval
        // just lowers the effective sampling rate; the fold (a sum over
        // every host) runs only for a frame that is due.
        if self.sim.timeline.as_ref().is_some_and(|t| t.due(now)) {
            self.fold_metrics(now);
            let sim = &mut self.sim;
            sim.timeline
                .as_mut()
                .expect("checked above")
                .sample(now, &sim.registry);
        }
        let sim = &mut self.sim;
        // Stop mining when work is done and nothing is pending anywhere.
        let work_left = sim.completed + sim.failed < sim.started
            || sim.started < sim.cfg.target_exchanges
            || self.hosts.iter().any(|h| !h.daemon.mempool.is_empty())
            // Money still in escrow keeps blocks coming: the refund
            // branch needs the chain to reach the CLTV height.
            || sim.exchanges.iter().enumerate().any(|(i, ex)| {
                let recipient = &self.hosts[ex.home as usize];
                recipient.settlement(i as u64).is_some_and(|fsm| fsm.phase() == Phase::Escrowed)
            });
        if !work_left {
            return;
        }
        self.mine_block(now, queue);
        let delay = self.sim.next_block_delay();
        queue.schedule_in(delay, Event::MineTick);
    }

    /// One turn of mining duty: the acting miner extends its tip — or,
    /// when the chaos plan says so, forks or censors.
    fn mine_block(&mut self, now: SimTime, queue: &mut Queue) {
        // Miner failover: the master mines unless it is crashed, in
        // which case the tallest live standby takes over until the
        // master catches back up. With every host down nobody mines — a
        // block nobody could gossip helps no one.
        let Some(miner) = self.active_miner(now) else {
            return;
        };
        let sim = &mut self.sim;
        // Scheduled fork injection: mine a heavier side branch instead
        // of extending the tip, forcing every host through a reorg.
        let (mined, whole) = if let Some(depth) = sim.chaos.take_fork(now) {
            sim.registry.inc(sim.chaos.meters().forks);
            self.at_host(miner, queue, |node, env| node.mine_fork(now, depth, env))
        } else {
            let extended = self.mine_template(now, miner, queue).is_some();
            (u64::from(extended), extended)
        };
        self.sim.blocks_mined += mined;
        if miner != 0 {
            self.sim.standby_blocks_mined += mined;
        } else if whole {
            self.audit_master();
        }
    }

    /// The acting miner extends its tip from its pool — leaving out
    /// settlements while the chaos plan has it censor them.
    fn mine_template(&mut self, now: SimTime, miner: u32, queue: &mut Queue) -> Option<SimTime> {
        let sim = &mut self.sim;
        // Byzantine censorship: a miner inside its CensorClaims window
        // silently excludes every settlement transaction — anything
        // spending a known escrow outpoint, claim and refund alike —
        // from its template. The pool keeps them (censorship is not
        // eviction), so an honest miner taking over mines them at once.
        let mut escrow_ops: IdSet<OutPoint> = IdSet::default();
        if sim.chaos.censoring_miner(miner, now) {
            escrow_ops.extend(self.hosts.iter().flat_map(Node::escrow_outpoints));
            let withheld = self.hosts[miner as usize]
                .daemon
                .mempool
                .iter()
                .filter(|tx| tx.inputs.iter().any(|i| escrow_ops.contains(&i.prevout)))
                .count() as u64;
            if withheld > 0 {
                // Per-template exclusion events, not distinct txs: the
                // same stuck claim counts once per censored block.
                sim.registry
                    .add(sim.chaos.meters().claims_censored, withheld);
            }
        }
        let tag: &[u8] = if miner == 0 { b"master" } else { b"standby" };
        self.at_host(miner, queue, |node, env| {
            node.mine(now, tag, &escrow_ops, env)
        })
    }
}

impl Sim {
    fn next_block_delay(&mut self) -> SimDuration {
        let mean = self.cfg.chain_params.target_block_interval.as_secs_f64();
        SimDuration::from_secs_f64(self.rng.exponential(mean))
    }

    /// Floods a chain message from `from` to its peers — with `only`, to
    /// those whose host id has that parity: the equivocator's tool for
    /// showing each half of the overlay a different claim. The filter
    /// draws the same per-delivery latency samples as a full flood, so
    /// the RNG stream (and with it same-seed determinism) is unaffected.
    fn flood(
        &mut self,
        queue: &mut Queue,
        at: SimTime,
        from: u32,
        parcel: &Arc<Parcel>,
        only: Option<u32>,
    ) {
        let deliveries = self.network.broadcast(&mut self.rng, NodeId(from), parcel);
        // Chaos: block propagation can be artificially delayed.
        let extra = if matches!(parcel.msg, WanMessage::Chain(ChainMessage::Block(_))) {
            let d = self.chaos.block_delay(at);
            if d > SimDuration::ZERO {
                self.registry.inc(self.chaos.meters().blocks_delayed);
            }
            d
        } else {
            SimDuration::ZERO
        };
        let mut copies = 0;
        for (delay, delivery) in deliveries {
            let to = delivery.to.0;
            if only.is_some_and(|parity| to % 2 != parity) || self.chaos_drops(at, from, to) {
                continue;
            }
            copies += 1;
            queue.schedule_at(at + delay + extra, Event::Wan(delivery));
        }
        self.count_wan(parcel, copies);
    }

    /// Whether chaos kills a message on the `from → to` overlay link at
    /// `at` (crashed endpoint, partition cut, or an armed connection
    /// kill). Counts the drop it attributes.
    fn chaos_drops(&mut self, at: SimTime, from: u32, to: u32) -> bool {
        let meters = self.chaos.meters();
        if self.chaos.host_down(from, at) || self.chaos.host_down(to, at) {
            self.registry.inc(meters.crash_drops);
            return true;
        }
        if self.chaos.partitioned(from, to, at) {
            self.registry.inc(meters.partition_drops);
            return true;
        }
        if self.chaos.take_conn_kill(from, to, at) {
            self.registry.inc(meters.conn_kills);
            return true;
        }
        false
    }

    /// Accounts `copies` transmissions of `parcel` by kind.
    fn count_wan(&mut self, parcel: &Parcel, copies: usize) {
        if copies == 0 {
            return;
        }
        let k = parcel.msg.kind_index();
        self.registry.add(self.meters.wan_msgs[k], copies as u64);
        self.registry.add(
            self.meters.wan_bytes[k],
            (parcel.wire_size() * copies) as u64,
        );
    }

    /// Unicasts a WAN message over a direct TCP-like dial (the paper's
    /// gateway→recipient leg, and sync requests/responses): the sender
    /// knows the peer's IP from the on-chain directory, so the static
    /// gossip graph does not constrain it. Lossy faults do not apply;
    /// chaos-level cuts do.
    fn unicast(&mut self, queue: &mut Queue, at: SimTime, from: u32, to: u32, msg: WanMessage) {
        if let Some((delay, delivery)) =
            self.network
                .dial(&mut self.rng, NodeId(from), NodeId(to), Parcel::new(msg))
        {
            if self.chaos_drops(at, from, to) {
                return;
            }
            self.count_wan(&delivery.msg, 1);
            queue.schedule_at(at + delay, Event::Wan(delivery));
        }
    }

    /// Puts a `phy_len`-byte frame of `exchange` on its gateway's channel
    /// at `at`. The loss coin — one draw, always: a chaos burst's loss
    /// rate, none outside one — may take it; otherwise `air` arrives when
    /// its airtime ends. Returns that instant.
    fn send_frame(
        &mut self,
        queue: &mut Queue,
        at: SimTime,
        exchange: usize,
        phy_len: usize,
        air: Air,
    ) -> SimTime {
        let end = at + time_on_air(&RADIO, phy_len);
        let chaos = &self.chaos;
        if self.rng.chance(chaos.lora_loss_boost(at)) {
            let gateway = self.exchanges[exchange].gateway as usize;
            self.radio_by_gw[gateway - 1].frames_lost += 1;
            self.registry.inc(chaos.meters().lora_drops);
        } else {
            queue.schedule_at(end, Event::Radio { exchange, air });
        }
        end
    }

    /// Gives up on an exchange before money moved. Once the recipient
    /// published the escrow only the chain ends it, so a gateway giving
    /// up its re-deliveries then changes nothing.
    fn abort_exchange(&mut self, exchange: usize) {
        let ex = &mut self.exchanges[exchange];
        if !ex.done && !ex.escrowed {
            ex.done = true;
            self.failed += 1;
        }
    }

    /// Keeps the simulator's books in step with what a host just did.
    fn note(&mut self, at: SimTime, exchange: usize, note: Note) {
        let ex = &mut self.exchanges[exchange];
        match note {
            Note::SessionOpened => ex.enter(Stage::Keygen, at),
            Note::Abort => self.abort_exchange(exchange),
            Note::Delivered => {
                ex.leave(Stage::GatewayForward, at, &mut self.phases);
                ex.enter(Stage::EscrowPublish, at);
            }
            Note::EscrowPublished(outpoint) => {
                ex.leave(Stage::EscrowPublish, at, &mut self.phases);
                ex.enter(Stage::ConfirmationWait, at);
                // The auditor watches the escrow from birth: any
                // main-chain spend of it is now classified and
                // revenue-attributed.
                let adversarial = self.adversarial.contains(&ex.gateway);
                self.auditor
                    .watch(outpoint, exchange, ex.gateway, adversarial);
                ex.escrowed = true;
            }
            Note::Claiming => {
                ex.leave(Stage::ConfirmationWait, at, &mut self.phases);
                ex.enter(Stage::ClaimAndDecrypt, at);
            }
            Note::Opened => {
                ex.done = true;
                self.completed += 1;
                ex.leave(Stage::ClaimAndDecrypt, at, &mut self.phases);
                if let Some(start) = ex.measure_start {
                    let total = at.saturating_duration_since(start).as_secs_f64();
                    self.latencies.record(total);
                    self.registry.observe(self.meters.latency, total);
                }
            }
            Note::OpenFailed => {
                ex.done = true;
                self.failed += 1;
            }
            Note::Equivocation => self.registry.inc(self.meters.equivocations_detected),
            // The CLTV branch closed the exchange: the gateway never
            // revealed the key, so the reading is lost but the coins came
            // home.
            Note::Settlement(FsmEvent::RefundConfirmed) if !ex.done => {
                ex.done = true;
                self.failed += 1;
            }
            Note::Settlement(_) => {}
            Note::IllegalSettlement(_) => self.registry.inc(self.meters.illegal_transitions),
            Note::Redelivered => self.registry.inc(self.meters.deliver_retries),
            Note::Rebroadcast => self.registry.inc(self.meters.rebroadcasts),
            Note::Refunding => self.registry.inc(self.meters.refunds_submitted),
            // The mining model routes around the suspect.
            Note::CensorshipSuspected(miner) => {
                self.registry.inc(self.meters.censorship_suspected);
                self.censor_suspects.insert(miner.0);
            }
        }
    }
}

/// Everything outside one host, as the simulator provides it.
struct Env<'a> {
    sim: &'a mut Sim,
    queue: &'a mut Queue,
    /// The host this environment is bound to.
    me: u32,
}

impl NodeEnv for Env<'_> {
    fn flood(&mut self, at: SimTime, parcel: &Arc<Parcel>) {
        self.sim.flood(self.queue, at, self.me, parcel, None);
    }

    fn unicast(&mut self, at: SimTime, to: NodeId, msg: WanMessage) {
        self.sim.unicast(self.queue, at, self.me, to.0, msg);
    }

    fn flood_split(&mut self, at: SimTime, claim: &Arc<Parcel>, rival: &Arc<Parcel>) {
        // Counted only once both conflicting claims are live: the
        // session is gone, so this runs once per exchange.
        let sim = &mut *self.sim;
        sim.registry.inc(sim.chaos.meters().equivocations);
        sim.flood(self.queue, at, self.me, claim, Some(0));
        sim.flood(self.queue, at, self.me, rival, Some(1));
    }

    fn note(&mut self, at: SimTime, tag: u64, note: Note) {
        self.sim.note(at, tag as usize, note);
    }

    /// Which exchange is this? Simulation-level bookkeeping only (the
    /// protocol itself keys on device + ephemeral key). Looked up
    /// regardless of progress so a re-delivered copy is recognized, and
    /// never double-counted.
    fn delivery(&mut self, key: u64) -> Option<u64> {
        let Some(&exchange) = self.sim.deliveries.get(&(self.me, key)) else {
            self.sim.failed += 1;
            return None;
        };
        (!self.sim.exchanges[exchange].done).then_some(exchange as u64)
    }

    fn closed(&self, tag: u64) -> bool {
        self.sim.exchanges[tag as usize].done
    }

    fn wake_at(&mut self, at: SimTime) {
        let at = at.max(self.queue.now());
        let wake = &mut self.sim.wakes[self.me as usize];
        if wake.is_none_or(|pending| at < pending) {
            *wake = Some(at);
            self.queue.schedule_at(at, Event::Wake { host: self.me });
        }
    }

    fn misbehaves(&mut self, now: SimTime, how: Misbehaviour) -> bool {
        let sim = &mut *self.sim;
        match how {
            Misbehaviour::WithholdClaim => {
                let withholds = sim.chaos.withhold_claim(self.me, now);
                if withholds {
                    sim.registry.inc(sim.chaos.meters().claims_withheld);
                }
                withholds
            }
            Misbehaviour::Equivocate => sim.chaos.equivocate_claim(self.me, now),
        }
    }
}

/// One device's radio, as the simulator provides it.
struct RadioEnv<'a> {
    sim: &'a mut Sim,
    queue: &'a mut Queue,
    /// The device this environment is bound to, and its home host.
    sensor: usize,
    home: u32,
    /// The fork a seal draws from, made when the device seals.
    seal: Option<SimRng>,
}

impl DeviceEnv for RadioEnv<'_> {
    fn transmit(&mut self, at: SimTime, tag: u64, frame: Uplink) -> SimTime {
        let sim = &mut *self.sim;
        let phy_len = match &frame {
            Uplink::Request => {
                let ex = &mut sim.exchanges[tag as usize];
                if !ex.request_heard {
                    ex.enter(Stage::RequestUplink, at);
                }
                REQUEST_PHY_LEN
            }
            Uplink::Data { uplink, .. } => data_uplink_phy_len(uplink.em.len(), uplink.sig.len()),
        };
        let air = Air::Up(Box::new(frame));
        sim.send_frame(self.queue, at, tag as usize, phy_len, air)
    }

    fn arm(&mut self, at: SimTime, timer: Timer) {
        let sensor = self.sensor;
        self.queue.schedule_at(at, Event::Device { sensor, timer });
    }

    fn note(&mut self, at: SimTime, tag: u64, note: DeviceNote) {
        let sim = &mut *self.sim;
        let exchange = tag as usize;
        match note {
            DeviceNote::Started => {
                // The request reaches one foreign gateway, uniformly.
                let (home, hosts) = (self.home, sim.cfg.actor_hosts);
                let gateway = loop {
                    let g = sim.rng.index(hosts as usize) as u32 + 1;
                    if g != home || hosts == 1 {
                        break g;
                    }
                };
                debug_assert_eq!(exchange, sim.exchanges.len(), "tags count exchanges");
                let (sensor, state) = (self.sensor, Default::default());
                let ex = ExchangeState {
                    sensor,
                    gateway,
                    home,
                    ..state
                };
                sim.exchanges.push(ex);
                sim.started += 1;
            }
            DeviceNote::Sealed => {
                let ex = &mut sim.exchanges[exchange];
                ex.leave(Stage::KeyDownlink, at, &mut sim.phases);
                ex.enter(Stage::DataUplink, at);
            }
            DeviceNote::Retry => {
                let gateway = sim.exchanges[exchange].gateway;
                sim.radio_by_gw[gateway as usize - 1].retries += 1;
            }
            DeviceNote::GaveUp => sim.abort_exchange(exchange),
        }
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.rng
    }

    fn seal_rng(&mut self, tag: u64) -> &mut SimRng {
        self.seal.insert(self.sim.rng.fork(0x5e_000 + tag))
    }
}

impl Actor<Event> for World {
    fn handle(&mut self, now: SimTime, event: Event, queue: &mut Queue) {
        match event {
            Event::Device { sensor, timer } => self.handle_timer(now, sensor, timer, queue),
            Event::Radio { exchange, air } => self.handle_radio(now, exchange, air, queue),
            Event::Wan(delivery) => self.handle_wan(now, delivery, queue),
            Event::MineTick => self.handle_mine_tick(now, queue),
            Event::Wake { host } => self.handle_wake(now, host, queue),
            Event::ChaosRestart { host } => self.handle_chaos_restart(now, host, queue),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_sim::ChaosFault;

    /// `cfg` with every LoRa frame of the run lost with probability `loss`.
    fn lossy(cfg: WorkloadConfig, loss: f64) -> WorkloadConfig {
        let until = SimTime::ZERO + cfg.max_sim_time;
        let burst = ChaosFault::LoraBurst {
            from: SimTime::ZERO,
            until,
            loss,
        };
        cfg.with_chaos(ChaosPlan {
            faults: vec![burst],
        })
    }

    fn counter(result: &ExperimentResult, name: &str) -> u64 {
        let rows = &result.metrics.counters;
        let row = rows.iter().find(|(n, _)| n == name);
        row.map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    }

    #[test]
    fn the_shared_boot_directory_is_each_hosts_own_scan() {
        let dir = std::env::temp_dir().join(format!("bcwan-boot-dir-{}", std::process::id()));
        let stored = WorkloadConfig::tiny(4, 3).with_store_dir(&dir);
        for cfg in [WorkloadConfig::tiny(4, 3), stored] {
            let world = World::new(cfg);
            for host in &world.hosts {
                assert!(!host.directory.is_empty());
                assert_eq!(host.directory, Directory::from_chain(&host.daemon.chain));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_world_completes_exchanges() {
        let result = World::new(WorkloadConfig::tiny(6, 42)).run();
        assert!(result.completed >= 6, "completed {}", result.completed);
        assert_eq!(result.failed, 0, "no failures expected");
        assert_eq!(
            result.app_readings, result.completed,
            "every decrypted reading reaches an application server"
        );
        let summary = result.latencies.summary().unwrap();
        // Without CPU costs: airtimes + a few 20 ms WAN hops ≈ 0.5–1 s.
        assert!(summary.mean > 0.3, "mean {summary}");
        assert!(summary.mean < 3.0, "mean {summary}");
    }

    #[test]
    fn fleet_preset_completes_on_ring_lattice() {
        // 60 gateways on a degree-6 ring: gossip reaches everyone only
        // through re-flooding. The run still completes cleanly.
        let result = World::new(WorkloadConfig::fleet(60, 12, 5)).run();
        assert!(result.completed >= 12, "completed {}", result.completed);
        assert_eq!(result.failed, 0, "no failures expected");
        assert_eq!(result.invariant_violations, 0);
        assert_eq!(result.app_readings, result.completed);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = World::new(WorkloadConfig::tiny(5, 7)).run();
        let b = World::new(WorkloadConfig::tiny(5, 7)).run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latencies.samples(), b.latencies.samples());
    }

    #[test]
    fn different_seeds_differ() {
        // Constant-latency/zero-cost runs are latency-identical by design,
        // so give this test a jittered WAN.
        let mut cfg_a = WorkloadConfig::tiny(5, 1);
        cfg_a.latency = LatencyModel::planetlab();
        let mut cfg_b = WorkloadConfig::tiny(5, 2);
        cfg_b.latency = LatencyModel::planetlab();
        let a = World::new(cfg_a).run();
        let b = World::new(cfg_b).run();
        assert_ne!(a.latencies.samples(), b.latencies.samples());
    }

    #[test]
    fn exchanges_confirm_on_chain() {
        let result = World::new(WorkloadConfig::tiny(4, 9)).run();
        // Two transactions per exchange (escrow + claim) eventually mined.
        assert!(
            result.confirmed_txs >= 2 * 4,
            "confirmed {}",
            result.confirmed_txs
        );
        assert!(result.blocks_mined > 0);
    }

    #[test]
    fn stall_configuration_increases_latency() {
        let mut fast_cfg = WorkloadConfig::tiny(8, 11);
        fast_cfg.costs = CostModel::zero();
        let fast = World::new(fast_cfg).run();

        let mut slow_cfg = WorkloadConfig::tiny(8, 11);
        slow_cfg.chain_params = ChainParams::with_verification_stall();
        // At 15 s blocks a tiny 8-exchange run can finish before the
        // first block arrives; shorten the interval so stalls actually
        // land inside the run, as in the full-scale workload.
        slow_cfg.chain_params.target_block_interval = SimDuration::from_secs(4);
        let slow = World::new(slow_cfg).run();

        let fast_mean = fast.latencies.summary().unwrap().mean;
        let slow_mean = slow.latencies.summary().unwrap().mean;
        assert!(
            slow_mean > fast_mean * 2.0,
            "stall should inflate latency: {fast_mean} vs {slow_mean}"
        );
        assert!(slow.stalls > 0);
    }

    #[test]
    fn lora_loss_is_survivable_with_retries() {
        let result = World::new(lossy(WorkloadConfig::tiny(6, 31), 0.2)).run();
        // Retries recover most exchanges; a few may exhaust the budget.
        assert!(
            result.completed >= 5,
            "retries should carry most exchanges: {} completed, {} failed",
            result.completed,
            result.failed
        );
        assert_eq!(result.latencies.len(), result.completed);
    }

    #[test]
    fn total_radio_blackout_fails_cleanly() {
        let result = World::new(lossy(WorkloadConfig::tiny(3, 32), 1.0)).run();
        assert_eq!(result.completed, 0);
        assert_eq!(result.failed, 3, "every exchange aborts after retries");
    }

    #[test]
    fn per_gateway_radio_rows_sum_to_totals() {
        let result = World::new(lossy(WorkloadConfig::tiny(10, 35), 0.3)).run();
        let counter = |name: &str| counter(&result, name);
        let sum_labeled = |base: &str| {
            let prefix = format!("{base}{{");
            result
                .metrics
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with(&prefix))
                .map(|(_, v)| *v)
                .sum::<u64>()
        };
        let lost = counter("world.lora_frames_lost_total");
        let retries = counter("world.lora_retries_total");
        assert!(lost > 0, "30% loss must lose frames");
        assert!(retries > 0, "lost frames must trigger retries");
        assert_eq!(
            sum_labeled("world.lora_frames_lost_total"),
            lost,
            "per-gateway rows must partition the total"
        );
        assert_eq!(sum_labeled("world.lora_retries_total"), retries);
    }

    #[test]
    fn tracing_decomposes_exchanges_into_phases() {
        let result = World::new(WorkloadConfig::tiny(4, 51)).run();
        assert!(result.completed >= 4);
        let names: Vec<&str> = result.phases.iter().map(|(n, _)| n.as_str()).collect();
        for phase in [
            "request_uplink",
            "keygen",
            "key_downlink",
            "data_uplink",
            "gateway_forward",
            "escrow_publish",
            "confirmation_wait",
            "claim_and_decrypt",
        ] {
            assert!(names.contains(&phase), "missing phase {phase}: {names:?}");
        }
        // Every completed exchange contributes one sample per phase.
        for (name, series) in &result.phases {
            assert!(
                series.len() >= result.completed,
                "{name} has {} samples for {} exchanges",
                series.len(),
                result.completed
            );
        }
    }

    #[test]
    fn phases_partition_the_latency() {
        let mut fig5 = WorkloadConfig::paper_fig5();
        fig5.target_exchanges = 100;
        for cfg in [WorkloadConfig::tiny(4, 51), fig5] {
            let result = World::new(cfg).run();
            let n = result.completed;
            assert_eq!(counter(&result, "world.lora_retries_total"), 0);
            assert_eq!(result.phases.len(), Stage::NAMES.len());
            for (name, series) in &result.phases {
                assert_eq!(series.len(), n, "{name}: one sample per exchange");
            }
            // The latency starts as the key goes down, so the phases from
            // there on add up to it.
            let post_keygen: f64 = [
                "key_downlink",
                "data_uplink",
                "gateway_forward",
                "escrow_publish",
                "confirmation_wait",
                "claim_and_decrypt",
            ]
            .iter()
            .flat_map(|name| {
                let row = result.phases.iter().find(|(n, _)| n == name);
                row.expect("all eight phases reported").1.samples()
            })
            .sum();
            let total: f64 = result.latencies.samples().iter().sum();
            assert!(
                (post_keygen - total).abs() <= 1e-9 * n as f64,
                "phases sum to {post_keygen} s, latencies to {total} s"
            );
        }
    }

    #[test]
    fn a_retransmission_restarts_a_phase_and_is_not_counted_twice() {
        let result = World::new(lossy(WorkloadConfig::tiny(10, 1), 0.3)).run();
        let started = counter(&result, "world.exchanges_started_total") as usize;
        let retries = counter(&result, "world.lora_retries_total") as usize;
        assert!(retries > 0, "the loss must force retransmissions");
        for (name, series) in &result.phases {
            // A phase an exchange re-enters restarts, and a request resent
            // after the gateway heard one opens nothing: at most one
            // sample per exchange.
            assert!(
                series.len() <= started,
                "{name}: {} samples, {started} exchanges",
                series.len()
            );
        }
    }

    #[test]
    fn a_stage_restarts_on_reentry_and_closes_once() {
        let t = SimTime::from_micros;
        let mut phases: [Series; 8] = Default::default();
        let (mut a, mut b) = (ExchangeState::default(), ExchangeState::default());
        a.leave(Stage::KeyDownlink, t(5), &mut phases); // never entered
        a.enter(Stage::KeyDownlink, t(0));
        b.enter(Stage::KeyDownlink, t(10));
        a.enter(Stage::KeyDownlink, t(30)); // a resent key
        b.leave(Stage::KeyDownlink, t(25), &mut phases);
        a.leave(Stage::KeyDownlink, t(40), &mut phases);
        a.leave(Stage::KeyDownlink, t(50), &mut phases); // already left
        let key_downlink = Stage::KeyDownlink as usize;
        assert_eq!(phases[key_downlink].samples(), &[15e-6, 10e-6]);
        let mut others = phases
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != key_downlink);
        assert!(others.all(|(_, s)| s.is_empty()));
        assert!(Stage::NAMES.is_sorted(), "phases are reported by name");
    }

    #[test]
    fn metrics_snapshot_reflects_run_outcome() {
        let result = World::new(WorkloadConfig::tiny(5, 52)).run();
        let counter = |name: &str| counter(&result, name);
        assert_eq!(
            counter("world.exchanges_completed_total"),
            result.completed as u64
        );
        assert_eq!(
            counter("world.exchanges_failed_total"),
            result.failed as u64
        );
        assert_eq!(counter("world.blocks_mined_total"), result.blocks_mined);
        assert!(counter("wan.messages.tx_total") > 0, "escrow+claim gossip");
        assert!(counter("wan.bytes.deliver_total") > 0, "forwarded uplinks");
        assert!(counter("chain.blocks_connected_total") > 0);
        assert!(counter("mempool.accepted_total") >= 2 * result.completed as u64);
        assert!(counter("net.delivered_total") > 0);
        // The world-shared memo is folded once, so a miss is a *distinct*
        // script verification: one ECDSA spend (the escrow) and one
        // RSA-pair spend (the claim) per exchange, however many hosts
        // admitted and connected them; every other lookup is a hit.
        assert_eq!(result.failed, 0);
        assert_eq!(counter("validate.sigcache.miss"), result.completed as u64);
        assert_eq!(
            counter("validate.sigcache.rsa.miss"),
            result.completed as u64
        );
        assert!(counter("validate.sigcache.hit") > counter("validate.sigcache.miss"));
        assert!(counter("validate.sigcache.rsa.hit") > counter("validate.sigcache.rsa.miss"));
        let (_, latency) = result
            .metrics
            .histograms
            .iter()
            .find(|(n, _)| n == "world.exchange_latency_seconds")
            .expect("latency histogram registered");
        assert_eq!(latency.count, result.completed as u64);
        assert!(latency.p50 > 0.0);
    }

    #[test]
    fn confirmation_depth_adds_block_waits() {
        let mut base = WorkloadConfig::tiny(4, 13);
        base.chain_params.target_block_interval = SimDuration::from_secs(5);
        let zero_conf = World::new(base.clone()).run();

        let mut depth = base;
        depth.confirmation_depth = 2;
        let two_conf = World::new(depth).run();

        let zero_mean = zero_conf.latencies.summary().unwrap().mean;
        let two_mean = two_conf.latencies.summary().unwrap().mean;
        assert!(
            two_mean > zero_mean + 4.0,
            "2-conf should add ≥ a block interval: {zero_mean} vs {two_mean}"
        );
    }
}
