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

use crate::audit::{GatewayOutcome, SettlementAuditor};
use crate::costs::CostModel;
use crate::daemon::{Daemon, DaemonStats};
use crate::directory::IpAnnouncement;
use crate::escrow;
use crate::exchange::{seal_reading, SealedUplink};
use crate::fsm::{FsmConfig, FsmEvent, Phase};
use crate::node::{Misbehaviour, Node, NodeEnv, Note, Parcel, Terms};
use crate::provisioning::{mint_all, DeviceCredentials, DeviceId};
use crate::wire::{WanMessage, KIND_COUNT};
use bcwan_chain::{
    Address, Block, Chain, ChainParams, MempoolStats, OutPoint, SigCache, Transaction, TxOut,
    Wallet,
};
use bcwan_crypto::rsa::{RsaKeySize, RsaPublicKey};
use bcwan_lora::airtime::time_on_air;
use bcwan_lora::frame::LoraFrame;
use bcwan_lora::params::RadioConfig;
use bcwan_p2p::{ChainMessage, Delivery, FaultModel, Network, NodeId, Topology};
use bcwan_sim::{
    run, Actor, ChaosEngine, ChaosPlan, CounterId, EventQueue, HistogramId, LatencyModel, Metric,
    Registry, Series, SimDuration, SimRng, SimTime, Snapshot, SnapshotSeries, Tracer,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Workload and environment configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Actor hosts (gateway+recipient), excluding the master. Paper: 5.
    pub actor_hosts: u32,
    /// Sensors per actor host. Paper: 30.
    pub sensors_per_host: u32,
    /// Radio duty-cycle fraction. Paper: 0.01.
    pub duty_cycle: f64,
    /// Radio configuration. Paper: SF7.
    pub radio: RadioConfig,
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
    /// Escrow reward per delivered message.
    pub reward: u64,
    /// Transaction fee budgeted per transaction.
    pub fee: u64,
    /// Escrow confirmations the gateway waits for before revealing the
    /// key. Paper's PoC: 0 (discussed as a double-spend risk in §6).
    pub confirmation_depth: u64,
    /// RSA modulus for ephemeral keys. Paper: 512.
    pub rsa_size: RsaKeySize,
    /// WAN fault injection (drops / duplicates).
    pub faults: FaultModel,
    /// Probability each LoRa frame is lost (collision/fade). Lost frames
    /// trigger node-side timeouts and retransmissions (up to
    /// [`MAX_RADIO_RETRIES`]).
    pub lora_loss_probability: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Hard wall on simulated time (guards against stalls starving the
    /// run forever).
    pub max_sim_time: SimDuration,
    /// Record per-exchange phase spans through the sim-time [`Tracer`].
    /// Off by default: with tracing disabled every tracer call is a
    /// single branch, keeping `World::run` within its overhead budget.
    pub tracing: bool,
    /// Seeded fault schedule; [`ChaosPlan::none`] by default, so clean
    /// runs take a single `is_idle` branch per chaos query.
    pub chaos: ChaosPlan,
    /// Every node's deadline and retry policy (re-delivery, settlement
    /// watchdog, censorship suspicion).
    pub fsm: FsmConfig,
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
            duty_cycle: 0.01,
            radio: RadioConfig::paper_sf7(),
            target_exchanges: 2000,
            load_factor: 1.5,
            latency: LatencyModel::planetlab(),
            gossip_degree: None,
            chain_params: ChainParams::multichain_like(),
            costs: CostModel::pi_class(),
            reward: 10,
            fee: 1,
            confirmation_depth: 0,
            rsa_size: RsaKeySize::Rsa512,
            faults: FaultModel::none(),
            lora_loss_probability: 0.0,
            seed: 2018,
            max_sim_time: SimDuration::from_secs(24 * 3600),
            tracing: false,
            chaos: ChaosPlan::none(),
            fsm: FsmConfig::default(),
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
            duty_cycle: 0.01,
            radio: RadioConfig::paper_sf7(),
            target_exchanges,
            load_factor: 1.0,
            latency: LatencyModel::Constant(SimDuration::from_millis(20)),
            gossip_degree: None,
            chain_params: ChainParams::multichain_like(),
            costs: CostModel::zero(),
            reward: 10,
            fee: 1,
            confirmation_depth: 0,
            rsa_size: RsaKeySize::Rsa512,
            faults: FaultModel::none(),
            lora_loss_probability: 0.0,
            seed,
            max_sim_time: SimDuration::from_secs(24 * 3600),
            tracing: false,
            chaos: ChaosPlan::none(),
            fsm: FsmConfig::default(),
            refund_delta: escrow::REFUND_DELTA,
            escrow_coin_headroom: 64,
            store_dir: None,
            metrics_interval: None,
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

    /// Enables phase tracing (builder style).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
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
    /// Phase breakdown: ePk downlink + node crypto + data uplink
    /// (radio/node share of each latency sample).
    pub phase_radio: Series,
    /// Phase breakdown: gateway lookup + WAN forward + recipient verify.
    pub phase_forward: Series,
    /// Phase breakdown: escrow build/gossip + claim + decryption.
    pub phase_settlement: Series,
    /// Frozen metrics registry: `world.*`, `wan.*`, `daemon.*`,
    /// `chain.*`, `mempool.*`, and `net.*` rows (see EXPERIMENTS.md,
    /// "Reading the metrics").
    pub metrics: Snapshot,
    /// Tracer phase-duration series in seconds, sorted by phase name.
    /// Empty unless [`WorkloadConfig::tracing`] was set.
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

/// Retransmission budget per radio frame before the exchange aborts.
pub const MAX_RADIO_RETRIES: u32 = 3;

/// Events driving the world.
#[derive(Debug)]
enum Event {
    /// A sensor wants to start an exchange.
    SensorFire { sensor: usize },
    /// The node's uplink request reached the gateway (after airtime).
    RequestArrived { exchange: usize },
    /// The gateway finished generating the ephemeral keypair and sends
    /// the key downlink.
    KeySent { exchange: usize },
    /// The ephemeral key reached the node.
    KeyArrived { exchange: usize },
    /// The node's sealed data frame reached the gateway.
    DataArrived { exchange: usize },
    /// Node-side timeout: no ephemeral key arrived; retry the request.
    RequestTimeout { exchange: usize, attempt: u32 },
    /// Node-side timeout: the data frame may have been lost; resend.
    DataTimeout { exchange: usize, attempt: u32 },
    /// A WAN message arrived at a host.
    Wan(Delivery<Arc<Parcel>>),
    /// The master assembles and broadcasts the next block.
    MineTick,
    /// A host's earliest deadline came due: its watchdog runs.
    Wake { host: u32 },
    /// A crashed host comes back up (end of a chaos crash window).
    ChaosRestart { host: u32 },
}

/// What only the simulator knows about one in-flight exchange: who takes
/// part, the radio leg and the measurement marks. Keys, escrow, claim,
/// refund and the lifecycle machine live in the gateway's and
/// recipient's [`Node`]s, filed under this exchange's index as their tag.
struct ExchangeState {
    sensor: usize,
    gateway: u32, // actor index (1-based host id)
    home: u32,
    /// The session key, as the gateway sent it down.
    e_pk: Option<RsaPublicKey>,
    /// The sealed frame the sensor (re)transmits until the gateway
    /// accepts it and takes it over.
    uplink: Option<SealedUplink>,
    /// When the gateway sent ePk — the paper's measurement start.
    measure_start: Option<SimTime>,
    /// When the data uplink finished arriving at the gateway.
    data_at_gateway: Option<SimTime>,
    /// Whether the gateway already accepted a data frame (dedup retries).
    data_accepted: bool,
    /// When the recipient finished verifying the delivery (step 8).
    delivered: Option<SimTime>,
    /// Whether the recipient published the escrow: from then on only the
    /// chain ends the exchange.
    escrowed: bool,
    done: bool,
}

impl ExchangeState {
    /// Whether the sensor received the key: it seals immediately, so the
    /// sealed frame — or the gateway having taken it — is the node-side
    /// receipt indicator; `e_pk` alone only proves the *gateway*
    /// generated a key.
    fn sealed(&self) -> bool {
        self.uplink.is_some() || self.data_accepted
    }
}

struct Sensor {
    credentials: DeviceCredentials,
    home: u32,
    next_allowed: SimTime,
}

/// Hot-path metric handles, registered once at world construction.
struct Meters {
    wan_msgs: [CounterId; KIND_COUNT],
    wan_bytes: [CounterId; KIND_COUNT],
    latency: HistogramId,
    /// Settlement events a recipient's machine refused (0 in a correct
    /// run).
    illegal_transitions: CounterId,
    /// Gateway → recipient re-deliveries driven by the Sealed deadline.
    deliver_retries: CounterId,
    /// Escrow/claim/refund transactions a node re-published.
    rebroadcasts: CounterId,
    /// CLTV refunds the recipient submitted.
    refunds_submitted: CounterId,
    /// Recipients that saw two distinct key-revealing claims spend the
    /// same escrow (one per victimized exchange).
    equivocations_detected: CounterId,
    /// Censorship suspicions a node raised against a miner (one per
    /// settlement whose leave-outs crossed the threshold).
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

/// The simulation world: the hosts, and everything around them.
pub struct World {
    hosts: Vec<Node>, // index 0 = master, 1..=actor_hosts = actors
    sim: Sim,
}

/// What a simulator owns and a host does not: sensors and the radio
/// leg, the WAN model, the chaos engine, each host's pending wake-up,
/// and every instrument.
struct Sim {
    cfg: WorkloadConfig,
    rng: SimRng,
    sensors: Vec<Sensor>,
    exchanges: Vec<ExchangeState>,
    network: Network,
    latencies: Series,
    phase_radio: Series,
    phase_forward: Series,
    phase_settlement: Series,
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
    tracer: Tracer,
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
        // directory announcement per actor (seq 0) baked in.
        let coin_value = cfg.reward + 2 * cfg.fee;
        let coins_per_actor =
            (cfg.target_exchanges / cfg.actor_hosts as usize) as u64 + cfg.escrow_coin_headroom;
        let mut allocations = Vec::new();
        for wallet in wallets.iter().skip(1) {
            for _ in 0..coins_per_actor {
                allocations.push((wallet.address(), coin_value));
            }
        }
        let mut genesis_outputs: Vec<TxOut> = allocations
            .iter()
            .map(|(addr, value)| TxOut {
                value: *value,
                script_pubkey: bcwan_script::templates::p2pkh(&addr.0),
            })
            .collect();
        for (i, wallet) in wallets.iter().enumerate().skip(1) {
            genesis_outputs.push(IpAnnouncement::genesis(i, wallet.address()).to_output());
        }
        let genesis_cb = Transaction::coinbase(0, b"bcwan-genesis", genesis_outputs);
        let mut genesis_chain = Chain::new(
            cfg.chain_params.clone(),
            Block::mine(
                bcwan_chain::BlockHash::GENESIS_PREV,
                0,
                cfg.chain_params.difficulty_bits,
                vec![genesis_cb],
            ),
        );
        // Pre-mature the genesis coins with empty warm-up blocks so the
        // experiment starts with spendable balances (the paper's
        // bootstrap phase).
        for h in 1..=cfg.chain_params.coinbase_maturity {
            let cb = Transaction::coinbase(
                h,
                b"warmup",
                vec![TxOut {
                    value: cfg.chain_params.coinbase_reward,
                    script_pubkey: wallets[0].locking_script(),
                }],
            );
            let block = Block::mine(
                genesis_chain.tip(),
                h,
                cfg.chain_params.difficulty_bits,
                vec![cb],
            );
            genesis_chain.add_block(block).expect("warm-up block valid");
        }

        // Hosts share the bootstrapped chain, the exchange terms and the
        // address book an operator would hand each of them.
        let sig_cache = Arc::new(SigCache::default());
        let terms = Arc::new(Terms {
            costs: cfg.costs.clone(),
            reward: cfg.reward,
            fee: cfg.fee,
            confirmation_depth: cfg.confirmation_depth,
            refund_delta: cfg.refund_delta,
            rsa_size: cfg.rsa_size,
            fsm: cfg.fsm.clone(),
        });
        let address_book: Arc<[Address]> = wallets.iter().map(Wallet::address).collect();
        let mut hosts: Vec<Node> = Vec::with_capacity(n_hosts);
        for (i, wallet) in wallets.into_iter().enumerate() {
            let chain = match &cfg.store_dir {
                Some(root) => clone_chain_with_store(
                    &cfg.chain_params,
                    &genesis_chain,
                    &root.join(format!("host-{i}")),
                ),
                None => genesis_chain.fork(),
            };
            hosts.push(Node::new(
                NodeId(i as u32),
                wallet,
                Daemon::new(chain.with_sig_cache(sig_cache.clone())),
                rng.fork(i as u64 + 1),
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
        let sensors = devices
            .iter()
            .zip(mint_all(rngs))
            .map(|(&(actor, device_id), keys)| {
                let host = &mut hosts[actor as usize];
                let home_addr = host.wallet.address();
                Sensor {
                    credentials: host.registry.enroll(device_id, home_addr, keys),
                    home: actor,
                    next_allowed: SimTime::ZERO,
                }
            })
            .collect();

        // Workload pacing: the duty-cycle minimum interval for one full
        // exchange (request + data frames), scaled by load_factor.
        let request_air = time_on_air(&cfg.radio, 28);
        let data_air = time_on_air(&cfg.radio, 160);
        let per_exchange_air = request_air + data_air;
        let min_interval =
            SimDuration::from_secs_f64(per_exchange_air.as_secs_f64() / cfg.duty_cycle);
        let send_interval =
            SimDuration::from_secs_f64(min_interval.as_secs_f64() * cfg.load_factor);

        let topology = match cfg.gossip_degree {
            Some(degree) => ring_lattice(n_hosts as u32, degree),
            None => Topology::full_mesh(n_hosts as u32),
        };
        let network = Network::new(topology, cfg.latency.clone()).with_faults(cfg.faults.clone());

        let mut registry = Registry::new();
        let meters = Meters::register(&mut registry);
        let tracer = Tracer::new(cfg.tracing);
        let chaos = ChaosEngine::new(cfg.chaos.clone(), &mut registry);
        // Registering the auditor here (not at end-of-run) means every
        // snapshot and timeline frame carries explicit `invariant.*`
        // zeros, so a clean run *proves* it was audited.
        let auditor = SettlementAuditor::new(&mut registry);
        let adversarial: HashSet<u32> = cfg.chaos.adversarial_hosts().into_iter().collect();

        let timeline = cfg.metrics_interval.map(SnapshotSeries::new);

        let sim = Sim {
            rng,
            sensors,
            exchanges: Vec::new(),
            network,
            latencies: Series::new(),
            phase_radio: Series::new(),
            phase_forward: Series::new(),
            phase_settlement: Series::new(),
            completed: 0,
            failed: 0,
            started: 0,
            blocks_mined: 0,
            standby_blocks_mined: 0,
            send_interval,
            radio_by_gw: vec![RadioTally::default(); cfg.actor_hosts as usize],
            registry,
            meters,
            tracer,
            chaos,
            auditor,
            adversarial,
            censor_suspects: HashSet::new(),
            wakes: vec![None; n_hosts],
            restarts_warm: 0,
            restarts_cold: 0,
            timeline,
            sig_cache,
            cfg,
        };
        World { hosts, sim }
    }
    /// Runs the experiment to completion and reports.
    pub fn run(mut self) -> ExperimentResult {
        let mut queue: EventQueue<Event> = EventQueue::new();
        // Stagger sensor starts across one send interval.
        let n = self.sim.sensors.len().max(1);
        for sensor in 0..self.sim.sensors.len() {
            let offset = SimDuration::from_secs_f64(
                self.sim.send_interval.as_secs_f64() * (sensor as f64 / n as f64),
            );
            queue.schedule_at(SimTime::ZERO + offset, Event::SensorFire { sensor });
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
        let DaemonStats {
            stalls,
            total_stall,
            ..
        } = self.actor_daemons();
        let confirmed_txs = self.hosts[0]
            .daemon
            .chain
            .iter_main()
            .map(|b| b.transactions.len().saturating_sub(1))
            .sum();
        let app_readings = self.hosts.iter().map(|h| h.apps.total_readings()).sum();

        let phases: Vec<(String, Series)> = self
            .sim
            .tracer
            .phase_names()
            .into_iter()
            .filter_map(|name| {
                self.sim
                    .tracer
                    .durations(name)
                    .map(|s| (name.to_string(), s.clone()))
            })
            .collect();

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
        let (utxo_total, utxo_fingerprint) = {
            let utxo = self.hosts[0].daemon.chain.utxo();
            let total = utxo.iter().map(|(_, e)| e.output.value).sum();
            // Order-independent: XOR of per-entry FNV-1a hashes.
            let mut fp = 0u64;
            for (op, entry) in utxo.iter() {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                let mut eat = |bytes: &[u8]| {
                    for b in bytes {
                        h ^= u64::from(*b);
                        h = h.wrapping_mul(0x1_0000_01b3);
                    }
                };
                eat(&op.txid.0);
                eat(&op.vout.to_le_bytes());
                eat(&entry.output.value.to_le_bytes());
                fp ^= h;
            }
            (total, fp)
        };
        ExperimentResult {
            completed: self.sim.completed,
            failed: self.sim.failed,
            latencies: self.sim.latencies,
            sim_time,
            blocks_mined: self.sim.blocks_mined,
            standby_blocks_mined: self.sim.standby_blocks_mined,
            stalls,
            total_stall,
            confirmed_txs,
            app_readings,
            phase_radio: self.sim.phase_radio,
            phase_forward: self.sim.phase_forward,
            phase_settlement: self.sim.phase_settlement,
            metrics: self.sim.registry.snapshot(),
            phases,
            escrows_claimed: audit.claimed,
            escrows_refunded: audit.refunded,
            escrows_open: audit.open,
            invariant_violations: audit.violations,
            utxo_total,
            utxo_fingerprint,
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
    /// over the hosts that keep one, the shared verification memo, the
    /// tracer and the settlement census — so one snapshot describes the
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
        sim.tracer.export(reg);
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
        queue: &mut EventQueue<Event>,
        act: impl FnOnce(&mut Node, &mut dyn NodeEnv) -> R,
    ) -> R {
        let mut env = Env {
            sim: &mut self.sim,
            queue,
            me: host,
        };
        act(&mut self.hosts[host as usize], &mut env)
    }

    fn handle_request_arrived(
        &mut self,
        now: SimTime,
        exchange: usize,
        queue: &mut EventQueue<Event>,
    ) {
        let sim = &mut self.sim;
        let gateway = sim.exchanges[exchange].gateway;
        // A crashed gateway's radio does not answer; the node's timeout
        // retries until the gateway restarts or the budget runs out.
        if !sim.chaos.is_idle() && sim.chaos.host_down(gateway, now) {
            sim.registry.inc(sim.chaos.meters().crash_drops);
            return;
        }
        sim.tracer.span_end("request_uplink", exchange as u64, now);
        // A retransmitted request for an existing session resends the
        // same ephemeral key instead of generating a new one.
        if sim.exchanges[exchange].e_pk.is_some() {
            queue.schedule_at(now, Event::KeySent { exchange });
            return;
        }
        sim.tracer.span_start("keygen", exchange as u64, now);
        // Real keygen on the gateway CPU.
        let (e_pk, done) = self.hosts[gateway as usize].open_session(now, exchange as u64);
        sim.exchanges[exchange].e_pk = Some(e_pk);
        queue.schedule_at(done, Event::KeySent { exchange });
    }

    fn handle_data_arrived(
        &mut self,
        now: SimTime,
        exchange: usize,
        queue: &mut EventQueue<Event>,
    ) {
        let sim = &mut self.sim;
        let ex = &mut sim.exchanges[exchange];
        if ex.data_accepted || ex.done {
            return; // duplicate of a retransmitted frame
        }
        let (gateway, home) = (ex.gateway, ex.home);
        if !sim.chaos.is_idle() && sim.chaos.host_down(gateway, now) {
            sim.registry.inc(sim.chaos.meters().crash_drops);
            return; // frame unheard; the node's data timeout resends
        }
        ex.data_accepted = true;
        ex.data_at_gateway = Some(now);
        sim.tracer.span_end("data_uplink", exchange as u64, now);
        sim.tracer
            .span_start("gateway_forward", exchange as u64, now);
        let uplink = ex.uplink.take().expect("sealed before it flew");
        // The frame names the device and its recipient's address; the
        // gateway looks the address up in its directory (§4.3).
        let credentials = &sim.sensors[ex.sensor].credentials;
        let (device_id, recipient) = (credentials.device_id, credentials.recipient);
        let to = (NodeId(home), &recipient);
        let forwarded = self.at_host(gateway, queue, |node, env| {
            node.forward_uplink(now, exchange as u64, to, device_id, uplink, env)
        });
        if !forwarded {
            self.sim.abort_exchange(exchange);
        }
    }

    fn handle_wan(
        &mut self,
        now: SimTime,
        delivery: Delivery<Arc<Parcel>>,
        queue: &mut EventQueue<Event>,
    ) {
        let to = delivery.to.0;
        // A message can be in flight when its receiver crashes; it is
        // lost on arrival, not retroactively.
        if !self.sim.chaos.is_idle() && self.sim.chaos.host_down(to, now) {
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
    fn handle_chaos_restart(&mut self, now: SimTime, host: u32, queue: &mut EventQueue<Event>) {
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
                    bcwan_chain::StoreConfig::default(),
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
    fn handle_wake(&mut self, now: SimTime, host: u32, queue: &mut EventQueue<Event>) {
        let wake = &mut self.sim.wakes[host as usize];
        if *wake != Some(now) {
            return;
        }
        *wake = None;
        let chaos = &self.sim.chaos;
        if !chaos.is_idle() && chaos.host_down(host, now) {
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
        if self.sim.chaos.is_idle() && self.sim.censor_suspects.is_empty() {
            return Some(0);
        }
        let mut best: Option<(u64, u32)> = None;
        let mut best_clean: Option<(u64, u32)> = None;
        for (i, h) in self.hosts.iter().enumerate() {
            let id = i as u32;
            if self.sim.chaos.host_down(id, now) {
                continue;
            }
            let height = h.height();
            if best.is_none_or(|(best_h, _)| height > best_h) {
                best = Some((height, id));
            }
            if !self.sim.censor_suspects.contains(&id)
                && best_clean.is_none_or(|(best_h, _)| height > best_h)
            {
                best_clean = Some((height, id));
            }
        }
        best_clean.or(best).map(|(_, id)| id)
    }

    fn handle_mine_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
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
    fn mine_block(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
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
        if !sim.chaos.is_idle() {
            if let Some(depth) = sim.chaos.take_fork(now) {
                self.mine_fork(now, miner, depth, queue);
                return;
            }
        }
        // Byzantine censorship: a miner inside its CensorClaims window
        // silently excludes every settlement transaction — anything
        // spending a known escrow outpoint, claim and refund alike —
        // from its template. The pool keeps them (censorship is not
        // eviction), so an honest miner taking over mines them at once.
        let mut escrow_ops: HashSet<OutPoint> = HashSet::new();
        if !sim.chaos.is_idle() && sim.chaos.censoring_miner(miner, now) {
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
        let mined = self.at_host(miner, queue, |node, env| {
            node.mine(now, tag, &escrow_ops, env)
        });
        if mined.is_some() {
            self.sim.blocks_mined += 1;
            if miner != 0 {
                self.sim.standby_blocks_mined += 1;
            } else {
                self.audit_master();
            }
        }
    }

    /// Mines `depth + 1` empty blocks on top of the block `depth` below
    /// the acting miner's tip, overtaking the main chain and triggering
    /// a reorg everywhere. The miner's own mempool repair re-pools the
    /// orphaned transactions, so settlements re-confirm on the new
    /// branch through normal mining.
    fn mine_fork(&mut self, now: SimTime, miner: u32, depth: u32, queue: &mut EventQueue<Event>) {
        self.sim.registry.inc(self.sim.chaos.meters().forks);
        let node = &self.hosts[miner as usize];
        let (params, height) = (node.daemon.chain.params().clone(), node.height());
        let reward = TxOut {
            value: params.coinbase_reward,
            script_pubkey: node.wallet.locking_script(),
        };
        let depth = u64::from(depth).min(height);
        let fork_height = height - depth;
        let mut parent = node
            .daemon
            .chain
            .block_at(fork_height)
            .expect("fork point on main chain")
            .hash();
        for i in 0..=depth {
            let coinbase =
                Transaction::coinbase(fork_height + 1 + i, b"fork", vec![reward.clone()]);
            let block = Block::mine(
                parent,
                now.as_micros() + i,
                params.difficulty_bits,
                vec![coinbase],
            );
            parent = block.hash();
            if !self.at_host(miner, queue, |node, env| {
                node.connect_fork_block(now, block, env)
            }) {
                return;
            }
            self.sim.blocks_mined += 1;
            if miner != 0 {
                self.sim.standby_blocks_mined += 1;
            }
        }
        if miner == 0 {
            self.audit_master();
        }
    }
}

impl Sim {
    fn next_block_delay(&mut self) -> SimDuration {
        let mean = self.cfg.chain_params.target_block_interval.as_secs_f64();
        SimDuration::from_secs_f64(self.rng.exponential(mean))
    }

    fn airtime(&self, phy_len: usize) -> SimDuration {
        time_on_air(&self.cfg.radio, phy_len)
    }

    /// Floods a chain message from `from` to all its peers.
    fn flood(
        &mut self,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        from: u32,
        parcel: &Arc<Parcel>,
    ) {
        let deliveries = self.network.broadcast(&mut self.rng, NodeId(from), parcel);
        // Chaos: block propagation can be artificially delayed.
        let extra = if self.chaos.is_idle() {
            SimDuration::ZERO
        } else if matches!(parcel.msg, WanMessage::Chain(ChainMessage::Block(_))) {
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
            if self.chaos_drops(at, from, delivery.to.0) {
                continue;
            }
            copies += 1;
            queue.schedule_at(at + delay + extra, Event::Wan(delivery));
        }
        self.count_wan(parcel, copies);
    }

    /// Broadcasts `parcel` to the peers whose host id has the given parity
    /// only — the equivocator's tool for showing each half of the
    /// overlay a different claim. Draws the same per-delivery latency
    /// samples as a full [`Self::flood`], so the RNG stream (and with
    /// it same-seed determinism) is unaffected by the filtering.
    fn flood_parity(
        &mut self,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        from: u32,
        parcel: &Arc<Parcel>,
        parity: u32,
    ) {
        let deliveries = self.network.broadcast(&mut self.rng, NodeId(from), parcel);
        let mut copies = 0;
        for (delay, delivery) in deliveries {
            if delivery.to.0 % 2 != parity {
                continue;
            }
            if self.chaos_drops(at, from, delivery.to.0) {
                continue;
            }
            copies += 1;
            queue.schedule_at(at + delay, Event::Wan(delivery));
        }
        self.count_wan(parcel, copies);
    }

    /// Whether chaos kills a message on the `from → to` overlay link at
    /// `at` (crashed endpoint, partition cut, or an armed connection
    /// kill). Counts the drop it attributes.
    fn chaos_drops(&mut self, at: SimTime, from: u32, to: u32) -> bool {
        if self.chaos.is_idle() {
            return false;
        }
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
    fn unicast(
        &mut self,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        from: u32,
        to: u32,
        msg: WanMessage,
    ) {
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

    /// Samples LoRa frame loss on `gateway`'s radio (chaos bursts
    /// override the base rate when stronger). Always consumes exactly
    /// one draw.
    fn frame_lost(&mut self, now: SimTime, gateway: u32) -> bool {
        let base = self.cfg.lora_loss_probability;
        let boost = if self.chaos.is_idle() {
            0.0
        } else {
            self.chaos.lora_loss_boost(now)
        };
        let lost = self.rng.chance(base.max(boost));
        if lost {
            self.radio_by_gw[gateway as usize - 1].frames_lost += 1;
            if boost > base {
                self.registry.inc(self.chaos.meters().lora_drops);
            }
        }
        lost
    }

    /// Puts the request frame on the air and arms the retry timer.
    fn send_request(
        &mut self,
        now: SimTime,
        exchange: usize,
        attempt: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let request_air = self.airtime(28);
        let gateway = self.exchanges[exchange].gateway;
        self.tracer
            .span_start("request_uplink", exchange as u64, now);
        if !self.frame_lost(now, gateway) {
            queue.schedule_at(now + request_air, Event::RequestArrived { exchange });
        }
        // Retry timer: downlink should be back within a couple of seconds.
        queue.schedule_at(
            now + request_air + SimDuration::from_secs(3),
            Event::RequestTimeout { exchange, attempt },
        );
    }

    /// Puts the data frame on the air and arms the retry timer.
    fn send_data(
        &mut self,
        now: SimTime,
        exchange: usize,
        attempt: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let data_air = self.airtime(160);
        let gateway = self.exchanges[exchange].gateway;
        if !self.frame_lost(now, gateway) {
            queue.schedule_at(now + data_air, Event::DataArrived { exchange });
        }
        queue.schedule_at(
            now + data_air + SimDuration::from_secs(8),
            Event::DataTimeout { exchange, attempt },
        );
    }

    fn handle_request_timeout(
        &mut self,
        now: SimTime,
        exchange: usize,
        attempt: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let ex = &self.exchanges[exchange];
        if ex.done || ex.sealed() {
            return;
        }
        if attempt >= MAX_RADIO_RETRIES {
            self.abort_exchange(exchange);
            return;
        }
        self.count_gateway_retry(exchange);
        self.send_request(now, exchange, attempt + 1, queue);
    }

    fn handle_data_timeout(
        &mut self,
        now: SimTime,
        exchange: usize,
        attempt: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let ex = &self.exchanges[exchange];
        // The gateway got the frame (or the exchange resolved): done.
        if ex.done || ex.data_accepted {
            return;
        }
        if attempt >= MAX_RADIO_RETRIES {
            self.abort_exchange(exchange);
            return;
        }
        self.count_gateway_retry(exchange);
        self.send_data(now, exchange, attempt + 1, queue);
    }

    /// Tallies a radio retransmission against the exchange's gateway.
    fn count_gateway_retry(&mut self, exchange: usize) {
        let gateway = self.exchanges[exchange].gateway;
        self.radio_by_gw[gateway as usize - 1].retries += 1;
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

    fn handle_sensor_fire(
        &mut self,
        now: SimTime,
        sensor_idx: usize,
        queue: &mut EventQueue<Event>,
    ) {
        // Keep initiating until the target number of *completions* is in;
        // allow some overshoot in flight.
        if self.started < self.cfg.target_exchanges {
            let sensor = &self.sensors[sensor_idx];
            if now >= sensor.next_allowed {
                // Pick a foreign gateway uniformly.
                let home = sensor.home;
                let gateway = loop {
                    let g = self.rng.index(self.cfg.actor_hosts as usize) as u32 + 1;
                    if g != home || self.cfg.actor_hosts == 1 {
                        break g;
                    }
                };
                let exchange = self.exchanges.len();
                self.exchanges.push(ExchangeState {
                    sensor: sensor_idx,
                    gateway,
                    home,
                    e_pk: None,
                    uplink: None,
                    measure_start: None,
                    data_at_gateway: None,
                    data_accepted: false,
                    delivered: None,
                    escrowed: false,
                    done: false,
                });
                self.started += 1;
                // Duty bookkeeping for the whole exchange.
                let air = self.airtime(28) + self.airtime(160);
                let off = SimDuration::from_secs_f64(air.as_secs_f64() / self.cfg.duty_cycle);
                self.sensors[sensor_idx].next_allowed = now + off;
                // Request frame flies (with loss + retry semantics).
                self.send_request(now, exchange, 0, queue);
            }
            // Schedule the next initiation.
            let gap =
                SimDuration::from_secs_f64(self.rng.exponential(self.send_interval.as_secs_f64()));
            queue.schedule_in(gap, Event::SensorFire { sensor: sensor_idx });
        }
    }

    fn handle_key_sent(&mut self, now: SimTime, exchange: usize, queue: &mut EventQueue<Event>) {
        // Paper's measurement starts here: the gateway's first message.
        // Retransmissions keep the original start.
        if self.exchanges[exchange].measure_start.is_none() {
            self.exchanges[exchange].measure_start = Some(now);
            self.tracer.span_end("keygen", exchange as u64, now);
        }
        self.tracer.span_start("key_downlink", exchange as u64, now);
        let e_pk = self.exchanges[exchange]
            .e_pk
            .as_ref()
            .expect("keygen done")
            .clone();
        let frame = LoraFrame::DownlinkEphemeralKey {
            device_id: self.sensors[self.exchanges[exchange].sensor]
                .credentials
                .device_id
                .0,
            public_key: e_pk.to_bytes(),
        };
        let air = self.airtime(frame.phy_len());
        let gateway = self.exchanges[exchange].gateway;
        if !self.frame_lost(now, gateway) {
            queue.schedule_at(now + air, Event::KeyArrived { exchange });
        }
        // A lost downlink surfaces as the node's request timeout, which
        // resends the request; the gateway reuses the same session.
    }

    fn handle_key_arrived(&mut self, now: SimTime, exchange: usize, queue: &mut EventQueue<Event>) {
        let ex = &self.exchanges[exchange];
        if ex.sealed() {
            return; // duplicate key downlink (retry path); data already sent
        }
        self.tracer.span_end("key_downlink", exchange as u64, now);
        self.tracer.span_start("data_uplink", exchange as u64, now);
        let ex = &self.exchanges[exchange];
        let sensor = &self.sensors[ex.sensor];
        let e_pk = ex.e_pk.as_ref().expect("key present");
        // Node CPU: AES + RSA wrap + sign (real crypto).
        let mut reading = Vec::with_capacity(15);
        reading.extend_from_slice(b"t=");
        reading.extend_from_slice(&(exchange as u32).to_le_bytes());
        reading.extend_from_slice(b";h=40%");
        let mut node_rng = self.rng.fork(0x5e_000 + exchange as u64);
        let sealed = seal_reading(&mut node_rng, &sensor.credentials, e_pk, &reading)
            .expect("reading fits RSA block");
        let node_cost = self.cfg.costs.node_encrypt + self.cfg.costs.node_sign;
        self.exchanges[exchange].uplink = Some(sealed);
        self.send_data(now + node_cost, exchange, 0, queue);
    }

    /// Keeps the simulator's books in step with what a host just did.
    fn note(&mut self, at: SimTime, exchange: usize, note: Note) {
        let id = exchange as u64;
        let ex = &mut self.exchanges[exchange];
        match note {
            Note::Abort => self.abort_exchange(exchange),
            Note::Delivered => {
                ex.delivered = Some(at);
                self.tracer.span_end("gateway_forward", id, at);
            }
            Note::EscrowPublished(outpoint) => {
                let publish = at.saturating_duration_since(ex.delivered.unwrap_or(at));
                self.tracer.record_span("escrow_publish", publish);
                self.tracer.span_start("confirmation_wait", id, at);
                // The auditor watches the escrow from birth: any
                // main-chain spend of it is now classified and
                // revenue-attributed.
                let adversarial = self.adversarial.contains(&ex.gateway);
                self.auditor
                    .watch(outpoint, exchange, ex.gateway, adversarial);
                ex.escrowed = true;
            }
            Note::Claiming => {
                self.tracer.span_end("confirmation_wait", id, at);
                self.tracer.span_start("claim_and_decrypt", id, at);
            }
            Note::Opened => {
                ex.done = true;
                self.completed += 1;
                self.tracer.span_end("claim_and_decrypt", id, at);
                if let Some(start) = ex.measure_start {
                    let total = at.saturating_duration_since(start).as_secs_f64();
                    self.latencies.record(total);
                    self.registry.observe(self.meters.latency, total);
                    if let (Some(at_gw), Some(delivered)) = (ex.data_at_gateway, ex.delivered) {
                        self.phase_radio
                            .record(at_gw.saturating_duration_since(start).as_secs_f64());
                        self.phase_forward
                            .record(delivered.saturating_duration_since(at_gw).as_secs_f64());
                        self.phase_settlement
                            .record(at.saturating_duration_since(delivered).as_secs_f64());
                    }
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
            Note::Rebroadcast(_) => self.registry.inc(self.meters.rebroadcasts),
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
    queue: &'a mut EventQueue<Event>,
    /// The host this environment is bound to.
    me: u32,
}

impl NodeEnv for Env<'_> {
    fn flood(&mut self, at: SimTime, parcel: &Arc<Parcel>) {
        self.sim.flood(self.queue, at, self.me, parcel);
    }

    fn unicast(&mut self, at: SimTime, to: NodeId, msg: WanMessage) {
        self.sim.unicast(self.queue, at, self.me, to.0, msg);
    }

    fn flood_split(&mut self, at: SimTime, claim: &Arc<Parcel>, rival: &Arc<Parcel>) {
        // Counted only once both conflicting claims are live: the
        // session is gone, so this runs once per exchange.
        let sim = &mut *self.sim;
        sim.registry.inc(sim.chaos.meters().equivocations);
        sim.flood_parity(self.queue, at, self.me, claim, 0);
        sim.flood_parity(self.queue, at, self.me, rival, 1);
    }

    fn note(&mut self, at: SimTime, tag: u64, note: Note) {
        self.sim.note(at, tag as usize, note);
    }

    /// Which exchange is this? Simulation-level bookkeeping only (the
    /// protocol itself keys on device + ephemeral key). Looked up
    /// regardless of progress so a re-delivered copy is recognized, and
    /// never double-counted.
    fn delivery(&mut self, e_pk_bytes: &[u8]) -> Option<u64> {
        let me = self.me;
        let found = self.sim.exchanges.iter().position(|ex| {
            ex.home == me
                && ex
                    .e_pk
                    .as_ref()
                    .is_some_and(|pk| pk.to_bytes() == e_pk_bytes)
        });
        let Some(exchange) = found else {
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
        if sim.chaos.is_idle() {
            return false;
        }
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

/// A ring lattice: every node links to its `degree` nearest neighbours
/// (`degree/2` on each side, minimum one hop). `O(n·degree)` links keep
/// 1 000-host fleets constructible where a full mesh would need half a
/// million; gossip still reaches everyone through re-flooding, in
/// `O(n/degree)` hops worst case.
fn ring_lattice(n: u32, degree: u32) -> Topology {
    let mut topology = Topology::empty(n);
    if n < 2 {
        return topology;
    }
    let half = (degree / 2).max(1).min(n.saturating_sub(1) / 2 + 1);
    for i in 0..n {
        for hop in 1..=half {
            topology.connect(NodeId(i), NodeId((i + hop) % n));
        }
    }
    topology
}

/// Rebuilds the bootstrapped chain for one host over a fresh persistent
/// store at `dir`. Unlike [`Chain::fork`] this replays: every host must
/// write the genesis and warm-up records into its own directory, so a
/// later crash-restart can reopen the chain instead of keeping memory.
fn clone_chain_with_store(params: &ChainParams, source: &Chain, dir: &std::path::Path) -> Chain {
    let mut blocks = source.iter_main().cloned();
    let mut chain = Chain::create_with_store(
        params.clone(),
        blocks.next().expect("genesis"),
        dir,
        bcwan_chain::StoreConfig::default(),
    )
    .expect("host store directory writable");
    for block in blocks {
        chain.add_block(block).expect("bootstrap blocks valid");
    }
    chain
}

impl Actor<Event> for World {
    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::SensorFire { sensor } => self.sim.handle_sensor_fire(now, sensor, queue),
            Event::RequestArrived { exchange } => self.handle_request_arrived(now, exchange, queue),
            Event::KeySent { exchange } => self.sim.handle_key_sent(now, exchange, queue),
            Event::KeyArrived { exchange } => self.sim.handle_key_arrived(now, exchange, queue),
            Event::DataArrived { exchange } => self.handle_data_arrived(now, exchange, queue),
            Event::RequestTimeout { exchange, attempt } => self
                .sim
                .handle_request_timeout(now, exchange, attempt, queue),
            Event::DataTimeout { exchange, attempt } => {
                self.sim.handle_data_timeout(now, exchange, attempt, queue)
            }
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
    fn ring_lattice_shape() {
        let topo = ring_lattice(10, 6);
        for i in 0..10u32 {
            // Degree 6: three neighbours each side.
            assert_eq!(topo.peers_of(NodeId(i)).len(), 6, "node {i}");
        }
        assert!(topo.linked(NodeId(0), NodeId(3)));
        assert!(!topo.linked(NodeId(0), NodeId(5)));
        // Degenerate sizes stay connected.
        let tiny = ring_lattice(2, 6);
        assert!(tiny.linked(NodeId(0), NodeId(1)));
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
        let mut cfg = WorkloadConfig::tiny(6, 31);
        cfg.lora_loss_probability = 0.2;
        let result = World::new(cfg).run();
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
        let mut cfg = WorkloadConfig::tiny(3, 32);
        cfg.lora_loss_probability = 1.0;
        let result = World::new(cfg).run();
        assert_eq!(result.completed, 0);
        assert_eq!(result.failed, 3, "every exchange aborts after retries");
    }

    #[test]
    fn per_gateway_radio_rows_sum_to_totals() {
        let mut cfg = WorkloadConfig::tiny(10, 35);
        cfg.lora_loss_probability = 0.3;
        let result = World::new(cfg).run();
        let counter = |name: &str| {
            result
                .metrics
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
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
    fn phase_breakdown_sums_to_total() {
        let cfg = WorkloadConfig::tiny(5, 33);
        let result = World::new(cfg).run();
        assert_eq!(result.phase_radio.len(), result.completed);
        for i in 0..result.completed {
            let total = result.latencies.samples()[i];
            let parts = result.phase_radio.samples()[i]
                + result.phase_forward.samples()[i]
                + result.phase_settlement.samples()[i];
            assert!((total - parts).abs() < 1e-6, "{total} vs {parts}");
        }
    }

    #[test]
    fn tracing_decomposes_exchanges_into_phases() {
        let result = World::new(WorkloadConfig::tiny(4, 51).with_tracing()).run();
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
        // No stray span bookkeeping on the happy path.
        let unmatched = result
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == "trace.unmatched_ends_total")
            .map(|(_, v)| *v);
        assert_eq!(unmatched, Some(0));
    }

    #[test]
    fn tracing_off_leaves_phases_empty_and_results_identical() {
        let traced = World::new(WorkloadConfig::tiny(4, 51).with_tracing()).run();
        let plain = World::new(WorkloadConfig::tiny(4, 51)).run();
        assert!(plain.phases.is_empty());
        // Tracing is observation only: same simulation either way.
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.latencies.samples(), traced.latencies.samples());
    }

    #[test]
    fn metrics_snapshot_reflects_run_outcome() {
        let result = World::new(WorkloadConfig::tiny(5, 52)).run();
        let counter = |name: &str| {
            result
                .metrics
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
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
