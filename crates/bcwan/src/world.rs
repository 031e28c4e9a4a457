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

use crate::app_server::{AppRouter, AppServer, AppServerId};
use crate::audit::{GatewayOutcome, SettlementAuditor};
use crate::costs::CostModel;
use crate::daemon::Daemon;
use crate::directory::{Directory, IpAnnouncement, NetAddr};
use crate::escrow::{self, Escrow};
use crate::exchange::{open_reading, seal_reading, verify_uplink, SealedUplink};
use crate::fsm::{ExchangeFsm, FsmConfig, FsmEvent, Phase};
use crate::provisioning::{DeviceCredentials, DeviceId, DeviceRegistry};
use crate::wire::{WanMessage, KIND_COUNT};
use bcwan_chain::{
    Block, BlockAction, BlockHash, Chain, ChainParams, OutPoint, SigCache, Transaction, TxId,
    TxOut, Wallet,
};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_lora::airtime::time_on_air;
use bcwan_lora::collision::{workload_success_probability, LoadKey, OfferedLoads};
use bcwan_lora::frame::{LoraFrame, ADDRESS_LEN};
use bcwan_lora::params::RadioConfig;
use bcwan_p2p::{ChainMessage, Delivery, FaultModel, Network, NodeId, Topology};
use bcwan_script::Script;
use bcwan_sim::{
    run, Actor, ChaosEngine, ChaosPlan, CounterId, EventQueue, HistogramId, LatencyModel, Registry,
    Series, SimDuration, SimRng, SimTime, Snapshot, SnapshotSeries, Tracer,
};
use std::collections::{HashMap, HashSet};
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
    /// relying on re-flooding to propagate gossip. Catch-up sync then
    /// targets the best *linked* peer (the master when reachable).
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
    /// Derive an *additional* per-gateway loss probability from the
    /// analytic ALOHA contention model: each gateway's sensors offer
    /// load on their `(channel, SF)` key, and frames fail with
    /// `1 − e^(−2G)` on top of `lora_loss_probability`. Off by default
    /// so existing experiments keep their calibrated loss rates.
    pub lora_contention: bool,
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
    /// Per-exchange deadline and retry policy.
    pub fsm: FsmConfig,
    /// Blocks until the escrow's CLTV refund branch opens. The paper's
    /// Listing 1 uses 100; chaos soaks shrink it so a withheld claim
    /// reaches the refund branch within a short run.
    pub refund_delta: u64,
    /// Extra escrow-sized genesis coins allocated per actor beyond the
    /// even `target_exchanges` split, absorbing workload skew. The
    /// classic presets keep 64; the fleet preset shrinks it to 4 —
    /// every genesis coin lands in all 1 000+ per-host UTXO clones, so
    /// headroom is the knob that decides whether a big fleet fits in
    /// memory.
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
            lora_contention: false,
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
            lora_contention: false,
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

    /// Adds analytic ALOHA contention loss on top of the flat rate
    /// (builder style; see [`WorkloadConfig::lora_contention`]).
    pub fn with_lora_contention(mut self) -> Self {
        self.lora_contention = true;
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
    /// A per-exchange FSM deadline expired. `seq` is the stamp the
    /// deadline was armed with; a mismatch means the exchange moved on
    /// and the event is stale.
    FsmDeadline { exchange: usize, seq: u32 },
    /// A crashed host comes back up (end of a chaos crash window).
    ChaosRestart { host: u32 },
}

/// A WAN message as the simulator carries it: stamped once where it
/// originates with what every hop would otherwise recompute, then shared
/// by all copies in flight — fan-out is a refcount bump, and a duplicate
/// delivery costs a hash-set probe on `id` instead of a serialization
/// and a double SHA-256. Hosts are simulated in one address space, so
/// sharing the bytes changes nothing a host can observe.
#[derive(Debug)]
struct Parcel {
    msg: WanMessage,
    /// Flood-dedup id (txid or block hash); `None` for request/response
    /// traffic, which is never re-flooded.
    id: Option<[u8; 32]>,
    wire_size: usize,
}

impl Parcel {
    fn new(msg: WanMessage) -> Arc<Self> {
        let id = match &msg {
            WanMessage::Chain(cm) => cm.flood_id(),
            WanMessage::Deliver { .. } => None,
        };
        let wire_size = msg.wire_size();
        Arc::new(Parcel { msg, id, wire_size })
    }

    fn tx(tx: Transaction) -> Arc<Self> {
        Self::new(WanMessage::Chain(ChainMessage::Tx(tx)))
    }

    fn block(block: Block) -> Arc<Self> {
        Self::new(WanMessage::Chain(ChainMessage::Block(block)))
    }

    /// The stamped id of a transaction or block parcel.
    fn flood_id(&self) -> [u8; 32] {
        self.id.expect("transaction and block parcels carry an id")
    }
}

/// State of one in-flight exchange.
struct ExchangeState {
    sensor: usize,
    gateway: u32, // actor index (1-based host id)
    home: u32,
    e_pk: Option<RsaPublicKey>,
    uplink: Option<SealedUplink>,
    /// When the gateway sent ePk — the paper's measurement start.
    measure_start: Option<SimTime>,
    /// When the data uplink finished arriving at the gateway.
    data_at_gateway: Option<SimTime>,
    /// Whether the gateway already accepted a data frame (dedup retries).
    data_accepted: bool,
    /// When the recipient finished verifying the delivery (step 8).
    delivered: Option<SimTime>,
    escrow: Option<Escrow>,
    /// The gateway's signed claim, kept for re-broadcast after a reorg
    /// orphans it (it stays valid as long as the escrow output exists).
    claim: Option<Transaction>,
    /// The recipient's signed CLTV refund, once built.
    refund: Option<Transaction>,
    /// First key-revealing claim txid the recipient saw spend this
    /// escrow; a second *distinct* one is an equivocation.
    seen_claim_txid: Option<TxId>,
    /// Whether this exchange's equivocation was already counted.
    equivocation_detected: bool,
    /// Consecutive settlement sweeps with our claim/refund pooled at
    /// the acting miner but unconfirmed (censorship suspicion).
    censor_sweeps: u32,
    /// The lifecycle machine driving deadlines and settlement.
    fsm: ExchangeFsm,
    done: bool,
}

struct Sensor {
    credentials: DeviceCredentials,
    home: u32,
    next_allowed: SimTime,
}

struct Host {
    wallet: Wallet,
    daemon: Daemon,
    directory: Directory,
    registry: DeviceRegistry,
    /// Coins reserved for in-flight escrows.
    reserved: HashSet<OutPoint>,
    /// Gateway sessions: serialized ePk → (exchange, eSk).
    sessions: HashMap<Vec<u8>, (usize, RsaPrivateKey)>,
    /// Escrows seen but awaiting confirmation depth: (exchange, escrow txid).
    awaiting_conf: Vec<(usize, TxId)>,
    /// Recipient side: escrow outpoint → exchange awaiting the key reveal.
    pending_open: HashMap<OutPoint, usize>,
    /// Recipient side: escrow outpoint → exchange, kept for the whole
    /// run so block connects/disconnects can be classified as claim,
    /// refund, or orphaning thereof in O(inputs).
    settle_watch: HashMap<OutPoint, usize>,
    /// Blocks whose parent has not arrived yet, keyed by parent hash.
    orphans: HashMap<BlockHash, Vec<Arc<Parcel>>>,
    /// When this host last asked a peer for missing blocks
    /// (rate-limits orphan-triggered sync requests).
    last_sync_req: Option<SimTime>,
    /// Tip height when the last catch-up request was sent, to detect
    /// requests that made no progress.
    last_sync_height: u64,
    /// In-progress headers-first catch-up (§5.1): locate the fork with
    /// header batches, then stripe body batches across live peers. The
    /// machine's doubling look-behind replaces the old blind
    /// `sync_back` rewind of `GetBlocksFrom` requests.
    header_sync: Option<crate::sync::HeaderSync>,
    /// The recipient's application servers (final hop, Figs. 1–2).
    apps: AppRouter,
    /// Host CPU (node-facing work: keygen, verification) — the radio side
    /// of the Pi, serialized like the daemon.
    cpu_busy_until: SimTime,
    rng: SimRng,
}

impl Host {
    fn occupy_cpu(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.cpu_busy_until);
        let done = start + cost;
        self.cpu_busy_until = done;
        done
    }

    /// Selects and reserves a mature coin worth at least `amount`.
    fn reserve_coin(&mut self, amount: u64) -> Option<(OutPoint, Script, u64)> {
        let script = self.wallet.locking_script();
        let height = self.daemon.chain.height();
        let maturity = self.daemon.chain.params().coinbase_maturity;
        let mut choice: Option<(OutPoint, u64)> = None;
        for (op, entry) in self.daemon.chain.utxo().iter() {
            if entry.output.script_pubkey != script {
                continue;
            }
            if entry.coinbase && height < entry.height + maturity {
                continue;
            }
            if entry.output.value < amount || self.reserved.contains(op) {
                continue;
            }
            // Prefer the smallest sufficient coin, deterministically.
            match choice {
                Some((best_op, best_v)) if (entry.output.value, *op) >= (best_v, best_op) => {}
                _ => choice = Some((*op, entry.output.value)),
            }
        }
        let (op, value) = choice?;
        self.reserved.insert(op);
        Some((op, script, value))
    }
}

/// Hot-path metric handles, registered once at world construction.
struct Meters {
    frames_lost: CounterId,
    radio_retries: CounterId,
    wan_msgs: [CounterId; KIND_COUNT],
    wan_bytes: [CounterId; KIND_COUNT],
    latency: HistogramId,
    /// FSM events rejected as illegal transitions (0 in a correct run).
    illegal_transitions: CounterId,
    /// Gateway → recipient re-deliveries driven by the Sealed deadline.
    deliver_retries: CounterId,
    /// Escrow/claim transactions re-broadcast by the settlement watchdog.
    rebroadcasts: CounterId,
    /// CLTV refunds the recipient submitted.
    refunds_submitted: CounterId,
    /// Recipients that saw two distinct key-revealing claims spend the
    /// same escrow (one per victimized exchange).
    equivocations_detected: CounterId,
    /// Miners the settlement watchdog demoted on suspicion of claim
    /// censorship (one per suspecting exchange crossing the threshold).
    censorship_suspected: CounterId,
}

impl Meters {
    fn register(reg: &mut Registry) -> Self {
        let kind = |prefix: &str, k: &str| format!("wan.{prefix}.{k}_total");
        let kinds = ["tx", "block", "sync", "deliver"];
        Meters {
            frames_lost: reg.counter("world.lora_frames_lost_total"),
            radio_retries: reg.counter("world.lora_retries_total"),
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

/// The simulation world.
pub struct World {
    cfg: WorkloadConfig,
    rng: SimRng,
    hosts: Vec<Host>, // index 0 = master, 1..=actor_hosts = actors
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
    /// Analytic per-gateway ALOHA success probability (1.0 when
    /// `lora_contention` is off).
    lora_success: f64,
    /// Per-gateway frame-loss / retry tallies (index = actor host − 1),
    /// folded into labeled `world.lora_*` rows at snapshot time.
    frames_lost_by_gw: Vec<u64>,
    retries_by_gw: Vec<u64>,
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
    /// Miners the settlement watchdog demoted on censorship suspicion.
    /// Sticky for the rest of the run: mining duty and catch-up sync
    /// route around them while any other live host can serve.
    censor_suspects: HashSet<u32>,
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
            let ann = IpAnnouncement {
                address: wallet.address(),
                endpoint: NetAddr {
                    ip: [10, 0, (i >> 8) as u8, i as u8],
                    port: 7000,
                },
                seq: 0,
            };
            genesis_outputs.push(ann.to_output());
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

        // Hosts share the bootstrapped chain.
        let sig_cache = Arc::new(SigCache::default());
        let mut hosts: Vec<Host> = Vec::with_capacity(n_hosts);
        for (i, wallet) in wallets.into_iter().enumerate() {
            let chain = match &cfg.store_dir {
                Some(root) => clone_chain_with_store(
                    &cfg.chain_params,
                    &genesis_chain,
                    &root.join(format!("host-{i}")),
                ),
                None => clone_chain(&cfg.chain_params, &genesis_chain),
            };
            let directory = Directory::from_chain(&chain);
            hosts.push(Host {
                wallet,
                daemon: Daemon::with_sig_cache(chain, sig_cache.clone()),
                directory,
                registry: DeviceRegistry::new(),
                reserved: HashSet::new(),
                sessions: HashMap::new(),
                awaiting_conf: Vec::new(),
                pending_open: HashMap::new(),
                settle_watch: HashMap::new(),
                orphans: HashMap::new(),
                last_sync_req: None,
                last_sync_height: 0,
                header_sync: None,
                apps: {
                    let mut router = AppRouter::new();
                    router.register(AppServerId(0), AppServer::new("default"));
                    router.set_default(AppServerId(0));
                    router
                },
                cpu_busy_until: SimTime::ZERO,
                rng: rng.fork(i as u64 + 1),
            });
        }

        // Provision sensors: each belongs to one actor host.
        let mut sensors = Vec::new();
        for actor in 1..=cfg.actor_hosts {
            for s in 0..cfg.sensors_per_host {
                let device_id = DeviceId(actor * 10_000 + s);
                let home_addr = hosts[actor as usize].wallet.address();
                let creds = {
                    let host = &mut hosts[actor as usize];
                    let mut provision_rng = host.rng.fork(u64::from(device_id.0));
                    host.registry
                        .provision(&mut provision_rng, device_id, home_addr)
                };
                sensors.push(Sensor {
                    credentials: creds,
                    home: actor,
                    next_allowed: SimTime::ZERO,
                });
            }
        }

        // Workload pacing: the duty-cycle minimum interval for one full
        // exchange (request + data frames), scaled by load_factor.
        let request_air = time_on_air(&cfg.radio, 28);
        let data_air = time_on_air(&cfg.radio, 160);
        let per_exchange_air = request_air + data_air;
        let min_interval =
            SimDuration::from_secs_f64(per_exchange_air.as_secs_f64() / cfg.duty_cycle);
        let send_interval =
            SimDuration::from_secs_f64(min_interval.as_secs_f64() * cfg.load_factor);

        // Analytic contention: each gateway's sensors share one
        // `(channel, SF)` collision domain; frames at the paced send
        // rate offer G = sensors × rate × airtime on it.
        let lora_success = if cfg.lora_contention {
            let key = LoadKey::new(0, cfg.radio.spreading_factor);
            let mut loads = OfferedLoads::new();
            loads.add_population(
                key,
                &cfg.radio,
                160,
                cfg.sensors_per_host,
                1.0 / send_interval.as_secs_f64(),
            );
            workload_success_probability(&loads, key)
        } else {
            1.0
        };

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

        World {
            rng,
            hosts,
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
            lora_success,
            frames_lost_by_gw: vec![0; cfg.actor_hosts as usize],
            retries_by_gw: vec![0; cfg.actor_hosts as usize],
            registry,
            meters,
            tracer,
            chaos,
            auditor,
            adversarial,
            censor_suspects: HashSet::new(),
            restarts_warm: 0,
            restarts_cold: 0,
            timeline,
            sig_cache,
            cfg,
        }
    }

    /// Runs the experiment to completion and reports.
    pub fn run(mut self) -> ExperimentResult {
        let mut queue: EventQueue<Event> = EventQueue::new();
        // Stagger sensor starts across one send interval.
        let n = self.sensors.len().max(1);
        for sensor in 0..self.sensors.len() {
            let offset = SimDuration::from_secs_f64(
                self.send_interval.as_secs_f64() * (sensor as f64 / n as f64),
            );
            queue.schedule_at(SimTime::ZERO + offset, Event::SensorFire { sensor });
        }
        // Mining heartbeat.
        let first_block = self.next_block_delay();
        queue.schedule_in(first_block, Event::MineTick);
        // Crash windows end in restarts.
        for (host, at) in self.chaos.restarts() {
            queue.schedule_at(at, Event::ChaosRestart { host });
        }

        let deadline = SimTime::ZERO + self.cfg.max_sim_time;
        run(&mut self, &mut queue, Some(deadline));

        let sim_time = queue.now().saturating_duration_since(SimTime::ZERO);
        let (stalls, total_stall) = self
            .hosts
            .iter()
            .skip(1)
            .map(|h| h.daemon.stats())
            .fold((0, SimDuration::ZERO), |(s, t), st| {
                (s + st.stalls, t + st.total_stall)
            });
        let confirmed_txs = self.hosts[0]
            .daemon
            .chain
            .iter_main()
            .map(|b| b.transactions.len().saturating_sub(1))
            .sum();
        let app_readings = self.hosts.iter().map(|h| h.apps.total_readings()).sum();

        // Fold the run lifecycle and every subsystem's counters into the
        // registry so one snapshot describes the whole experiment.
        let reg = &mut self.registry;
        reg.set_counter("world.exchanges_started_total", self.started as u64);
        reg.set_counter("world.exchanges_completed_total", self.completed as u64);
        reg.set_counter("world.exchanges_failed_total", self.failed as u64);
        reg.set_counter("world.blocks_mined_total", self.blocks_mined);
        reg.set_counter(
            "world.standby_blocks_mined_total",
            self.standby_blocks_mined,
        );
        reg.set_gauge("world.sim_time_seconds", sim_time.as_secs_f64());

        let daemon_totals = self
            .hosts
            .iter()
            .map(|h| h.daemon.stats())
            .fold((0u64, 0u64), |(blocks, txs), st| {
                (blocks + st.blocks_accepted, txs + st.txs_accepted)
            });
        reg.set_counter("daemon.blocks_accepted_total", daemon_totals.0);
        reg.set_counter("daemon.txs_accepted_total", daemon_totals.1);
        reg.set_counter("daemon.stalls_total", stalls);
        reg.set_gauge("daemon.stall_seconds_total", total_stall.as_secs_f64());

        let chain_stats = self.hosts[0].daemon.chain.stats();
        reg.set_counter("chain.blocks_connected_total", chain_stats.blocks_connected);
        reg.set_counter(
            "chain.blocks_disconnected_total",
            chain_stats.blocks_disconnected,
        );
        reg.set_counter("chain.reorgs_total", chain_stats.reorgs);
        reg.set_counter("chain.txs_connected_total", chain_stats.txs_connected);
        reg.set_counter("chain.utxos_created_total", chain_stats.utxos_created);
        reg.set_counter("chain.utxos_spent_total", chain_stats.utxos_spent);

        let pool = self.hosts.iter().map(|h| h.daemon.mempool.stats()).fold(
            bcwan_chain::MempoolStats::default(),
            |mut acc, s| {
                acc.accepted += s.accepted;
                acc.rejected_duplicate += s.rejected_duplicate;
                acc.rejected_conflict += s.rejected_conflict;
                acc.rejected_invalid += s.rejected_invalid;
                acc.evicted += s.evicted;
                acc
            },
        );
        reg.set_counter("mempool.accepted_total", pool.accepted);
        reg.set_counter("mempool.rejected_duplicate_total", pool.rejected_duplicate);
        reg.set_counter("mempool.rejected_conflict_total", pool.rejected_conflict);
        reg.set_counter("mempool.rejected_invalid_total", pool.rejected_invalid);
        reg.set_counter("mempool.evicted_total", pool.evicted);

        // The world-shared memo, folded once: a miss is a distinct
        // script verification (ECDSA spends under validate.sigcache.*,
        // escrow OP_CHECKRSA512PAIR spends under validate.sigcache.rsa.*),
        // a hit is a host that found the spend already verified.
        self.sig_cache.export(reg);

        let net = self.network.stats();
        reg.set_counter("net.sent_total", net.sent);
        reg.set_counter("net.delivered_total", net.delivered);
        reg.set_counter("net.dropped_fault_total", net.dropped_fault);
        reg.set_counter("net.dropped_partition_total", net.dropped_partition);
        reg.set_counter("net.duplicated_total", net.duplicated);

        // Persistent-store activity: flush what remains dirty, then fold
        // per-host summaries into `store.*` counters — fleet-wide
        // totals, plus per-host labeled rows for fleets small enough
        // that the extra rows stay readable.
        let mut store_rows: Vec<(usize, bcwan_chain::StoreSummary)> = Vec::new();
        for (i, h) in self.hosts.iter_mut().enumerate() {
            h.daemon.chain.flush();
            if let Some(s) = h.daemon.chain.store_summary() {
                store_rows.push((i, s));
            }
        }
        let reg = &mut self.registry;
        let label_hosts = !store_rows.is_empty() && store_rows.len() <= 32;
        let mut totals = bcwan_chain::StoreSummary::default();
        for (i, s) in &store_rows {
            totals.store.flush_total += s.store.flush_total;
            totals.store.reindex_total += s.store.reindex_total;
            totals.store.bytes_written += s.store.bytes_written;
            totals.store.blocks_appended += s.store.blocks_appended;
            totals.store.undo_appended += s.store.undo_appended;
            totals.store.compact_total += s.store.compact_total;
            totals.cache_hit += s.cache_hit;
            totals.cache_miss += s.cache_miss;
            if label_hosts {
                let set = [
                    ("store.flush_total", s.store.flush_total),
                    ("store.cache_hit_total", s.cache_hit),
                    ("store.cache_miss_total", s.cache_miss),
                    ("store.bytes_written_total", s.store.bytes_written),
                ];
                for (base, value) in set {
                    reg.set_counter(&bcwan_sim::labeled(base, "host", i), value);
                }
            }
        }
        if !store_rows.is_empty() {
            reg.set_counter("store.flush_total", totals.store.flush_total);
            reg.set_counter("store.reindex_total", totals.store.reindex_total);
            reg.set_counter("store.bytes_written_total", totals.store.bytes_written);
            reg.set_counter("store.blocks_appended_total", totals.store.blocks_appended);
            reg.set_counter("store.undo_appended_total", totals.store.undo_appended);
            reg.set_counter("store.compact_total", totals.store.compact_total);
            reg.set_counter("store.cache_hit_total", totals.cache_hit);
            reg.set_counter("store.cache_miss_total", totals.cache_miss);
        }
        reg.set_counter("world.restart.warm_total", self.restarts_warm);
        reg.set_counter("world.restart.cold_total", self.restarts_cold);

        // Per-gateway radio rows, same label scheme and ≤32-host gate as
        // the `store.*` fold above (host index 1..=actor_hosts; the
        // unlabeled totals were counted on the hot path).
        if !self.frames_lost_by_gw.is_empty() && self.frames_lost_by_gw.len() <= 32 {
            for (i, (&lost, &retries)) in self
                .frames_lost_by_gw
                .iter()
                .zip(&self.retries_by_gw)
                .enumerate()
            {
                let host = i + 1;
                reg.set_counter(
                    &bcwan_sim::labeled("world.lora_frames_lost_total", "host", host),
                    lost,
                );
                reg.set_counter(
                    &bcwan_sim::labeled("world.lora_retries_total", "host", host),
                    retries,
                );
            }
        }

        if self.tracer.is_enabled() {
            reg.set_counter("trace.unmatched_ends_total", self.tracer.unmatched_ends());
            reg.set_gauge("trace.open_spans", self.tracer.open_spans() as f64);
        }

        let phases: Vec<(String, Series)> = self
            .tracer
            .phase_names()
            .into_iter()
            .filter_map(|name| {
                self.tracer
                    .durations(name)
                    .map(|s| (name.to_string(), s.clone()))
            })
            .collect();

        // Final settlement census from the always-on auditor: one last
        // reconcile plus the FSM↔chain agreement check over every
        // exchange that published an escrow.
        let fsm_census: Vec<(usize, Phase, bool)> = self
            .exchanges
            .iter()
            .enumerate()
            .filter(|(_, ex)| ex.escrow.is_some())
            .map(|(i, ex)| (i, ex.fsm.phase(), ex.fsm.is_settled()))
            .collect();
        let audit =
            self.auditor
                .final_audit(&self.hosts[0].daemon.chain, &fsm_census, &mut self.registry);
        let (escrows_claimed, escrows_refunded, escrows_open, invariant_violations) =
            (audit.claimed, audit.refunded, audit.open, audit.violations);
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
        let reg = &mut self.registry;
        reg.set_counter("world.escrows_claimed_total", escrows_claimed as u64);
        reg.set_counter("world.escrows_refunded_total", escrows_refunded as u64);
        reg.set_counter("world.escrows_open_total", escrows_open as u64);
        // `chaos.invariant.violation_total` and the per-class
        // `invariant.*` rows were published by the auditor above.

        // Close the timeline with a frame that includes the end-of-run
        // folds above.
        if let Some(timeline) = self.timeline.as_mut() {
            timeline.maybe_sample(queue.now(), &self.registry);
        }

        ExperimentResult {
            completed: self.completed,
            failed: self.failed,
            latencies: self.latencies,
            sim_time,
            blocks_mined: self.blocks_mined,
            standby_blocks_mined: self.standby_blocks_mined,
            stalls,
            total_stall,
            confirmed_txs,
            app_readings,
            phase_radio: self.phase_radio,
            phase_forward: self.phase_forward,
            phase_settlement: self.phase_settlement,
            metrics: self.registry.snapshot(),
            phases,
            escrows_claimed,
            escrows_refunded,
            escrows_open,
            invariant_violations,
            utxo_total,
            utxo_fingerprint,
            honest_revenue: self.auditor.honest_revenue(),
            adversarial_revenue: self.auditor.adversarial_revenue(),
            gateway_settlements: self.auditor.gateway_outcomes(),
            restarts_warm: self.restarts_warm,
            restarts_cold: self.restarts_cold,
            timeline: self.timeline,
        }
    }

    /// Brings the always-on auditor in line with the master's chain.
    /// Called after every event that can move host 0's tip, so a
    /// violation is attributed to the block where it lands — visible in
    /// the very next timeline frame — instead of surfacing at end of
    /// run.
    fn audit_master(&mut self) {
        self.auditor
            .reconcile(&self.hosts[0].daemon.chain, &mut self.registry);
    }

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
        self.registry
            .add(self.meters.wan_bytes[k], (parcel.wire_size * copies) as u64);
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
    /// override the base rate when stronger; analytic ALOHA contention
    /// compounds with it when enabled). Always consumes exactly one
    /// draw, so enabling contention does not shift the RNG stream.
    fn frame_lost(&mut self, now: SimTime, gateway: u32) -> bool {
        let base = self.cfg.lora_loss_probability;
        let boost = if self.chaos.is_idle() {
            0.0
        } else {
            self.chaos.lora_loss_boost(now)
        };
        let flat = base.max(boost);
        let p = if self.lora_success < 1.0 {
            1.0 - (1.0 - flat) * self.lora_success
        } else {
            flat
        };
        let lost = self.rng.chance(p);
        if lost {
            self.registry.inc(self.meters.frames_lost);
            if let Some(slot) = self
                .frames_lost_by_gw
                .get_mut((gateway as usize).wrapping_sub(1))
            {
                *slot += 1;
            }
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
        // `uplink` is set the instant the node receives the key (it seals
        // immediately), so it is the node-side receipt indicator; `e_pk`
        // alone only proves the *gateway* generated a key.
        if ex.done || ex.uplink.is_some() {
            return;
        }
        if attempt >= MAX_RADIO_RETRIES {
            self.abort_exchange(now, exchange);
            return;
        }
        self.registry.inc(self.meters.radio_retries);
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
            self.abort_exchange(now, exchange);
            return;
        }
        self.registry.inc(self.meters.radio_retries);
        self.count_gateway_retry(exchange);
        self.send_data(now, exchange, attempt + 1, queue);
    }

    /// Tallies a radio retransmission against the exchange's gateway for
    /// the per-gateway labeled `world.lora_retries_total` rows.
    fn count_gateway_retry(&mut self, exchange: usize) {
        let gateway = self.exchanges[exchange].gateway;
        if let Some(slot) = self
            .retries_by_gw
            .get_mut((gateway as usize).wrapping_sub(1))
        {
            *slot += 1;
        }
    }

    /// Gives up on an exchange before money moved: `Abort` is only legal
    /// outside `Escrowed`, so an illegal call is counted, not obeyed.
    fn abort_exchange(&mut self, now: SimTime, exchange: usize) {
        let ex = &mut self.exchanges[exchange];
        if ex.done {
            return;
        }
        if ex.fsm.apply(FsmEvent::Abort, now).is_err() {
            self.registry.inc(self.meters.illegal_transitions);
            return;
        }
        ex.done = true;
        self.failed += 1;
    }

    /// Arms (or re-arms) the deadline for an exchange's current phase.
    fn arm_deadline(&mut self, exchange: usize, queue: &mut EventQueue<Event>) {
        if let Some((at, seq)) = self.exchanges[exchange].fsm.deadline(&self.cfg.fsm) {
            queue.schedule_at(at, Event::FsmDeadline { exchange, seq });
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
                    escrow: None,
                    claim: None,
                    refund: None,
                    seen_claim_txid: None,
                    equivocation_detected: false,
                    censor_sweeps: 0,
                    fsm: ExchangeFsm::new(now),
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

    fn handle_request_arrived(
        &mut self,
        now: SimTime,
        exchange: usize,
        queue: &mut EventQueue<Event>,
    ) {
        // A crashed gateway's radio does not answer; the node's timeout
        // retries until the gateway restarts or the budget runs out.
        if !self.chaos.is_idle() {
            let gateway = self.exchanges[exchange].gateway;
            if self.chaos.host_down(gateway, now) {
                self.registry.inc(self.chaos.meters().crash_drops);
                return;
            }
        }
        self.tracer.span_end("request_uplink", exchange as u64, now);
        // A retransmitted request for an existing session resends the
        // same ephemeral key instead of generating a new one.
        if self.exchanges[exchange].e_pk.is_some() {
            queue.schedule_at(now, Event::KeySent { exchange });
            return;
        }
        self.tracer.span_start("keygen", exchange as u64, now);
        let gateway = self.exchanges[exchange].gateway;
        let rsa_size = self.cfg.rsa_size;
        let keygen_cost = self.cfg.costs.rsa_keygen;
        let host = &mut self.hosts[gateway as usize];
        // Real keygen on the gateway CPU.
        let (e_pk, e_sk) = generate_keypair(&mut host.rng, rsa_size);
        host.sessions.insert(e_pk.to_bytes(), (exchange, e_sk));
        self.exchanges[exchange].e_pk = Some(e_pk);
        let done = host.occupy_cpu(now, keygen_cost);
        queue.schedule_at(done, Event::KeySent { exchange });
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
        if ex.uplink.is_some() {
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
        self.exchanges[exchange].uplink = Some(sealed.clone());
        let frame = LoraFrame::DataUplink {
            device_id: sensor.credentials.device_id.0,
            recipient: recipient_bytes(&sensor.credentials.recipient.0),
            em: sealed.em,
            sig: sealed.sig,
        };
        let _ = frame.phy_len();
        self.send_data(now + node_cost, exchange, 0, queue);
    }

    fn handle_data_arrived(
        &mut self,
        now: SimTime,
        exchange: usize,
        queue: &mut EventQueue<Event>,
    ) {
        if self.exchanges[exchange].data_accepted || self.exchanges[exchange].done {
            return; // duplicate of a retransmitted frame
        }
        if !self.chaos.is_idle() {
            let gateway = self.exchanges[exchange].gateway;
            if self.chaos.host_down(gateway, now) {
                self.registry.inc(self.chaos.meters().crash_drops);
                return; // frame unheard; the node's data timeout resends
            }
        }
        self.exchanges[exchange].data_accepted = true;
        self.exchanges[exchange].data_at_gateway = Some(now);
        self.tracer.span_end("data_uplink", exchange as u64, now);
        self.tracer
            .span_start("gateway_forward", exchange as u64, now);
        let (gateway, home) = {
            let ex = &self.exchanges[exchange];
            (ex.gateway, ex.home)
        };
        // The gateway now holds the sealed uplink: the FSM enters
        // `Sealed` and the bounded re-delivery deadline starts ticking.
        let _ = self.exchanges[exchange].fsm.apply(FsmEvent::Sealed, now);
        let lookup_cost = self.cfg.costs.directory_lookup;
        // Directory lookup (§4.3) — the home address must be known.
        let home_addr = self.hosts[home as usize].wallet.address();
        let endpoint = self.hosts[gateway as usize].directory.lookup(&home_addr);
        if endpoint.is_none() {
            self.abort_exchange(now, exchange);
            return;
        }
        let done = self.hosts[gateway as usize].occupy_cpu(now, lookup_cost);
        let ex = &self.exchanges[exchange];
        let msg = WanMessage::Deliver {
            device_id: self.sensors[ex.sensor].credentials.device_id,
            e_pk_bytes: ex.e_pk.as_ref().expect("present").to_bytes(),
            uplink: ex.uplink.clone().expect("present"),
        };
        self.unicast(queue, done, gateway, home, msg);
        self.arm_deadline(exchange, queue);
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
        if !self.chaos.is_idle() && self.chaos.host_down(to, now) {
            self.registry.inc(self.chaos.meters().crash_drops);
            return;
        }
        let parcel = delivery.msg;
        match &parcel.msg {
            WanMessage::Deliver {
                device_id,
                e_pk_bytes,
                uplink,
            } => self.handle_deliver(now, to, *device_id, e_pk_bytes, uplink, queue),
            WanMessage::Chain(ChainMessage::Tx(tx)) => {
                self.handle_chain_tx(now, to, &parcel, tx, queue)
            }
            WanMessage::Chain(ChainMessage::Block(_)) => {
                self.handle_chain_block(now, to, parcel, queue)
            }
            WanMessage::Chain(ChainMessage::GetBlocksFrom(height)) => {
                self.serve_blocks_from(now, to, delivery.from.0, *height, queue)
            }
            WanMessage::Chain(ChainMessage::GetHeadersFrom(height)) => {
                self.serve_headers_from(now, to, delivery.from.0, *height, queue)
            }
            WanMessage::Chain(ChainMessage::Headers {
                start_height,
                headers,
            }) => self.handle_headers(now, to, *start_height, headers, queue),
            WanMessage::Chain(_) => { /* GetBlock/TipAnnounce unused here */ }
        }
    }

    /// Serves a peer's catch-up request with a bounded batch of
    /// main-chain blocks (the §5.1 start-up sync, reused after crash
    /// restarts and orphan gaps).
    fn serve_blocks_from(
        &mut self,
        now: SimTime,
        to: u32,
        requester: u32,
        height: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let blocks = crate::sync::serve_blocks_from_bounded(
            &self.hosts[to as usize].daemon.chain,
            height,
            crate::fleet::SYNC_BATCH,
        );
        for block in blocks {
            self.unicast(
                queue,
                now,
                to,
                requester,
                WanMessage::Chain(ChainMessage::Block(block)),
            );
        }
    }

    /// Serves a headers-first locate request with one bounded batch of
    /// main-chain headers (88 bytes each, no bodies).
    fn serve_headers_from(
        &mut self,
        now: SimTime,
        to: u32,
        requester: u32,
        height: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let headers = crate::sync::serve_headers_from(
            &self.hosts[to as usize].daemon.chain,
            height,
            crate::sync::HEADER_BATCH,
        );
        self.unicast(
            queue,
            now,
            to,
            requester,
            WanMessage::Chain(ChainMessage::Headers {
                start_height: height,
                headers,
            }),
        );
    }

    /// Feeds a received header batch into the host's catch-up machine
    /// and transmits whatever it asks for next (a further locate probe,
    /// or the first striped body batches).
    fn handle_headers(
        &mut self,
        now: SimTime,
        to: u32,
        start_height: u64,
        headers: &[bcwan_chain::BlockHeader],
        queue: &mut EventQueue<Event>,
    ) {
        let host = &mut self.hosts[to as usize];
        let Some(hs) = host.header_sync.as_mut() else {
            return; // stale batch from a finished or restarted sync
        };
        let reqs = hs.on_headers(&host.daemon.chain, start_height, headers);
        if !hs.is_active() {
            host.header_sync = None;
        }
        self.send_sync_requests(now, to, reqs, queue);
    }

    /// Transmits a batch of requests produced by a host's
    /// [`HeaderSync`](crate::sync::HeaderSync) machine.
    fn send_sync_requests(
        &mut self,
        now: SimTime,
        to: u32,
        reqs: Vec<crate::sync::SyncRequest>,
        queue: &mut EventQueue<Event>,
    ) {
        for req in reqs {
            let (peer, msg) = match req {
                crate::sync::SyncRequest::Headers { peer, from } => {
                    (peer.0, ChainMessage::GetHeadersFrom(from))
                }
                crate::sync::SyncRequest::Bodies { peer, from } => {
                    (peer.0, ChainMessage::GetBlocksFrom(from))
                }
            };
            self.unicast(queue, now, to, peer, WanMessage::Chain(msg));
        }
    }

    /// Step 7→9: recipient verifies and escrows payment.
    fn handle_deliver(
        &mut self,
        now: SimTime,
        to: u32,
        device_id: DeviceId,
        e_pk_bytes: &[u8],
        uplink: &SealedUplink,
        queue: &mut EventQueue<Event>,
    ) {
        let Ok(e_pk) = RsaPublicKey::from_bytes(e_pk_bytes) else {
            self.failed += 1;
            return;
        };
        // Which exchange is this? (Simulation-level bookkeeping only; the
        // protocol itself keys on device + ephemeral key.) Looked up
        // regardless of progress so a re-delivered copy is recognized.
        let Some(exchange) = self.exchanges.iter().position(|ex| {
            ex.home == to
                && ex
                    .e_pk
                    .as_ref()
                    .is_some_and(|pk| pk.to_bytes() == e_pk_bytes)
        }) else {
            self.failed += 1;
            return;
        };
        // Idempotent re-delivery: once this exchange has an escrow (or is
        // over), a duplicate Deliver must not double-escrow or double-count.
        if self.exchanges[exchange].done || self.exchanges[exchange].escrow.is_some() {
            return;
        }
        let verify_cost = self.cfg.costs.verify_signature;
        let tx_build = self.cfg.costs.tx_build;
        let reward = self.cfg.reward;
        let fee = self.cfg.fee;

        let host = &mut self.hosts[to as usize];
        let Some(record) = host.registry.get(&device_id) else {
            self.abort_exchange(now, exchange);
            return;
        };
        // Step 8: authenticity.
        if !verify_uplink(record, &e_pk, uplink) {
            self.abort_exchange(now, exchange);
            return;
        }
        let verified_at = host.occupy_cpu(now, verify_cost);
        self.exchanges[exchange].delivered = Some(verified_at);
        let _ = self.exchanges[exchange]
            .fsm
            .apply(FsmEvent::Delivered, verified_at);
        self.tracer
            .span_end("gateway_forward", exchange as u64, verified_at);

        // Step 9: escrow. Select a coin and build the transaction via the
        // daemon ("create, sign, send").
        let host = &mut self.hosts[to as usize];
        let Some(coin) = host.reserve_coin(reward + fee) else {
            self.abort_exchange(verified_at, exchange);
            return;
        };
        let gateway_addr = self.hosts[self.exchanges[exchange].gateway as usize]
            .wallet
            .address();
        let host = &mut self.hosts[to as usize];
        let current_height = host.daemon.chain.height();
        let escrow_obj = escrow::build_escrow_with_delta(
            &host.wallet,
            &[coin],
            &e_pk,
            &gateway_addr,
            reward,
            fee,
            current_height,
            self.cfg.refund_delta,
        );
        let built_at = host.daemon.occupy(verified_at, tx_build);
        host.pending_open.insert(escrow_obj.outpoint(), exchange);
        host.settle_watch.insert(escrow_obj.outpoint(), exchange);
        // Admit into own mempool and flood.
        let (admitted_at, result) =
            host.daemon
                .accept_transaction(built_at, escrow_obj.tx.clone(), &self.cfg.costs);
        if result.is_err() {
            host.pending_open.remove(&escrow_obj.outpoint());
            host.settle_watch.remove(&escrow_obj.outpoint());
            self.abort_exchange(admitted_at, exchange);
            return;
        }
        self.tracer.record_span(
            "escrow_publish",
            admitted_at.saturating_duration_since(verified_at),
        );
        self.tracer
            .span_start("confirmation_wait", exchange as u64, admitted_at);
        self.exchanges[exchange].uplink = Some(uplink.clone());
        self.exchanges[exchange].escrow = Some(escrow_obj.clone());
        // The auditor watches the escrow from birth: any main-chain
        // spend of it is now classified and revenue-attributed.
        let gateway = self.exchanges[exchange].gateway;
        self.auditor.watch(
            escrow_obj.outpoint(),
            exchange,
            gateway,
            self.adversarial.contains(&gateway),
        );
        let _ = self.exchanges[exchange]
            .fsm
            .apply(FsmEvent::EscrowPublished, admitted_at);
        let parcel = Parcel::tx(escrow_obj.tx);
        self.hosts[to as usize]
            .daemon
            .relay
            .mark_seen(parcel.flood_id());
        self.flood(queue, admitted_at, to, &parcel);
        // The settlement watchdog takes over from here.
        self.arm_deadline(exchange, queue);
    }

    /// Chain transaction gossip: mempool admission + protocol reactions.
    fn handle_chain_tx(
        &mut self,
        now: SimTime,
        to: u32,
        parcel: &Arc<Parcel>,
        tx: &Transaction,
        queue: &mut EventQueue<Event>,
    ) {
        let txid = TxId(parcel.flood_id());
        let first = self.hosts[to as usize].daemon.relay.mark_seen(txid.0);
        if !first {
            // Seen before — but a reorg may have evicted it from the pool
            // since, in which case a re-broadcast must be re-admitted,
            // not dropped. Cheap check first (the common duplicate sits
            // in the pool); the chain scan only runs for the rare
            // gossip-after-confirmation stragglers.
            let host = &self.hosts[to as usize];
            if host.daemon.mempool.contains(&txid)
                || host.daemon.chain.find_transaction(&txid).is_some()
            {
                return; // genuine duplicate
            }
        }
        // Byzantine detection runs *before* mempool admission: a rival
        // claim is exactly the transaction the pool rejects as a
        // conflict, and the recipient must still see it to know its
        // gateway equivocated.
        self.detect_equivocation(to, tx, queue);
        let (done, result) = {
            let host = &mut self.hosts[to as usize];
            host.daemon
                .accept_transaction(now, tx.clone(), &self.cfg.costs)
        };
        if result.is_err() {
            return; // double spends, orphans: dropped, not relayed
        }
        // Re-flood the very parcel that arrived.
        self.flood(queue, done, to, parcel);

        // Gateway reaction: is this an escrow paying one of my sessions?
        self.gateway_check_escrow(done, to, tx, queue);
        // Recipient reaction: is this a claim revealing a key I await?
        self.recipient_check_claim(done, to, tx);
    }

    /// The recipient's equivocation detector: a second *distinct*
    /// key-revealing claim spending a watched escrow means the gateway
    /// double-claimed. Only the recipient owns `settle_watch` entries,
    /// so each equivocation is counted exactly once — and the reaction
    /// is to keep the settlement watchdog hot, so the exchange still
    /// terminates through whichever claim confirms or, failing both,
    /// the CLTV refund.
    fn detect_equivocation(&mut self, to: u32, tx: &Transaction, queue: &mut EventQueue<Event>) {
        if self.hosts[to as usize].settle_watch.is_empty() {
            return;
        }
        let txid = tx.txid();
        for input in &tx.inputs {
            let Some(&exchange) = self.hosts[to as usize].settle_watch.get(&input.prevout) else {
                continue;
            };
            if escrow::extract_key_from_claim(tx, &input.prevout).is_none() {
                continue; // refund-branch spend: a claim/refund race is legal
            }
            let newly_detected = {
                let ex = &mut self.exchanges[exchange];
                match ex.seen_claim_txid {
                    None => {
                        ex.seen_claim_txid = Some(txid);
                        false
                    }
                    Some(seen) if seen != txid && !ex.equivocation_detected => {
                        ex.equivocation_detected = true;
                        true
                    }
                    Some(_) => false,
                }
            };
            if newly_detected {
                self.registry.inc(self.meters.equivocations_detected);
                if self.exchanges[exchange].fsm.phase() == Phase::Escrowed {
                    self.arm_deadline(exchange, queue);
                }
            }
        }
    }

    fn gateway_check_escrow(
        &mut self,
        now: SimTime,
        to: u32,
        tx: &Transaction,
        queue: &mut EventQueue<Event>,
    ) {
        let session_keys: Vec<Vec<u8>> = self.hosts[to as usize].sessions.keys().cloned().collect();
        for key_bytes in session_keys {
            let Ok(e_pk) = RsaPublicKey::from_bytes(&key_bytes) else {
                continue;
            };
            if let Some((vout, value)) = escrow::find_escrow_for_key(tx, &e_pk) {
                let (exchange, _) = self.hosts[to as usize].sessions[&key_bytes];
                if self.cfg.confirmation_depth == 0 {
                    self.gateway_claim(now, to, key_bytes, tx.txid(), vout, value, queue);
                } else {
                    let host = &mut self.hosts[to as usize];
                    let entry = (exchange, tx.txid());
                    // The same escrow can be offered twice: once as
                    // gossip, once from the block that confirms it.
                    if !host.awaiting_conf.contains(&entry) {
                        host.awaiting_conf.push(entry);
                    }
                }
            }
        }
    }

    /// Step 10: the gateway publishes the claim, revealing eSk.
    #[allow(clippy::too_many_arguments)] // one call site; args are the escrow tuple
    fn gateway_claim(
        &mut self,
        now: SimTime,
        to: u32,
        e_pk_bytes: Vec<u8>,
        escrow_txid: TxId,
        vout: u32,
        value: u64,
        queue: &mut EventQueue<Event>,
    ) {
        // A misbehaving gateway sits on the claim; the session survives,
        // so it could still claim after the window — and the recipient's
        // refund driver races it through the CLTV branch.
        if !self.chaos.is_idle() && self.chaos.withhold_claim(to, now) {
            self.registry.inc(self.chaos.meters().claims_withheld);
            return;
        }
        let tx_build = self.cfg.costs.tx_build;
        let fee = self.cfg.fee;
        let host = &mut self.hosts[to as usize];
        let Some((exchange, e_sk)) = host.sessions.remove(&e_pk_bytes) else {
            return;
        };
        self.tracer
            .span_end("confirmation_wait", exchange as u64, now);
        self.tracer
            .span_start("claim_and_decrypt", exchange as u64, now);
        let escrow_script = {
            let ex = &self.exchanges[exchange];
            match &ex.escrow {
                Some(e) => e.script.clone(),
                None => {
                    // Gateway reconstructs the script from the tx itself.
                    let host = &self.hosts[to as usize];
                    match host
                        .daemon
                        .mempool
                        .get(&escrow_txid)
                        .map(|t| t.outputs[vout as usize].script_pubkey.clone())
                    {
                        Some(s) => s,
                        None => return,
                    }
                }
            }
        };
        let outpoint = OutPoint {
            txid: escrow_txid,
            vout,
        };
        let host = &mut self.hosts[to as usize];
        let claim = escrow::build_claim(&host.wallet, outpoint, &escrow_script, value, &e_sk, fee);
        let built = host.daemon.occupy(now, tx_build);
        // Keep the signed claim: it stays valid as long as the escrow
        // output exists, so the settlement watchdog can re-broadcast it
        // after a crash or a reorg that orphans it.
        self.exchanges[exchange].claim = Some(claim.clone());

        // Byzantine equivocation: the gateway signs a *second* claim
        // against the same escrow (higher fee → different output value →
        // different txid) and shows each half of the overlay a different
        // one. Both claims necessarily reveal the true eSk — the script's
        // OP_CHECKRSA512PAIR forces it — so the reading is never stolen;
        // the attack creates settlement ambiguity, which first-seen
        // mempools, the recipient's detector and the auditor resolve.
        let equivocate =
            !self.chaos.is_idle() && self.chaos.equivocate_claim(to, now) && fee + 1 < value;
        if equivocate {
            let rival = {
                let host = &self.hosts[to as usize];
                escrow::build_claim(
                    &host.wallet,
                    outpoint,
                    &escrow_script,
                    value,
                    &e_sk,
                    fee + 1,
                )
            };
            let host = &mut self.hosts[to as usize];
            let (admitted, result) =
                host.daemon
                    .accept_transaction(built, claim.clone(), &self.cfg.costs);
            if result.is_err() {
                return;
            }
            let (claim, rival) = (Parcel::tx(claim), Parcel::tx(rival));
            host.daemon.relay.mark_seen(claim.flood_id());
            host.daemon.relay.mark_seen(rival.flood_id());
            // Counted only once both conflicting claims are live: the
            // session is gone, so this path runs once per exchange.
            self.registry.inc(self.chaos.meters().equivocations);
            self.flood_parity(queue, admitted, to, &claim, 0);
            self.flood_parity(queue, admitted, to, &rival, 1);
            return;
        }

        let host = &mut self.hosts[to as usize];
        let (admitted, result) =
            host.daemon
                .accept_transaction(built, claim.clone(), &self.cfg.costs);
        if result.is_err() {
            // The escrow is not in this host's view (yet): not fatal —
            // the watchdog re-admits once the chain catches up.
            return;
        }
        let parcel = Parcel::tx(claim);
        host.daemon.relay.mark_seen(parcel.flood_id());
        self.flood(queue, admitted, to, &parcel);
    }

    /// The recipient spots the claim spending its escrow and decrypts.
    fn recipient_check_claim(&mut self, now: SimTime, to: u32, tx: &Transaction) {
        let outpoints: Vec<OutPoint> = self.hosts[to as usize]
            .pending_open
            .keys()
            .copied()
            .collect();
        for op in outpoints {
            let Some(e_sk) = escrow::extract_key_from_claim(tx, &op) else {
                continue;
            };
            let open_cost = self.cfg.costs.open_reading;
            let host = &mut self.hosts[to as usize];
            let exchange = host.pending_open.remove(&op).expect("present");
            let done = host.occupy_cpu(now, open_cost);
            let ex = &mut self.exchanges[exchange];
            if ex.done {
                continue;
            }
            let device_id = self.sensors[ex.sensor].credentials.device_id;
            let host = &self.hosts[to as usize];
            let record = host.registry.get(&device_id).expect("provisioned");
            let uplink = ex.uplink.as_ref().expect("delivered");
            match open_reading(record, &e_sk, &uplink.em) {
                Ok(reading) => {
                    ex.done = true;
                    self.completed += 1;
                    self.tracer
                        .span_end("claim_and_decrypt", exchange as u64, done);
                    // Final hop (Figs. 1–2): hand the plaintext to the
                    // customer's application server.
                    self.hosts[to as usize]
                        .apps
                        .dispatch(device_id, reading, done)
                        .expect("default app server registered");
                    if let Some(start) = ex.measure_start {
                        let total = done.saturating_duration_since(start).as_secs_f64();
                        self.latencies.record(total);
                        self.registry.observe(self.meters.latency, total);
                        if let (Some(at_gw), Some(delivered)) = (ex.data_at_gateway, ex.delivered) {
                            self.phase_radio
                                .record(at_gw.saturating_duration_since(start).as_secs_f64());
                            self.phase_forward
                                .record(delivered.saturating_duration_since(at_gw).as_secs_f64());
                            self.phase_settlement
                                .record(done.saturating_duration_since(delivered).as_secs_f64());
                        }
                    }
                }
                Err(_) => {
                    ex.done = true;
                    self.failed += 1;
                }
            }
        }
    }

    fn handle_chain_block(
        &mut self,
        now: SimTime,
        to: u32,
        parcel: Arc<Parcel>,
        queue: &mut EventQueue<Event>,
    ) {
        {
            let host = &mut self.hosts[to as usize];
            if !host.daemon.relay.mark_seen(parcel.flood_id()) {
                return;
            }
        }
        // Blocks can arrive out of order over the WAN; buffer orphans and
        // connect them once their parent lands (the paper's nodes
        // re-sync; this is the event-driven equivalent).
        let mut pending = vec![parcel];
        let mut at = now;
        while let Some(parcel) = pending.pop() {
            let WanMessage::Chain(ChainMessage::Block(block)) = &parcel.msg else {
                unreachable!("only block parcels are queued here");
            };
            let hash = BlockHash(parcel.flood_id());
            let (done, action) = {
                let host = &mut self.hosts[to as usize];
                let mut rng = host.rng.fork(0xb10c ^ u64::from(to));
                host.daemon.accept_block(at, block.clone(), &mut rng)
            };
            match action {
                Err(bcwan_chain::ChainError::Orphan(parent)) => {
                    self.hosts[to as usize]
                        .orphans
                        .entry(parent)
                        .or_default()
                        .push(parcel);
                    // A parent gap means this host missed gossip (crash,
                    // partition, kill): ask the master to fill it in,
                    // rate-limited so a burst of orphans asks once.
                    self.request_sync(done, to, queue);
                    continue;
                }
                Err(_) => continue,
                Ok(_) => {}
            }
            at = done;
            // Settlement bookkeeping: claims/refunds this block confirmed
            // or (after a reorg) disconnected, seen from the recipient.
            self.apply_settlements(done, to, queue);
            // Absorb any directory announcements.
            for tx in &block.transactions {
                for ann in IpAnnouncement::all_from_transaction(tx) {
                    self.hosts[to as usize].directory.absorb(ann);
                }
            }
            // Re-flood the block.
            self.flood(queue, done, to, &parcel);

            // Confirmation-depth gateways: check their waiting escrows.
            self.gateway_check_confirmations(done, to, queue);

            // Any orphans waiting on this block connect next.
            if let Some(children) = self.hosts[to as usize].orphans.remove(&hash) {
                pending.extend(children);
            }
        }
        // Keep an in-progress headers-first sync's body window full as
        // batches land and retire.
        let host = &mut self.hosts[to as usize];
        if let Some(hs) = host.header_sync.as_mut() {
            let reqs = hs.on_progress(&host.daemon.chain);
            if !hs.is_active() {
                host.header_sync = None;
            }
            self.send_sync_requests(at, to, reqs, queue);
        }
        if to == 0 {
            self.audit_master();
        }
    }

    fn gateway_check_confirmations(
        &mut self,
        now: SimTime,
        to: u32,
        queue: &mut EventQueue<Event>,
    ) {
        if self.cfg.confirmation_depth == 0 {
            return;
        }
        let waiting = std::mem::take(&mut self.hosts[to as usize].awaiting_conf);
        let mut still_waiting = Vec::new();
        for (exchange, escrow_txid) in waiting {
            let depth_ok = {
                let host = &self.hosts[to as usize];
                match host.daemon.chain.find_transaction(&escrow_txid) {
                    Some((height, _)) => {
                        host.daemon.chain.height() - height + 1 >= self.cfg.confirmation_depth
                    }
                    None => false,
                }
            };
            if depth_ok {
                let ex = &self.exchanges[exchange];
                let Some(e_pk) = ex.e_pk.as_ref() else {
                    continue;
                };
                let e_pk_bytes = e_pk.to_bytes();
                let (vout, value) = {
                    let host = &self.hosts[to as usize];
                    let Some((_, tx)) = host.daemon.chain.find_transaction(&escrow_txid) else {
                        continue;
                    };
                    match escrow::find_escrow_for_key(tx, e_pk) {
                        Some(v) => v,
                        None => continue,
                    }
                };
                self.gateway_claim(now, to, e_pk_bytes, escrow_txid, vout, value, queue);
            } else {
                still_waiting.push((exchange, escrow_txid));
            }
        }
        self.hosts[to as usize].awaiting_conf.extend(still_waiting);
    }

    /// Rate-limited headers-first catch-up toward the best sync source —
    /// the master (host 0) in the common case; after a miner failover
    /// the restarted master itself catches up from the tallest standby.
    ///
    /// The source answers the locate probes (`GetHeadersFrom`); once the
    /// fork is found, body batches are striped across up to three live
    /// peers that are ahead of us. A machine still making progress keeps
    /// running with a raised target; a stalled one (lost responses, a
    /// source that reorganized mid-sync) is restarted — re-locating the
    /// fork costs a few 22 KiB header batches, not block bodies.
    fn request_sync(&mut self, now: SimTime, to: u32, queue: &mut EventQueue<Event>) {
        let Some(source) = self.sync_source(now, to) else {
            return; // nobody live is ahead of us
        };
        let sync_cooldown = SimDuration::from_secs(5);
        if let Some(last) = self.hosts[to as usize].last_sync_req {
            if now < last + sync_cooldown {
                return;
            }
        }
        let target = self.hosts[source as usize].daemon.chain.height();
        let peers = self.sync_peers(now, to, source);
        let host = &mut self.hosts[to as usize];
        let height = host.daemon.chain.height();
        let progressed = host.last_sync_req.is_some() && height > host.last_sync_height;
        host.last_sync_height = height;
        host.last_sync_req = Some(now);
        let reqs = match host.header_sync.as_mut() {
            Some(hs) if progressed && hs.is_active() => {
                hs.on_tip(target);
                let reqs = hs.on_progress(&host.daemon.chain);
                if !hs.is_active() {
                    host.header_sync = None;
                }
                reqs
            }
            _ => {
                let (hs, reqs) = crate::sync::HeaderSync::start(peers, height, target);
                host.header_sync = Some(hs);
                reqs
            }
        };
        self.send_sync_requests(now, to, reqs, queue);
    }

    /// Peers to stripe body batches across: the locate source first,
    /// then the tallest other live hosts strictly ahead of us, at most
    /// three total.
    fn sync_peers(&self, now: SimTime, to: u32, primary: u32) -> Vec<NodeId> {
        let my_height = self.hosts[to as usize].daemon.chain.height();
        let mut peers = vec![NodeId(primary)];
        let mut candidates: Vec<(u64, u32)> = self
            .hosts
            .iter()
            .enumerate()
            .filter_map(|(i, h)| {
                let id = i as u32;
                if id == to || id == primary {
                    return None;
                }
                if !self.chaos.is_idle() && self.chaos.host_down(id, now) {
                    return None;
                }
                let height = h.daemon.chain.height();
                (height > my_height).then_some((height, id))
            })
            .collect();
        // Tallest first; ties broken by id for determinism.
        candidates.sort_by(|a, b| b.cmp(a));
        peers.extend(candidates.into_iter().take(2).map(|(_, id)| NodeId(id)));
        peers
    }

    /// The best catch-up peer for `to`: the master (host 0) while it is
    /// up *and a gossip neighbour* — the §5.1 topology — otherwise the
    /// tallest linked live host, which spreads sync load across a
    /// sparse ring-lattice overlay and is exactly what a restarted
    /// master needs after a standby mined past it. When no linked live
    /// peer is ahead (deep partition, tiny neighbourhood), falls back
    /// to the tallest live host anywhere — sync dials directly by IP,
    /// so linkage is a preference, not a constraint. Censorship
    /// suspects rank below every clean source (a censor serving our
    /// catch-up could keep feeding us its claim-free branch), but still
    /// beat syncing from nobody. `None` when nobody live is strictly
    /// ahead.
    fn sync_source(&self, now: SimTime, to: u32) -> Option<u32> {
        let topology = self.network.topology();
        let master_up = self.chaos.is_idle() || !self.chaos.host_down(0, now);
        if to != 0
            && master_up
            && !self.censor_suspects.contains(&0)
            && topology.linked(NodeId(to), NodeId(0))
        {
            return Some(0);
        }
        let my_height = self.hosts[to as usize].daemon.chain.height();
        // (linked, any) × (clean, all): clean sources win, linked breaks
        // the tie among them — preserving the old order exactly when no
        // host is suspected.
        let mut best_linked: Option<(u64, u32)> = None;
        let mut best_any: Option<(u64, u32)> = None;
        let mut best_linked_clean: Option<(u64, u32)> = None;
        let mut best_any_clean: Option<(u64, u32)> = None;
        for (i, h) in self.hosts.iter().enumerate() {
            let id = i as u32;
            if id == to || self.chaos.host_down(id, now) {
                continue;
            }
            let height = h.daemon.chain.height();
            let clean = !self.censor_suspects.contains(&id);
            let linked = topology.linked(NodeId(to), NodeId(id));
            if best_any.is_none_or(|(best_h, _)| height > best_h) {
                best_any = Some((height, id));
            }
            if linked && best_linked.is_none_or(|(best_h, _)| height > best_h) {
                best_linked = Some((height, id));
            }
            if clean {
                if best_any_clean.is_none_or(|(best_h, _)| height > best_h) {
                    best_any_clean = Some((height, id));
                }
                if linked && best_linked_clean.is_none_or(|(best_h, _)| height > best_h) {
                    best_linked_clean = Some((height, id));
                }
            }
        }
        let ahead = |o: Option<(u64, u32)>| o.filter(|&(h, _)| h > my_height);
        ahead(best_linked_clean)
            .or(ahead(best_any_clean))
            .or(ahead(best_linked))
            .or(ahead(best_any))
            .map(|(_, id)| id)
    }

    /// Drives FSM settlement from host `to`'s last main-chain change:
    /// disconnected transactions orphan claims/refunds back to
    /// `Escrowed`; connected transactions confirm them. Only the
    /// recipient (who owns `settle_watch` entries) transitions machines,
    /// so each event is applied exactly once. Connected transactions are
    /// also re-offered to the gateway/recipient reaction paths — after a
    /// crash the tx gossip is gone, and the block is the only copy.
    fn apply_settlements(&mut self, now: SimTime, to: u32, queue: &mut EventQueue<Event>) {
        let connected = self.hosts[to as usize].daemon.last_connected_txs().to_vec();
        let disconnected = self.hosts[to as usize]
            .daemon
            .last_disconnected_txs()
            .to_vec();
        if !self.hosts[to as usize].settle_watch.is_empty() {
            // Disconnects first: a reorg that moves a claim between
            // branches must pass through Escrowed, not skip a state.
            for tx in &disconnected {
                for input in &tx.inputs {
                    let Some(&exchange) = self.hosts[to as usize].settle_watch.get(&input.prevout)
                    else {
                        continue;
                    };
                    let is_claim = escrow::extract_key_from_claim(tx, &input.prevout).is_some();
                    let event = if is_claim {
                        FsmEvent::ClaimOrphaned
                    } else {
                        FsmEvent::RefundOrphaned
                    };
                    if self.exchanges[exchange].fsm.apply(event, now).is_ok() {
                        // Money is back at stake: restart the watchdog,
                        // which re-broadcasts the stored claim/refund.
                        self.arm_deadline(exchange, queue);
                    } else {
                        self.registry.inc(self.meters.illegal_transitions);
                    }
                }
            }
            for tx in &connected {
                for input in &tx.inputs {
                    let Some(&exchange) = self.hosts[to as usize].settle_watch.get(&input.prevout)
                    else {
                        continue;
                    };
                    let is_claim = escrow::extract_key_from_claim(tx, &input.prevout).is_some();
                    let event = if is_claim {
                        FsmEvent::ClaimConfirmed
                    } else {
                        FsmEvent::RefundConfirmed
                    };
                    match self.exchanges[exchange].fsm.apply(event, now) {
                        Ok(_) if !is_claim => {
                            // The CLTV branch closed the exchange: the
                            // gateway never revealed the key, so the
                            // reading is lost but the coins came home.
                            let ex = &mut self.exchanges[exchange];
                            if !ex.done {
                                ex.done = true;
                                self.failed += 1;
                            }
                        }
                        Ok(_) => {}
                        Err(_) => self.registry.inc(self.meters.illegal_transitions),
                    }
                }
            }
        }
        // Crash recovery: the block may be the first (and only) place
        // this host sees an escrow or claim it missed as gossip — and
        // the first place a rival claim surfaces, if the equivocator
        // only ever showed it to the other side of the overlay.
        for tx in &connected {
            self.detect_equivocation(to, tx, queue);
            self.gateway_check_escrow(now, to, tx, queue);
            self.recipient_check_claim(now, to, tx);
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
    /// - **Cold** (memory-only, or the store failed to reopen): the old
    ///   model — the in-memory chain survives by fiat.
    fn handle_chaos_restart(&mut self, now: SimTime, host: u32, queue: &mut EventQueue<Event>) {
        let mut warm = false;
        if let Some(root) = self.cfg.store_dir.clone() {
            let h = &mut self.hosts[host as usize];
            if h.daemon.chain.has_store() {
                let dir = root.join(format!("host-{host}"));
                match Chain::open_store(
                    self.cfg.chain_params.clone(),
                    &dir,
                    bcwan_chain::StoreConfig::default(),
                ) {
                    Ok(opened) => {
                        h.daemon.replace_chain(opened.chain);
                        h.directory = Directory::from_chain(&h.daemon.chain);
                        warm = true;
                    }
                    Err(_) => {
                        // Unopenable store: fall back to the in-memory
                        // chain rather than losing the host entirely.
                    }
                }
            }
        }
        if warm {
            self.restarts_warm += 1;
        } else {
            self.restarts_cold += 1;
        }
        let h = &mut self.hosts[host as usize];
        h.daemon.crash_restart(now);
        h.orphans.clear();
        h.cpu_busy_until = now;
        h.last_sync_req = None;
        h.header_sync = None;
        if host == 0 {
            // A warm restart can reopen a shorter durable chain: the
            // auditor must roll its ledger back with it.
            self.audit_master();
        }
        self.request_sync(now, host, queue);
    }

    /// A per-exchange deadline fired. Stale stamps (the exchange moved
    /// on or retried since) are dropped; live ones drive the phase's
    /// recovery action.
    fn handle_fsm_deadline(
        &mut self,
        now: SimTime,
        exchange: usize,
        seq: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let ex = &self.exchanges[exchange];
        if ex.done && ex.fsm.is_settled() {
            return;
        }
        if ex.fsm.seq() != seq {
            return; // stale: the phase or retry count moved on
        }
        match ex.fsm.phase() {
            Phase::Sealed => {
                // The recipient never escrowed: re-deliver (idempotent on
                // the receiving side), bounded by the retry budget.
                if ex.fsm.retries_exhausted(&self.cfg.fsm) {
                    self.abort_exchange(now, exchange);
                    return;
                }
                self.exchanges[exchange].fsm.note_retry(now);
                self.registry.inc(self.meters.deliver_retries);
                self.redeliver(now, exchange, queue);
                self.arm_deadline(exchange, queue);
            }
            Phase::Escrowed => {
                // Unbounded settlement watchdog: money is on the table.
                self.exchanges[exchange].fsm.note_retry(now);
                self.settle_sweep(now, exchange, queue);
                self.arm_deadline(exchange, queue);
            }
            _ => {}
        }
    }

    /// Re-sends the gateway → recipient Deliver for a `Sealed` exchange.
    fn redeliver(&mut self, now: SimTime, exchange: usize, queue: &mut EventQueue<Event>) {
        let ex = &self.exchanges[exchange];
        let (gateway, home) = (ex.gateway, ex.home);
        let (Some(e_pk), Some(uplink)) = (ex.e_pk.as_ref(), ex.uplink.clone()) else {
            return;
        };
        let msg = WanMessage::Deliver {
            device_id: self.sensors[ex.sensor].credentials.device_id,
            e_pk_bytes: e_pk.to_bytes(),
            uplink,
        };
        self.unicast(queue, now, gateway, home, msg);
    }

    /// The `Escrowed` watchdog: re-broadcasts whatever piece of the
    /// settlement went missing, and opens the CLTV refund branch when
    /// the claim never lands.
    fn settle_sweep(&mut self, now: SimTime, exchange: usize, queue: &mut EventQueue<Event>) {
        let Some(escrow_obj) = self.exchanges[exchange].escrow.clone() else {
            return;
        };
        let (gateway, home) = {
            let ex = &self.exchanges[exchange];
            (ex.gateway, ex.home)
        };
        let escrow_txid = escrow_obj.tx.txid();

        // (a) Recipient: the miner lost track of the escrow (reorg +
        // eviction, a crash wiped a pool, or the gossip never got
        // through) — re-admit and re-flood it. Visibility is judged at
        // the *acting miner*: a transaction only the home pool knows
        // about will never be mined.
        if !self.chaos.host_down(home, now) && self.miner_lacks(now, &escrow_txid) {
            self.rebroadcast(now, home, escrow_obj.tx.clone(), queue);
        }

        // (b) Gateway: a built claim that is in neither pool nor chain is
        // re-broadcast — the reorg-orphaned-claim recovery path. A
        // session that never claimed (its host was down when the escrow
        // gossiped) claims now from the confirmed copy.
        let withholding = !self.chaos.is_idle() && self.chaos.withhold_claim(gateway, now);
        if !self.chaos.host_down(gateway, now) && !withholding {
            if let Some(claim) = self.exchanges[exchange].claim.clone() {
                if self.miner_lacks(now, &claim.txid()) {
                    self.rebroadcast(now, gateway, claim, queue);
                }
            } else if let Some(e_pk) = self.exchanges[exchange].e_pk.clone() {
                let e_pk_bytes = e_pk.to_bytes();
                let host = &self.hosts[gateway as usize];
                if host.sessions.contains_key(&e_pk_bytes) {
                    let found = host
                        .daemon
                        .mempool
                        .get(&escrow_txid)
                        .map(|tx| escrow::find_escrow_for_key(tx, &e_pk))
                        .or_else(|| {
                            host.daemon
                                .chain
                                .find_transaction(&escrow_txid)
                                .map(|(_, tx)| escrow::find_escrow_for_key(tx, &e_pk))
                        })
                        .flatten();
                    if let Some((vout, value)) = found {
                        self.gateway_claim(
                            now,
                            gateway,
                            e_pk_bytes,
                            escrow_txid,
                            vout,
                            value,
                            queue,
                        );
                    }
                }
            }
        }

        // (c) Recipient refund driver: past the refund height with no
        // claim settled, spend the escrow back through the CLTV branch.
        // A pooled claim wins locally (first-seen conflict policy); the
        // refund only floods where the claim never showed.
        if !self.chaos.host_down(home, now) {
            let height = self.hosts[home as usize].daemon.chain.height();
            if height >= escrow_obj.refund_height {
                let refund = match self.exchanges[exchange].refund.clone() {
                    Some(r) => r,
                    None => {
                        let r = escrow::build_refund(
                            &self.hosts[home as usize].wallet,
                            &escrow_obj,
                            self.cfg.reward,
                            self.cfg.fee,
                        );
                        self.exchanges[exchange].refund = Some(r.clone());
                        self.registry.inc(self.meters.refunds_submitted);
                        r
                    }
                };
                if self.miner_lacks(now, &refund.txid()) {
                    self.rebroadcast(now, home, refund, queue);
                }
            }
        }

        // (d) Censorship suspicion: our settlement sits in the acting
        // miner's *own pool* sweep after sweep without confirming. An
        // honest miner includes pooled transactions within a block or
        // two, and the sweep backoff (10+20+40+60 s) spans several block
        // intervals — so crossing the threshold means the miner keeps
        // building templates around our money. Demote it: mining duty
        // and catch-up sync route around suspects for the rest of the
        // run (a false positive only rotates the miner, it loses
        // nothing).
        if !self.chaos.host_down(home, now) {
            if let Some(miner) = self.active_miner(now) {
                let pending_txid = {
                    let ex = &self.exchanges[exchange];
                    ex.claim
                        .as_ref()
                        .map(|t| t.txid())
                        .or_else(|| ex.refund.as_ref().map(|t| t.txid()))
                };
                let stuck = pending_txid.is_some_and(|txid| {
                    let d = &self.hosts[miner as usize].daemon;
                    d.mempool.contains(&txid) && d.chain.find_transaction(&txid).is_none()
                });
                if stuck {
                    self.exchanges[exchange].censor_sweeps += 1;
                    if self.exchanges[exchange].censor_sweeps == self.cfg.fsm.censor_suspect_sweeps
                    {
                        self.registry.inc(self.meters.censorship_suspected);
                        self.censor_suspects.insert(miner);
                    }
                } else {
                    self.exchanges[exchange].censor_sweeps = 0;
                }
            }
        }
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
        if self.chaos.is_idle() && self.censor_suspects.is_empty() {
            return Some(0);
        }
        let mut best: Option<(u64, u32)> = None;
        let mut best_clean: Option<(u64, u32)> = None;
        for (i, h) in self.hosts.iter().enumerate() {
            let id = i as u32;
            if self.chaos.host_down(id, now) {
                continue;
            }
            let height = h.daemon.chain.height();
            if best.is_none_or(|(best_h, _)| height > best_h) {
                best = Some((height, id));
            }
            if !self.censor_suspects.contains(&id)
                && best_clean.is_none_or(|(best_h, _)| height > best_h)
            {
                best_clean = Some((height, id));
            }
        }
        best_clean.or(best).map(|(_, id)| id)
    }

    /// True when the acting miner has `txid` in neither its mempool nor
    /// its main chain — i.e. the transaction will never confirm without
    /// another broadcast. With every host down there is no miner to
    /// judge by, so nothing is re-broadcast until the next sweep.
    fn miner_lacks(&self, now: SimTime, txid: &TxId) -> bool {
        let Some(miner) = self.active_miner(now) else {
            return false;
        };
        let miner = &self.hosts[miner as usize].daemon;
        !miner.mempool.contains(txid) && miner.chain.find_transaction(txid).is_none()
    }

    /// Re-admits `tx` on `host` (if its pool lost it), forgets the relay
    /// dedup so it floods again, and gossips it. Insert failures are
    /// fine — a conflicting settlement already sits in the pool.
    fn rebroadcast(
        &mut self,
        now: SimTime,
        host: u32,
        tx: Transaction,
        queue: &mut EventQueue<Event>,
    ) {
        let txid = tx.txid();
        let h = &mut self.hosts[host as usize];
        let mut at = now;
        if !h.daemon.mempool.contains(&txid) {
            let (done, result) = h
                .daemon
                .accept_transaction(now, tx.clone(), &self.cfg.costs);
            if result.is_err() {
                return;
            }
            at = done;
        }
        let h = &mut self.hosts[host as usize];
        h.daemon.relay.forget(&txid.0);
        h.daemon.relay.mark_seen(txid.0);
        self.registry.inc(self.meters.rebroadcasts);
        self.flood(queue, at, host, &Parcel::tx(tx));
    }

    fn handle_mine_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        // Interval metrics ride the mining heartbeat — the one periodic
        // event every run has. Edge-triggered, so a slow block interval
        // just lowers the effective sampling rate.
        if let Some(timeline) = self.timeline.as_mut() {
            timeline.maybe_sample(now, &self.registry);
        }
        // Stop mining when work is done and nothing is pending anywhere.
        let work_left = self.completed + self.failed < self.started
            || self.started < self.cfg.target_exchanges
            || self.hosts.iter().any(|h| !h.daemon.mempool.is_empty())
            // Money still in escrow keeps blocks coming: the refund
            // branch needs the chain to reach the CLTV height.
            || self
                .exchanges
                .iter()
                .any(|ex| ex.fsm.phase() == Phase::Escrowed);
        if !work_left {
            return;
        }
        // Miner failover: the master mines unless it is crashed, in
        // which case the tallest live standby takes over until the
        // master catches back up. With every host down the tick just
        // reschedules — a block nobody could gossip helps no one.
        let Some(miner) = self.active_miner(now) else {
            let delay = self.next_block_delay();
            queue.schedule_in(delay, Event::MineTick);
            return;
        };
        // Scheduled fork injection: mine a heavier side branch instead
        // of extending the tip, forcing every host through a reorg.
        if !self.chaos.is_idle() {
            if let Some(depth) = self.chaos.take_fork(now) {
                self.mine_fork(now, miner, depth, queue);
                let delay = self.next_block_delay();
                queue.schedule_in(delay, Event::MineTick);
                return;
            }
        }
        // Byzantine censorship: a miner inside its CensorClaims window
        // silently excludes every settlement transaction — anything
        // spending a known escrow outpoint, claim and refund alike —
        // from its template. The pool keeps them (censorship is not
        // eviction), so an honest miner taking over mines them at once.
        let censoring = !self.chaos.is_idle() && self.chaos.censoring_miner(miner, now);
        let escrow_ops: HashSet<OutPoint> = if censoring {
            self.exchanges
                .iter()
                .filter_map(|ex| ex.escrow.as_ref().map(|e| e.outpoint()))
                .collect()
        } else {
            HashSet::new()
        };
        if censoring {
            let withheld = self.hosts[miner as usize]
                .daemon
                .mempool
                .iter()
                .filter(|tx| tx.inputs.iter().any(|i| escrow_ops.contains(&i.prevout)))
                .count() as u64;
            if withheld > 0 {
                // Per-template exclusion events, not distinct txs: the
                // same stuck claim counts once per censored block.
                self.registry
                    .add(self.chaos.meters().claims_censored, withheld);
            }
        }
        let block = {
            let host = &mut self.hosts[miner as usize];
            let params = host.daemon.chain.params().clone();
            let height = host.daemon.chain.height() + 1;
            let tag: &[u8] = if miner == 0 { b"master" } else { b"standby" };
            let mut txs = vec![Transaction::coinbase(
                height,
                tag,
                vec![TxOut {
                    value: params.coinbase_reward,
                    script_pubkey: host.wallet.locking_script(),
                }],
            )];
            let budget = params.max_block_size.saturating_sub(txs[0].size() + 88);
            if censoring {
                txs.extend(host.daemon.mempool.block_template_excluding(budget, |tx| {
                    tx.inputs.iter().any(|i| escrow_ops.contains(&i.prevout))
                }));
            } else {
                txs.extend(host.daemon.mempool.block_template(budget));
            }
            // Fees go unclaimed (coinbase pays subsidy only) — simpler and
            // valid (coinbase may pay less than allowed).
            Block::mine(
                host.daemon.chain.tip(),
                now.as_micros(),
                params.difficulty_bits,
                txs,
            )
        };
        let (done, action) = {
            let host = &mut self.hosts[miner as usize];
            let mut rng = host.rng.fork(0x113e);
            host.daemon.accept_block(now, block.clone(), &mut rng)
        };
        if matches!(action, Ok(BlockAction::Extended(_))) {
            self.blocks_mined += 1;
            if miner != 0 {
                self.standby_blocks_mined += 1;
            }
            let parcel = Parcel::block(block);
            self.hosts[miner as usize]
                .daemon
                .relay
                .mark_seen(parcel.flood_id());
            self.flood(queue, done, miner, &parcel);
            if miner != 0 {
                // A standby miner is also a protocol actor (recipient or
                // gateway). Its own blocks never echo back through the
                // relay, so the settlement bookkeeping that normally runs
                // on block receipt must run here.
                self.apply_settlements(done, miner, queue);
                self.gateway_check_confirmations(done, miner, queue);
            } else {
                self.audit_master();
            }
        }
        let delay = self.next_block_delay();
        queue.schedule_in(delay, Event::MineTick);
    }

    /// Mines `depth + 1` empty blocks on top of the block `depth` below
    /// the acting miner's tip, overtaking the main chain and triggering
    /// a reorg everywhere. The miner's own mempool repair re-pools the
    /// orphaned transactions, so settlements re-confirm on the new
    /// branch through normal mining.
    fn mine_fork(&mut self, now: SimTime, miner: u32, depth: u32, queue: &mut EventQueue<Event>) {
        self.registry.inc(self.chaos.meters().forks);
        let (params, height) = {
            let host = &self.hosts[miner as usize];
            (
                host.daemon.chain.params().clone(),
                host.daemon.chain.height(),
            )
        };
        let depth = (depth as u64).min(height) as u32;
        let fork_height = height - depth as u64;
        let mut parent = self.hosts[miner as usize]
            .daemon
            .chain
            .block_at(fork_height)
            .expect("fork point on main chain")
            .hash();
        for i in 0..=depth as u64 {
            let block_height = fork_height + 1 + i;
            let coinbase = Transaction::coinbase(
                block_height,
                b"fork",
                vec![TxOut {
                    value: params.coinbase_reward,
                    script_pubkey: self.hosts[miner as usize].wallet.locking_script(),
                }],
            );
            let block = Block::mine(
                parent,
                now.as_micros() + i,
                params.difficulty_bits,
                vec![coinbase],
            );
            parent = block.hash();
            let (done, action) = {
                let host = &mut self.hosts[miner as usize];
                let mut rng = host.rng.fork(0xf04c);
                host.daemon.accept_block(now, block.clone(), &mut rng)
            };
            if action.is_err() {
                return;
            }
            self.blocks_mined += 1;
            if miner != 0 {
                self.standby_blocks_mined += 1;
            }
            let parcel = Parcel::block(block);
            self.hosts[miner as usize]
                .daemon
                .relay
                .mark_seen(parcel.flood_id());
            self.apply_settlements(done, miner, queue);
            self.flood(queue, done, miner, &parcel);
        }
        if miner == 0 {
            self.audit_master();
        }
    }
}

/// Rebuilds an identical chain for another host (shared bootstrap).
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

fn clone_chain(params: &ChainParams, source: &Chain) -> Chain {
    let blocks: Vec<Block> = source.iter_main().cloned().collect();
    let mut chain = Chain::new(params.clone(), blocks[0].clone());
    for block in blocks.into_iter().skip(1) {
        chain.add_block(block).expect("bootstrap blocks valid");
    }
    chain
}

/// Like [`clone_chain`] but backed by a fresh persistent store at `dir`:
/// the genesis and warm-up blocks are written through to disk, so a
/// later crash-restart can reopen the chain instead of keeping memory.
fn clone_chain_with_store(params: &ChainParams, source: &Chain, dir: &std::path::Path) -> Chain {
    let blocks: Vec<Block> = source.iter_main().cloned().collect();
    let mut chain = Chain::create_with_store(
        params.clone(),
        blocks[0].clone(),
        dir,
        bcwan_chain::StoreConfig::default(),
    )
    .expect("host store directory writable");
    for block in blocks.into_iter().skip(1) {
        chain.add_block(block).expect("bootstrap blocks valid");
    }
    chain
}

fn recipient_bytes(addr: &[u8; 20]) -> [u8; ADDRESS_LEN] {
    *addr
}

impl Actor<Event> for World {
    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::SensorFire { sensor } => self.handle_sensor_fire(now, sensor, queue),
            Event::RequestArrived { exchange } => self.handle_request_arrived(now, exchange, queue),
            Event::KeySent { exchange } => self.handle_key_sent(now, exchange, queue),
            Event::KeyArrived { exchange } => self.handle_key_arrived(now, exchange, queue),
            Event::DataArrived { exchange } => self.handle_data_arrived(now, exchange, queue),
            Event::RequestTimeout { exchange, attempt } => {
                self.handle_request_timeout(now, exchange, attempt, queue)
            }
            Event::DataTimeout { exchange, attempt } => {
                self.handle_data_timeout(now, exchange, attempt, queue)
            }
            Event::Wan(delivery) => self.handle_wan(now, delivery, queue),
            Event::MineTick => self.handle_mine_tick(now, queue),
            Event::FsmDeadline { exchange, seq } => {
                self.handle_fsm_deadline(now, exchange, seq, queue)
            }
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
        // through re-flooding, and catch-up sync must pick linked
        // sources. The run still completes cleanly.
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
        let mut cfg = WorkloadConfig::tiny(10, 35).with_lora_contention();
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
    fn analytic_contention_adds_loss_over_flat_rate() {
        // Same seed with and without the ALOHA term: the contention run
        // must lose at least as many frames (strictly more under load).
        let flat = World::new(WorkloadConfig::tiny(10, 36)).run();
        let mut cfg = WorkloadConfig::tiny(10, 36).with_lora_contention();
        // Crank the population so the offered load G is non-trivial.
        cfg.sensors_per_host = 400;
        let contended = World::new(cfg).run();
        let lost = |r: &ExperimentResult| {
            r.metrics
                .counters
                .iter()
                .find(|(n, _)| n == "world.lora_frames_lost_total")
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(lost(&flat), 0, "flat run has no loss configured");
        assert!(
            lost(&contended) > 0,
            "a 800-sensor cell at full duty must see ALOHA collisions"
        );
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
