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
//! a [`Node`] and every sensor a `Device`. `World` supplies what neither
//! decides for itself, one record per leg of the testbed: `radio` (the
//! sensors' air), `wan` (the simulated WAN — gossip graph, latency, loss
//! and duplication — and the hosts' wake-ups and restarts), `miner` (the
//! mining schedule) and `ledger` (the measurement marks, the auditor and
//! the one fold of every count into the metrics). Every
//! leg draws from the run's one [`SimRng`] and asks its one
//! [`ChaosEngine`], in the order events arrive.
//!
//! What the testbed never varies is a constant, not a [`WorkloadConfig`]
//! field: the escrow reward and fee, the SF7 radio and the EU868 duty
//! cycle, the recovery schedules in [`fsm`](crate::fsm).

mod ledger;
mod miner;
mod radio;
mod wan;

use crate::audit::GatewayOutcome;
use crate::costs::CostModel;
use crate::daemon::Daemon;
use crate::device::{Device, Timer};
use crate::directory::{bootstrap_chain, Directory};
use crate::escrow;
use crate::node::{Node, Parcel, Terms};
use crate::provisioning::{mint_all, DeviceId};
use bcwan_chain::{Address, ChainParams, SigCache, StoreConfig, Wallet};
use bcwan_crypto::rsa::RsaKeySize;
use bcwan_p2p::NodeId;
use bcwan_sim::{
    run, Actor, ChaosEngine, ChaosPlan, EventQueue, LatencyModel, Series, SimDuration, SimRng,
    SimTime, Snapshot, SnapshotSeries,
};
use ledger::Ledger;
use miner::Miner;
use radio::{Air, Radio};
use std::sync::Arc;
use wan::Wan;

pub use wan::FaultModel;

/// Escrow reward per delivered message (never varied in §5.2).
const REWARD: u64 = 10;
/// Transaction fee budgeted per escrow, claim and refund.
const FEE: u64 = 1;

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
            faults: FaultModel::default(),
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
    /// Frozen metrics registry: `world.*`, `wan.*`, `fsm.*`,
    /// `byzantine.*`, `chaos.*`, `invariant.*`, `audit.*`, `daemon.*`,
    /// `chain.*`, `mempool.*`, `store.*`, `validate.*` and `net.*` rows
    /// (see EXPERIMENTS.md, "Reading the metrics").
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
    /// A WAN message from host `from` arrived at host `to`.
    Wan {
        from: u32,
        to: u32,
        parcel: Arc<Parcel>,
    },
    /// The master assembles and broadcasts the next block.
    MineTick,
    /// A host's earliest deadline came due: its watchdog runs.
    Wake { host: u32 },
    /// A crashed host comes back up (end of a chaos crash window).
    ChaosRestart { host: u32 },
}

/// The world's event queue.
type Queue = EventQueue<Event>;

/// The simulation world: the hosts, the sensors, and the testbed's legs
/// around them.
pub struct World {
    hosts: Vec<Node>, // index 0 = master, 1..=actor_hosts = actors
    /// Every sensor, beside the host it is provisioned at.
    devices: Vec<(u32, Device)>,
    cfg: WorkloadConfig,
    rng: SimRng,
    chaos: ChaosEngine,
    radio: Radio,
    wan: Wan,
    miner: Miner,
    ledger: Ledger,
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

        // Hosts share the bootstrapped chain, the exchange terms, the
        // address book an operator would hand each of them, and one
        // verification memo: a spend is script-verified once per run,
        // however many hosts admit and connect it.
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
        let radio = Radio::new(&cfg);
        let devices = devices
            .iter()
            .zip(mint_all(rngs))
            .map(|(&(actor, device_id), keys)| {
                let host = &mut hosts[actor as usize];
                let home_addr = host.wallet.address();
                let credentials = host.registry.enroll(device_id, home_addr, keys);
                (actor, Device::new(credentials, radio.spec))
            })
            .collect();

        World {
            hosts,
            devices,
            rng,
            chaos: ChaosEngine::new(cfg.chaos.clone()),
            radio,
            wan: Wan::new(&cfg),
            miner: Miner::default(),
            ledger: Ledger::new(&cfg),
            cfg,
        }
    }

    /// Runs the experiment to completion and reports.
    pub fn run(mut self) -> ExperimentResult {
        let mut queue = Queue::new();
        // Stagger sensor starts across one send interval.
        let n = self.devices.len().max(1);
        for sensor in 0..self.devices.len() {
            let offset = SimDuration::from_secs_f64(
                self.radio.spec.mean_gap.as_secs_f64() * (sensor as f64 / n as f64),
            );
            let timer = Timer::Fire;
            queue.schedule_at(SimTime::ZERO + offset, Event::Device { sensor, timer });
        }
        // Mining heartbeat.
        let first_block = miner::next_block_delay(&mut self.rng, &self.cfg.chain_params);
        queue.schedule_in(first_block, Event::MineTick);
        // Crash windows end in restarts.
        for (host, at) in self.chaos.restarts() {
            queue.schedule_at(at, Event::ChaosRestart { host });
        }

        let deadline = SimTime::ZERO + self.cfg.max_sim_time;
        run(&mut self, &mut queue, Some(deadline));
        self.report(queue.now())
    }
}

impl Actor<Event> for World {
    fn handle(&mut self, now: SimTime, event: Event, queue: &mut Queue) {
        match event {
            Event::Device { sensor, timer } => self.handle_timer(now, sensor, timer, queue),
            Event::Radio { exchange, air } => self.handle_radio(now, exchange, air, queue),
            Event::Wan { from, to, parcel } => self.handle_wan(now, from, to, parcel, queue),
            Event::MineTick => self.handle_mine_tick(now, queue),
            Event::Wake { host } => self.handle_wake(now, host, queue),
            Event::ChaosRestart { host } => self.handle_chaos_restart(now, host, queue),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::ledger::{ExchangeState, Stage};
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
