//! The ledger leg: each exchange's measurement marks (the paper's
//! latency and its eight Fig. 3 phases), the settlement auditor, and
//! [`World::fold_metrics`], the one place the legs' `counters!` tables
//! and the hosts' own meet the metrics registry.

use super::{ExperimentResult, WorkloadConfig, World};
use crate::audit::SettlementAuditor;
use crate::daemon::DaemonStats;
use crate::fsm::{FsmEvent, Phase};
use crate::node::Note;
use crate::wire::KIND_LABELS;
use bcwan_chain::MempoolStats;
use bcwan_sim::{HistogramId, Metric, Registry, Series, SimDuration, SimTime, SnapshotSeries};
use std::collections::{HashMap, HashSet};

/// The eight Fig. 3 phases an exchange is split into, in name order:
/// the order [`ExperimentResult::phases`] lists them in.
#[derive(Clone, Copy)]
pub(super) enum Stage {
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
    pub(super) const NAMES: [&str; 8] = [
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
/// part and the measurement marks. The rest lives in the sensor's
/// `Device` and the gateway's and recipient's `Node`s, filed under this
/// exchange's index as their tag.
#[derive(Default)]
pub(super) struct ExchangeState {
    pub(super) sensor: usize,
    pub(super) gateway: u32, // actor index (1-based host id)
    pub(super) home: u32,
    /// When the gateway first sent ePk — the paper's measurement start.
    pub(super) measure_start: Option<SimTime>,
    /// When the exchange entered each [`Stage`] it is in now.
    pub(super) entered: [Option<SimTime>; 8],
    /// Whether the gateway has heard a request: a copy resent after that
    /// opens no second `request_uplink` sample.
    pub(super) request_heard: bool,
    /// Whether the recipient published the escrow: from then on only the
    /// chain ends the exchange.
    pub(super) escrowed: bool,
    pub(super) done: bool,
}

impl ExchangeState {
    /// The exchange enters `stage` at `at`; entering again (a resent
    /// request or key) restarts it.
    pub(super) fn enter(&mut self, stage: Stage, at: SimTime) {
        self.entered[stage as usize] = Some(at);
    }

    /// The exchange leaves `stage` at `at`: the time since it entered is
    /// one sample of `phases[stage]`. Leaving a stage it is not in
    /// records nothing.
    pub(super) fn leave(&mut self, stage: Stage, at: SimTime, phases: &mut [Series; 8]) {
        if let Some(start) = self.entered[stage as usize].take() {
            let spent = at.saturating_duration_since(start);
            phases[stage as usize].record(spent.as_secs_f64());
        }
    }
}

bcwan_sim::counters! {
    /// How the exchanges ended, and the recovery and Byzantine events
    /// their nodes reported.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct ExchangeTally {
        pub(super) started: u64 => "world.exchanges_started_total",
        pub(super) completed: u64 => "world.exchanges_completed_total",
        pub(super) failed: u64 => "world.exchanges_failed_total",
        /// Settlement events a recipient's machine refused (0 when correct).
        illegal_transitions: u64 => "fsm.illegal_transitions_total",
        /// Gateway → recipient re-deliveries driven by the Sealed deadline.
        deliver_retries: u64 => "fsm.deliver_retries_total",
        /// Escrow/claim/refund transactions a node re-published.
        rebroadcasts: u64 => "fsm.rebroadcasts_total",
        /// CLTV refunds the recipient submitted.
        refunds_submitted: u64 => "fsm.refunds_submitted_total",
        /// Exchanges whose recipient saw two distinct claims spend its escrow.
        equivocations_detected: u64 => "byzantine.equivocation_detected_total",
        /// Settlements whose leave-outs made a node suspect their miner.
        censorship_suspected: u64 => "byzantine.censorship_suspected_total",
    }
}

/// The exchanges' books, the auditor and the metrics registry.
pub(super) struct Ledger {
    pub(super) exchanges: Vec<ExchangeState>,
    /// `(home, delivery_tag(ePk))` → exchange, filed when the key first
    /// goes down: how a recipient's `Deliver` finds its exchange.
    pub(super) deliveries: HashMap<(u32, u64), usize>,
    latencies: Series,
    /// Time spent in each [`Stage`]: one sample each time an exchange
    /// leaves it.
    pub(super) phases: [Series; 8],
    pub(super) tally: ExchangeTally,
    /// Always-on settlement auditor tracking the master's main chain
    /// block by block (value conservation, one settlement per escrow,
    /// honest/adversarial revenue split).
    auditor: SettlementAuditor,
    /// Hosts the chaos plan marks Byzantine (equivocators, withholders,
    /// censoring miners) — the auditor's revenue-split key.
    adversarial: HashSet<u32>,
    registry: Registry,
    latency: HistogramId,
    timeline: Option<SnapshotSeries>,
}

impl Ledger {
    pub(super) fn new(cfg: &WorkloadConfig) -> Self {
        let mut registry = Registry::new();
        Ledger {
            exchanges: Vec::new(),
            deliveries: HashMap::new(),
            latencies: Series::new(),
            phases: Default::default(),
            tally: ExchangeTally::default(),
            latency: registry.histogram("world.exchange_latency_seconds"),
            auditor: SettlementAuditor::new(),
            adversarial: cfg.chaos.adversarial_hosts().into_iter().collect(),
            registry,
            timeline: cfg.metrics_interval.map(SnapshotSeries::new),
        }
    }

    /// Gives up on an exchange before money moved. Once the recipient
    /// published the escrow only the chain ends it, so a gateway giving
    /// up its re-deliveries then changes nothing.
    pub(super) fn abort(&mut self, exchange: usize) {
        let ex = &mut self.exchanges[exchange];
        if !ex.done && !ex.escrowed {
            ex.done = true;
            self.tally.failed += 1;
        }
    }

    /// Keeps the books in step with what a host just did.
    pub(super) fn note(&mut self, at: SimTime, exchange: usize, note: Note) {
        let tally = &mut self.tally;
        let ex = &mut self.exchanges[exchange];
        match note {
            Note::SessionOpened => ex.enter(Stage::Keygen, at),
            Note::Abort => self.abort(exchange),
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
                tally.completed += 1;
                ex.leave(Stage::ClaimAndDecrypt, at, &mut self.phases);
                if let Some(start) = ex.measure_start {
                    let total = at.saturating_duration_since(start).as_secs_f64();
                    self.latencies.record(total);
                    self.registry.observe(self.latency, total);
                }
            }
            Note::OpenFailed => {
                ex.done = true;
                tally.failed += 1;
            }
            Note::Equivocation => tally.equivocations_detected += 1,
            // The CLTV branch closed the exchange: the gateway never
            // revealed the key, so the reading is lost but the coins came
            // home.
            Note::Settlement(FsmEvent::RefundConfirmed) if !ex.done => {
                ex.done = true;
                tally.failed += 1;
            }
            Note::Settlement(_) => {}
            Note::IllegalSettlement(_) => tally.illegal_transitions += 1,
            Note::Redelivered => tally.deliver_retries += 1,
            Note::Rebroadcast => tally.rebroadcasts += 1,
            Note::Refunding => tally.refunds_submitted += 1,
            Note::CensorshipSuspected(_) => tally.censorship_suspected += 1,
        }
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

impl World {
    /// Closes the run at `now`: flushes what remains dirty (the one store
    /// write a mid-run fold must not cause), takes the auditor's final
    /// census (which counts the FSM↔chain mismatches), folds, and closes
    /// the timeline with a frame equal to the final snapshot.
    pub(super) fn report(mut self, now: SimTime) -> ExperimentResult {
        let actors = self.actor_daemons();
        let confirmed_txs = self.hosts[0]
            .daemon
            .chain
            .iter_main()
            .map(|b| b.transactions.len().saturating_sub(1))
            .sum();
        let app_readings = self.hosts.iter().map(|h| h.app.len()).sum();

        for h in &mut self.hosts {
            h.daemon.chain.flush();
        }
        let census = self.fsm_census();
        let master = &self.hosts[0].daemon.chain;
        let audit = self.ledger.auditor.final_audit(master, &census);
        self.fold_metrics(now);
        let ledger = self.ledger;
        let mut timeline = ledger.timeline;
        if let Some(timeline) = timeline.as_mut() {
            timeline.sample(now, &ledger.registry);
        }
        let utxo = self.hosts[0].daemon.chain.utxo();
        let phases = Stage::NAMES.into_iter().zip(ledger.phases);
        let phases = phases
            .filter(|(_, s)| !s.is_empty())
            .map(|(name, s)| (name.to_string(), s))
            .collect();
        ExperimentResult {
            completed: ledger.tally.completed as usize,
            failed: ledger.tally.failed as usize,
            latencies: ledger.latencies,
            sim_time: now.saturating_duration_since(SimTime::ZERO),
            blocks_mined: self.miner.blocks.blocks_mined,
            standby_blocks_mined: self.miner.blocks.standby_blocks_mined,
            stalls: actors.stalls,
            total_stall: actors.total_stall,
            confirmed_txs,
            app_readings,
            metrics: ledger.registry.snapshot(),
            phases,
            escrows_claimed: audit.claimed,
            escrows_refunded: audit.refunded,
            escrows_open: audit.open,
            invariant_violations: audit.violations,
            utxo_total: utxo.total_value(),
            utxo_fingerprint: utxo.fingerprint(),
            honest_revenue: ledger.auditor.honest_revenue(),
            adversarial_revenue: ledger.auditor.adversarial_revenue(),
            gateway_settlements: ledger.auditor.gateway_outcomes(),
            restarts_warm: self.wan.restarts.warm,
            restarts_cold: self.wan.restarts.cold,
            timeline,
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

    /// `(exchange, phase)` for every exchange that published an escrow,
    /// as its recipient's machine has it — the auditor's FSM↔chain
    /// census input.
    fn fsm_census(&self) -> Vec<(usize, Phase)> {
        let exchanges = self.ledger.exchanges.iter().enumerate();
        let phase = |(i, ex): (usize, &ExchangeState)| {
            Some((i, self.hosts[ex.home as usize].settlement(i as u64)?))
        };
        exchanges.filter_map(phase).collect()
    }

    /// Folds every count the run keeps into the registry — each leg's
    /// tables, the chaos engine's, the hosts' tables summed, the shared
    /// verification memo and the settlement census — so one snapshot
    /// describes the whole run as of `now`. It reads and never writes
    /// simulation state (no store flush), so sampling cannot move a
    /// number.
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
        let census = self.ledger.auditor.census(&self.fsm_census());

        let reg = &mut self.ledger.registry;
        self.ledger.tally.export(reg);
        self.miner.blocks.export(reg);
        self.wan.restarts.export(reg);
        reg.set_counter("world.escrows_claimed_total", census.claimed as u64);
        reg.set_counter("world.escrows_refunded_total", census.refunded as u64);
        reg.set_counter("world.escrows_open_total", census.open as u64);
        let elapsed = now.saturating_duration_since(SimTime::ZERO);
        reg.set_gauge("world.sim_time_seconds", elapsed.as_secs_f64());
        for (k, kind) in KIND_LABELS.iter().enumerate() {
            reg.set_counter(&format!("wan.messages.{kind}_total"), self.wan.messages[k]);
            reg.set_counter(&format!("wan.bytes.{kind}_total"), self.wan.bytes[k]);
        }
        self.chaos.stats.export(reg);
        // Every frame is taken after a fold, so a clean run's explicit
        // `invariant.*` zeros are in each: it was audited throughout.
        self.ledger.auditor.stats().export(reg);

        daemons.export(reg);
        self.hosts[0].daemon.chain.stats().export(reg);
        pools.export(reg);
        // The world-shared memo (every host's chain holds the one
        // `World::new` made, through restarts too), folded once: a miss
        // is a distinct script verification (ECDSA spends under
        // validate.sigcache.*, escrow OP_CHECKRSA512PAIR spends under
        // validate.sigcache.rsa.*), a hit is a host that found the spend
        // already verified.
        self.hosts[0].daemon.chain.sig_cache().export(reg);
        self.wan.stats.export(reg);
        fold_hosts(reg, stores);
        let gateways = (1..).zip(self.radio.by_gw.iter().copied());
        fold_hosts(reg, gateways.collect());
    }

    /// Takes a timeline frame at `now` if one is due (the mining
    /// heartbeat, the one periodic event every run has, asks); the fold
    /// runs only for a frame that is due.
    pub(super) fn sample_timeline(&mut self, now: SimTime) {
        if self.ledger.timeline.as_ref().is_some_and(|t| t.due(now)) {
            self.fold_metrics(now);
            let ledger = &mut self.ledger;
            let timeline = ledger.timeline.as_mut().expect("checked above");
            timeline.sample(now, &ledger.registry);
        }
    }

    /// Brings the always-on auditor in line with the master's chain.
    /// Called after every event that can move host 0's tip, so a
    /// violation shows in the next timeline frame, at the block where it
    /// lands.
    pub(super) fn audit_master(&mut self) {
        let master = &self.hosts[0].daemon.chain;
        self.ledger.auditor.reconcile(master);
    }
}
