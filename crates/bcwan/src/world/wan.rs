//! The WAN leg: the gateways as PlanetLab hosts on the overlay — floods
//! and dials under the WAN's latency and the chaos plan's cuts, each
//! host's watchdog wake-ups, and crashed hosts' warm or cold restarts.

use super::ledger::Ledger;
use super::miner::Miner;
use super::{Event, Queue, WorkloadConfig, World};
use crate::node::{Misbehaviour, Node, NodeEnv, Note, Parcel};
use crate::wire::{WanMessage, KIND_COUNT};
use bcwan_chain::{Chain, StoreConfig};
use bcwan_p2p::{ChainMessage, Delivery, Network, NodeId, Topology};
use bcwan_sim::{ChaosEngine, SimDuration, SimRng, SimTime};
use std::sync::Arc;

bcwan_sim::counters! {
    /// How chaos restarts brought hosts back.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct RestartTally {
        pub(super) warm: u64 => "world.restart.warm_total",
        pub(super) cold: u64 => "world.restart.cold_total",
    }
}

/// The overlay, each host's pending wake-up, and what crossed the WAN.
pub(super) struct Wan {
    pub(super) network: Network,
    /// Each host's earliest scheduled [`Event::Wake`].
    wakes: Vec<Option<SimTime>>,
    /// Messages sent, by [`WanMessage::kind_index`] (`wan.messages.*`).
    pub(super) messages: [u64; KIND_COUNT],
    /// Their wire bytes, by kind (`wan.bytes.*`).
    pub(super) bytes: [u64; KIND_COUNT],
    pub(super) restarts: RestartTally,
}

impl Wan {
    pub(super) fn new(cfg: &WorkloadConfig) -> Self {
        let n_hosts = cfg.actor_hosts + 1;
        let topology = match cfg.gossip_degree {
            Some(degree) => Topology::ring_lattice(n_hosts, degree),
            None => Topology::full_mesh(n_hosts),
        };
        Wan {
            network: Network::new(topology, cfg.latency.clone()).with_faults(cfg.faults.clone()),
            wakes: vec![None; n_hosts as usize],
            messages: [0; KIND_COUNT],
            bytes: [0; KIND_COUNT],
            restarts: RestartTally::default(),
        }
    }

    /// Accounts `copies` transmissions of `parcel` by kind.
    fn count(&mut self, parcel: &Parcel, copies: usize) {
        let k = parcel.msg.kind_index();
        self.messages[k] += copies as u64;
        self.bytes[k] += (parcel.wire_size() * copies) as u64;
    }
}

/// Everything outside one host, as the simulator provides it.
struct Env<'a> {
    wan: &'a mut Wan,
    ledger: &'a mut Ledger,
    miner: &'a mut Miner,
    rng: &'a mut SimRng,
    chaos: &'a mut ChaosEngine,
    queue: &'a mut Queue,
    /// The host this environment is bound to.
    me: u32,
}

impl Env<'_> {
    /// Floods a chain message to this host's peers — with `only`, to
    /// those whose host id has that parity: the equivocator's tool for
    /// showing each half of the overlay a different claim. The filter
    /// draws the same per-delivery latency samples as a full flood, so
    /// the RNG stream (and with it same-seed determinism) is unaffected.
    fn flood_to(&mut self, at: SimTime, parcel: &Arc<Parcel>, only: Option<u32>) {
        let from = self.me;
        let deliveries = self.wan.network.broadcast(self.rng, NodeId(from), parcel);
        // Chaos: block propagation can be artificially delayed.
        let extra = if matches!(parcel.msg, WanMessage::Chain(ChainMessage::Block(_))) {
            let d = self.chaos.block_delay(at);
            self.chaos.stats.blocks_delayed += u64::from(d > SimDuration::ZERO);
            d
        } else {
            SimDuration::ZERO
        };
        let mut copies = 0;
        for (delay, delivery) in deliveries {
            let to = delivery.to.0;
            if only.is_some_and(|parity| to % 2 != parity) || self.chaos_drops(at, to) {
                continue;
            }
            copies += 1;
            self.queue
                .schedule_at(at + delay + extra, Event::Wan(delivery));
        }
        self.wan.count(parcel, copies);
    }

    /// Whether chaos kills a message on the `me → to` overlay link at
    /// `at` (crashed endpoint, partition cut, or an armed connection
    /// kill). Counts the drop it attributes.
    fn chaos_drops(&mut self, at: SimTime, to: u32) -> bool {
        let (chaos, from) = (&mut *self.chaos, self.me);
        if chaos.host_down(from, at) || chaos.host_down(to, at) {
            chaos.stats.crash_drops += 1;
            return true;
        }
        if chaos.partitioned(from, to, at) {
            chaos.stats.partition_drops += 1;
            return true;
        }
        if chaos.take_conn_kill(from, to, at) {
            chaos.stats.conn_kills += 1;
            return true;
        }
        false
    }
}

impl NodeEnv for Env<'_> {
    fn flood(&mut self, at: SimTime, parcel: &Arc<Parcel>) {
        self.flood_to(at, parcel, None);
    }

    /// Unicasts a WAN message over a direct TCP-like dial (the paper's
    /// gateway→recipient leg, and sync requests/responses): the sender
    /// knows the peer's IP from the on-chain directory, so the static
    /// gossip graph does not constrain it. Lossy faults do not apply;
    /// chaos-level cuts do.
    fn unicast(&mut self, at: SimTime, to: NodeId, msg: WanMessage) {
        let (from, parcel) = (NodeId(self.me), Parcel::new(msg));
        let (delay, delivery) = self.wan.network.dial(self.rng, from, to, parcel);
        if self.chaos_drops(at, to.0) {
            return;
        }
        self.wan.count(&delivery.msg, 1);
        self.queue.schedule_at(at + delay, Event::Wan(delivery));
    }

    fn flood_split(&mut self, at: SimTime, claim: &Arc<Parcel>, rival: &Arc<Parcel>) {
        // Counted only once both conflicting claims are live: the
        // session is gone, so this runs once per exchange.
        self.chaos.stats.equivocations += 1;
        self.flood_to(at, claim, Some(0));
        self.flood_to(at, rival, Some(1));
    }

    fn note(&mut self, at: SimTime, tag: u64, note: Note) {
        // The mining model routes around the suspect.
        if let Note::CensorshipSuspected(miner) = note {
            self.miner.censor_suspects.insert(miner.0);
        }
        self.ledger.note(at, tag as usize, note);
    }

    /// Which exchange is this? Simulation-level bookkeeping only (the
    /// protocol itself keys on device + ephemeral key). Looked up
    /// regardless of progress so a re-delivered copy is recognized, and
    /// never double-counted.
    fn delivery(&mut self, key: u64) -> Option<u64> {
        let ledger = &mut *self.ledger;
        let Some(&exchange) = ledger.deliveries.get(&(self.me, key)) else {
            ledger.tally.failed += 1;
            return None;
        };
        (!ledger.exchanges[exchange].done).then_some(exchange as u64)
    }

    fn closed(&self, tag: u64) -> bool {
        self.ledger.exchanges[tag as usize].done
    }

    fn wake_at(&mut self, at: SimTime) {
        let at = at.max(self.queue.now());
        let wake = &mut self.wan.wakes[self.me as usize];
        if wake.is_none_or(|pending| at < pending) {
            *wake = Some(at);
            self.queue.schedule_at(at, Event::Wake { host: self.me });
        }
    }

    fn misbehaves(&mut self, now: SimTime, how: Misbehaviour) -> bool {
        match how {
            Misbehaviour::WithholdClaim => {
                let withholds = self.chaos.withhold_claim(self.me, now);
                self.chaos.stats.claims_withheld += u64::from(withholds);
                withholds
            }
            Misbehaviour::Equivocate => self.chaos.equivocate_claim(self.me, now),
        }
    }
}

impl World {
    /// Runs `act` on one host, handing it the environment that stands
    /// for everything else: the legs' state and the event queue.
    pub(super) fn at_host<R>(
        &mut self,
        host: u32,
        queue: &mut Queue,
        act: impl FnOnce(&mut Node, &mut dyn NodeEnv) -> R,
    ) -> R {
        let mut env = Env {
            wan: &mut self.wan,
            ledger: &mut self.ledger,
            miner: &mut self.miner,
            rng: &mut self.rng,
            chaos: &mut self.chaos,
            queue,
            me: host,
        };
        act(&mut self.hosts[host as usize], &mut env)
    }

    pub(super) fn handle_wan(
        &mut self,
        now: SimTime,
        delivery: Delivery<Arc<Parcel>>,
        queue: &mut Queue,
    ) {
        let to = delivery.to.0;
        // A message can be in flight when its receiver crashes; it is
        // lost on arrival, not retroactively.
        if self.chaos.host_down(to, now) {
            self.chaos.stats.crash_drops += 1;
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
    pub(super) fn handle_chaos_restart(&mut self, now: SimTime, host: u32, queue: &mut Queue) {
        let reopened = self
            .cfg
            .store_dir
            .as_ref()
            .filter(|_| self.hosts[host as usize].daemon.chain.has_store())
            .and_then(|root| {
                Chain::open_store(
                    self.cfg.chain_params.clone(),
                    root.join(format!("host-{host}")),
                    StoreConfig::default(),
                )
                .ok()
            })
            .map(|opened| opened.chain);
        let restarts = &mut self.wan.restarts;
        if reopened.is_some() {
            restarts.warm += 1;
        } else {
            restarts.cold += 1;
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
    pub(super) fn handle_wake(&mut self, now: SimTime, host: u32, queue: &mut Queue) {
        let wake = &mut self.wan.wakes[host as usize];
        if *wake != Some(now) {
            return;
        }
        *wake = None;
        if self.chaos.host_down(host, now) {
            return;
        }
        self.at_host(host, queue, |node, env| node.on_deadline(now, env));
    }
}
