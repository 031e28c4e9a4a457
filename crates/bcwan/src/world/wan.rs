//! The WAN leg: the gateways as PlanetLab hosts on the overlay — floods
//! and dials under the WAN's latency, loss and duplication and the chaos
//! plan's cuts, each host's watchdog wake-ups, and crashed hosts'
//! warm or cold restarts.

use super::ledger::Ledger;
use super::miner::Miner;
use super::{Event, Queue, WorkloadConfig, World};
use crate::node::{Misbehaviour, Node, NodeEnv, Note, Parcel};
use crate::wire::{WanMessage, KIND_COUNT};
use bcwan_chain::{Chain, StoreConfig};
use bcwan_p2p::{ChainMessage, NodeId};
use bcwan_sim::{ChaosEngine, LatencyModel, SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// The WAN's link faults: each overlay send of a flood is dropped, or
/// delivered twice, with these probabilities. Dials are immune.
#[derive(Debug, Clone, Default)]
pub struct FaultModel {
    /// Probability a message is silently dropped.
    pub drop_probability: f64,
    /// Probability a message is delivered twice.
    pub duplicate_probability: f64,
}

bcwan_sim::counters! {
    /// Lifetime overlay traffic, counted before the chaos plan's cuts.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(super) struct NetStats {
        /// Sends attempted: one per flood peer, one per dial.
        pub(super) sent: u64 => "net.sent_total",
        /// Deliveries produced (sent minus drops, plus duplicates).
        pub(super) delivered: u64 => "net.delivered_total",
        /// Sends swallowed by the loss fault model.
        pub(super) dropped_fault: u64 => "net.dropped_fault_total",
        /// Extra deliveries from the duplication fault model.
        pub(super) duplicated: u64 => "net.duplicated_total",
    }
}

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
    /// Each host's gossip peers, ascending, so a flood walks them (and
    /// draws for them) in one order.
    peers: Vec<Vec<u32>>,
    /// One latency model for every link: the paper's PlanetLab sites
    /// are statistically exchangeable.
    latency: LatencyModel,
    faults: FaultModel,
    pub(super) stats: NetStats,
    /// Each host's earliest scheduled [`Event::Wake`].
    wakes: Vec<Option<SimTime>>,
    /// Messages sent, by [`WanMessage::kind_index`] (`wan.messages.*`).
    pub(super) messages: [u64; KIND_COUNT],
    /// Their wire bytes, by kind (`wan.bytes.*`).
    pub(super) bytes: [u64; KIND_COUNT],
    pub(super) restarts: RestartTally,
}

/// The gossip graph over `n` hosts: every host links to its `degree`
/// nearest neighbours on a ring (`degree / 2` each side, at least one),
/// and a degree of `n` or more — the default, with no degree — is
/// the paper's full mesh. A ring keeps 1 000-host fleets at `O(n·degree)`
/// links; gossip still reaches everyone by re-flooding.
fn overlay(n: u32, degree: Option<u32>) -> Vec<Vec<u32>> {
    if n < 2 {
        return vec![Vec::new(); n as usize];
    }
    let half = (degree.unwrap_or(n) / 2).max(1).min((n - 1) / 2 + 1);
    (0..n)
        .map(|i| {
            let hops = (1..=half).flat_map(|hop| [(i + hop) % n, (i + n - hop) % n]);
            let mut peers: Vec<u32> = hops.collect();
            peers.sort_unstable();
            peers.dedup();
            peers
        })
        .collect()
}

impl Wan {
    pub(super) fn new(cfg: &WorkloadConfig) -> Self {
        let n_hosts = cfg.actor_hosts + 1;
        Wan {
            peers: overlay(n_hosts, cfg.gossip_degree),
            latency: cfg.latency.clone(),
            faults: cfg.faults.clone(),
            stats: NetStats::default(),
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
    /// showing each half of the overlay a different claim.
    ///
    /// For each peer in ascending order the flood draws the drop coin,
    /// the delay, the duplicate coin and the duplicate's delay, whatever
    /// the parity filter or the chaos plan then cuts: the RNG stream
    /// (and with it same-seed determinism) does not depend on them, and
    /// the `net.*` counts are taken before them.
    fn flood_to(&mut self, at: SimTime, parcel: &Arc<Parcel>, only: Option<u32>) {
        // Chaos: block propagation can be artificially delayed.
        let extra = if matches!(parcel.msg, WanMessage::Chain(ChainMessage::Block(_))) {
            let d = self.chaos.block_delay(at);
            self.chaos.stats.blocks_delayed += u64::from(d > SimDuration::ZERO);
            d
        } else {
            SimDuration::ZERO
        };
        let (from, rng) = (self.me, &mut *self.rng);
        let wan = &mut *self.wan;
        let mut copies = 0;
        for &to in &wan.peers[from as usize] {
            wan.stats.sent += 1;
            if rng.chance(wan.faults.drop_probability) {
                wan.stats.dropped_fault += 1;
                continue;
            }
            let delay = wan.latency.sample(rng);
            let duplicate = rng
                .chance(wan.faults.duplicate_probability)
                .then(|| wan.latency.sample(rng));
            wan.stats.delivered += 1 + u64::from(duplicate.is_some());
            wan.stats.duplicated += u64::from(duplicate.is_some());
            for delay in std::iter::once(delay).chain(duplicate) {
                if only.is_some_and(|parity| to % 2 != parity)
                    || chaos_drops(self.chaos, at, from, to)
                {
                    continue;
                }
                copies += 1;
                let parcel = parcel.clone();
                let event = Event::Wan { from, to, parcel };
                self.queue.schedule_at(at + delay + extra, event);
            }
        }
        wan.count(parcel, copies);
    }
}

/// Whether chaos kills a message on the `from → to` overlay link at `at`
/// (crashed endpoint, partition cut, or an armed connection kill).
/// Counts the drop it attributes.
fn chaos_drops(chaos: &mut ChaosEngine, at: SimTime, from: u32, to: u32) -> bool {
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

impl NodeEnv for Env<'_> {
    fn flood(&mut self, at: SimTime, parcel: &Arc<Parcel>) {
        self.flood_to(at, parcel, None);
    }

    /// Unicasts a WAN message over a direct TCP-like dial (the paper's
    /// gateway→recipient leg, and sync requests/responses): the sender
    /// knows the peer's IP from the on-chain directory, so the gossip
    /// graph does not constrain it, and TCP retransmits below the lossy
    /// fault model, so that does not apply either. Chaos-level cuts do;
    /// a dial they cut still counts as sent and delivered.
    fn unicast(&mut self, at: SimTime, to: NodeId, msg: WanMessage) {
        let (from, to, parcel) = (self.me, to.0, Parcel::new(msg));
        let wan = &mut *self.wan;
        wan.stats.sent += 1;
        wan.stats.delivered += 1;
        let delay = wan.latency.sample(self.rng);
        if chaos_drops(self.chaos, at, from, to) {
            return;
        }
        wan.count(&parcel, 1);
        let event = Event::Wan { from, to, parcel };
        self.queue.schedule_at(at + delay, event);
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
        from: u32,
        to: u32,
        parcel: Arc<Parcel>,
        queue: &mut Queue,
    ) {
        // A message can be in flight when its receiver crashes; it is
        // lost on arrival, not retroactively.
        if self.chaos.host_down(to, now) {
            self.chaos.stats.crash_drops += 1;
            return;
        }
        let moves_master_tip =
            to == 0 && matches!(parcel.msg, WanMessage::Chain(ChainMessage::Block(_)));
        self.at_host(to, queue, |node, env| {
            node.handle(now, NodeId(from), parcel, env)
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

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_sim::{ChaosFault, ChaosPlan, Registry};

    /// The WAN leg and the rest of what a host's sends touch, outside any
    /// `World`.
    struct Legs {
        wan: Wan,
        ledger: Ledger,
        miner: Miner,
        rng: SimRng,
        chaos: ChaosEngine,
    }

    impl Legs {
        fn new(hosts: u32, degree: Option<u32>, latency: LatencyModel, faults: FaultModel) -> Self {
            let mut cfg = WorkloadConfig::tiny(1, 1);
            cfg.actor_hosts = hosts - 1;
            cfg.gossip_degree = degree;
            cfg.latency = latency;
            cfg.faults = faults;
            Legs {
                wan: Wan::new(&cfg),
                ledger: Ledger::new(&cfg),
                miner: Miner::default(),
                rng: SimRng::seed_from_u64(SEED),
                chaos: ChaosEngine::new(ChaosPlan::none()),
            }
        }

        /// Runs `send` as host `me` at time zero; returns the deliveries
        /// it scheduled as `(arrival, to, parcel)`, in arrival order.
        fn send(
            &mut self,
            me: u32,
            send: impl FnOnce(&mut Env),
        ) -> Vec<(SimTime, u32, Arc<Parcel>)> {
            let mut queue = Queue::new();
            send(&mut Env {
                wan: &mut self.wan,
                ledger: &mut self.ledger,
                miner: &mut self.miner,
                rng: &mut self.rng,
                chaos: &mut self.chaos,
                queue: &mut queue,
                me,
            });
            std::iter::from_fn(|| queue.pop())
                .map(|(at, event)| match event {
                    Event::Wan { from, to, parcel } => {
                        assert_eq!(from, me);
                        (at, to, parcel)
                    }
                    other => panic!("a send scheduled {other:?}"),
                })
                .collect()
        }

        /// Floods one parcel from `me`; returns `(arrival, to)` pairs.
        fn flood(&mut self, me: u32) -> Vec<(SimTime, u32)> {
            let parcel = request();
            let sent = self.send(me, |env| env.flood(SimTime::ZERO, &parcel));
            sent.into_iter().map(|(at, to, _)| (at, to)).collect()
        }

        /// Dials `to` from `me`; returns `(arrival, to)` pairs.
        fn dial(&mut self, me: u32, to: u32) -> Vec<(SimTime, u32)> {
            let msg = request().msg.clone();
            let sent = self.send(me, |env| env.unicast(SimTime::ZERO, NodeId(to), msg));
            sent.into_iter().map(|(at, to, _)| (at, to)).collect()
        }
    }

    const SEED: u64 = 77;

    fn request() -> Arc<Parcel> {
        Parcel::new(WanMessage::Chain(ChainMessage::GetBlocksFrom(0)))
    }

    fn faults(drop_probability: f64, duplicate_probability: f64) -> FaultModel {
        FaultModel {
            drop_probability,
            duplicate_probability,
        }
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    #[test]
    fn ring_lattice_shape() {
        let ring = overlay(10, Some(6));
        for (i, peers) in ring.iter().enumerate() {
            // Degree 6: three neighbours each side.
            assert_eq!(peers.len(), 6, "host {i}");
        }
        assert!(ring[0].contains(&3));
        assert!(!ring[0].contains(&5));
        // Degenerate sizes stay connected.
        assert_eq!(overlay(2, Some(6)), [[1], [0]]);
        assert_eq!(overlay(1, Some(6)), [Vec::<u32>::new()]);
    }

    #[test]
    fn ring_has_two_neighbours() {
        let ring = overlay(6, Some(2));
        for (i, peers) in ring.iter().enumerate() {
            assert_eq!(peers.len(), 2, "host {i}");
        }
        assert_eq!(ring[0], [1, 5]);
        assert!(!ring[0].contains(&3));
    }

    #[test]
    fn full_mesh_links_everyone() {
        let mesh = overlay(5, None);
        assert_eq!(mesh.len(), 5, "ids are 0..5");
        for (i, peers) in (0..).zip(&mesh) {
            let everyone_else: Vec<u32> = (0..5).filter(|&j| j != i).collect();
            assert_eq!(*peers, everyone_else, "host {i}");
        }
    }

    #[test]
    fn peers_sorted_for_determinism() {
        let graphs = [
            (10, None),
            (6, None),
            (5, None),
            (10, Some(6)),
            (7, Some(4)),
            (12, Some(3)),
            (3, Some(6)),
        ];
        for (n, degree) in graphs {
            let graph = overlay(n, degree);
            for (i, peers) in (0..).zip(&graph) {
                let what = format!("{n} hosts, degree {degree:?}, host {i}");
                assert!(peers.windows(2).all(|w| w[0] < w[1]), "{what}");
                assert!(!peers.contains(&i), "{what}");
                for &peer in peers {
                    assert!(graph[peer as usize].contains(&i), "{what}: symmetric");
                }
                // No degree is the paper's full mesh.
                if degree.is_none() {
                    assert_eq!(peers.len(), n as usize - 1, "{what}");
                }
            }
        }
    }

    #[test]
    fn flood_draws_per_peer_in_order_and_shares_one_parcel() {
        let faults = faults(0.2, 0.3);
        let latency = LatencyModel::planetlab();
        let mut legs = Legs::new(9, Some(4), latency.clone(), faults.clone());
        assert_eq!(legs.wan.peers[0], [1, 2, 7, 8]);
        // The draw order every same-seed result depends on, per peer in
        // ascending order: drop coin, delay, duplicate coin, the
        // duplicate's delay.
        let mut reference = SimRng::seed_from_u64(SEED);
        let parcel = request();
        for _ in 0..200 {
            let mut expected = Vec::new();
            for to in [1, 2, 7, 8] {
                if reference.chance(faults.drop_probability) {
                    continue;
                }
                expected.push((SimTime::ZERO + latency.sample(&mut reference), to));
                if reference.chance(faults.duplicate_probability) {
                    expected.push((SimTime::ZERO + latency.sample(&mut reference), to));
                }
            }
            expected.sort_unstable();
            let sent = legs.send(0, |env| env.flood(SimTime::ZERO, &parcel));
            let mut got: Vec<_> = sent.iter().map(|(at, to, _)| (*at, *to)).collect();
            got.sort_unstable();
            assert_eq!(got, expected);
            // Every copy shares the one parcel; a drop holds none.
            assert_eq!(Arc::strong_count(&parcel), 1 + sent.len());
        }
        let stats = legs.wan.stats;
        assert_eq!(stats.sent, 800);
        assert!(
            stats.dropped_fault > 100 && stats.duplicated > 100,
            "{stats:?}"
        );
        assert_eq!(
            stats.delivered,
            stats.sent - stats.dropped_fault + stats.duplicated
        );
    }

    #[test]
    fn cut_copies_keep_the_draw_order_and_hold_no_parcel() {
        let faults = faults(0.2, 0.3);
        let latency = LatencyModel::planetlab();
        let mut whole = Legs::new(9, Some(4), latency.clone(), faults.clone());
        let mut cut = Legs::new(9, Some(4), latency, faults);
        // The odd half of host 0's peers [1, 2, 7, 8], and host 7 down:
        // only copies to host 1 are scheduled.
        cut.chaos = ChaosEngine::new(ChaosPlan {
            faults: vec![ChaosFault::HostCrash {
                host: 7,
                from: SimTime::ZERO,
                until: ms(1000),
            }],
        });
        let parcel = request();
        let mut scheduled = 0;
        for _ in 0..200 {
            let all = whole.send(0, |env| env.flood(SimTime::ZERO, &parcel));
            let to_one = cut.send(0, |env| env.flood_to(SimTime::ZERO, &parcel, Some(1)));
            let arrivals = |sent: &[(SimTime, u32, Arc<Parcel>)]| -> Vec<(SimTime, u32)> {
                sent.iter().map(|(at, to, _)| (*at, *to)).collect()
            };
            let expected: Vec<_> = arrivals(&all)
                .into_iter()
                .filter(|&(_, to)| to == 1)
                .collect();
            assert_eq!(arrivals(&to_one), expected);
            // Only the scheduled copies hold the parcel.
            assert_eq!(Arc::strong_count(&parcel), 1 + all.len() + to_one.len());
            scheduled += to_one.len() as u64;
        }
        assert_eq!(Arc::strong_count(&parcel), 1);
        // Same draws whatever was cut: the streams are still in step, and
        // the `net.*` counts are taken before the cut.
        assert_eq!(whole.rng.uniform(), cut.rng.uniform());
        assert_eq!(cut.wan.stats, whole.wan.stats);
        assert!(cut.wan.stats.duplicated > 50, "{:?}", cut.wan.stats);
        let kind = request().msg.kind_index();
        assert_eq!(cut.wan.messages[kind], scheduled);
        assert!(cut.chaos.stats.crash_drops > 100);
    }

    #[test]
    fn dial_delivers_with_latency() {
        let ten_ms = LatencyModel::Constant(SimDuration::from_millis(10));
        let mut legs = Legs::new(4, None, ten_ms, FaultModel::default());
        let msg = request().msg.clone();
        let sent = legs.send(0, |env| env.unicast(SimTime::ZERO, NodeId(1), msg.clone()));
        assert_eq!(sent.len(), 1);
        let (at, to, parcel) = &sent[0];
        assert_eq!((*at, *to), (ms(10), 1));
        assert_eq!(parcel.msg, msg);
    }

    #[test]
    fn flood_reaches_all_peers() {
        let ten_ms = LatencyModel::Constant(SimDuration::from_millis(10));
        let mut legs = Legs::new(4, None, ten_ms, FaultModel::default());
        assert_eq!(legs.flood(2), [(ms(10), 0), (ms(10), 1), (ms(10), 3)]);
    }

    #[test]
    fn a_flood_reaches_only_the_senders_peers() {
        let ten_ms = LatencyModel::Constant(SimDuration::from_millis(10));
        let mut legs = Legs::new(6, Some(2), ten_ms, FaultModel::default());
        // Host 3 is not a peer of host 0 on the ring: no flood reaches it.
        assert_eq!(legs.flood(0), [(ms(10), 1), (ms(10), 5)]);
        // A dial is not bound by the gossip graph.
        assert_eq!(legs.dial(0, 3), [(ms(10), 3)]);
    }

    #[test]
    fn drops_happen_at_configured_rate() {
        let mut legs = Legs::new(2, None, LatencyModel::planetlab(), faults(0.5, 0.0));
        let delivered: usize = (0..1000).map(|_| legs.flood(0).len()).sum();
        assert!((380..620).contains(&delivered), "{delivered}/1000");
    }

    #[test]
    fn duplicates_happen_at_configured_rate() {
        let mut legs = Legs::new(2, None, LatencyModel::planetlab(), faults(0.0, 0.5));
        let delivered: usize = (0..1000).map(|_| legs.flood(0).len()).sum();
        assert!((1380..1620).contains(&delivered), "{delivered}/1000");
    }

    #[test]
    fn net_counts_of_a_flood_and_a_dial() {
        let ten_ms = LatencyModel::Constant(SimDuration::from_millis(10));
        let mut legs = Legs::new(4, None, ten_ms.clone(), FaultModel::default());
        // Host 3 is down for the first second: chaos cuts what reaches it.
        legs.chaos = ChaosEngine::new(ChaosPlan {
            faults: vec![ChaosFault::HostCrash {
                host: 3,
                from: SimTime::ZERO,
                until: ms(1000),
            }],
        });
        assert_eq!(legs.flood(2), [(ms(10), 0), (ms(10), 1)]);
        assert_eq!(legs.dial(0, 1), [(ms(10), 1)]);
        // A dial the chaos plan cuts still counts as sent and delivered.
        assert_eq!(legs.dial(0, 3), []);
        let stats = legs.wan.stats;
        let counted = NetStats {
            sent: 5,
            delivered: 5,
            ..NetStats::default()
        };
        assert_eq!(stats, counted, "flood and dial counted before chaos");
        assert_eq!(legs.chaos.stats.crash_drops, 2);
        let kind = request().msg.kind_index();
        assert_eq!(legs.wan.messages[kind], 3, "only what was scheduled");

        // Loss applies to floods only: a dial is immune.
        let mut lossy = Legs::new(4, None, ten_ms, faults(1.0, 0.0));
        assert_eq!(lossy.flood(0), []);
        assert_eq!(lossy.dial(0, 1), [(ms(10), 1)]);
        let counted = NetStats {
            sent: 4,
            delivered: 1,
            dropped_fault: 3,
            duplicated: 0,
        };
        assert_eq!(lossy.wan.stats, counted);

        let mut reg = Registry::new();
        lossy.wan.stats.export(&mut reg);
        let rows: Vec<_> = reg.snapshot().counters;
        let rows: Vec<(&str, u64)> = rows.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(
            rows,
            [
                ("net.delivered_total", 1),
                ("net.dropped_fault_total", 3),
                ("net.duplicated_total", 0),
                ("net.sent_total", 4),
            ]
        );
    }
}
