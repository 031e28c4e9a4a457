//! Live nodes over a transport: the same federation logic over the
//! in-process bus or real TCP sockets.
//!
//! [`World`](crate::world::World) drives the paper's §5.2 experiments on
//! a deterministic event queue; the live loopback tests drive real
//! sockets. Both run the same gateway daemon, [`Node`]. A [`Fleet`] is a
//! set of [`FleetNode`]s — each a `Node` plus the small [`NodeEnv`] a
//! live host needs: reactions become [`Outbound`]s for the transport,
//! reports become a log — wired together by any [`FleetTransport`]. The
//! *same* scenario function (for example [`fig3_partition_recovery`])
//! runs unmodified over [`BusFleet`] (one in-process queue per node,
//! instant delivery) or [`TcpFleet`] (real `TcpHost` sockets
//! multiplexed on one shared event-driven [`TcpRuntime`]); the only
//! difference is which transport value the caller constructs. A
//! scenario's sensor is the simulator's `Device` too, driven over an
//! instant, lossless in-process link into the gateway's
//! [`Node::on_uplink`]; the fleet adds no radio and no loss model.
//!
//! Live nodes run the same watchdog as simulated ones: each node asks
//! for a wake-up whenever it arms a deadline ([`NodeEnv::wake_at`]), and
//! [`Fleet::step`] — which `Fleet::run_until` drives, waiting no longer
//! than the earliest wake-up — fires every due one through
//! `Node::on_deadline` on the [`fsm`](crate::fsm) module's fixed
//! schedules: re-delivery, re-publishing lost or left-out settlements,
//! the CLTV refund, censorship suspicion. What stays on the operator's
//! side is what no daemon decides for itself in this harness: when to
//! mine ([`Fleet::mine`]) and which tip announcements to send
//! (`Fleet::announce_tip` — how a healed node learns who is ahead).
//! Partitions live in the fleet, not in the fabric: [`Fleet`] keeps the
//! one set of cut links and checks it on every send, so a cut link
//! silently drops the message on both fabrics alike — exactly what a
//! severed WAN path does to a datagram in flight.

use crate::costs::CostModel;
use crate::device::{Device, DeviceEnv, DeviceNote, DeviceSpec, Downlink, Timer, Uplink};
use crate::directory::{bootstrap_chain, Directory};
use crate::escrow::REFUND_DELTA;
use crate::fsm::FsmEvent;
use crate::net::WanCodec;
use crate::node::{delivery_tag, Node, NodeEnv, Note, Parcel, Terms};
use crate::provisioning::DeviceId;
use crate::wire::WanMessage;
use crate::Daemon;
use bcwan_chain::{Address, ChainParams, IdSet, Wallet};
use bcwan_crypto::rsa::RsaKeySize;
use bcwan_p2p::transport::{TcpConfig, TcpHost, TcpRuntime};
use bcwan_p2p::{Envelope, Inbox, NodeId};
use bcwan_sim::{SimRng, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inbound messages a node drains per [`Fleet::step`], so one flooded
/// node cannot starve the rest of the fleet within a step.
const DRAIN_PER_STEP: usize = 64;

/// An addressed overlay for a fleet of nodes.
///
/// Implementations route by [`NodeId`]; the TCP backend resolves ids to
/// socket addresses internally (the on-chain directory's job in the full
/// system). Which links are cut is [`Fleet`]'s business: a fabric only
/// hears of a cut, through [`cut_link`](FleetTransport::cut_link).
pub trait FleetTransport {
    /// Sends one message; `false` means the peer is unreachable and the
    /// message was dropped.
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool;

    /// Non-blocking receive of the next message queued for `host`.
    fn try_recv(&mut self, host: NodeId) -> Option<Envelope<WanMessage>>;

    /// The fleet has just cut the link between `a` and `b`: a fabric
    /// that keeps per-link state drops it here. By default, nothing.
    fn cut_link(&mut self, _a: NodeId, _b: NodeId) {}

    /// Blocks until a message has been delivered to *any* node since the
    /// last call, or `timeout` elapses. A delivery that lands between
    /// the caller's last [`try_recv`](FleetTransport::try_recv) and this
    /// call must end the wait at once, not be slept through.
    fn wait(&mut self, timeout: Duration);
}

/// [`FleetTransport`] in process: one queue per node, instant and
/// loss-free — the simulated world's fabric.
pub struct BusFleet {
    queues: Vec<VecDeque<Envelope<WanMessage>>>,
}

impl BusFleet {
    /// A bus fabric for `n` nodes with ids `0..n`.
    pub fn new(n: usize) -> Self {
        BusFleet {
            queues: vec![VecDeque::new(); n],
        }
    }
}

impl FleetTransport for BusFleet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool {
        let Some(queue) = self.queues.get_mut(to.0 as usize) else {
            return false;
        };
        queue.push_back(Envelope {
            from,
            msg: msg.clone(),
        });
        true
    }

    fn try_recv(&mut self, host: NodeId) -> Option<Envelope<WanMessage>> {
        self.queues.get_mut(host.0 as usize)?.pop_front()
    }

    /// On one thread nothing else can deliver: a queued message ends the
    /// wait at once, and otherwise nothing will until `timeout` is up.
    fn wait(&mut self, timeout: Duration) {
        if self.queues.iter().all(VecDeque::is_empty) {
            std::thread::sleep(timeout);
        }
    }
}

/// [`FleetTransport`] over real loopback TCP: every node binds a
/// [`TcpHost`] on one shared event-driven [`TcpRuntime`], so a 64-host
/// fleet costs one poller plus a few worker threads, not 64+ reader
/// threads.
pub struct TcpFleet {
    runtime: TcpRuntime<WanMessage, WanCodec>,
    hosts: Vec<TcpHost<WanMessage, WanCodec>>,
    inboxes: Vec<Inbox<WanMessage>>,
    addrs: Vec<SocketAddr>,
}

impl TcpFleet {
    /// Binds `n` hosts on OS-assigned loopback ports over one runtime
    /// with `workers` connection workers.
    ///
    /// # Errors
    ///
    /// Bind or thread-spawn failure.
    pub fn new(n: usize, workers: usize, cfg: TcpConfig) -> io::Result<Self> {
        let runtime: TcpRuntime<WanMessage, WanCodec> = TcpRuntime::new(workers)?;
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
        let mut hosts = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let (host, inbox) =
                TcpHost::bind_with_runtime(&runtime, loopback, NodeId(i), WanCodec, cfg.clone())?;
            addrs.push(host.local_addr());
            hosts.push(host);
            inboxes.push(inbox);
        }
        Ok(TcpFleet {
            runtime,
            hosts,
            inboxes,
            addrs,
        })
    }

    /// The transport hosts, indexed by node id, for metric export.
    pub fn hosts(&self) -> &[TcpHost<WanMessage, WanCodec>] {
        &self.hosts
    }
}

impl FleetTransport for TcpFleet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool {
        let (Some(host), Some(addr)) = (
            self.hosts.get(from.0 as usize),
            self.addrs.get(to.0 as usize),
        ) else {
            return false;
        };
        host.send(*addr, msg).is_ok()
    }

    fn try_recv(&mut self, host: NodeId) -> Option<Envelope<WanMessage>> {
        self.inboxes
            .get(host.0 as usize)
            .and_then(|inbox| inbox.try_recv())
    }

    /// The pooled connections across the cut — those two, not the ends'
    /// whole pools — are stale; drop them so a healed link re-dials
    /// instead of writing into a dead pipe.
    fn cut_link(&mut self, a: NodeId, b: NodeId) {
        for (from, to) in [(a, b), (b, a)] {
            if let (Some(host), Some(addr)) = (
                self.hosts.get(from.0 as usize),
                self.addrs.get(to.0 as usize),
            ) {
                host.drop_peer(*addr);
            }
        }
    }

    fn wait(&mut self, timeout: Duration) {
        self.runtime.wait_for_delivery(timeout);
    }
}

/// Where one of a node's reactions goes.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// Directly to one peer (sync responses, catch-up requests).
    To(NodeId, WanMessage),
    /// Flooded to every peer (dedup happens at the receivers).
    Flood(WanMessage),
}

/// One live gateway: the shared [`Node`] plus what its environment
/// remembers between messages.
pub struct FleetNode {
    /// The gateway daemon.
    pub node: Node,
    /// What the node reported, in order, by exchange tag. Tags are the
    /// operator's on the gateway side ([`Node::on_uplink`]) and
    /// `delivery_tag`s on the recipient side.
    pub notes: Vec<(u64, Note)>,
    /// When the node asked to run its watchdog next.
    wake: Option<SimTime>,
    /// The node's clock counts from here.
    started: Instant,
}

/// The environment of a live node: sends become [`Outbound`]s, reports
/// a log, a wake-up request the node's earliest pending one. It is
/// honest (no misbehaviour).
struct LiveEnv<'a> {
    out: Vec<Outbound>,
    notes: &'a mut Vec<(u64, Note)>,
    wake: &'a mut Option<SimTime>,
}

impl NodeEnv for LiveEnv<'_> {
    fn flood(&mut self, _at: SimTime, parcel: &Arc<Parcel>) {
        self.out.push(Outbound::Flood(parcel.msg.clone()));
    }

    fn unicast(&mut self, _at: SimTime, to: NodeId, msg: WanMessage) {
        self.out.push(Outbound::To(to, msg));
    }

    fn note(&mut self, _at: SimTime, tag: u64, note: Note) {
        self.notes.push((tag, note));
    }

    /// A live recipient files an exchange under its [`delivery_tag`].
    fn delivery(&mut self, key: u64) -> Option<u64> {
        Some(key)
    }

    fn closed(&self, tag: u64) -> bool {
        let refunded = Note::Settlement(FsmEvent::RefundConfirmed);
        self.notes.contains(&(tag, refunded))
    }

    fn wake_at(&mut self, at: SimTime) {
        if self.wake.is_none_or(|pending| at < pending) {
            *self.wake = Some(at);
        }
    }
}

impl FleetNode {
    /// Runs a host-local action against the node and returns what it
    /// sent. The action gets the node's clock reading and environment.
    pub fn act<R>(
        &mut self,
        action: impl FnOnce(&mut Node, SimTime, &mut dyn NodeEnv) -> R,
    ) -> (R, Vec<Outbound>) {
        let now = self.now();
        let mut env = LiveEnv {
            out: Vec::new(),
            notes: &mut self.notes,
            wake: &mut self.wake,
        };
        let result = action(&mut self.node, now, &mut env);
        (result, env.out)
    }

    /// Processes one inbound message and returns the reactions to route.
    pub fn handle(&mut self, env: Envelope<WanMessage>) -> Vec<Outbound> {
        let parcel = Parcel::new(env.msg);
        self.act(|node, now, e| node.handle(now, env.from, parcel, e))
            .1
    }

    /// Whether this node reported `note` for exchange `tag`.
    pub(crate) fn noted(&self, tag: u64, note: Note) -> bool {
        self.notes.contains(&(tag, note))
    }

    /// The node's clock reading.
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.started.elapsed().as_micros() as u64)
    }

    /// Runs the node's watchdog if its wake-up is due, returning what it
    /// sent.
    fn fire_due_wake(&mut self) -> Vec<Outbound> {
        if self.wake.is_none_or(|at| at > self.now()) {
            return Vec::new();
        }
        self.wake = None;
        self.act(|node, now, env| node.on_deadline(now, env)).1
    }
}

/// A set of [`FleetNode`]s wired together by a [`FleetTransport`].
pub struct Fleet<T> {
    /// The overlay fabric.
    pub transport: T,
    /// The gateways, indexed by node id.
    pub nodes: Vec<FleetNode>,
    /// The cut links, as [`link_key`]s: the one partition rule every
    /// send of the fleet goes through, whatever the fabric.
    cuts: HashSet<(u32, u32)>,
}

/// A link's key in [`Fleet`]'s cut set: its two ends, lower id first.
fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

impl<T: FleetTransport> Fleet<T> {
    /// Builds `n` nodes over `transport`, all sharing one fast-test
    /// genesis that funds node 2 (the scenario's recipient) with four
    /// coins of 250. Escrows lock 100 for the gateway at a fee of 10,
    /// gateways claim once the escrow has one confirmation, and the
    /// refund branch opens after the paper's 100 blocks.
    ///
    /// Roles by convention (what [`fig3_partition_recovery`] uses):
    /// node 0 is the master miner, node 1 the foreign gateway, node 2
    /// the recipient; everyone else is a relaying bystander.
    ///
    /// # Panics
    ///
    /// If `n < 3` (the three protocol roles must exist).
    pub fn new(transport: T, n: usize, seed: u64) -> Self {
        assert!(n >= 3, "fleet needs miner, gateway, and recipient");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ChainParams::fast_test();
        params.coinbase_maturity = 0;
        let wallets: Vec<Wallet> = (0..n).map(|_| Wallet::generate(&mut rng)).collect();
        let address_book: Arc<[Address]> = wallets.iter().map(Wallet::address).collect();
        let terms = Arc::new(Terms {
            costs: CostModel::pi_class(),
            reward: 100,
            fee: 10,
            confirmation_depth: 1,
            refund_delta: REFUND_DELTA,
            rsa_size: RsaKeySize::Rsa512,
        });
        // One bootstrap, as in `World::new`: four coins for the recipient
        // and one directory announcement per node, so step 7's lookup
        // resolves. Every node's chain is a fork of it.
        let coins = [(address_book[2], 250); 4];
        let announced = address_book.iter().copied().enumerate();
        let mut bootstrapped = bootstrap_chain(&params, &coins, announced, &wallets[0]);
        let directory = Directory::from_chain(&bootstrapped);
        let started = Instant::now();
        let nodes = wallets
            .into_iter()
            .enumerate()
            .map(|(i, wallet)| FleetNode {
                node: Node::new(
                    NodeId(i as u32),
                    wallet,
                    // Live nodes share no mutable state: each daemon
                    // keeps a private verification memo.
                    Daemon::new(bootstrapped.fork()),
                    directory.clone(),
                    SimRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)),
                    seed,
                    terms.clone(),
                    address_book.clone(),
                ),
                notes: Vec::new(),
                wake: None,
                started,
            })
            .collect();
        Fleet {
            transport,
            nodes,
            cuts: HashSet::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes ([`Fleet::new`] guarantees not).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drains and handles every node's pending inbox once and fires
    /// every due wake-up, routing the reactions. Returns how many inbound
    /// messages were processed.
    pub fn step(&mut self) -> usize {
        let n = self.nodes.len();
        let mut moved = 0;
        for i in 0..n {
            for _ in 0..DRAIN_PER_STEP {
                let Some(env) = self.transport.try_recv(NodeId(i as u32)) else {
                    break;
                };
                moved += 1;
                let reactions = self.nodes[i].handle(env);
                self.route(NodeId(i as u32), reactions);
            }
            let reactions = self.nodes[i].fire_due_wake();
            self.route(NodeId(i as u32), reactions);
        }
        moved
    }

    fn route(&mut self, from: NodeId, reactions: Vec<Outbound>) {
        let n = self.nodes.len() as u32;
        for reaction in reactions {
            match reaction {
                Outbound::To(to, msg) => {
                    self.send(from, to, &msg);
                }
                Outbound::Flood(msg) => {
                    for j in 0..n {
                        if j != from.0 {
                            self.send(from, NodeId(j), &msg);
                        }
                    }
                }
            }
        }
    }

    /// Sends one message over the fabric unless the link is cut; `false`
    /// when it was dropped.
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool {
        !self.cuts.contains(&link_key(from, to)) && self.transport.send(from, to, msg)
    }

    /// Steps until `pred` holds or `timeout` elapses; `true` on success.
    /// With nothing to step, blocks until the fabric delivers something
    /// (in-flight TCP frames land on the runtime's threads), a node's
    /// wake-up comes due, or the deadline.
    pub(crate) fn run_until(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&Fleet<T>) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(self) {
                return true;
            }
            let moved = self.step();
            let now = Instant::now();
            if now > deadline {
                return pred(self);
            }
            if moved == 0 {
                let wake = self.nodes.iter().filter_map(|n| {
                    let at = Duration::from_micros(n.wake?.as_micros());
                    Some(at.saturating_sub(n.started.elapsed()))
                });
                self.transport
                    .wait(wake.fold(deadline - now, Duration::min));
            }
        }
    }

    /// Runs a host-local action on node `i` (see [`FleetNode::act`])
    /// and routes what it sent.
    pub fn act<R>(
        &mut self,
        i: usize,
        action: impl FnOnce(&mut Node, SimTime, &mut dyn NodeEnv) -> R,
    ) -> R {
        let (result, reactions) = self.nodes[i].act(action);
        self.route(NodeId(i as u32), reactions);
        result
    }

    /// Mines one block at `miner` from its mempool and floods it.
    pub fn mine(&mut self, miner: usize) {
        self.act(miner, |node, now, env| {
            node.mine(now, b"fleet", &IdSet::default(), env)
        });
    }

    /// Sends `from`'s tip announcement directly to `to` — how a healed
    /// node learns it is behind.
    pub(crate) fn announce_tip(&mut self, from: usize, to: usize) {
        let msg = self.nodes[from].node.tip_announce();
        self.send(NodeId(from as u32), NodeId(to as u32), &msg);
    }

    /// Cuts (or heals) every link between `node` and the rest of the
    /// fleet.
    pub(crate) fn set_isolated(&mut self, node: usize, isolated: bool) {
        let node = NodeId(node as u32);
        for peer in (0..self.nodes.len() as u32).map(NodeId) {
            if peer == node {
                continue;
            }
            if isolated {
                self.cuts.insert(link_key(node, peer));
                self.transport.cut_link(node, peer);
            } else {
                self.cuts.remove(&link_key(node, peer));
            }
        }
    }
}

/// An instant, lossless radio between one device and one gateway: the
/// frames the device sends wait for the caller to carry them, and no
/// timer ever comes due. Its one RNG provisions the device and seals.
struct Link {
    rng: SimRng,
    air: Vec<Uplink>,
}

impl DeviceEnv for Link {
    fn transmit(&mut self, at: SimTime, _tag: u64, frame: Uplink) -> SimTime {
        self.air.push(frame);
        at
    }

    fn arm(&mut self, _at: SimTime, _timer: Timer) {}

    fn note(&mut self, _at: SimTime, _tag: u64, _note: DeviceNote) {}

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// The stimulus of one exchange, Fig. 3 steps 1–7: a [`Device`]
/// provisioned at `recipient` runs exchange `tag` through `gateway` over
/// a [`Link`]: the gateway opens the session, the device seals `reading`
/// under its key, and the gateway looks the recipient up and forwards it
/// ([`Node::on_uplink`]). Returns the tag the recipient files the
/// exchange under, if the directory knew the recipient.
pub(crate) fn deliver_reading<T: FleetTransport>(
    fleet: &mut Fleet<T>,
    (gateway, recipient): (usize, usize),
    tag: u64,
    reading: &[u8],
) -> Option<u64> {
    let mut link = Link {
        rng: SimRng::seed_from_u64(0xf1e3 ^ tag),
        air: Vec::new(),
    };
    let home = &mut fleet.nodes[recipient].node;
    let address = home.wallet.address();
    let credentials = home
        .registry
        .provision(&mut link.rng, DeviceId(tag as u32 + 1), address);
    let mut device = Device::new(credentials, DeviceSpec::default());
    // The link is instant, so the device's clock goes unread.
    device.start(SimTime::ZERO, tag, reading, &mut link);
    let mut key = None;
    while let Some(frame) = link.air.pop() {
        let reply = fleet.act(gateway, |node, now, env| {
            node.on_uplink(now, tag, frame, env)
        });
        if let Some((_, downlink)) = reply {
            if let Downlink::Key(e_pk) = &downlink {
                key = Some(delivery_tag(&e_pk.to_bytes()));
            }
            device.receive(SimTime::ZERO, tag, downlink, &mut link);
        }
    }
    key.filter(|_| !fleet.nodes[gateway].noted(tag, Note::Abort))
}

/// What [`fig3_partition_recovery`] proved, for the caller to assert on.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The reading the recipient decrypted from the revealed `eSk`.
    pub decrypted: Option<Vec<u8>>,
    /// Whether the gateway claimed the escrow.
    pub gateway_claimed: bool,
    /// Final chain height of every node, indexed by node id.
    pub heights: Vec<u64>,
    /// Whether the partitioned straggler's chain contains the claim
    /// transaction after catch-up.
    pub partitioned_caught_up: bool,
    /// Total `GetBlocksFrom` batches served fleet-wide.
    pub sync_batches_served: u64,
}

/// The sensor reading the scenario's device uplinks.
pub const FLEET_READING: &[u8] = b"pm2.5=12ug/m3";

/// The paper's Fig. 3 fair exchange plus a §5.1 partition-recovery
/// sync, written once against [`FleetTransport`] — the tentpole
/// scenario that must pass unmodified on both fabrics.
///
/// Phases: the last node is cut off; the gateway delivers a sealed
/// uplink; the recipient escrows payment; block 1 confirms the escrow;
/// the gateway claims, revealing `eSk`; the recipient decrypts; block 2
/// confirms the claim; the straggler heals, hears a tip announcement,
/// and catches up through bounded `GetBlocksFrom` batches.
///
/// # Panics
///
/// On any phase timing out or a protocol invariant failing — panics
/// carry the phase name so a hang is attributable.
pub fn fig3_partition_recovery<T: FleetTransport>(
    fleet: &mut Fleet<T>,
    timeout: Duration,
) -> FleetOutcome {
    let n = fleet.len();
    assert!(
        n >= 4,
        "scenario needs miner, gateway, recipient, straggler"
    );
    let (miner, gateway, recipient, straggler) = (0, 1, 2, n - 1);

    // The straggler misses the whole exchange.
    fleet.set_isolated(straggler, true);

    // Fig. 3 steps 1–7.
    const TAG: u64 = 0;
    let delivery =
        deliver_reading(fleet, (gateway, recipient), TAG, FLEET_READING).expect("deliver sent");

    // Steps 8–9: the recipient escrows; gossip carries it to the miner.
    let pool_filled = |f: &Fleet<T>| !f.nodes[miner].node.daemon.mempool.is_empty();
    assert!(
        fleet.run_until(timeout, pool_filled),
        "escrow reached the miner's mempool"
    );
    fleet.mine(miner); // block 1 confirms the escrow

    // Step 10: the gateway sees the confirmation, claims (revealing
    // eSk), and the recipient decrypts from the gossiped claim.
    assert!(
        fleet.run_until(timeout, |f| {
            f.nodes[gateway].noted(TAG, Note::Claiming)
                && f.nodes[recipient].noted(delivery, Note::Opened)
                && pool_filled(f)
        }),
        "claim gossiped and reading decrypted"
    );
    fleet.mine(miner); // block 2 confirms the claim

    assert!(
        fleet.run_until(timeout, |f| {
            (0..n).all(|i| i == straggler || f.nodes[i].node.height() == 2)
        }),
        "connected fleet converged at height 2"
    );
    assert_eq!(
        fleet.nodes[straggler].node.height(),
        0,
        "straggler stayed dark through the exchange"
    );

    // §5.1: the partition heals; one tip announcement triggers the
    // headers-first catch-up through bounded GetBlocksFrom batches.
    fleet.set_isolated(straggler, false);
    fleet.announce_tip(miner, straggler);
    assert!(
        fleet.run_until(timeout, |f| {
            f.nodes[straggler].node.height() == f.nodes[miner].node.height()
        }),
        "straggler caught up after the partition healed"
    );

    let claim = fleet.nodes[gateway].node.claim(TAG);
    let partitioned_caught_up = claim.is_some_and(|claim| {
        let chain = &fleet.nodes[straggler].node.daemon.chain;
        chain.find_transaction(&claim.txid()).is_some()
    });
    let delivered = fleet.nodes[recipient].node.app.readings().last();
    FleetOutcome {
        decrypted: delivered.map(|reading| reading.payload.clone()),
        gateway_claimed: claim.is_some(),
        heights: fleet.nodes.iter().map(|n| n.node.height()).collect(),
        partitioned_caught_up,
        sync_batches_served: fleet.nodes.iter().map(|n| n.node.sync_batches_served).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escrow::{build_claim, extract_key_from_claim};
    use crate::sync::SYNC_BATCH;
    use bcwan_chain::Block;
    use bcwan_p2p::transport::TransportStats;
    use bcwan_p2p::ChainMessage;
    use bcwan_sim::SimDuration;

    const GATEWAY: usize = 1;
    const RECIPIENT: usize = 2;
    const WAIT: Duration = Duration::from_secs(10);

    fn block_msg(block: &Block) -> WanMessage {
        WanMessage::Chain(ChainMessage::Block(block.clone()))
    }

    fn from(peer: u32, msg: WanMessage) -> Envelope<WanMessage> {
        Envelope {
            from: NodeId(peer),
            msg,
        }
    }

    /// Starts exchange `tag` (the gateway's tag); returns the recipient's.
    fn deliver(fleet: &mut Fleet<BusFleet>, tag: u64, reading: &[u8]) -> u64 {
        deliver_reading(fleet, (GATEWAY, RECIPIENT), tag, reading).expect("deliver sent")
    }

    /// Transactions in `node`'s mempool.
    fn pooled(fleet: &Fleet<BusFleet>, node: usize) -> usize {
        fleet.nodes[node].node.daemon.mempool.len()
    }

    #[test]
    fn handle_serves_bounded_sync_batches() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 9);
        for _ in 0..40 {
            fleet.mine(0);
        }
        assert_eq!(fleet.nodes[0].node.height(), 40);
        let request = WanMessage::Chain(ChainMessage::GetBlocksFrom(0));
        let reactions = fleet.nodes[0].handle(from(2, request));
        assert_eq!(reactions.len(), SYNC_BATCH);
        assert!(reactions.iter().all(|o| matches!(
            o,
            Outbound::To(NodeId(2), WanMessage::Chain(ChainMessage::Block(_)))
        )));
        assert_eq!(fleet.nodes[0].node.sync_batches_served, 1);
    }

    #[test]
    fn replayed_coinbase_block_is_refused_not_a_panic() {
        // What a TCP peer can send: a well-formed block whose coinbase
        // is byte-identical to an earlier, still-unspent one. It used to
        // pass validation and then panic `Chain::add_block`.
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 13);
        fleet.mine(0);
        let node = &mut fleet.nodes[0];
        let chain = &node.node.daemon.chain;
        let earlier = chain.block_at(1).expect("mined").clone();
        let replay = Block::mine(
            chain.tip(),
            2,
            chain.params().difficulty_bits,
            vec![earlier.transactions[0].clone()],
        );
        let reactions = node.handle(from(1, block_msg(&replay)));
        assert_eq!(node.node.height(), 1, "the replay did not connect");
        // Neither relayed nor — being invalid, not an orphan — answered
        // with a catch-up request the sender could make us repeat.
        assert!(reactions.is_empty(), "{reactions:?}");
    }

    #[test]
    fn early_block_waits_for_its_parent() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 15);
        fleet.mine(0);
        fleet.mine(0);
        let chain = &fleet.nodes[0].node.daemon.chain;
        let (parent, child) = (
            block_msg(chain.block_at(1).unwrap()),
            block_msg(chain.block_at(2).unwrap()),
        );
        let node = &mut fleet.nodes[1];
        // The child first: buffered, and one catch-up toward its sender.
        let reactions = node.handle(from(0, child));
        assert_eq!(node.node.height(), 0);
        assert!(matches!(
            reactions.as_slice(),
            [Outbound::To(
                NodeId(0),
                WanMessage::Chain(ChainMessage::GetHeadersFrom(0))
            )]
        ));
        // The parent lands: both connect and relay, nothing more is asked.
        let reactions = node.handle(from(0, parent));
        assert_eq!(node.node.height(), 2);
        assert_eq!(reactions.len(), 2);
        assert!(reactions.iter().all(|o| matches!(
            o,
            Outbound::Flood(WanMessage::Chain(ChainMessage::Block(_)))
        )));
    }

    #[test]
    fn flood_dedup_terminates_gossip() {
        let mut fleet = Fleet::new(BusFleet::new(4), 4, 10);
        fleet.mine(0);
        // Everyone converges, and the drain loop terminates because the
        // relay dedup kills every re-flood: finite total traffic.
        assert!(fleet.run_until(Duration::from_secs(5), |f| {
            f.nodes.iter().all(|n| n.node.height() == 1)
        }));
        while fleet.step() > 0 {}
        assert!(fleet.nodes.iter().all(|n| n.node.height() == 1));
    }

    #[test]
    fn two_concurrent_exchanges_share_a_gateway_and_recipient() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 16);
        let filed = [
            deliver(&mut fleet, 0, b"first"),
            deliver(&mut fleet, 1, b"second"),
        ];
        assert!(
            fleet.run_until(WAIT, |f| pooled(f, 0) == 2),
            "both escrows pooled"
        );
        fleet.mine(0);
        assert!(
            fleet.run_until(WAIT, |f| {
                (0..2).all(|tag| {
                    f.nodes[GATEWAY].noted(tag as u64, Note::Claiming)
                        && f.nodes[RECIPIENT].noted(filed[tag], Note::Opened)
                }) && pooled(f, 0) == 2
            }),
            "both claims gossiped, both readings opened"
        );
        fleet.mine(0);
        let confirmed = Note::Settlement(FsmEvent::ClaimConfirmed);
        assert!(fleet.run_until(WAIT, |f| {
            filed
                .iter()
                .all(|tag| f.nodes[RECIPIENT].noted(*tag, confirmed))
        }));
        let mut readings: Vec<&[u8]> = fleet.nodes[RECIPIENT]
            .node
            .app
            .readings()
            .iter()
            .map(|r| r.payload.as_slice())
            .collect();
        readings.sort();
        assert_eq!(readings, [b"first".as_slice(), b"second"]);
    }

    #[test]
    fn withheld_claim_ends_in_the_cltv_refund() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 17);
        let filed = deliver(&mut fleet, 0, b"unpaid");
        // The gateway goes dark before the escrow reaches it: the claim
        // never comes.
        fleet.set_isolated(GATEWAY, true);
        assert!(
            fleet.run_until(WAIT, |f| pooled(f, 0) == 1),
            "escrow pooled"
        );
        let recipient = &fleet.nodes[RECIPIENT].node;
        let refund_height = recipient.escrow(filed).expect("escrowed").refund_height;
        while fleet.nodes[RECIPIENT].node.height() < refund_height {
            fleet.mine(0);
            while fleet.step() > 0 {}
        }
        // The recipient's watchdog: past the CLTV height with no claim in
        // sight, its next sweep spends the escrow back.
        let later = SimDuration::from_secs(3600);
        fleet.act(RECIPIENT, |node, now, env| {
            node.on_deadline(now + later, env)
        });
        assert!(fleet.nodes[RECIPIENT].noted(filed, Note::Refunding));
        assert!(
            fleet.run_until(WAIT, |f| pooled(f, 0) == 1),
            "refund pooled"
        );
        fleet.mine(0);
        let refunded = Note::Settlement(FsmEvent::RefundConfirmed);
        assert!(fleet.run_until(WAIT, |f| f.nodes[RECIPIENT].noted(filed, refunded)));
        assert!(!fleet.nodes[GATEWAY].noted(0, Note::Claiming));
        assert!(!fleet.nodes[RECIPIENT].noted(filed, Note::Opened));
    }

    /// With the recipient cut off, the gateway's watchdog re-delivers on
    /// `DELIVER_RETRY`: woken when it asks, it sends the held uplink four
    /// times, 5, 10, 20 and 40 s apart, and gives up 40 s after the last.
    #[test]
    fn an_unanswered_delivery_backs_off_then_gives_up() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 22);
        fleet.set_isolated(RECIPIENT, true);
        let home = &mut fleet.nodes[RECIPIENT].node;
        let recipient = home.wallet.address();
        let mut rng = SimRng::seed_from_u64(3);
        let creds = home.registry.provision(&mut rng, DeviceId(4), recipient);
        let request = |node: &mut Node, now, env: &mut dyn NodeEnv| {
            node.on_uplink(now, 0, Uplink::Request, env)
        };
        let Some((_, Downlink::Key(e_pk))) = fleet.act(GATEWAY, request) else {
            panic!("a request brings a key down");
        };
        let uplink = crate::exchange::seal_reading(&mut rng, &creds, &e_pk, b"lost").unwrap();
        let frame = Uplink::Data {
            device_id: DeviceId(4),
            recipient,
            uplink,
        };
        let forwarded = SimTime::ZERO + SimDuration::from_secs(100);
        fleet.act(GATEWAY, |node, _, env| {
            node.on_uplink(forwarded, 0, frame, env)
        });
        let mut wakes = vec![forwarded];
        while let Some(at) = fleet.nodes[GATEWAY].wake.take() {
            fleet.act(GATEWAY, |node, _, env| node.on_deadline(at, env));
            wakes.push(at);
        }
        let gaps: Vec<SimDuration> = (wakes.windows(2))
            .map(|w| w[1].saturating_duration_since(w[0]))
            .collect();
        assert_eq!(gaps, [5, 10, 20, 40, 40].map(SimDuration::from_secs));
        let notes = &fleet.nodes[GATEWAY].notes;
        let count = |note| notes.iter().filter(|n| **n == (0, note)).count();
        assert_eq!(count(Note::Redelivered), 4);
        assert_eq!(count(Note::Abort), 1);
        assert_eq!(notes.last(), Some(&(0, Note::Abort)), "the last word");
        assert!(fleet.nodes[RECIPIENT].notes.is_empty(), "nothing arrived");
    }

    #[test]
    fn a_late_deadline_never_claims_short_of_the_depth() {
        // Depth 1: the escrow is pooled everywhere but not mined, so no
        // deadline, however late, may reveal the key.
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 21);
        deliver(&mut fleet, 0, b"unmined");
        assert!(fleet.run_until(WAIT, |f| pooled(f, 0) == 1 && pooled(f, GATEWAY) == 1));
        let later = SimDuration::from_secs(3600);
        fleet.act(GATEWAY, |node, now, env| node.on_deadline(now + later, env));
        while fleet.step() > 0 {}
        assert!(!fleet.nodes[GATEWAY].noted(0, Note::Claiming));
        fleet.mine(0);
        assert!(fleet.run_until(WAIT, |f| f.nodes[GATEWAY].noted(0, Note::Claiming)));
    }

    #[test]
    fn recipient_flags_equivocating_claims() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 12);
        let filed = deliver(&mut fleet, 0, b"reading");
        assert!(fleet.run_until(WAIT, |f| pooled(f, 0) == 1));
        fleet.mine(0);
        assert!(fleet.run_until(WAIT, |f| f.nodes[RECIPIENT].noted(filed, Note::Opened)));
        // A second claim on the same escrow, as the gateway could sign it:
        // a skewed fee forks the txid, the revealed key is the same.
        let gateway = &fleet.nodes[GATEWAY].node;
        let claim = gateway.claim(0).expect("claimed").clone();
        let escrow = fleet.nodes[RECIPIENT].node.escrow(filed).expect("escrowed");
        let e_sk = extract_key_from_claim(&claim, &escrow.outpoint()).expect("revealed");
        let rival = build_claim(
            &gateway.wallet,
            escrow.outpoint(),
            &escrow.script,
            100,
            &e_sk,
            11,
        );
        assert_ne!(claim.txid(), rival.txid());
        let recipient = &mut fleet.nodes[RECIPIENT];
        let tx = |tx| from(1, WanMessage::Chain(ChainMessage::Tx(tx)));
        recipient.handle(tx(claim)); // the claim it already saw: fine
        assert!(!recipient.noted(filed, Note::Equivocation));
        recipient.handle(tx(rival));
        assert!(
            recipient.noted(filed, Note::Equivocation),
            "second distinct claim flags"
        );
    }

    #[test]
    fn run_until_blocks_to_its_deadline_without_spinning() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 18);
        let timeout = Duration::from_millis(50);
        let (started, mut looks) = (Instant::now(), 0);
        let held = fleet.run_until(timeout, |_| {
            looks += 1;
            false
        });
        assert!(!held);
        assert!(started.elapsed() >= timeout);
        // One look per wake-up: a clock tick would take fifty, a spin
        // millions.
        assert!(looks <= 5, "{looks} looks at an idle fleet");
    }

    #[test]
    fn a_frame_from_another_thread_wakes_a_waiting_tcp_fleet() {
        let tcp = TcpFleet::new(3, 1, TcpConfig::fast_test()).expect("bind");
        let (sender, to) = (tcp.hosts()[0].clone(), tcp.hosts()[1].local_addr());
        let mut fleet = Fleet::new(tcp, 3, 19);
        // Mined at node 0 but not routed: the block travels by hand.
        let (_, mined) = fleet.nodes[0].act(|node, now, env| {
            node.mine(now, b"fleet", &IdSet::default(), env);
        });
        let [Outbound::Flood(block)] = mined.as_slice() else {
            panic!("mining floods one block, not {mined:?}");
        };
        let (block, (idle_tx, idle_rx)) = (block.clone(), std::sync::mpsc::channel());
        let peer = std::thread::spawn(move || {
            idle_rx.recv().expect("the fleet went idle");
            // Long enough for `run_until` to be blocked in its wait.
            std::thread::sleep(Duration::from_millis(20));
            sender.send(to, &block).expect("send");
            Instant::now()
        });
        let mut idle_tx = Some(idle_tx);
        let arrived = fleet.run_until(WAIT, |f| {
            if let Some(tx) = idle_tx.take() {
                tx.send(()).expect("peer thread is listening");
            }
            f.nodes[1].node.height() == 1
        });
        let woken_after = peer.join().expect("peer thread").elapsed();
        assert!(arrived);
        // Slept through, the frame would sit until `WAIT` ran out.
        assert!(woken_after < Duration::from_secs(1), "{woken_after:?}");
    }

    /// The next message queued for `host`, waiting up to `timeout`.
    fn recv_within<T: FleetTransport>(
        fleet: &mut Fleet<T>,
        host: u32,
        timeout: Duration,
    ) -> Option<Envelope<WanMessage>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(env) = fleet.transport.try_recv(NodeId(host)) {
                return Some(env);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            fleet.transport.wait(left);
        }
    }

    /// One cut-link check through [`Fleet`], whatever the fabric: with
    /// node 4 isolated, 0 → 4 is dropped and 0 → 1 still lands; healed,
    /// 0 → 4 lands again.
    fn a_cut_link_drops_its_messages_until_healed<T: FleetTransport>(fleet: &mut Fleet<T>) {
        let announce = fleet.nodes[0].node.tip_announce();
        let delivered = |fleet: &mut Fleet<T>, to: u32, wait: Duration| {
            let sent = fleet.send(NodeId(0), NodeId(to), &announce);
            let landed = recv_within(fleet, to, wait).map(|env| (env.from, env.msg));
            assert_eq!(landed.is_some(), sent, "0 → {to}: sent {sent}");
            landed.is_some_and(|got| got == (NodeId(0), announce.clone()))
        };
        assert!(delivered(fleet, 1, WAIT));
        assert!(delivered(fleet, 4, WAIT));
        fleet.set_isolated(4, true);
        assert!(delivered(fleet, 1, WAIT), "0 → 1 is not across the cut");
        let quiet = Duration::from_millis(50);
        assert!(!delivered(fleet, 4, quiet), "0 → 4 is dropped while cut");
        fleet.set_isolated(4, false);
        assert!(delivered(fleet, 4, WAIT), "0 → 4 lands once healed");
    }

    #[test]
    fn cut_links_drop_messages_on_the_bus() {
        let mut fleet = Fleet::new(BusFleet::new(5), 5, 11);
        a_cut_link_drops_its_messages_until_healed(&mut fleet);
    }

    #[test]
    fn cutting_a_link_drops_that_connection_only() {
        let tcp = TcpFleet::new(5, 1, TcpConfig::fast_test()).expect("bind");
        let mut fleet = Fleet::new(tcp, 5, 20);
        a_cut_link_drops_its_messages_until_healed(&mut fleet);
        let stats = fleet.transport.hosts()[0].stats();
        // Node 0 dialled 1 and 4 once each; after the cut, 0 → 1 reused
        // its pooled connection and the healed 0 → 4 dialled afresh.
        let (dials, pool_hits) = (
            TransportStats::get(&stats.dials),
            TransportStats::get(&stats.pool_hits),
        );
        assert_eq!((dials, pool_hits), (3, 1));
    }

    #[test]
    fn a_queued_message_ends_the_bus_wait_at_once() {
        let mut bus = BusFleet::new(3);
        let ask = WanMessage::Chain(ChainMessage::GetBlocksFrom(0));
        assert!(bus.send(NodeId(0), NodeId(2), &ask));
        let started = Instant::now();
        bus.wait(WAIT);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(bus.try_recv(NodeId(2)).is_some());
        assert!(!bus.send(NodeId(0), NodeId(3), &ask), "no node 3");
    }
}
