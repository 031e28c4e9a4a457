//! One transport, two worlds: the same federation logic over the
//! simulated bus or real TCP sockets.
//!
//! [`World`](crate::world::World) drives the paper's §5.2 experiments on
//! a deterministic event queue; the live loopback tests drive real
//! sockets. This module is the seam between them: a [`Fleet`] is a set
//! of [`FleetNode`]s — each a full gateway with its own [`Daemon`],
//! wallet, and exchange state — wired together by any
//! [`FleetTransport`]. The *same* scenario function (for example
//! [`fig3_partition_recovery`]) runs unmodified over [`BusFleet`]
//! (in-process channels, instant delivery) or [`TcpFleet`] (real
//! `TcpHost` sockets multiplexed on one shared event-driven
//! [`TcpRuntime`]); the only difference is which transport value the
//! caller constructs.
//!
//! [`FleetNode::handle`] is the live daemon accept loop the paper's
//! gateways run: admit transactions, connect blocks, relay gossip with
//! flood dedup, answer `GetBlocksFrom` with bounded batches out of
//! [`sync::serve_blocks_from_bounded`], and issue catch-up requests when
//! a tip announcement or an unconnectable block reveals the node is
//! behind (§5.1). Partitions are enforced at the overlay routing layer
//! on both backends: a cut link silently drops the message, exactly what
//! a severed WAN path does to a datagram in flight.

use crate::costs::CostModel;
use crate::escrow::{build_claim, build_escrow, extract_key_from_claim, find_escrow_for_key};
use crate::exchange::{open_reading, seal_reading, verify_uplink, SealedUplink};
use crate::net::WanCodec;
use crate::provisioning::{DeviceId, DeviceRegistry};
use crate::sync;
use crate::wire::WanMessage;
use crate::Daemon;
use bcwan_chain::{
    Address, Block, BlockAction, Chain, ChainParams, OutPoint, Transaction, TxId, TxOut, Wallet,
};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_p2p::transport::{TcpConfig, TcpHost, TcpRuntime};
use bcwan_p2p::{ChainMessage, Envelope, Inbox, LiveBus, NodeId};
use bcwan_script::Script;
use bcwan_sim::{SimRng, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Blocks served per `GetBlocksFrom` answer — the live analogue of the
/// simulated world's sync batching, so one lagging peer cannot make a
/// daemon serialize its whole chain into a single response. The
/// trailing `TipAnnounce` tells a still-behind requester to ask again.
pub const SYNC_BATCH: usize = 32;

/// Inbound messages a node drains per [`Fleet::step`], so one flooded
/// node cannot starve the rest of the fleet within a step.
const DRAIN_PER_STEP: usize = 64;

/// Reward locked in the scenario's escrow output.
const ESCROW_VALUE: u64 = 100;
/// Fee the escrow transaction pays.
const ESCROW_FEE: u64 = 10;
/// Fee the claim transaction pays.
const CLAIM_FEE: u64 = 5;

/// An addressed overlay for a fleet of nodes, with partitionable links.
///
/// Implementations route by [`NodeId`]; the TCP backend resolves ids to
/// socket addresses internally (the on-chain directory's job in the full
/// system). A send across a cut link returns `false` and delivers
/// nothing — the overlay-level model of a severed WAN path, identical on
/// both backends.
pub trait FleetTransport {
    /// Sends one message; `false` means the link is cut or the peer is
    /// unreachable and the message was dropped.
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool;

    /// Non-blocking receive of the next message queued for `host`.
    fn try_recv(&mut self, host: NodeId) -> Option<Envelope<WanMessage>>;

    /// Raises (`up = true`) or cuts (`up = false`) the link between two
    /// nodes. Links start up.
    fn set_link(&mut self, a: NodeId, b: NodeId, up: bool);
}

fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// [`FleetTransport`] over the in-process [`LiveBus`]: instant,
/// loss-free delivery through channels — the simulated world's fabric.
pub struct BusFleet {
    bus: LiveBus<WanMessage>,
    inboxes: Vec<Inbox<WanMessage>>,
    cuts: HashSet<(u32, u32)>,
}

impl BusFleet {
    /// A bus fabric for `n` nodes with ids `0..n`.
    pub fn new(n: usize) -> Self {
        let bus = LiveBus::new();
        let inboxes = (0..n as u32).map(|i| bus.register(NodeId(i))).collect();
        BusFleet {
            bus,
            inboxes,
            cuts: HashSet::new(),
        }
    }
}

impl FleetTransport for BusFleet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool {
        if self.cuts.contains(&link_key(from, to)) {
            return false;
        }
        self.bus.send(from, to, msg.clone()).is_ok()
    }

    fn try_recv(&mut self, host: NodeId) -> Option<Envelope<WanMessage>> {
        self.inboxes
            .get(host.0 as usize)
            .and_then(|inbox| inbox.try_recv().message())
    }

    fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        if up {
            self.cuts.remove(&link_key(a, b));
        } else {
            self.cuts.insert(link_key(a, b));
        }
    }
}

/// [`FleetTransport`] over real loopback TCP: every node binds a
/// [`TcpHost`] on one shared event-driven [`TcpRuntime`], so a 64-host
/// fleet costs one poller plus a few worker threads, not 64+ reader
/// threads.
pub struct TcpFleet {
    hosts: Vec<TcpHost<WanMessage, WanCodec>>,
    inboxes: Vec<Inbox<WanMessage>>,
    addrs: Vec<SocketAddr>,
    cuts: HashSet<(u32, u32)>,
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
            hosts,
            inboxes,
            addrs,
            cuts: HashSet::new(),
        })
    }

    /// The transport hosts, indexed by node id, for metric export.
    pub fn hosts(&self) -> &[TcpHost<WanMessage, WanCodec>] {
        &self.hosts
    }
}

impl FleetTransport for TcpFleet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: &WanMessage) -> bool {
        if self.cuts.contains(&link_key(from, to)) {
            return false;
        }
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
            .and_then(|inbox| inbox.try_recv().message())
    }

    fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        if up {
            self.cuts.remove(&link_key(a, b));
        } else {
            self.cuts.insert(link_key(a, b));
            // Pooled connections across the cut are stale; drop them so a
            // healed link re-dials instead of writing into a dead pipe.
            if let Some(host) = self.hosts.get(a.0 as usize) {
                host.drop_pool();
            }
            if let Some(host) = self.hosts.get(b.0 as usize) {
                host.drop_pool();
            }
        }
    }
}

/// Where one of [`FleetNode::handle`]'s reactions goes.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// Directly to one peer (sync responses, catch-up requests).
    To(NodeId, WanMessage),
    /// Flooded to every peer (dedup happens at the receivers).
    Flood(WanMessage),
}

/// One live gateway: a chain daemon plus the per-role exchange state
/// the Fig. 3 protocol needs.
pub struct FleetNode {
    /// This node's overlay id.
    pub id: NodeId,
    /// The node's chain daemon (chain, mempool, relay dedup).
    pub daemon: Daemon,
    /// The node's wallet.
    pub wallet: Wallet,
    /// Recipient role: provisioned devices this node can verify and
    /// decrypt for.
    pub registry: DeviceRegistry,
    /// Recipient role: spendable coins for funding escrows.
    pub coins: Vec<(OutPoint, Script, u64)>,
    /// Gateway role: the ephemeral keypair of the exchange in flight.
    pub ephemeral: Option<(RsaPublicKey, RsaPrivateKey)>,
    /// Gateway role: whether the escrow was claimed.
    pub claimed: bool,
    /// Gateway role: txid of the claim, once broadcast.
    pub claim_txid: Option<TxId>,
    /// Recipient role: the reading recovered from the claim.
    pub decrypted: Option<Vec<u8>>,
    /// Recipient role: set when two *distinct* key-revealing claims
    /// were seen spending our escrow — the gateway equivocated. The
    /// reading is never at risk (every valid claim reveals the true
    /// eSk); the flag is the detection signal fair exchange promises.
    pub equivocation_detected: bool,
    /// Recipient role: first key-revealing claim seen for our escrow.
    seen_claim_txid: Option<TxId>,
    /// How many `GetBlocksFrom` batches this node served.
    pub sync_batches_served: u64,
    /// How many `GetHeadersFrom` batches this node served.
    pub header_batches_served: u64,
    /// In-progress headers-first catch-up, if any.
    header_sync: Option<sync::HeaderSync>,
    /// Every peer's wallet address, indexed by node id (out-of-band
    /// here; the on-chain directory's job in the full system).
    address_book: Vec<Address>,
    pending_uplink: Option<(DeviceId, SealedUplink)>,
    escrow_outpoint: Option<OutPoint>,
    costs: CostModel,
    now: SimTime,
    rng: SimRng,
}

impl FleetNode {
    fn new(
        id: NodeId,
        chain: Chain,
        wallet: Wallet,
        address_book: Vec<Address>,
        seed: u64,
    ) -> Self {
        FleetNode {
            id,
            daemon: Daemon::new(chain),
            wallet,
            registry: DeviceRegistry::new(),
            coins: Vec::new(),
            ephemeral: None,
            claimed: false,
            claim_txid: None,
            decrypted: None,
            equivocation_detected: false,
            seen_claim_txid: None,
            sync_batches_served: 0,
            header_batches_served: 0,
            header_sync: None,
            address_book,
            pending_uplink: None,
            escrow_outpoint: None,
            costs: CostModel::pi_class(),
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed ^ u64::from(id.0).wrapping_mul(0x9e37_79b9)),
        }
    }

    /// The node's chain height.
    pub fn height(&self) -> u64 {
        self.daemon.chain.height()
    }

    /// This node's tip as an inventory announcement.
    pub fn tip_announce(&self) -> WanMessage {
        WanMessage::Chain(ChainMessage::TipAnnounce {
            hash: self.daemon.chain.tip(),
            height: self.daemon.chain.height(),
        })
    }

    /// The daemon accept loop: processes one inbound message and returns
    /// the reactions to route. This single body of protocol logic is
    /// what both the bus and TCP fleets execute.
    pub fn handle(&mut self, env: Envelope<WanMessage>) -> Vec<Outbound> {
        let mut out = Vec::new();
        // Flood dedup first: a transaction or block this node already
        // saw is dropped wholesale, which is what terminates gossip
        // floods on both fabrics.
        if let WanMessage::Chain(cm) = &env.msg {
            if cm.flood_id().is_some() && !self.daemon.relay.should_relay(cm) {
                return out;
            }
        }
        match env.msg {
            WanMessage::Deliver {
                device_id,
                e_pk_bytes,
                uplink,
            } => self.on_deliver(env.from, device_id, &e_pk_bytes, uplink, &mut out),
            WanMessage::Chain(ChainMessage::Tx(tx)) => self.on_tx(tx, &mut out),
            WanMessage::Chain(ChainMessage::Block(block)) => {
                self.on_block(env.from, block, &mut out)
            }
            WanMessage::Chain(ChainMessage::GetBlocksFrom(height)) => {
                self.sync_batches_served += 1;
                let batch = sync::serve_blocks_from_bounded(&self.daemon.chain, height, SYNC_BATCH);
                for block in batch {
                    out.push(Outbound::To(
                        env.from,
                        WanMessage::Chain(ChainMessage::Block(block)),
                    ));
                }
                // The tip announce closes the loop: if the batch stopped
                // short of our tip, the requester sees it is still
                // behind and asks again from its new height.
                out.push(Outbound::To(env.from, self.tip_announce()));
            }
            WanMessage::Chain(ChainMessage::GetBlock(hash)) => {
                if let Some(block) = self
                    .daemon
                    .chain
                    .iter_main()
                    .find(|b| b.hash() == hash)
                    .cloned()
                {
                    out.push(Outbound::To(
                        env.from,
                        WanMessage::Chain(ChainMessage::Block(block)),
                    ));
                }
            }
            WanMessage::Chain(ChainMessage::GetHeadersFrom(height)) => {
                self.header_batches_served += 1;
                let headers =
                    sync::serve_headers_from(&self.daemon.chain, height, sync::HEADER_BATCH);
                out.push(Outbound::To(
                    env.from,
                    WanMessage::Chain(ChainMessage::Headers {
                        start_height: height,
                        headers,
                    }),
                ));
            }
            WanMessage::Chain(ChainMessage::Headers {
                start_height,
                headers,
            }) => {
                if let Some(hs) = self.header_sync.as_mut() {
                    let reqs = hs.on_headers(&self.daemon.chain, start_height, &headers);
                    if !hs.is_active() {
                        self.header_sync = None;
                    }
                    self.push_sync_requests(reqs, &mut out);
                }
            }
            WanMessage::Chain(ChainMessage::TipAnnounce { height, .. }) => {
                if height > self.daemon.chain.height() {
                    match self.header_sync.as_mut() {
                        Some(hs) => {
                            // Already syncing: raise the target and top
                            // up the body window.
                            hs.on_tip(height);
                            let reqs = hs.on_progress(&self.daemon.chain);
                            if !hs.is_active() {
                                self.header_sync = None;
                            }
                            self.push_sync_requests(reqs, &mut out);
                        }
                        None => {
                            // Headers-first catch-up (§5.1): locate the
                            // fork with cheap header batches before any
                            // bodies move, instead of blindly walking
                            // blocks from our own height.
                            let peers = self.sync_peers(env.from);
                            let (hs, reqs) =
                                sync::HeaderSync::start(peers, self.daemon.chain.height(), height);
                            self.header_sync = Some(hs);
                            self.push_sync_requests(reqs, &mut out);
                        }
                    }
                }
            }
        }
        out
    }

    /// Peers to stripe body batches across: the announcing peer first,
    /// then the next node ids round-robin, at most three total. (Ids
    /// map to every fleet member; a cut link just drops that stripe and
    /// the orphan-fallback `GetBlocksFrom` recovers.)
    fn sync_peers(&self, primary: NodeId) -> Vec<NodeId> {
        let n = self.address_book.len() as u32;
        let mut peers = vec![primary];
        let mut next = primary.0.wrapping_add(1) % n.max(1);
        while peers.len() < 3 && peers.len() + 1 < n as usize {
            let candidate = NodeId(next);
            if candidate != self.id && !peers.contains(&candidate) {
                peers.push(candidate);
            }
            next = (next + 1) % n;
        }
        peers
    }

    fn push_sync_requests(&self, reqs: Vec<sync::SyncRequest>, out: &mut Vec<Outbound>) {
        for req in reqs {
            let (peer, msg) = match req {
                sync::SyncRequest::Headers { peer, from } => {
                    (peer, ChainMessage::GetHeadersFrom(from))
                }
                sync::SyncRequest::Bodies { peer, from } => {
                    (peer, ChainMessage::GetBlocksFrom(from))
                }
            };
            out.push(Outbound::To(peer, WanMessage::Chain(msg)));
        }
    }

    /// Fig. 3 steps 8–9 at the recipient: verify the uplink, fund the
    /// escrow paying the delivering gateway, flood it toward the miners.
    fn on_deliver(
        &mut self,
        from: NodeId,
        device_id: DeviceId,
        e_pk_bytes: &[u8],
        uplink: SealedUplink,
        out: &mut Vec<Outbound>,
    ) {
        let Some(record) = self.registry.get(&device_id) else {
            return; // not our device
        };
        let Ok(pk) = RsaPublicKey::from_bytes(e_pk_bytes) else {
            return;
        };
        if !verify_uplink(record, &pk, &uplink) {
            return; // forged or corrupted — never pay for it
        }
        let Some(coin) = self.coins.pop() else {
            return; // nothing left to fund an escrow with
        };
        let Some(&gateway_address) = self.address_book.get(from.0 as usize) else {
            return;
        };
        let escrow = build_escrow(
            &self.wallet,
            std::slice::from_ref(&coin),
            &pk,
            &gateway_address,
            ESCROW_VALUE,
            ESCROW_FEE,
            0,
        );
        self.escrow_outpoint = Some(escrow.outpoint());
        self.pending_uplink = Some((device_id, uplink));
        let tx = escrow.tx;
        self.daemon.relay.mark_seen(tx.txid().0);
        let (done, _) = self
            .daemon
            .accept_transaction(self.now, tx.clone(), &self.costs);
        self.now = done;
        out.push(Outbound::Flood(WanMessage::Chain(ChainMessage::Tx(tx))));
    }

    fn on_tx(&mut self, tx: Transaction, out: &mut Vec<Outbound>) {
        let (done, res) = self
            .daemon
            .accept_transaction(self.now, tx.clone(), &self.costs);
        self.now = done;
        if res.is_ok() {
            out.push(Outbound::Flood(WanMessage::Chain(ChainMessage::Tx(
                tx.clone(),
            ))));
        }
        // Recipient role, step 10→11: a claim spending our escrow output
        // reveals eSk; decrypt the pending uplink with it. Detection
        // runs even when admission failed — a rival claim is exactly
        // the tx the pool rejects as a conflict.
        self.note_claim(&tx);
        self.try_decrypt_from(&tx);
    }

    fn on_block(&mut self, from: NodeId, block: Block, out: &mut Vec<Outbound>) {
        let (done, res) = self
            .daemon
            .accept_block(self.now, block.clone(), &mut self.rng);
        self.now = done;
        match res {
            Ok(BlockAction::Extended(_)) | Ok(BlockAction::Reorganized { .. }) => {
                out.push(Outbound::Flood(WanMessage::Chain(ChainMessage::Block(
                    block,
                ))));
                // Gateway role: once the escrow confirms, claim it by
                // revealing eSk. Claiming before confirmation would be
                // rejected everywhere (the escrow output is not in any
                // UTXO set yet) and the relay dedup would never let the
                // claim re-flood — so confirmation is the trigger.
                self.try_claim_connected(out);
                self.try_decrypt_connected();
                // Keep the headers-first body window full as batches
                // land and retire.
                if let Some(hs) = self.header_sync.as_mut() {
                    let reqs = hs.on_progress(&self.daemon.chain);
                    if !hs.is_active() {
                        self.header_sync = None;
                    }
                    self.push_sync_requests(reqs, out);
                }
            }
            Ok(BlockAction::SideChain) | Ok(BlockAction::AlreadyKnown) => {}
            Err(_) => {
                // Most likely an orphan: the parent is missing because
                // we were partitioned. Ask the sender for everything
                // above our tip (§5.1 catch-up).
                out.push(Outbound::To(
                    from,
                    WanMessage::Chain(ChainMessage::GetBlocksFrom(self.daemon.chain.height())),
                ));
            }
        }
    }

    /// Gateway role: scan freshly confirmed transactions for an escrow
    /// locked to our ephemeral key and claim it.
    fn try_claim_connected(&mut self, out: &mut Vec<Outbound>) {
        if self.claimed {
            return;
        }
        let Some((e_pk, e_sk)) = self.ephemeral.clone() else {
            return;
        };
        let connected = self.daemon.last_connected_txs().to_vec();
        for tx in &connected {
            let Some((vout, value)) = find_escrow_for_key(tx, &e_pk) else {
                continue;
            };
            let outpoint = OutPoint {
                txid: tx.txid(),
                vout,
            };
            let script = tx.outputs[vout as usize].script_pubkey.clone();
            let claim = build_claim(&self.wallet, outpoint, &script, value, &e_sk, CLAIM_FEE);
            self.claimed = true;
            self.claim_txid = Some(claim.txid());
            self.daemon.relay.mark_seen(claim.txid().0);
            let (done, _) = self
                .daemon
                .accept_transaction(self.now, claim.clone(), &self.costs);
            self.now = done;
            out.push(Outbound::Flood(WanMessage::Chain(ChainMessage::Tx(claim))));
            return;
        }
    }

    /// Recipient role: the claim may first be seen inside a block rather
    /// than as loose gossip (e.g. after a partition heals).
    fn try_decrypt_connected(&mut self) {
        let connected = self.daemon.last_connected_txs().to_vec();
        for tx in &connected {
            self.note_claim(tx);
        }
        if self.decrypted.is_some() {
            return;
        }
        for tx in &connected {
            self.try_decrypt_from(tx);
        }
    }

    /// Recipient role: remembers which key-revealing claim spent our
    /// escrow; a second distinct one flips [`Self::equivocation_detected`].
    /// Runs after decryption too — the rival usually arrives later.
    fn note_claim(&mut self, tx: &Transaction) {
        let Some(outpoint) = self.escrow_outpoint else {
            return;
        };
        if extract_key_from_claim(tx, &outpoint).is_none() {
            return; // refund-branch spends are legal, not equivocation
        }
        let txid = tx.txid();
        match self.seen_claim_txid {
            None => self.seen_claim_txid = Some(txid),
            Some(seen) if seen != txid => self.equivocation_detected = true,
            Some(_) => {}
        }
    }

    fn try_decrypt_from(&mut self, tx: &Transaction) {
        if self.decrypted.is_some() {
            return;
        }
        let Some(outpoint) = self.escrow_outpoint else {
            return;
        };
        let Some(revealed) = extract_key_from_claim(tx, &outpoint) else {
            return;
        };
        let Some((device_id, uplink)) = self.pending_uplink.as_ref() else {
            return;
        };
        let Some(record) = self.registry.get(device_id) else {
            return;
        };
        self.decrypted = open_reading(record, &revealed, &uplink.em).ok();
    }
}

/// A set of [`FleetNode`]s wired together by a [`FleetTransport`].
pub struct Fleet<T> {
    /// The overlay fabric.
    pub transport: T,
    /// The gateways, indexed by node id.
    pub nodes: Vec<FleetNode>,
}

impl<T: FleetTransport> Fleet<T> {
    /// Builds `n` nodes over `transport`, all sharing one fast-test
    /// genesis that funds node 2 (the scenario's recipient) with 1 000.
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
        let address_book: Vec<Address> = wallets.iter().map(|w| w.address()).collect();
        let genesis = Chain::make_genesis(&params, &[(address_book[2], 1_000)]);
        let genesis_coin = (
            OutPoint {
                txid: genesis.transactions[0].txid(),
                vout: 0,
            },
            wallets[2].locking_script(),
            1_000u64,
        );
        let mut nodes: Vec<FleetNode> = wallets
            .into_iter()
            .enumerate()
            .map(|(i, wallet)| {
                FleetNode::new(
                    NodeId(i as u32),
                    Chain::new(params.clone(), genesis.clone()),
                    wallet,
                    address_book.clone(),
                    seed,
                )
            })
            .collect();
        nodes[2].coins.push(genesis_coin);
        Fleet { transport, nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes ([`Fleet::new`] guarantees not).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drains and handles every node's pending inbox once, routing the
    /// reactions. Returns how many inbound messages were processed.
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
        }
        moved
    }

    fn route(&mut self, from: NodeId, reactions: Vec<Outbound>) {
        let n = self.nodes.len() as u32;
        for reaction in reactions {
            match reaction {
                Outbound::To(to, msg) => {
                    self.transport.send(from, to, &msg);
                }
                Outbound::Flood(msg) => {
                    for j in 0..n {
                        if j != from.0 {
                            self.transport.send(from, NodeId(j), &msg);
                        }
                    }
                }
            }
        }
    }

    /// Steps until `pred` holds or `timeout` elapses; `true` on success.
    /// Sleeps briefly when idle so in-flight TCP frames can land.
    pub fn run_until(
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
            if Instant::now() > deadline {
                return pred(self);
            }
            if moved == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Mines one block at `miner` from its mempool and floods it — the
    /// world's mine tick, ported to the live daemon loop.
    pub fn mine(&mut self, miner: usize) {
        let block = {
            let node = &self.nodes[miner];
            let params = node.daemon.chain.params().clone();
            let height = node.daemon.chain.height() + 1;
            let mut txs = vec![Transaction::coinbase(
                height,
                b"fleet",
                vec![TxOut {
                    value: params.coinbase_reward,
                    script_pubkey: node.wallet.locking_script(),
                }],
            )];
            let budget = params.max_block_size.saturating_sub(txs[0].size() + 88);
            txs.extend(node.daemon.mempool.block_template(budget));
            Block::mine(node.daemon.chain.tip(), height, params.difficulty_bits, txs)
        };
        let node = &mut self.nodes[miner];
        let now = node.now;
        let (done, action) = node.daemon.accept_block(now, block.clone(), &mut node.rng);
        node.now = done;
        if matches!(
            action,
            Ok(BlockAction::Extended(_)) | Ok(BlockAction::Reorganized { .. })
        ) {
            node.daemon.relay.mark_seen(block.hash().0);
            let msg = WanMessage::Chain(ChainMessage::Block(block));
            self.route(NodeId(miner as u32), vec![Outbound::Flood(msg)]);
        }
    }

    /// Sends `from`'s tip announcement directly to `to` — how a healed
    /// node learns it is behind.
    pub fn announce_tip(&mut self, from: usize, to: usize) {
        let msg = self.nodes[from].tip_announce();
        self.transport
            .send(NodeId(from as u32), NodeId(to as u32), &msg);
    }

    /// Cuts (or heals) every link between `node` and the rest of the
    /// fleet.
    pub fn set_isolated(&mut self, node: usize, isolated: bool) {
        let n = self.nodes.len();
        for peer in 0..n {
            if peer != node {
                self.transport
                    .set_link(NodeId(node as u32), NodeId(peer as u32), !isolated);
            }
        }
    }

    /// Sends one message directly from `from` to `to` through the
    /// fabric (scenario-level stimulus, e.g. the initial `Deliver`).
    pub fn send_direct(&mut self, from: usize, to: usize, msg: &WanMessage) -> bool {
        self.transport
            .send(NodeId(from as u32), NodeId(to as u32), msg)
    }
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

    // Provision a device at the recipient; the device seals a reading
    // under the gateway's fresh ephemeral key (Fig. 3 steps 1–6).
    let mut rng = StdRng::seed_from_u64(0xf1e3);
    let recipient_address = fleet.nodes[recipient].wallet.address();
    let device =
        fleet.nodes[recipient]
            .registry
            .provision(&mut rng, DeviceId(1), recipient_address);
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let sealed = seal_reading(&mut rng, &device, &e_pk, FLEET_READING).expect("seal");
    fleet.nodes[gateway].ephemeral = Some((e_pk.clone(), e_sk));

    // The straggler misses the whole exchange.
    fleet.set_isolated(straggler, true);

    // Step 7: the gateway delivers the uplink to the recipient.
    assert!(
        fleet.send_direct(
            gateway,
            recipient,
            &WanMessage::Deliver {
                device_id: DeviceId(1),
                e_pk_bytes: e_pk.to_bytes(),
                uplink: sealed,
            },
        ),
        "deliver sent"
    );

    // Steps 8–9: the recipient escrows; gossip carries it to the miner.
    assert!(
        fleet.run_until(timeout, |f| !f.nodes[miner].daemon.mempool.is_empty()),
        "escrow reached the miner's mempool"
    );
    fleet.mine(miner); // block 1 confirms the escrow

    // Step 10: the gateway sees the confirmation, claims (revealing
    // eSk), and the recipient decrypts from the gossiped claim.
    assert!(
        fleet.run_until(timeout, |f| {
            f.nodes[gateway].claimed
                && f.nodes[recipient].decrypted.is_some()
                && !f.nodes[miner].daemon.mempool.is_empty()
        }),
        "claim gossiped and reading decrypted"
    );
    fleet.mine(miner); // block 2 confirms the claim

    assert!(
        fleet.run_until(timeout, |f| {
            (0..n).all(|i| i == straggler || f.nodes[i].height() == 2)
        }),
        "connected fleet converged at height 2"
    );
    assert_eq!(
        fleet.nodes[straggler].height(),
        0,
        "straggler stayed dark through the exchange"
    );

    // §5.1: the partition heals; one tip announcement triggers
    // GetBlocksFrom catch-up through bounded batches.
    fleet.set_isolated(straggler, false);
    fleet.announce_tip(miner, straggler);
    assert!(
        fleet.run_until(timeout, |f| {
            f.nodes[straggler].height() == f.nodes[miner].height()
        }),
        "straggler caught up after the partition healed"
    );

    let claim_txid = fleet.nodes[gateway].claim_txid.expect("claim exists");
    let partitioned_caught_up = fleet.nodes[straggler]
        .daemon
        .chain
        .find_transaction(&claim_txid)
        .is_some();
    FleetOutcome {
        decrypted: fleet.nodes[recipient].decrypted.clone(),
        gateway_claimed: fleet.nodes[gateway].claimed,
        heights: fleet.nodes.iter().map(FleetNode::height).collect(),
        partitioned_caught_up,
        sync_batches_served: fleet.nodes.iter().map(|h| h.sync_batches_served).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_serves_bounded_sync_batches() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 9);
        for _ in 0..40 {
            fleet.mine(0);
        }
        assert_eq!(fleet.nodes[0].height(), 40);
        let reactions = fleet.nodes[0].handle(Envelope {
            from: NodeId(2),
            msg: WanMessage::Chain(ChainMessage::GetBlocksFrom(0)),
        });
        // SYNC_BATCH blocks plus the trailing tip announce.
        assert_eq!(reactions.len(), SYNC_BATCH + 1);
        assert!(matches!(
            reactions.last(),
            Some(Outbound::To(
                NodeId(2),
                WanMessage::Chain(ChainMessage::TipAnnounce { height: 40, .. })
            ))
        ));
        assert_eq!(fleet.nodes[0].sync_batches_served, 1);
    }

    #[test]
    fn replayed_coinbase_block_is_refused_not_a_panic() {
        // What a TCP peer can send: a well-formed block whose coinbase
        // is byte-identical to an earlier, still-unspent one. It used to
        // pass validation and then panic `Chain::add_block`.
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 13);
        fleet.mine(0);
        let node = &mut fleet.nodes[0];
        let earlier = node.daemon.chain.block_at(1).expect("mined").clone();
        let replay = Block::mine(
            node.daemon.chain.tip(),
            2,
            node.daemon.chain.params().difficulty_bits,
            vec![earlier.transactions[0].clone()],
        );
        let reactions = node.handle(Envelope {
            from: NodeId(1),
            msg: WanMessage::Chain(ChainMessage::Block(replay)),
        });
        assert_eq!(node.height(), 1, "the replay did not connect");
        assert!(
            !reactions.iter().any(|o| matches!(
                o,
                Outbound::Flood(WanMessage::Chain(ChainMessage::Block(_)))
            )),
            "and was not relayed"
        );
    }

    #[test]
    fn flood_dedup_terminates_gossip() {
        let mut fleet = Fleet::new(BusFleet::new(4), 4, 10);
        fleet.mine(0);
        // Everyone converges, and the drain loop terminates because the
        // relay dedup kills every re-flood: finite total traffic.
        assert!(fleet.run_until(Duration::from_secs(5), |f| {
            f.nodes.iter().all(|n| n.height() == 1)
        }));
        while fleet.step() > 0 {}
        assert!(fleet.nodes.iter().all(|n| n.height() == 1));
    }

    #[test]
    fn recipient_flags_equivocating_claims() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 12);
        let mut rng = StdRng::seed_from_u64(77);
        let gateway_wallet = Wallet::generate(&mut rng);
        let recipient_wallet = Wallet::generate(&mut rng);
        let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
        // A synthetic escrow (never mined — detection is chain-independent).
        let coin = (
            OutPoint {
                txid: TxId([9u8; 32]),
                vout: 0,
            },
            recipient_wallet.locking_script(),
            ESCROW_VALUE + ESCROW_FEE,
        );
        let escrow = build_escrow(
            &recipient_wallet,
            &[coin],
            &e_pk,
            &gateway_wallet.address(),
            ESCROW_VALUE,
            ESCROW_FEE,
            0,
        );
        let node = &mut fleet.nodes[0];
        node.escrow_outpoint = Some(escrow.outpoint());
        let claim_a = build_claim(
            &gateway_wallet,
            escrow.outpoint(),
            &escrow.script,
            ESCROW_VALUE,
            &e_sk,
            CLAIM_FEE,
        );
        let claim_b = build_claim(
            &gateway_wallet,
            escrow.outpoint(),
            &escrow.script,
            ESCROW_VALUE,
            &e_sk,
            CLAIM_FEE + 1,
        );
        assert_ne!(claim_a.txid(), claim_b.txid(), "fee skew forks the txid");
        node.note_claim(&claim_a);
        node.note_claim(&claim_a); // duplicate of the same claim: fine
        assert!(!node.equivocation_detected);
        node.note_claim(&claim_b);
        assert!(node.equivocation_detected, "second distinct claim flags");
    }

    #[test]
    fn cut_links_drop_messages_on_the_bus() {
        let mut fleet = Fleet::new(BusFleet::new(3), 3, 11);
        let announce = fleet.nodes[0].tip_announce();
        fleet.set_isolated(2, true);
        assert!(!fleet.send_direct(0, 2, &announce));
        fleet.set_isolated(2, false);
        assert!(fleet.send_direct(0, 2, &announce));
    }
}
