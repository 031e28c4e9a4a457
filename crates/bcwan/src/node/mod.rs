//! The gateway daemon: one implementation under both worlds.
//!
//! The paper's federation is *one* daemon run by many actors (§4.3–§5.1):
//! every gateway keeps a chain, finds recipients in the on-chain
//! directory and plays Fig. 3 in either role. [`Node`] is that daemon.
//! It owns every reaction a host has to an inbound
//! [`WanMessage`] ([`Node::handle`]) and to every device frame its radio
//! hears ([`Node::on_uplink`]: open a session, forward an uplink), its
//! own recovery watchdog (`Node::on_deadline`: re-deliver, re-publish,
//! refund, suspect a censoring miner) and catch-up source choice, and the
//! host-local actions an operator invokes (mine, restart), and it reaches
//! everything outside the host through [`NodeEnv`]. Every decision uses
//! only what the host itself knows: its pool and chain, its clock, the
//! blocks it connected and the tips its peers announced or relayed.
//!
//! The simulator ([`World`](crate::world::World)) implements `NodeEnv`
//! over its event queue, latency model and chaos engine; a live
//! [`FleetNode`](crate::fleet::FleetNode) implements it by collecting
//! [`Outbound`](crate::fleet::Outbound)s for a transport. Both run the
//! code in this module, so each protocol rule lives here once.
//!
//! A node's state beyond its host (wallet, daemon, directory, registry)
//! is three role records, each with its handlers in a file of its own:
//! `gateway.rs`, `recipient.rs` and `relay.rs`. This file dispatches.

mod gateway;
mod recipient;
mod relay;

use crate::app_server::{AppServer, Reading};
use crate::costs::CostModel;
use crate::daemon::{ChainChange, Daemon};
use crate::device::{Downlink, Uplink};
use crate::directory::{Directory, IpAnnouncement};
use crate::escrow::{self, Escrow};
use crate::exchange::{open_reading, verify_uplink, SealedUplink};
use crate::fsm::{
    Backoff, FsmEvent, Phase, Settlement, CENSOR_SUSPECT_SWEEPS, DELIVER_RETRY, SETTLE_CHECK,
};
use crate::keyahead::{key_stream, KeyAhead};
use crate::provisioning::{DeviceId, DeviceRegistry};
use crate::sync::{self, HeaderSync, SyncRequest};
use crate::wire::WanMessage;
use bcwan_chain::{
    Address, Block, BlockAction, BlockHash, BlockHeader, Chain, ChainError, HashedBlock, HashedTx,
    IdMap, IdSet, OutPoint, Transaction, TxId, TxOut, Wallet,
};
use bcwan_crypto::rsa::{RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_crypto::sha256::sha256;
use bcwan_p2p::{ChainMessage, NodeId};
use bcwan_script::{templates::p2pkh, Script};
use bcwan_sim::{SimDuration, SimRng, SimTime};
use gateway::Gateway;
use recipient::Recipient;
use relay::Relay;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A WAN message as a node handles it: stamped once with what every hop
/// would otherwise recompute, then shared by all copies in flight —
/// fan-out is a refcount bump, a duplicate delivery costs a hash-set
/// probe on the stamped id, and every host hands the same hashed body to
/// its pool or chain, so one transaction or block is serialized, hashed
/// and held once however many hosts take it. The simulator shares one
/// parcel across all of its hosts (one address space, so a host can
/// observe no difference); a live node stamps each frame it decodes.
#[derive(Debug)]
pub struct Parcel {
    /// The message.
    pub msg: WanMessage,
    /// The hashed body of a transaction or block message: set where a
    /// node publishes it, or computed from `msg` on first use, so a
    /// parcel nobody reads the stamp of never pays for it.
    stamp: OnceLock<Stamp>,
}

/// What a parcel is stamped with.
#[derive(Debug)]
enum Stamp {
    Tx(HashedTx),
    Block(HashedBlock),
    /// Request/response traffic, never re-flooded.
    Unstamped,
}

impl Parcel {
    /// Wraps `msg`; its stamp is computed on first use.
    pub fn new(msg: WanMessage) -> Arc<Self> {
        Arc::new(Parcel {
            msg,
            stamp: OnceLock::new(),
        })
    }

    /// A transaction this node publishes, already hashed.
    fn tx(tx: HashedTx) -> Arc<Self> {
        Arc::new(Parcel {
            msg: WanMessage::Chain(ChainMessage::Tx(tx.tx().clone())),
            stamp: OnceLock::from(Stamp::Tx(tx)),
        })
    }

    /// A block this node publishes, already hashed.
    fn block(block: HashedBlock) -> Arc<Self> {
        Arc::new(Parcel {
            msg: WanMessage::Chain(ChainMessage::Block(block.block().clone())),
            stamp: OnceLock::from(Stamp::Block(block)),
        })
    }

    fn stamp(&self) -> &Stamp {
        self.stamp.get_or_init(|| match &self.msg {
            WanMessage::Chain(ChainMessage::Tx(tx)) => Stamp::Tx(HashedTx::new(tx.clone())),
            WanMessage::Chain(ChainMessage::Block(block)) => {
                Stamp::Block(HashedBlock::new(block.clone()))
            }
            _ => Stamp::Unstamped,
        })
    }

    /// [`WanMessage::wire_size`], for traffic accounting — read off the
    /// stamp for a transaction or block.
    pub(crate) fn wire_size(&self) -> usize {
        match self.stamp() {
            Stamp::Tx(tx) => 1 + tx.size(),
            Stamp::Block(block) => 1 + block.size(),
            Stamp::Unstamped => self.msg.wire_size(),
        }
    }

    /// The hashed body of a transaction parcel.
    fn hashed_tx(&self) -> &HashedTx {
        match self.stamp() {
            Stamp::Tx(tx) => tx,
            _ => unreachable!("only transaction parcels are read as one"),
        }
    }

    /// The hashed body of a block parcel.
    fn hashed_block(&self) -> &HashedBlock {
        match self.stamp() {
            Stamp::Block(block) => block,
            _ => unreachable!("only block parcels are read as one"),
        }
    }
}

/// Something a node reports about one exchange, at the program point
/// where it happens. The environment keeps whatever bookkeeping it owns
/// in step: the simulator drives its phase marks, auditor, counters,
/// mining model and latency series from these; a live fleet logs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// Gateway: a request opened a session; its ephemeral keypair is
    /// being generated (Fig. 3 step 2).
    SessionOpened,
    /// Recipient: the delivery could not be verified or funded. Gateway:
    /// the re-deliveries ran out with no escrow in sight. Either way the
    /// exchange is over for this node before it moved any money.
    Abort,
    /// Recipient: the uplink's signature checked out (Fig. 3 step 8).
    Delivered,
    /// Recipient: the escrow locking this outpoint is pooled here and
    /// flooded (step 9); settlement is now the chain's business.
    EscrowPublished(OutPoint),
    /// Gateway: the claim revealing `eSk` is being built (step 10).
    Claiming,
    /// Recipient: the revealed key opened the reading, which went to its
    /// application server (step 11).
    Opened,
    /// Recipient: the revealed key did not open the reading.
    OpenFailed,
    /// Recipient: a second *distinct* key-revealing claim spends the
    /// escrow — the gateway equivocated.
    Equivocation,
    /// Recipient: the main chain confirmed or (after a reorg) orphaned
    /// the claim or refund spending the escrow.
    Settlement(FsmEvent),
    /// Recipient: the exchange's machine refused this settlement event
    /// (0 in a correct run).
    IllegalSettlement(FsmEvent),
    /// Gateway: no escrow paying the session showed up in time, so the
    /// held uplink went out again.
    Redelivered,
    /// A kept settlement went out again: this node's pool and chain had
    /// lost it, or a block mined well after it went out left it out.
    Rebroadcast,
    /// Recipient: past the refund height with no settlement, the CLTV
    /// refund was built.
    Refunding,
    /// Blocks from this miner kept leaving out a settlement this node
    /// re-published (`CENSOR_SUSPECT_SWEEPS` times in a row).
    CensorshipSuspected(NodeId),
}

/// Ways a Byzantine gateway deviates; the environment says when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehaviour {
    /// Sit on the claim instead of publishing it.
    WithholdClaim,
    /// Sign two conflicting claims and show each half of the overlay a
    /// different one.
    Equivocate,
}

/// Everything outside the host, as one node sees it. An environment
/// value is bound to the node it is handed to, so no method names the
/// caller.
pub trait NodeEnv {
    /// Gossips `parcel` to every overlay peer, leaving at `at`.
    fn flood(&mut self, at: SimTime, parcel: &Arc<Parcel>);

    /// Sends `msg` to one peer over a direct dial, leaving at `at`.
    fn unicast(&mut self, at: SimTime, to: NodeId, msg: WanMessage);

    /// The equivocator's flood: `claim` to one half of the overlay,
    /// `rival` to the other. Only reached when
    /// [`misbehaves`](Self::misbehaves) said [`Misbehaviour::Equivocate`].
    fn flood_split(&mut self, at: SimTime, claim: &Arc<Parcel>, rival: &Arc<Parcel>) {
        self.flood(at, claim);
        self.flood(at, rival);
    }

    /// Reports `note` about exchange `tag`, observed at `at`.
    fn note(&mut self, at: SimTime, tag: u64, note: Note);

    /// The tag of the open exchange a `Deliver` starts, given its
    /// ephemeral key's `delivery_tag`, or `None` to drop it (no such
    /// exchange, or one already over).
    fn delivery(&mut self, key: u64) -> Option<u64>;

    /// Whether exchange `tag` was already closed by a confirmed refund,
    /// so a key revealed now opens nothing.
    fn closed(&self, tag: u64) -> bool;

    /// Asks for `Node::on_deadline` to run at `at`. An earlier pending
    /// wake-up covers a later request: the node asks again for whatever
    /// is left after each run.
    fn wake_at(&mut self, at: SimTime);

    /// Whether this node deviates in the given way at `now`. Honest
    /// environments keep the default.
    fn misbehaves(&mut self, _now: SimTime, _how: Misbehaviour) -> bool {
        false
    }
}

/// The digest a recipient knows a delivery by: the first eight bytes of
/// the SHA-256 of its ephemeral key's encoding. Telling deliveries apart
/// this way keeps no state a peer's traffic could grow.
pub(crate) fn delivery_tag(e_pk_bytes: &[u8]) -> u64 {
    let digest = sha256(e_pk_bytes);
    u64::from_le_bytes(digest[..8].try_into().expect("eight bytes"))
}

/// What the operator fixes for every exchange its nodes take part in.
#[derive(Debug, Clone)]
pub(crate) struct Terms {
    pub(crate) costs: CostModel,
    pub(crate) reward: u64,
    pub(crate) fee: u64,
    pub(crate) confirmation_depth: u64,
    pub(crate) refund_delta: u64,
    pub(crate) rsa_size: RsaKeySize,
}

/// A spendable output: where it is, its locking script and its value.
type Coin = (OutPoint, Script, u64);

/// A settlement transaction a node keeps on its way into a block — the
/// recipient's escrow and refund, the gateway's claim — with when it last
/// went out, and which miner's blocks have left it out how many times in
/// a row since.
struct Published {
    tx: HashedTx,
    at: SimTime,
    left_out: Option<(NodeId, u32)>,
}

impl Published {
    fn new(tx: HashedTx, at: SimTime) -> Self {
        Published {
            tx,
            at,
            left_out: None,
        }
    }

    /// Re-floods the transaction of exchange `tag` when this node's own
    /// pool and chain have lost it, or when the tip — a block mined at
    /// least `SETTLE_CHECK.base` after it last went out — still left it
    /// out. The tip's miner is named ([`Note::CensorshipSuspected`]) once
    /// its blocks have left it out [`CENSOR_SUSPECT_SWEEPS`] re-floods in
    /// a row. The pool re-admits it first if it lost it, and nothing goes
    /// out if the pool refuses it: a conflicting settlement sits there.
    fn keep(
        &mut self,
        now: SimTime,
        tag: u64,
        daemon: &mut Daemon,
        address_book: &[Address],
        costs: &CostModel,
        env: &mut dyn NodeEnv,
    ) {
        let txid = self.tx.txid();
        let chain = &daemon.chain;
        let tip = chain.block(&chain.tip()).expect("the tip is stored");
        let left_out = SimTime::from_micros(tip.header.time_us) >= self.at + SETTLE_CHECK.base;
        if !left_out && daemon.mempool.contains(&txid) {
            return;
        }
        let miner = left_out.then(|| miner_of(tip, address_book)).flatten();
        let left_out_by = miner.map(|miner| match self.left_out {
            Some((by, run)) if by == miner => (miner, run + 1),
            _ => (miner, 1),
        });
        if let Some((miner, CENSOR_SUSPECT_SWEEPS)) = left_out_by {
            env.note(now, tag, Note::CensorshipSuspected(miner));
        }
        let mut at = now;
        if !daemon.mempool.contains(&txid) {
            let (done, result) = daemon.accept_transaction(now, self.tx.clone(), costs);
            if result.is_err() {
                return;
            }
            at = done;
        }
        // Forget the relay dedup so it floods again.
        daemon.relay.forget(&txid.0);
        daemon.relay.first_sighting(txid.0);
        env.flood(at, &Parcel::tx(self.tx.clone()));
        (self.at, self.left_out) = (at, left_out_by);
        env.note(now, tag, Note::Rebroadcast);
    }
}

/// The peer a block's coinbase pays, by `address_book`.
fn miner_of(block: &Block, address_book: &[Address]) -> Option<NodeId> {
    let paid = &block.transactions.first()?.outputs.first()?.script_pubkey;
    let i = address_book.iter().position(|a| p2pkh(&a.0) == *paid)?;
    Some(NodeId(i as u32))
}

/// One gateway host: chain daemon, wallet, directory, and the state of
/// every exchange it takes part in as gateway or recipient.
pub struct Node {
    /// This node's overlay id.
    pub id: NodeId,
    /// The node's wallet.
    pub wallet: Wallet,
    /// The node's chain daemon (chain, mempool, relay dedup).
    pub daemon: Daemon,
    /// Foreign gateways' endpoints, scanned from the chain (§4.3).
    pub directory: Directory,
    /// Recipient role: provisioned devices this node verifies and
    /// decrypts for.
    pub registry: DeviceRegistry,
    /// Recipient role: the application server readings end up at.
    pub app: AppServer,
    /// `GetBlocksFrom` batches served.
    pub sync_batches_served: u64,
    /// The node's RNG: one fork per accepted block (its verification
    /// stall) and, at provisioning, one per device it enrolls.
    pub(crate) rng: SimRng,
    terms: Arc<Terms>,
    /// Every peer's wallet address by node id, filled by the operator.
    address_book: Arc<[Address]>,
    /// Host CPU for node-facing work (keygen, verification), serialized
    /// like the daemon.
    cpu_busy_until: SimTime,
    gateway: Gateway,
    recipient: Recipient,
    /// Volatile: a restart forgets it whole.
    relay: Relay,
}

impl Node {
    /// A node of the experiment seeded `seed`, which it draws its session
    /// keys from alone ([`key_stream`]); `rng` is for everything else.
    /// `directory` is [`Directory::from_chain`] of `daemon`'s chain: hosts
    /// booted from forks of one chain scan it once and take a copy each.
    #[allow(clippy::too_many_arguments)] // what an operator hands each host
    pub(crate) fn new(
        id: NodeId,
        wallet: Wallet,
        daemon: Daemon,
        directory: Directory,
        rng: SimRng,
        seed: u64,
        terms: Arc<Terms>,
        address_book: Arc<[Address]>,
    ) -> Self {
        Node {
            id,
            wallet,
            directory,
            daemon,
            registry: DeviceRegistry::new(),
            app: AppServer::default(),
            sync_batches_served: 0,
            rng,
            terms,
            address_book,
            cpu_busy_until: SimTime::ZERO,
            gateway: Gateway::new(KeyAhead::new(key_stream(seed, id))),
            recipient: Recipient::default(),
            relay: Relay::default(),
        }
    }

    /// The node's chain height.
    pub fn height(&self) -> u64 {
        self.daemon.chain.height()
    }

    /// This node's tip as an inventory announcement.
    pub(crate) fn tip_announce(&self) -> WanMessage {
        WanMessage::Chain(ChainMessage::TipAnnounce {
            hash: self.daemon.chain.tip(),
            height: self.height(),
        })
    }

    fn occupy_cpu(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.cpu_busy_until);
        let done = start + cost;
        self.cpu_busy_until = done;
        done
    }

    /// The daemon accept loop: the one place an inbound message is
    /// dispatched, in the simulator and behind a socket alike.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        parcel: Arc<Parcel>,
        env: &mut dyn NodeEnv,
    ) {
        match &parcel.msg {
            WanMessage::Deliver {
                device_id,
                e_pk_bytes,
                uplink,
            } => self.on_deliver(now, from, *device_id, e_pk_bytes, uplink, env),
            WanMessage::Chain(ChainMessage::Tx(_)) => self.on_tx(now, &parcel, env),
            WanMessage::Chain(ChainMessage::Block(_)) => self.on_block(now, from, parcel, env),
            WanMessage::Chain(ChainMessage::GetBlocksFrom(height)) => {
                // A bounded batch (the §5.1 start-up sync, reused after
                // restarts and orphan gaps): one lagging peer cannot make
                // this daemon serialize its whole chain into one answer.
                self.sync_batches_served += 1;
                for block in sync::main_chain_above(&self.daemon.chain, *height, sync::SYNC_BATCH) {
                    let block = ChainMessage::Block(block.clone());
                    env.unicast(now, from, WanMessage::Chain(block));
                }
            }
            WanMessage::Chain(ChainMessage::GetHeadersFrom(height)) => {
                let blocks =
                    sync::main_chain_above(&self.daemon.chain, *height, sync::HEADER_BATCH);
                let headers = blocks.map(|block| block.header.clone()).collect();
                let answer = ChainMessage::Headers {
                    start_height: *height,
                    headers,
                };
                env.unicast(now, from, WanMessage::Chain(answer));
            }
            WanMessage::Chain(ChainMessage::Headers {
                start_height,
                headers,
            }) => self.on_headers(now, *start_height, headers, env),
            WanMessage::Chain(ChainMessage::TipAnnounce { height, .. }) => {
                self.note_tip(from, *height);
                match height.cmp(&self.height()) {
                    Ordering::Greater => self.start_sync(now, env),
                    // A peer announcing a shorter chain (one that just
                    // restarted) hears ours back.
                    Ordering::Less => env.unicast(now, from, self.tip_announce()),
                    Ordering::Equal => {}
                }
            }
        }
    }

    /// Chain transaction gossip: mempool admission + protocol reactions.
    /// The pool takes the parcel's hashed body: no copy, no re-hash.
    fn on_tx(&mut self, now: SimTime, parcel: &Arc<Parcel>, env: &mut dyn NodeEnv) {
        let tx = parcel.hashed_tx();
        let txid = tx.txid();
        // Seen before — but a reorg may have evicted it from the pool
        // since, in which case a re-broadcast must be re-admitted, not
        // dropped. Cheap check first (the common duplicate sits in the
        // pool); the chain scan only runs for the rare
        // gossip-after-confirmation stragglers.
        if !self.daemon.relay.first_sighting(txid.0)
            && (self.daemon.mempool.contains(&txid)
                || self.daemon.chain.find_transaction(&txid).is_some())
        {
            return; // genuine duplicate
        }
        // Byzantine detection runs *before* mempool admission: a rival
        // claim is exactly the transaction the pool rejects as a
        // conflict, and the recipient must still see it to know its
        // gateway equivocated.
        self.recipient.detect_equivocation(now, tx, env);
        let (done, result) = self
            .daemon
            .accept_transaction(now, tx.clone(), &self.terms.costs);
        if result.is_err() {
            return; // double spends, orphans: dropped, not relayed
        }
        // Re-flood the very parcel that arrived.
        env.flood(done, parcel);
        // Gateway reaction: is this an escrow paying one of my sessions?
        self.check_escrow(done, tx, env);
        // Recipient reaction: is this a claim revealing a key I await?
        self.check_claim(done, tx, env);
    }

    fn accept_block(
        &mut self,
        now: SimTime,
        block: &HashedBlock,
        salt: u64,
    ) -> (SimTime, Result<BlockAction, ChainError>) {
        self.daemon
            .accept_block(now, block.clone(), &mut self.rng.fork(salt))
    }

    /// Applies this node's last main-chain change: the gateway notes
    /// which of its claims' escrows it spent, the recipient's machines
    /// take the claims/refunds it confirmed or (after a reorg) orphaned.
    /// Connected transactions are also re-offered to the
    /// gateway/recipient reaction paths — after a crash the tx gossip is
    /// gone, and the block is the only copy. Last, the gateway re-publishes
    /// whichever of its claims this block left out.
    fn apply_settlements(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        // A bystander — no escrow published, no claim signed, no session
        // open — has nothing to find in the block.
        if self.recipient.is_idle() && self.gateway.is_idle() {
            return;
        }
        let change = self.daemon.last_change().clone();
        self.gateway.note_settled(&change);
        self.recipient.settle(now, &change, env);
        // Crash recovery: the block may be the first (and only) place
        // this host sees an escrow or claim it missed as gossip — and
        // the first place a rival claim surfaces, if the equivocator
        // only ever showed it to the other side of the overlay.
        for tx in change.connected() {
            self.recipient.detect_equivocation(now, tx, env);
            self.check_escrow(now, tx, env);
            self.check_claim(now, tx, env);
        }
        self.keep_claims_published(now, env);
    }

    // ---- host-local actions the operator invokes --------------------

    /// Mines one block from this node's pool on top of its tip, leaving
    /// out transactions that spend a `censored` outpoint (the Byzantine
    /// miner's template; the pool keeps them), and gossips it. Returns
    /// when the block connected, or `None` if it did not extend the tip.
    pub fn mine(
        &mut self,
        now: SimTime,
        coinbase_tag: &[u8],
        censored: &IdSet<OutPoint>,
        env: &mut dyn NodeEnv,
    ) -> Option<SimTime> {
        let chain = &self.daemon.chain;
        let params = chain.params();
        // Fees go unclaimed (coinbase pays subsidy only) — simpler and
        // valid (coinbase may pay less than allowed).
        let mut txs = vec![Transaction::coinbase(
            chain.height() + 1,
            coinbase_tag,
            vec![TxOut {
                value: params.coinbase_reward,
                script_pubkey: self.wallet.locking_script(),
            }],
        )];
        let budget = params.max_block_size.saturating_sub(txs[0].size() + 88);
        txs.extend(self.daemon.mempool.block_template_excluding(budget, |tx| {
            tx.inputs.iter().any(|i| censored.contains(&i.prevout))
        }));
        let block = HashedBlock::new(Block::mine(
            chain.tip(),
            now.as_micros(),
            params.difficulty_bits,
            txs,
        ));
        let (done, action) = self.accept_block(now, &block, 0x113e);
        if !matches!(action, Ok(BlockAction::Extended(_))) {
            return None;
        }
        // This node's own blocks never echo back through the relay, so
        // the bookkeeping a received block gets runs here.
        self.daemon.relay.first_sighting(block.hash().0);
        let parcel = Parcel::block(block);
        env.flood(done, &parcel);
        self.apply_settlements(done, env);
        self.check_confirmations(done, env);
        Some(done)
    }

    /// The chaos engine's fork injection: mines `depth + 1` empty blocks
    /// on the block `depth` below this node's tip, and every host that
    /// hears them reorganizes; the orphaned transactions re-pool and
    /// confirm on the new branch. Returns how many blocks connected, and
    /// whether all of them did.
    pub(crate) fn mine_fork(
        &mut self,
        now: SimTime,
        depth: u32,
        env: &mut dyn NodeEnv,
    ) -> (u64, bool) {
        let (params, height) = (self.daemon.chain.params().clone(), self.height());
        let reward = TxOut {
            value: params.coinbase_reward,
            script_pubkey: self.wallet.locking_script(),
        };
        let depth = u64::from(depth).min(height);
        let fork_height = height - depth;
        let fork_point = self.daemon.chain.block_at(fork_height);
        let mut parent = fork_point.expect("fork point on main chain").hash();
        for i in 0..=depth {
            let coinbase =
                Transaction::coinbase(fork_height + 1 + i, b"fork", vec![reward.clone()]);
            let time = now.as_micros() + i;
            let block = Block::mine(parent, time, params.difficulty_bits, vec![coinbase]);
            let block = HashedBlock::new(block);
            parent = block.hash();
            let (done, action) = self.accept_block(now, &block, 0xf04c);
            if action.is_err() {
                return (i, false);
            }
            self.daemon.relay.first_sighting(block.hash().0);
            let parcel = Parcel::block(block);
            self.apply_settlements(done, env);
            env.flood(done, &parcel);
        }
        (depth + 1, true)
    }

    /// A crashed host comes back. Volatile state (mempool, relay
    /// filters, the whole relay record: buffered orphans, peer tips,
    /// in-flight syncs and their cooldown) is gone; the gateway and
    /// recipient records survive by fiat. `reopened` is the chain a
    /// persistent store committed before the crash, replacing the
    /// in-memory copy a killed process would not have kept. The node
    /// announces its tip — every peer that is ahead answers with its own,
    /// which starts the catch-up — and runs the watchdog for every
    /// deadline it slept through.
    pub(crate) fn crash_restart(
        &mut self,
        now: SimTime,
        reopened: Option<Chain>,
        env: &mut dyn NodeEnv,
    ) {
        if let Some(chain) = reopened {
            self.daemon.replace_chain(chain);
            self.directory = Directory::from_chain(&self.daemon.chain);
        }
        self.daemon.crash_restart(now);
        self.relay = Relay::default();
        self.cpu_busy_until = now;
        env.flood(now, &Parcel::new(self.tip_announce()));
        self.on_deadline(now, env);
    }

    /// Fires every deadline of this node that has come due, in tag order
    /// — the gateway's re-deliveries, then the recipient's escrow sweeps
    /// — and asks for the next one ([`NodeEnv::wake_at`]). A gateway's
    /// claim needs no deadline: every block it connects checks it, and a
    /// late claim goes through the confirmation-depth path like any other.
    pub(crate) fn on_deadline(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        let redeliveries = self.gateway.redeliver(now, env);
        let sweeps = self.sweep_escrows(now, env);
        if let Some(at) = redeliveries.into_iter().chain(sweeps).min() {
            env.wake_at(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::seal_reading;
    use crate::fleet::{deliver_reading, BusFleet, Fleet, Outbound};
    use bcwan_p2p::Envelope;
    use std::time::Duration;

    const GATEWAY: usize = 1;
    const RECIPIENT: usize = 2;

    fn fleet(seed: u64) -> Fleet<BusFleet> {
        Fleet::new(BusFleet::new(3), 3, seed)
    }

    /// Hands `frame` of exchange `tag` to the gateway's radio.
    fn hear(
        fleet: &mut Fleet<BusFleet>,
        tag: u64,
        frame: Uplink,
    ) -> (Option<(SimTime, Downlink)>, Vec<Outbound>) {
        fleet.nodes[GATEWAY].act(|node, now, env| node.on_uplink(now, tag, frame, env))
    }

    /// The key a request for exchange `tag` brings down.
    fn request(fleet: &mut Fleet<BusFleet>, tag: u64) -> RsaPublicKey {
        match hear(fleet, tag, Uplink::Request) {
            (Some((_, Downlink::Key(e_pk))), out) if out.is_empty() => e_pk,
            other => panic!("a request brings a key down and sends nothing: {other:?}"),
        }
    }

    #[test]
    fn a_retransmitted_request_gets_the_same_key_without_a_second_keygen() {
        let (mut once, mut twice) = (fleet(5), fleet(5));
        let key = request(&mut once, 7);
        assert_eq!(request(&mut twice, 7), key);
        assert_eq!(request(&mut twice, 7), key, "the session's key again");
        let opened = twice.nodes[GATEWAY].notes.iter();
        let opened = opened.filter(|note| **note == (7, Note::SessionOpened));
        assert_eq!(opened.count(), 1);
        // The gateway's key stream stands where one keygen left it.
        let next = |f: &mut Fleet<BusFleet>| {
            let keys = &mut f.nodes[GATEWAY].node.gateway.keys;
            keys.keypair(RsaKeySize::Rsa512).0
        };
        assert_eq!(next(&mut twice), next(&mut once));
    }

    #[test]
    fn a_data_frame_is_forwarded_once() {
        let mut fleet = fleet(6);
        let e_pk = request(&mut fleet, 3);
        let mut rng = SimRng::seed_from_u64(1);
        let home = &mut fleet.nodes[RECIPIENT].node;
        let recipient = home.wallet.address();
        let creds = home.registry.provision(&mut rng, DeviceId(9), recipient);
        let uplink = seal_reading(&mut rng, &creds, &e_pk, b"once").expect("fits");
        let frame = Uplink::Data {
            device_id: DeviceId(9),
            recipient,
            uplink,
        };
        let (reply, out) = hear(&mut fleet, 3, frame.clone());
        assert!(matches!(reply, Some((_, Downlink::Ack))));
        assert!(matches!(
            out.as_slice(),
            [Outbound::To(NodeId(2), WanMessage::Deliver { .. })]
        ));
        let (reply, out) = hear(&mut fleet, 3, frame.clone());
        assert!(reply.is_none(), "a copy gets no answer");
        assert!(out.is_empty(), "and goes nowhere");
        // A data frame for no open session is heard, and ends the
        // exchange at the gateway.
        let (reply, out) = hear(&mut fleet, 4, frame);
        assert!(matches!(reply, Some((_, Downlink::Ack))));
        assert!(out.is_empty());
        assert!(fleet.nodes[GATEWAY].noted(4, Note::Abort));
    }

    /// A restart drops the relay record whole and keeps the gateway's and
    /// the recipient's: a `Headers` batch answering the sync in flight
    /// before it is ignored, the orphan buffered before it is gone, and
    /// the next orphan asks its sender for a catch-up at once — no
    /// cooldown, no taller tip remembered — while the claim, the open
    /// session and the escrow with its machine are all still there.
    #[test]
    fn a_restart_forgets_the_relay_record_and_keeps_the_exchanges() {
        let wait = Duration::from_secs(10);
        let mut fleet = fleet(8);
        let filed = deliver_reading(&mut fleet, (GATEWAY, RECIPIENT), 3, b"kept").expect("sent");
        assert!(fleet.run_until(wait, |f| f.nodes[0].node.daemon.mempool.len() == 1));
        fleet.mine(0);
        assert!(fleet.run_until(wait, |f| f.nodes[RECIPIENT].noted(filed, Note::Opened)));
        let session = request(&mut fleet, 4);
        let phase = fleet.nodes[RECIPIENT].node.settlement(filed);
        // Three blocks nobody else hears.
        let height = fleet.nodes[GATEWAY].node.height();
        for _ in 0..3 {
            fleet.nodes[0].act(|node, now, env| node.mine(now, b"unheard", &IdSet::default(), env));
        }
        let chain = &fleet.nodes[0].node.daemon.chain;
        let block = |i| {
            WanMessage::Chain(ChainMessage::Block(
                chain.block_at(height + i).unwrap().clone(),
            ))
        };
        let (parent, orphan, later_orphan) = (block(1), block(2), block(3));
        let from = |peer, msg| Envelope {
            from: NodeId(peer),
            msg,
        };
        let announce = fleet.nodes[0].node.tip_announce();
        let gateway = &mut fleet.nodes[GATEWAY];
        let asked = gateway.handle(from(0, announce));
        let [Outbound::To(NodeId(0), ask @ WanMessage::Chain(ChainMessage::GetHeadersFrom(_)))] =
            asked.as_slice()
        else {
            panic!("a taller tip starts a catch-up: {asked:?}");
        };
        let answer = fleet.nodes[0].handle(from(GATEWAY as u32, ask.clone()));
        let [Outbound::To(_, headers)] = answer.as_slice() else {
            panic!("one headers batch: {answer:?}");
        };
        let gateway = &mut fleet.nodes[GATEWAY];
        assert!(
            gateway.handle(from(0, orphan)).is_empty(),
            "buffered, in the cooldown"
        );

        gateway.act(|node, now, env| node.crash_restart(now, None, env));
        assert!(
            gateway.handle(from(0, headers.clone())).is_empty(),
            "no sync in flight"
        );
        gateway.handle(from(0, parent));
        assert_eq!(
            gateway.node.height(),
            height + 1,
            "the orphan was forgotten"
        );
        let asked = gateway.handle(from(RECIPIENT as u32, later_orphan));
        assert!(
            matches!(
                asked.as_slice(),
                [Outbound::To(
                    NodeId(2),
                    WanMessage::Chain(ChainMessage::GetHeadersFrom(_))
                )]
            ),
            "{asked:?}"
        );

        assert!(gateway.node.claim(3).is_some());
        assert_eq!(request(&mut fleet, 4), session, "the session's key again");
        let opened = fleet.nodes[GATEWAY].notes.iter();
        assert_eq!(
            opened.filter(|n| **n == (4, Note::SessionOpened)).count(),
            1
        );
        fleet.act(RECIPIENT, |node, now, env| {
            node.crash_restart(now, None, env)
        });
        let home = &fleet.nodes[RECIPIENT].node;
        assert!(home.escrow(filed).is_some());
        assert_eq!(home.settlement(filed), phase);
    }
}
