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
//! code in this file, so each protocol rule lives here once.

use crate::app_server::{AppServer, Reading};
use crate::costs::CostModel;
use crate::daemon::Daemon;
use crate::device::{Downlink, Uplink};
use crate::directory::{Directory, IpAnnouncement};
use crate::escrow::{self, Escrow};
use crate::exchange::{open_reading, verify_uplink, SealedUplink};
use crate::fsm::{ExchangeFsm, FsmEvent, CENSOR_SUSPECT_SWEEPS, SETTLE_CHECK};
use crate::keyahead::{key_stream, KeyAhead};
use crate::provisioning::{DeviceId, DeviceRegistry};
use crate::sync::{self, HeaderSync, SyncRequest};
use crate::wire::WanMessage;
use bcwan_chain::{
    Address, Block, BlockAction, BlockHash, Chain, ChainError, HashedBlock, HashedTx, IdMap, IdSet,
    OutPoint, Transaction, TxId, TxOut, Wallet,
};
use bcwan_crypto::rsa::{RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_crypto::sha256::sha256;
use bcwan_p2p::{ChainMessage, NodeId};
use bcwan_script::{templates::p2pkh, Script};
use bcwan_sim::{SimDuration, SimRng, SimTime};
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
/// in step: the simulator drives its tracer spans, auditor, counters,
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
    /// A stored transaction went out again: this node's pool and chain
    /// had lost it, or a block mined well after it went out left it out.
    Rebroadcast(Stored),
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

/// A transaction a node keeps for an exchange, by role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stored {
    /// The recipient's escrow.
    Escrow,
    /// The gateway's signed claim; valid as long as the escrow output
    /// exists, so it can be re-broadcast after a crash or reorg.
    Claim,
    /// The recipient's signed CLTV refund.
    Refund,
}

/// Gateway role: one ephemeral-key session.
struct Session {
    tag: u64,
    e_sk: RsaPrivateKey,
    /// Whether a data frame for the session was forwarded: the one
    /// forward, whose copies are dropped.
    forwarded: bool,
    /// Until an escrow paying this session shows up: the uplink held for
    /// re-delivery.
    held: Option<Held>,
}

/// Gateway role: a forwarded uplink, whom it goes to, and the `Sealed`
/// re-delivery schedule.
struct Held {
    to: NodeId,
    device_id: DeviceId,
    uplink: SealedUplink,
    fsm: ExchangeFsm,
}

/// Gateway role: a signed claim, valid as long as the escrow output
/// exists, kept published until a block on this node's main chain spends
/// that output.
struct Claim {
    tx: HashedTx,
    published: Published,
    settled: bool,
}

/// When a settlement transaction last went out, and which miner's
/// blocks have left it out how many times in a row since.
#[derive(Debug, Clone, Copy)]
struct Published {
    at: SimTime,
    left_out: Option<(NodeId, u32)>,
}

impl Published {
    fn at(at: SimTime) -> Self {
        Published { at, left_out: None }
    }
}

/// Recipient role: a delivery waiting for the claim to reveal its key.
struct Sealed {
    tag: u64,
    device_id: DeviceId,
    uplink: SealedUplink,
}

/// Recipient role: one escrowed exchange.
struct Escrowed {
    escrow: Escrow,
    /// `escrow.tx`, hashed once where it was built.
    tx: HashedTx,
    /// The exchange from delivery on: settlement phase and the
    /// watchdog's sweep schedule.
    fsm: ExchangeFsm,
    published: Published,
    refund: Option<(HashedTx, Published)>,
    /// First key-revealing claim seen spending the escrow; a second
    /// *distinct* one is an equivocation (reported once).
    seen_claim: Option<TxId>,
    equivocated: bool,
}

/// An escrow output as the gateway finds it in a transaction.
struct EscrowOutput {
    outpoint: OutPoint,
    script: Script,
    value: u64,
}

/// The first output of `tx` (whose id is `txid`) locked to the
/// serialized ephemeral key `e_pk_bytes`.
fn escrow_output(txid: TxId, tx: &Transaction, e_pk_bytes: &[u8]) -> Option<EscrowOutput> {
    let (vout, output) = tx
        .outputs
        .iter()
        .enumerate()
        .find(|(_, output)| escrow::escrow_key(&output.script_pubkey) == Some(e_pk_bytes))?;
    Some(EscrowOutput {
        outpoint: OutPoint {
            txid,
            vout: vout as u32,
        },
        script: output.script_pubkey.clone(),
        value: output.value,
    })
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
    /// `GetHeadersFrom` batches served.
    pub header_batches_served: u64,
    /// The node's RNG: one fork per accepted block (its verification
    /// stall) and, at provisioning, one per device it enrolls.
    pub(crate) rng: SimRng,
    /// Gateway: the node's key stream, drawn from only for session keys.
    pub(crate) keys: KeyAhead,
    terms: Arc<Terms>,
    /// Every peer's wallet address by node id, filled by the operator.
    address_book: Arc<[Address]>,
    /// Coins reserved for in-flight escrows.
    reserved: IdSet<OutPoint>,
    /// Gateway: serialized ePk → open session.
    sessions: HashMap<Vec<u8>, Session>,
    /// Gateway: signed claims by exchange tag.
    claims: IdMap<u64, Claim>,
    /// Gateway: escrow outpoint → the claim spending it, kept for good
    /// like `settle_watch`.
    claim_watch: IdMap<OutPoint, u64>,
    /// Gateway: escrows seen but short of the confirmation depth, or
    /// whose claim was withheld.
    awaiting_conf: Vec<(Vec<u8>, TxId)>,
    /// Recipient: escrowed exchanges by tag (boxed, so the table's
    /// power-of-two slack is in pointers, not in 200-byte records).
    escrows: IdMap<u64, Box<Escrowed>>,
    /// Recipient: escrow outpoint → the delivery it pays for, until the
    /// claim reveals the key that opens it.
    pending_open: IdMap<OutPoint, Sealed>,
    /// Recipient: escrow outpoint → exchange, kept for good so block
    /// connects/disconnects classify as claim, refund, or orphaning
    /// thereof in O(inputs).
    settle_watch: IdMap<OutPoint, u64>,
    /// Blocks whose parent has not arrived yet, keyed by parent hash.
    orphans: IdMap<BlockHash, Vec<Arc<Parcel>>>,
    /// Peers' chain heights as they announced them or as the blocks they
    /// relayed showed: bounded by the address book, gone on a restart.
    peer_tips: IdMap<NodeId, u64>,
    /// When this node last started a catch-up, and at what height — to
    /// rate-limit attempts and tell a progressing sync from a stalled one.
    last_sync_req: Option<SimTime>,
    last_sync_height: u64,
    /// In-progress headers-first catch-up (§5.1).
    header_sync: Option<HeaderSync>,
    /// Host CPU for node-facing work (keygen, verification), serialized
    /// like the daemon.
    cpu_busy_until: SimTime,
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
            header_batches_served: 0,
            rng,
            keys: KeyAhead::new(key_stream(seed, id)),
            terms,
            address_book,
            reserved: IdSet::default(),
            sessions: HashMap::new(),
            claims: IdMap::default(),
            claim_watch: IdMap::default(),
            awaiting_conf: Vec::new(),
            escrows: IdMap::default(),
            pending_open: IdMap::default(),
            settle_watch: IdMap::default(),
            orphans: IdMap::default(),
            peer_tips: IdMap::default(),
            last_sync_req: None,
            last_sync_height: 0,
            header_sync: None,
            cpu_busy_until: SimTime::ZERO,
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

    /// The escrow this node published for exchange `tag`, if any.
    pub fn escrow(&self, tag: u64) -> Option<&Escrow> {
        self.escrows.get(&tag).map(|e| &e.escrow)
    }

    /// A transaction this node keeps for exchange `tag`.
    pub fn stored(&self, tag: u64, which: Stored) -> Option<&Transaction> {
        self.stored_hashed(tag, which).map(HashedTx::tx)
    }

    fn stored_hashed(&self, tag: u64, which: Stored) -> Option<&HashedTx> {
        match which {
            Stored::Escrow => self.escrows.get(&tag).map(|e| &e.tx),
            Stored::Claim => self.claims.get(&tag).map(|c| &c.tx),
            Stored::Refund => self.escrows.get(&tag)?.refund.as_ref().map(|(tx, _)| tx),
        }
    }

    /// The recipient's machine for exchange `tag`, once it published the
    /// escrow.
    pub fn settlement(&self, tag: u64) -> Option<&ExchangeFsm> {
        self.escrows.get(&tag).map(|e| &e.fsm)
    }

    /// Outpoints of every escrow this node published.
    pub(crate) fn escrow_outpoints(&self) -> impl Iterator<Item = &OutPoint> {
        self.settle_watch.keys()
    }

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
                let blocks =
                    sync::serve_blocks_from_bounded(&self.daemon.chain, *height, sync::SYNC_BATCH);
                for block in blocks {
                    env.unicast(now, from, WanMessage::Chain(ChainMessage::Block(block)));
                }
            }
            WanMessage::Chain(ChainMessage::GetHeadersFrom(height)) => {
                self.header_batches_served += 1;
                let headers =
                    sync::serve_headers_from(&self.daemon.chain, *height, sync::HEADER_BATCH);
                let answer = ChainMessage::Headers {
                    start_height: *height,
                    headers,
                };
                env.unicast(now, from, WanMessage::Chain(answer));
            }
            WanMessage::Chain(ChainMessage::Headers {
                start_height,
                headers,
            }) => {
                let Some(hs) = self.header_sync.as_mut() else {
                    return; // stale batch from a finished or restarted sync
                };
                let reqs = hs.on_headers(&self.daemon.chain, *start_height, headers);
                self.send_sync_requests(now, reqs, env);
            }
            WanMessage::Chain(ChainMessage::GetBlock(hash)) => {
                // Main-chain blocks only, found by index: a 32-byte
                // request must not buy a scan of the chain.
                let chain = &self.daemon.chain;
                if let Some(block) = chain.main_chain_height(hash).and(chain.block(hash)) {
                    let answer = ChainMessage::Block(block.clone());
                    env.unicast(now, from, WanMessage::Chain(answer));
                }
            }
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

    /// Fig. 3 steps 8–9 at the recipient: verify the uplink, fund the
    /// escrow paying the delivering gateway, flood it toward the miners.
    fn on_deliver(
        &mut self,
        now: SimTime,
        from: NodeId,
        device_id: DeviceId,
        e_pk_bytes: &[u8],
        uplink: &SealedUplink,
        env: &mut dyn NodeEnv,
    ) {
        let Some(tag) = env.delivery(delivery_tag(e_pk_bytes)) else {
            return;
        };
        // Idempotent re-delivery: a duplicate must not double-escrow.
        if self.escrows.contains_key(&tag) {
            return;
        }
        let (Ok(e_pk), Some(&gateway_addr)) = (
            RsaPublicKey::from_bytes(e_pk_bytes),
            self.address_book.get(from.0 as usize),
        ) else {
            return;
        };
        let terms = self.terms.clone();
        // Step 8: authenticity — never pay for a forged uplink.
        let verified = self
            .registry
            .get(&device_id)
            .is_some_and(|record| verify_uplink(record, &e_pk, uplink));
        if !verified {
            env.note(now, tag, Note::Abort);
            return;
        }
        let verified_at = self.occupy_cpu(now, terms.costs.verify_signature);
        env.note(verified_at, tag, Note::Delivered);
        let mut fsm = ExchangeFsm::delivered(verified_at);

        // Step 9: escrow. Select a coin and build the transaction via the
        // daemon ("create, sign, send").
        let Some(coin) = self.reserve_coin(terms.reward + terms.fee) else {
            env.note(verified_at, tag, Note::Abort);
            return;
        };
        let escrow = escrow::build_escrow_with_delta(
            &self.wallet,
            &[coin],
            &e_pk,
            &gateway_addr,
            terms.reward,
            terms.fee,
            self.daemon.chain.height(),
            terms.refund_delta,
        );
        let built_at = self.daemon.occupy(verified_at, terms.costs.tx_build);
        // Admit into own mempool and flood.
        let tx = HashedTx::new(escrow.tx.clone());
        let (admitted_at, result) =
            self.daemon
                .accept_transaction(built_at, tx.clone(), &terms.costs);
        if result.is_err() {
            env.note(admitted_at, tag, Note::Abort);
            return;
        }
        let outpoint = OutPoint {
            txid: tx.txid(),
            vout: escrow.vout,
        };
        let sealed = Sealed {
            tag,
            device_id,
            uplink: uplink.clone(),
        };
        self.pending_open.insert(outpoint, sealed);
        self.settle_watch.insert(outpoint, tag);
        let _ = fsm.apply(FsmEvent::EscrowPublished, admitted_at);
        if let Some(at) = fsm.deadline() {
            env.wake_at(at);
        }
        let parcel = Parcel::tx(tx.clone());
        let escrowed = Escrowed {
            escrow,
            tx,
            fsm,
            published: Published::at(admitted_at),
            refund: None,
            seen_claim: None,
            equivocated: false,
        };
        self.escrows.insert(tag, Box::new(escrowed));
        self.daemon.relay.first_sighting(outpoint.txid.0);
        env.flood(admitted_at, &parcel);
        env.note(admitted_at, tag, Note::EscrowPublished(outpoint));
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
        self.detect_equivocation(now, tx, env);
        let (done, result) = self
            .daemon
            .accept_transaction(now, tx.clone(), &self.terms.costs);
        if result.is_err() {
            return; // double spends, orphans: dropped, not relayed
        }
        // Re-flood the very parcel that arrived.
        env.flood(done, parcel);
        // Gateway reaction: is this an escrow paying one of my sessions?
        self.gateway_check_escrow(done, tx, env);
        // Recipient reaction: is this a claim revealing a key I await?
        self.recipient_check_claim(done, tx, env);
    }

    /// The recipient's equivocation detector: a second *distinct*
    /// key-revealing claim spending a watched escrow means the gateway
    /// double-claimed. Only the recipient owns `settle_watch` entries,
    /// so each equivocation is reported exactly once. The reading is
    /// never at risk — every valid claim reveals the true `eSk`.
    fn detect_equivocation(&mut self, now: SimTime, tx: &Transaction, env: &mut dyn NodeEnv) {
        if self.settle_watch.is_empty() {
            return;
        }
        for input in &tx.inputs {
            let Some(&tag) = self.settle_watch.get(&input.prevout) else {
                continue;
            };
            if escrow::extract_key_from_claim(tx, &input.prevout).is_none() {
                continue; // refund-branch spend: a claim/refund race is legal
            }
            let held = self
                .escrows
                .get_mut(&tag)
                .expect("watched escrows are held");
            // Hashed only here, for a claim on a watched escrow.
            let txid = tx.txid();
            match held.seen_claim {
                None => held.seen_claim = Some(txid),
                Some(seen) if seen != txid && !held.equivocated => {
                    held.equivocated = true;
                    env.note(now, tag, Note::Equivocation);
                }
                Some(_) => {}
            }
        }
    }

    /// The gateway's escrow check: does `tx` lock payment to the key of
    /// one of this node's open sessions? Each escrow-shaped output's
    /// leading push is looked up among the sessions directly, so the
    /// cost follows the transaction's outputs, not the number of open
    /// sessions, and no key is parsed.
    fn gateway_check_escrow(&mut self, now: SimTime, tx: &Transaction, env: &mut dyn NodeEnv) {
        if self.sessions.is_empty() {
            return;
        }
        // The first output naming each session, in output order.
        let mut named: Vec<&[u8]> = Vec::new();
        for output in &tx.outputs {
            let Some(key) = escrow::escrow_key(&output.script_pubkey) else {
                continue;
            };
            if self.sessions.contains_key(key) && !named.contains(&key) {
                named.push(key);
            }
        }
        if named.is_empty() {
            return;
        }
        let txid = tx.txid();
        for key in named {
            // The escrow proves the delivery landed: stop re-delivering.
            if let Some(session) = self.sessions.get_mut(key) {
                session.held = None;
            }
            // The same escrow can be offered twice: once as gossip, once
            // from the block that confirms it.
            let entry = (key.to_vec(), txid);
            if !self.awaiting_conf.contains(&entry) {
                self.awaiting_conf.push(entry);
            }
            if self.terms.confirmation_depth == 0 {
                self.gateway_check_confirmations(now, env);
            }
        }
    }

    /// Step 10: the gateway publishes the claim, revealing eSk.
    fn gateway_claim(
        &mut self,
        now: SimTime,
        e_pk_bytes: Vec<u8>,
        found: EscrowOutput,
        env: &mut dyn NodeEnv,
    ) {
        // A misbehaving gateway sits on the claim; the session survives
        // and the escrow goes back on the confirmation-depth list, so it
        // claims late once the window closes — and the recipient's refund
        // races it through the CLTV branch.
        if env.misbehaves(now, Misbehaviour::WithholdClaim) {
            let entry = (e_pk_bytes, found.outpoint.txid);
            if !self.awaiting_conf.contains(&entry) {
                self.awaiting_conf.push(entry);
            }
            return;
        }
        let Some(session) = self.sessions.remove(&e_pk_bytes) else {
            return;
        };
        env.note(now, session.tag, Note::Claiming);
        let terms = self.terms.clone();
        let sign = |wallet: &Wallet, fee: u64| {
            escrow::build_claim(
                wallet,
                found.outpoint,
                &found.script,
                found.value,
                &session.e_sk,
                fee,
            )
        };
        let claim = HashedTx::new(sign(&self.wallet, terms.fee));
        let built = self.daemon.occupy(now, terms.costs.tx_build);

        // Byzantine equivocation: the gateway signs a *second* claim
        // against the same escrow (higher fee → different output value →
        // different txid) and shows each half of the overlay a different
        // one. Both necessarily reveal the true eSk — the script's
        // OP_CHECKRSA512PAIR forces it — so the reading is never stolen;
        // the attack creates settlement ambiguity, which first-seen
        // mempools, the recipient's detector and the auditor resolve.
        let rival = (env.misbehaves(now, Misbehaviour::Equivocate) && terms.fee + 1 < found.value)
            .then(|| HashedTx::new(sign(&self.wallet, terms.fee + 1)));
        let (admitted, result) = self
            .daemon
            .accept_transaction(built, claim.clone(), &terms.costs);
        // Keep the signed claim: it stays valid as long as the escrow
        // output exists, so it is re-published after a crash or a reorg
        // that orphans it — or, when the escrow is not in this host's
        // view yet, once a block brings it.
        let kept = Claim {
            tx: claim.clone(),
            published: Published::at(admitted),
            settled: false,
        };
        self.claims.insert(session.tag, kept);
        self.claim_watch.insert(found.outpoint, session.tag);
        if result.is_err() {
            return;
        }
        self.daemon.relay.first_sighting(claim.txid().0);
        let claim = Parcel::tx(claim);
        match rival {
            Some(rival) => {
                self.daemon.relay.first_sighting(rival.txid().0);
                env.flood_split(admitted, &claim, &Parcel::tx(rival));
            }
            None => env.flood(admitted, &claim),
        }
    }

    /// The recipient spots the claim spending its escrow and decrypts.
    fn recipient_check_claim(&mut self, now: SimTime, tx: &Transaction, env: &mut dyn NodeEnv) {
        for input in &tx.inputs {
            if !self.pending_open.contains_key(&input.prevout) {
                continue;
            }
            let Some(e_sk) = escrow::extract_key_from_claim(tx, &input.prevout) else {
                continue;
            };
            let Sealed {
                tag,
                device_id,
                uplink,
            } = self
                .pending_open
                .remove(&input.prevout)
                .expect("checked above");
            let done = self.occupy_cpu(now, self.terms.costs.open_reading);
            if env.closed(tag) {
                continue;
            }
            let record = self.registry.get(&device_id).expect("verified at delivery");
            match open_reading(record, &e_sk, &uplink.em) {
                Ok(reading) => {
                    // Final hop (Figs. 1–2): hand the plaintext to the
                    // customer's application server.
                    self.app.deliver(Reading {
                        device_id,
                        payload: reading,
                        received_at: done,
                    });
                    env.note(done, tag, Note::Opened);
                }
                Err(_) => env.note(done, tag, Note::OpenFailed),
            }
        }
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

    /// Chain block gossip: the chain indexes the parcel's hashed body —
    /// one body however many hosts connect it.
    fn on_block(&mut self, now: SimTime, from: NodeId, parcel: Arc<Parcel>, env: &mut dyn NodeEnv) {
        if !self
            .daemon
            .relay
            .first_sighting(parcel.hashed_block().hash().0)
        {
            return;
        }
        // Blocks can arrive out of order over the WAN; buffer orphans and
        // connect them once their parent lands (the paper's nodes
        // re-sync; this is the event-driven equivalent).
        let mut pending = vec![parcel];
        let mut at = now;
        // Only the first block came from `from`; buffered children were
        // relayed by whoever.
        let mut sender = Some(from);
        while let Some(parcel) = pending.pop() {
            let block = parcel.hashed_block();
            let (done, action) = self.accept_block(at, block, 0xb10c ^ u64::from(self.id.0));
            match action {
                Err(ChainError::Orphan(parent)) => {
                    self.orphans.entry(parent).or_default().push(parcel);
                    // A parent gap means this host missed gossip (crash,
                    // partition, kill): catch up, rate-limited so a burst
                    // of orphans asks once. The sender has the parent.
                    if let Some(peer) = sender.take() {
                        self.note_tip(peer, self.height() + 1);
                    }
                    self.start_sync(done, env);
                    continue;
                }
                // Invalid blocks are dropped: neither buffered, relayed
                // nor answered.
                Err(_) => continue,
                Ok(BlockAction::Extended(_) | BlockAction::Reorganized { .. }) => {
                    if let Some(peer) = sender.take() {
                        self.note_tip(peer, self.height());
                    }
                }
                Ok(_) => {}
            }
            at = done;
            // Settlement bookkeeping: claims/refunds this block confirmed
            // or (after a reorg) disconnected, seen from the recipient.
            self.apply_settlements(done, env);
            // Absorb any directory announcements.
            for tx in &block.transactions {
                for ann in IpAnnouncement::all_from_transaction(tx) {
                    self.directory.absorb(ann);
                }
            }
            // Re-flood the block.
            env.flood(done, &parcel);
            // Confirmation-depth gateways: check their waiting escrows.
            self.gateway_check_confirmations(done, env);
            // Any orphans waiting on this block connect next.
            if let Some(children) = self.orphans.remove(&block.hash()) {
                pending.extend(children);
            }
        }
        // Keep an in-progress headers-first sync's body window full as
        // batches land and retire.
        if let Some(hs) = self.header_sync.as_mut() {
            let reqs = hs.on_progress(&self.daemon.chain);
            self.send_sync_requests(at, reqs, env);
        }
    }

    /// Applies this node's last main-chain change: disconnected
    /// transactions orphan claims/refunds, connected ones confirm them —
    /// in the recipient's machine, which reports each event exactly once,
    /// and in the gateway's note of whether its claim's escrow is spent.
    /// Connected transactions are also re-offered to the
    /// gateway/recipient reaction paths — after a crash the tx gossip is
    /// gone, and the block is the only copy. Last, the gateway re-publishes
    /// whichever of its claims this block left out.
    fn apply_settlements(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        // A bystander — no escrow published, no claim signed, no session
        // open — has nothing to find in the block.
        if self.settle_watch.is_empty() && self.claim_watch.is_empty() && self.sessions.is_empty() {
            return;
        }
        let change = self.daemon.last_change().clone();
        // Disconnects first: a reorg that moves a claim between branches
        // must pass through Escrowed, not skip a state.
        let passes = [
            (
                change.disconnected(),
                false,
                FsmEvent::ClaimOrphaned,
                FsmEvent::RefundOrphaned,
            ),
            (
                change.connected(),
                true,
                FsmEvent::ClaimConfirmed,
                FsmEvent::RefundConfirmed,
            ),
        ];
        for (txs, connected, claim_event, refund_event) in passes {
            for tx in txs {
                for input in &tx.inputs {
                    if let Some(tag) = self.claim_watch.get(&input.prevout) {
                        self.claims
                            .get_mut(tag)
                            .expect("watched claims are kept")
                            .settled = connected;
                    }
                    let Some(&tag) = self.settle_watch.get(&input.prevout) else {
                        continue;
                    };
                    let is_claim = escrow::extract_key_from_claim(tx, &input.prevout).is_some();
                    let event = if is_claim { claim_event } else { refund_event };
                    let fsm = &mut self.escrows.get_mut(&tag).expect("watched").fsm;
                    if fsm.apply(event, now).is_err() {
                        env.note(now, tag, Note::IllegalSettlement(event));
                        continue;
                    }
                    // Orphaned back to Escrowed: the watchdog takes over.
                    if let Some(at) = fsm.deadline() {
                        env.wake_at(at);
                    }
                    env.note(now, tag, Note::Settlement(event));
                }
            }
        }
        // Crash recovery: the block may be the first (and only) place
        // this host sees an escrow or claim it missed as gossip — and
        // the first place a rival claim surfaces, if the equivocator
        // only ever showed it to the other side of the overlay.
        for tx in change.connected() {
            self.detect_equivocation(now, tx, env);
            self.gateway_check_escrow(now, tx, env);
            self.recipient_check_claim(now, tx, env);
        }
        let mut unsettled: Vec<u64> = self
            .claims
            .iter()
            .filter(|(_, c)| !c.settled)
            .map(|(tag, _)| *tag)
            .collect();
        unsettled.sort_unstable();
        for tag in unsettled {
            self.keep_published(now, tag, Stored::Claim, false, env);
        }
    }

    /// Claims for the sessions whose escrow reached the confirmation
    /// depth (with depth 0: is pooled or confirmed here) — the one path
    /// to a claim, whether the escrow arrived as gossip, in a block after
    /// a crash, or its claim was withheld on an earlier pass.
    fn gateway_check_confirmations(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        let depth = self.terms.confirmation_depth;
        for (key_bytes, escrow_txid) in std::mem::take(&mut self.awaiting_conf) {
            let chain = &self.daemon.chain;
            let pooled = (depth == 0)
                .then(|| self.daemon.mempool.get(&escrow_txid))
                .flatten();
            let confirmed = || {
                chain
                    .find_transaction(&escrow_txid)
                    .filter(|(height, _)| chain.height() + 1 >= height + depth)
                    .map(|(_, tx)| tx)
            };
            let Some(tx) = pooled.or_else(confirmed) else {
                self.awaiting_conf.push((key_bytes, escrow_txid));
                continue;
            };
            if let Some(found) = escrow_output(escrow_txid, tx, &key_bytes) {
                self.gateway_claim(now, key_bytes, found, env);
            }
        }
    }

    /// Records that `peer`'s chain reaches at least `height`.
    fn note_tip(&mut self, peer: NodeId, height: u64) {
        if peer != self.id && (peer.0 as usize) < self.address_book.len() {
            let tip = self.peer_tips.entry(peer).or_default();
            *tip = (*tip).max(height);
        }
    }

    /// Rate-limited headers-first catch-up (§5.1) from the peers this
    /// node knows to be ahead: the tallest answers the locate probes
    /// (`GetHeadersFrom`); once the fork is found, body batches are
    /// striped across it and up to two more. A machine still making
    /// progress keeps running with a raised target; a stalled one (lost
    /// responses, a source that reorganized mid-sync) is restarted —
    /// re-locating the fork costs a few 22 KiB header batches, not block
    /// bodies.
    fn start_sync(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        // A burst of orphans asks once.
        let cooldown = SimDuration::from_secs(5);
        if self.last_sync_req.is_some_and(|last| now < last + cooldown) {
            return;
        }
        let height = self.height();
        let mut ahead: Vec<(u64, NodeId)> = self
            .peer_tips
            .iter()
            .filter(|(_, &tip)| tip > height)
            .map(|(&peer, &tip)| (tip, peer))
            .collect();
        // Tallest first; ties broken by id for determinism.
        ahead.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let Some(&(target, _)) = ahead.first() else {
            return; // nobody known to be ahead of us
        };
        let peers = ahead.into_iter().take(3).map(|(_, peer)| peer).collect();
        let progressed = self.last_sync_req.is_some() && height > self.last_sync_height;
        self.last_sync_height = height;
        self.last_sync_req = Some(now);
        let reqs = match self.header_sync.as_mut() {
            Some(hs) if progressed && hs.is_active() => {
                hs.on_tip(target);
                hs.on_progress(&self.daemon.chain)
            }
            _ => {
                let (hs, reqs) = HeaderSync::start(peers, height, target);
                self.header_sync = Some(hs);
                reqs
            }
        };
        self.send_sync_requests(now, reqs, env);
    }

    /// Transmits what the catch-up machine asked for, and retires the
    /// machine once it has nothing more to ask.
    fn send_sync_requests(&mut self, now: SimTime, reqs: Vec<SyncRequest>, env: &mut dyn NodeEnv) {
        if self.header_sync.as_ref().is_some_and(|hs| !hs.is_active()) {
            self.header_sync = None;
        }
        for req in reqs {
            let (peer, msg) = match req {
                SyncRequest::Headers { peer, from } => (peer, ChainMessage::GetHeadersFrom(from)),
                SyncRequest::Bodies { peer, from } => (peer, ChainMessage::GetBlocksFrom(from)),
            };
            env.unicast(now, peer, WanMessage::Chain(msg));
        }
    }

    // ---- the radio ----------------------------------------------------

    /// Gateway, Fig. 3 steps 1–2 and 6–7: a device's frame for exchange
    /// `tag` reached this gateway's radio. Returns what goes back down,
    /// and when.
    ///
    /// - A request opens the session ([`Note::SessionOpened`]: the
    ///   ephemeral keypair is generated on the host CPU) or, if `tag`
    ///   already has one, answers at once with the same key.
    /// - A data frame is heard ([`Downlink::Ack`]). The first is forwarded
    ///   to the recipient the directory names (§4.3) and held for
    ///   re-delivery until an escrow paying the session shows up; a copy
    ///   gets no answer. A recipient missing from the directory, or no
    ///   session under `tag`, ends the exchange here ([`Note::Abort`]).
    pub fn on_uplink(
        &mut self,
        now: SimTime,
        tag: u64,
        frame: Uplink,
        env: &mut dyn NodeEnv,
    ) -> Option<(SimTime, Downlink)> {
        let session = self.sessions.iter_mut().find(|(_, s)| s.tag == tag);
        let Uplink::Data {
            device_id,
            recipient,
            uplink,
        } = frame
        else {
            if let Some((_, session)) = session {
                return Some((now, Downlink::Key(session.e_sk.public_key())));
            }
            env.note(now, tag, Note::SessionOpened);
            let (e_pk, e_sk) = self.keys.keypair(self.terms.rsa_size);
            let session = Session {
                tag,
                e_sk,
                forwarded: false,
                held: None,
            };
            self.sessions.insert(e_pk.to_bytes(), session);
            let done = self.occupy_cpu(now, self.terms.costs.rsa_keygen);
            return Some((done, Downlink::Key(e_pk)));
        };
        if session.as_ref().is_some_and(|(_, s)| s.forwarded) {
            return None;
        }
        let node = self.address_book.iter().position(|a| *a == recipient);
        let to = self.directory.lookup(&recipient).and(node);
        let (Some((e_pk_bytes, session)), Some(to)) = (session, to) else {
            env.note(now, tag, Note::Abort);
            return Some((now, Downlink::Ack));
        };
        let to = NodeId(to as u32);
        session.forwarded = true;
        let mut fsm = ExchangeFsm::new(now);
        let _ = fsm.apply(FsmEvent::Sealed, now);
        if let Some(at) = fsm.deadline() {
            env.wake_at(at);
        }
        let msg = WanMessage::Deliver {
            device_id,
            e_pk_bytes: e_pk_bytes.clone(),
            uplink: uplink.clone(),
        };
        session.held = Some(Held {
            to,
            device_id,
            uplink,
            fsm,
        });
        let done = self.occupy_cpu(now, self.terms.costs.directory_lookup);
        env.unicast(done, to, msg);
        Some((now, Downlink::Ack))
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
        self.gateway_check_confirmations(done, env);
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
    /// filters, buffered orphans, peer tips, in-flight syncs) is gone;
    /// protocol state survives by fiat. `reopened` is the chain a
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
        self.orphans.clear();
        self.peer_tips.clear();
        self.cpu_busy_until = now;
        self.last_sync_req = None;
        self.header_sync = None;
        env.flood(now, &Parcel::new(self.tip_announce()));
        self.on_deadline(now, env);
    }

    // ---- the watchdog ------------------------------------------------

    /// Fires every deadline of this node that has come due, in tag order,
    /// then asks for the next one ([`NodeEnv::wake_at`]):
    ///
    /// - gateway, `Sealed`: no escrow paying the session has shown up, so
    ///   the held uplink goes out again — or, the `DELIVER_RETRY` budget
    ///   spent, the node gives the exchange up ([`Note::Abort`]);
    /// - recipient, `Escrowed`: re-floods the escrow if this node's pool
    ///   and chain lost it or a block mined `SETTLE_CHECK.base` after it
    ///   went out left it out, and from the refund height on builds the
    ///   CLTV refund and keeps that published the same way.
    ///
    /// A gateway's claim needs no deadline: every block it connects
    /// checks it. A late claim goes through the confirmation-depth path
    /// like any other.
    pub(crate) fn on_deadline(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        let due = |fsm: &ExchangeFsm| fsm.deadline().is_some_and(|at| at <= now);
        let mut sealed: Vec<(u64, Vec<u8>)> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.held.as_ref().is_some_and(|held| due(&held.fsm)))
            .map(|(key, s)| (s.tag, key.clone()))
            .collect();
        sealed.sort_unstable();
        for (tag, e_pk_bytes) in sealed {
            let session = self.sessions.get_mut(&e_pk_bytes).expect("due session");
            let held = session.held.as_mut().expect("due uplink");
            if held.fsm.retries_exhausted() {
                session.held = None;
                env.note(now, tag, Note::Abort);
                continue;
            }
            held.fsm.note_retry(now);
            let msg = WanMessage::Deliver {
                device_id: held.device_id,
                e_pk_bytes,
                uplink: held.uplink.clone(),
            };
            env.unicast(now, held.to, msg);
            env.note(now, tag, Note::Redelivered);
        }
        let mut escrowed: Vec<u64> = self
            .escrows
            .iter()
            .filter(|(_, e)| due(&e.fsm))
            .map(|(tag, _)| *tag)
            .collect();
        escrowed.sort_unstable();
        for tag in escrowed {
            let held = self.escrows.get_mut(&tag).expect("due escrow");
            held.fsm.note_retry(now);
            let outpoint = OutPoint {
                txid: held.tx.txid(),
                vout: held.escrow.vout,
            };
            let refund_height = held.escrow.refund_height;
            if held.refund.is_none() && self.daemon.chain.height() >= refund_height {
                let refund = HashedTx::new(escrow::build_refund(
                    &self.wallet,
                    &held.escrow,
                    self.terms.reward,
                    self.terms.fee,
                ));
                held.refund = Some((refund, Published::at(now)));
                env.note(now, tag, Note::Refunding);
            }
            let confirmed = self.daemon.chain.utxo().contains(&outpoint);
            self.keep_published(now, tag, Stored::Escrow, confirmed, env);
            self.keep_published(now, tag, Stored::Refund, false, env);
        }
        let sessions = self.sessions.values().filter_map(|s| s.held.as_ref());
        let next = sessions
            .map(|held| &held.fsm)
            .chain(self.escrows.values().map(|e| &e.fsm))
            .filter_map(ExchangeFsm::deadline)
            .min();
        if let Some(at) = next {
            env.wake_at(at);
        }
    }

    /// Keeps one stored settlement transaction on its way into a block:
    /// re-floods it when this node's own pool and chain have lost it, or
    /// when the tip — a block mined at least `SETTLE_CHECK.base` after it
    /// last went out — still left it out. The tip's miner is named
    /// ([`Note::CensorshipSuspected`]) once its blocks have left it out
    /// [`CENSOR_SUSPECT_SWEEPS`] re-floods in a row.
    fn keep_published(
        &mut self,
        now: SimTime,
        tag: u64,
        which: Stored,
        confirmed: bool,
        env: &mut dyn NodeEnv,
    ) {
        let Some(txid) = self.stored_hashed(tag, which).map(HashedTx::txid) else {
            return;
        };
        let published = *self.published(tag, which).expect("stored");
        if confirmed {
            return;
        }
        let chain = &self.daemon.chain;
        let tip = chain.block(&chain.tip()).expect("the tip is stored");
        let mined = SimTime::from_micros(tip.header.time_us);
        let left_out = mined >= published.at + SETTLE_CHECK.base;
        if !left_out && self.daemon.mempool.contains(&txid) {
            return;
        }
        let mut republished = Published::at(now);
        if left_out {
            if let Some(miner) = self.miner_of(tip) {
                let run = match published.left_out {
                    Some((by, run)) if by == miner => run + 1,
                    _ => 1,
                };
                republished.left_out = Some((miner, run));
                if run == CENSOR_SUSPECT_SWEEPS {
                    env.note(now, tag, Note::CensorshipSuspected(miner));
                }
            }
        }
        let Some(at) = self.rebroadcast(now, tag, which, env) else {
            return;
        };
        republished.at = at;
        *self.published(tag, which).expect("stored") = republished;
        env.note(now, tag, Note::Rebroadcast(which));
    }

    /// When a stored transaction last went out.
    fn published(&mut self, tag: u64, which: Stored) -> Option<&mut Published> {
        match which {
            Stored::Escrow => self.escrows.get_mut(&tag).map(|e| &mut e.published),
            Stored::Claim => self.claims.get_mut(&tag).map(|c| &mut c.published),
            Stored::Refund => self.escrows.get_mut(&tag)?.refund.as_mut().map(|(_, p)| p),
        }
    }

    /// The peer a block's coinbase pays, by this node's address book.
    fn miner_of(&self, block: &Block) -> Option<NodeId> {
        let paid = &block.transactions.first()?.outputs.first()?.script_pubkey;
        let i = self
            .address_book
            .iter()
            .position(|a| p2pkh(&a.0) == *paid)?;
        Some(NodeId(i as u32))
    }

    /// Re-admits a stored transaction (if this node's pool lost it),
    /// forgets the relay dedup so it floods again, and gossips it.
    /// Returns when it went out, or `None` if this node's pool refuses it
    /// — a conflicting settlement already sits there.
    fn rebroadcast(
        &mut self,
        now: SimTime,
        tag: u64,
        which: Stored,
        env: &mut dyn NodeEnv,
    ) -> Option<SimTime> {
        let tx = self.stored_hashed(tag, which)?.clone();
        let txid = tx.txid();
        let mut at = now;
        if !self.daemon.mempool.contains(&txid) {
            let (done, result) = self
                .daemon
                .accept_transaction(now, tx.clone(), &self.terms.costs);
            result.ok()?;
            at = done;
        }
        self.daemon.relay.forget(&txid.0);
        self.daemon.relay.first_sighting(txid.0);
        env.flood(at, &Parcel::tx(tx));
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::seal_reading;
    use crate::fleet::{BusFleet, Fleet, Outbound};

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
            let keys = &mut f.nodes[GATEWAY].node.keys;
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
}
