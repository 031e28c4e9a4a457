//! The foreign gateway's role (Fig. 3 steps 1–2, 6–7 and 10): session
//! keys, the one forward of each data frame and its re-delivery, and the
//! claim that reveals `eSk` to the escrow paying the session.

use super::*;

/// What a node keeps as a foreign gateway.
pub(super) struct Gateway {
    /// The node's key stream, drawn from only for session keys.
    pub(super) keys: KeyAhead,
    /// Serialized ePk → open session.
    sessions: HashMap<Vec<u8>, Session>,
    /// Signed claims by exchange tag.
    claims: IdMap<u64, Claim>,
    /// Escrow outpoint → the claim spending it, kept for good.
    claim_watch: IdMap<OutPoint, u64>,
    /// Escrows seen but short of the confirmation depth, or whose claim
    /// was withheld.
    awaiting_conf: Vec<(Vec<u8>, TxId)>,
}

/// One ephemeral-key session.
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

/// A forwarded uplink, whom it goes to, and its re-delivery clock.
struct Held {
    to: NodeId,
    device_id: DeviceId,
    uplink: SealedUplink,
    redelivery: Backoff,
}

/// A signed claim, valid as long as the escrow output exists, kept
/// published until a block on this node's main chain spends that output.
struct Claim {
    published: Published,
    settled: bool,
}

/// The first output of `tx` (whose id is `txid`) locked to the
/// serialized ephemeral key `e_pk_bytes`: its outpoint, script and value.
fn escrow_output(txid: TxId, tx: &Transaction, e_pk_bytes: &[u8]) -> Option<Coin> {
    let (vout, output) = tx
        .outputs
        .iter()
        .enumerate()
        .find(|(_, output)| escrow::escrow_key(&output.script_pubkey) == Some(e_pk_bytes))?;
    let outpoint = OutPoint {
        txid,
        vout: vout as u32,
    };
    Some((outpoint, output.script_pubkey.clone(), output.value))
}

impl Gateway {
    pub(super) fn new(keys: KeyAhead) -> Self {
        Gateway {
            keys,
            sessions: HashMap::new(),
            claims: IdMap::default(),
            claim_watch: IdMap::default(),
            awaiting_conf: Vec::new(),
        }
    }

    /// Whether no block can concern this gateway: no session open, no
    /// claim signed.
    pub(super) fn is_idle(&self) -> bool {
        self.sessions.is_empty() && self.claim_watch.is_empty()
    }

    /// Puts the escrow `txid` paying the session of `e_pk_bytes` on the
    /// confirmation-depth list, once.
    fn await_conf(&mut self, e_pk_bytes: Vec<u8>, txid: TxId) {
        let entry = (e_pk_bytes, txid);
        if !self.awaiting_conf.contains(&entry) {
            self.awaiting_conf.push(entry);
        }
    }

    /// Notes which claims' escrows the last main-chain change spent or
    /// (after a reorg) gave back: its disconnects first, then its
    /// connects.
    pub(super) fn note_settled(&mut self, change: &ChainChange) {
        for (txs, settled) in [(change.disconnected(), false), (change.connected(), true)] {
            for input in txs.iter().flat_map(|tx| &tx.inputs) {
                if let Some(tag) = self.claim_watch.get(&input.prevout) {
                    let claim = self.claims.get_mut(tag).expect("watched claims are kept");
                    claim.settled = settled;
                }
            }
        }
    }

    /// The re-delivery watchdog, in tag order: a held uplink with no
    /// escrow in sight goes out again, or the exchange is given up once
    /// the `DELIVER_RETRY` budget is spent. Returns the next re-delivery
    /// due.
    pub(super) fn redeliver(&mut self, now: SimTime, env: &mut dyn NodeEnv) -> Option<SimTime> {
        let mut due: Vec<(u64, Vec<u8>)> = self
            .sessions
            .iter()
            .filter(|(_, s)| (s.held.as_ref()).is_some_and(|h| h.redelivery.deadline() <= now))
            .map(|(key, s)| (s.tag, key.clone()))
            .collect();
        due.sort_unstable();
        for (tag, e_pk_bytes) in due {
            let session = self.sessions.get_mut(&e_pk_bytes).expect("due session");
            let held = session.held.as_mut().expect("due uplink");
            if held.redelivery.exhausted() {
                session.held = None;
                env.note(now, tag, Note::Abort);
                continue;
            }
            held.redelivery.note_retry(now);
            let msg = WanMessage::Deliver {
                device_id: held.device_id,
                e_pk_bytes,
                uplink: held.uplink.clone(),
            };
            env.unicast(now, held.to, msg);
            env.note(now, tag, Note::Redelivered);
        }
        let held = self.sessions.values().filter_map(|s| s.held.as_ref());
        held.map(|held| held.redelivery.deadline()).min()
    }
}

impl Node {
    /// The claim this node signed for exchange `tag`, if any.
    pub(crate) fn claim(&self, tag: u64) -> Option<&Transaction> {
        let claim = self.gateway.claims.get(&tag)?;
        Some(claim.published.tx.tx())
    }

    /// The gateway's escrow check: does `tx` lock payment to the key of
    /// one of this node's open sessions? Each escrow-shaped output's
    /// leading push is looked up among the sessions directly, so the
    /// cost follows the transaction's outputs, not the number of open
    /// sessions, and no key is parsed.
    pub(super) fn check_escrow(&mut self, now: SimTime, tx: &Transaction, env: &mut dyn NodeEnv) {
        let sessions = &self.gateway.sessions;
        if sessions.is_empty() {
            return;
        }
        // The first output naming each session, in output order.
        let mut named: Vec<&[u8]> = Vec::new();
        for key in (tx.outputs.iter()).filter_map(|o| escrow::escrow_key(&o.script_pubkey)) {
            if sessions.contains_key(key) && !named.contains(&key) {
                named.push(key);
            }
        }
        if named.is_empty() {
            return;
        }
        let txid = tx.txid();
        for key in named {
            // The escrow proves the delivery landed: stop re-delivering.
            if let Some(session) = self.gateway.sessions.get_mut(key) {
                session.held = None;
            }
            // The same escrow can be offered twice: once as gossip, once
            // from the block that confirms it.
            self.gateway.await_conf(key.to_vec(), txid);
            if self.terms.confirmation_depth == 0 {
                self.check_confirmations(now, env);
            }
        }
    }

    /// Step 10: the gateway publishes the claim, revealing eSk.
    fn gateway_claim(
        &mut self,
        now: SimTime,
        e_pk_bytes: Vec<u8>,
        (outpoint, script, value): Coin,
        env: &mut dyn NodeEnv,
    ) {
        // A misbehaving gateway sits on the claim; the session survives
        // and the escrow goes back on the confirmation-depth list, so it
        // claims late once the window closes — and the recipient's refund
        // races it through the CLTV branch.
        if env.misbehaves(now, Misbehaviour::WithholdClaim) {
            self.gateway.await_conf(e_pk_bytes, outpoint.txid);
            return;
        }
        let Some(session) = self.gateway.sessions.remove(&e_pk_bytes) else {
            return;
        };
        env.note(now, session.tag, Note::Claiming);
        let terms = self.terms.clone();
        let sign = |wallet: &Wallet, fee: u64| {
            escrow::build_claim(wallet, outpoint, &script, value, &session.e_sk, fee)
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
        let rival = (env.misbehaves(now, Misbehaviour::Equivocate) && terms.fee + 1 < value)
            .then(|| HashedTx::new(sign(&self.wallet, terms.fee + 1)));
        let (admitted, result) = self
            .daemon
            .accept_transaction(built, claim.clone(), &terms.costs);
        // Keep the signed claim: it stays valid as long as the escrow
        // output exists, so it is re-published after a crash or a reorg
        // that orphans it — or, when the escrow is not in this host's
        // view yet, once a block brings it.
        let kept = Claim {
            published: Published::new(claim.clone(), admitted),
            settled: false,
        };
        self.gateway.claims.insert(session.tag, kept);
        self.gateway.claim_watch.insert(outpoint, session.tag);
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

    /// Claims for the sessions whose escrow reached the confirmation
    /// depth (with depth 0: is pooled or confirmed here) — the one path
    /// to a claim, whether the escrow arrived as gossip, in a block after
    /// a crash, or its claim was withheld on an earlier pass.
    pub(super) fn check_confirmations(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        let depth = self.terms.confirmation_depth;
        for (key_bytes, escrow_txid) in std::mem::take(&mut self.gateway.awaiting_conf) {
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
                self.gateway.awaiting_conf.push((key_bytes, escrow_txid));
                continue;
            };
            if let Some(found) = escrow_output(escrow_txid, tx, &key_bytes) {
                self.gateway_claim(now, key_bytes, found, env);
            }
        }
    }

    /// Re-publishes, in tag order, every claim whose escrow this node's
    /// main chain has not spent yet ([`Published::keep`]).
    pub(super) fn keep_claims_published(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        let mut unsettled: Vec<u64> = self
            .gateway
            .claims
            .iter()
            .filter(|(_, c)| !c.settled)
            .map(|(tag, _)| *tag)
            .collect();
        unsettled.sort_unstable();
        for tag in unsettled {
            let claim = &mut self.gateway.claims.get_mut(&tag).expect("kept").published;
            let (book, costs) = (&self.address_book, &self.terms.costs);
            claim.keep(now, tag, &mut self.daemon, book, costs, env);
        }
    }

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
        let gateway = &mut self.gateway;
        let session = gateway.sessions.iter_mut().find(|(_, s)| s.tag == tag);
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
            let (e_pk, e_sk) = gateway.keys.keypair(self.terms.rsa_size);
            let session = Session {
                tag,
                e_sk,
                forwarded: false,
                held: None,
            };
            gateway.sessions.insert(e_pk.to_bytes(), session);
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
        let redelivery = Backoff::new(&DELIVER_RETRY, now);
        env.wake_at(redelivery.deadline());
        let msg = WanMessage::Deliver {
            device_id,
            e_pk_bytes: e_pk_bytes.clone(),
            uplink: uplink.clone(),
        };
        session.held = Some(Held {
            to,
            device_id,
            uplink,
            redelivery,
        });
        let done = self.occupy_cpu(now, self.terms.costs.directory_lookup);
        env.unicast(done, to, msg);
        Some((now, Downlink::Ack))
    }
}
