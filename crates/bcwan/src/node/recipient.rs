//! The recipient's role (Fig. 3 steps 8–9 and 11): verify the delivered
//! uplink, fund and publish the escrow paying its gateway, open the
//! reading with the key the claim reveals, and refund past the CLTV
//! height when no claim comes.

use super::*;

/// What a node keeps as a recipient.
#[derive(Default)]
pub(super) struct Recipient {
    /// Coins reserved for in-flight escrows.
    reserved: IdSet<OutPoint>,
    /// Escrowed exchanges by tag (boxed, so the table's power-of-two
    /// slack is in pointers, not in 200-byte records).
    escrows: IdMap<u64, Box<Escrowed>>,
    /// Escrow outpoint → exchange, kept for good so block
    /// connects/disconnects classify as claim, refund, or orphaning
    /// thereof in O(inputs), and a claim finds the delivery it opens.
    settle_watch: IdMap<OutPoint, u64>,
}

/// One escrowed exchange.
struct Escrowed {
    escrow: Escrow,
    /// `escrow.tx`, hashed once where it was built.
    published: Published,
    /// Settlement phase and the sweep that drives it.
    settlement: Settlement,
    refund: Option<Published>,
    /// First key-revealing claim seen spending the escrow; a second
    /// *distinct* one is an equivocation (reported once).
    seen_claim: Option<TxId>,
    equivocated: bool,
    /// Until a claim reveals the key that opens it: the delivery the
    /// escrow pays for.
    sealed: Option<(DeviceId, SealedUplink)>,
}

impl Recipient {
    /// Whether no block can concern this recipient: no escrow published.
    pub(super) fn is_idle(&self) -> bool {
        self.settle_watch.is_empty()
    }

    /// The recipient's equivocation detector: a second *distinct*
    /// key-revealing claim spending a watched escrow means the gateway
    /// double-claimed. Only the recipient owns `settle_watch` entries,
    /// so each equivocation is reported exactly once. The reading is
    /// never at risk — every valid claim reveals the true `eSk`.
    pub(super) fn detect_equivocation(
        &mut self,
        now: SimTime,
        tx: &Transaction,
        env: &mut dyn NodeEnv,
    ) {
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
            let held = self.escrows.get_mut(&tag).expect("watched");
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

    /// Moves the machine of every escrow the last main-chain change spent:
    /// disconnects first, so a reorg that moves a claim between branches
    /// passes through Escrowed rather than skip a state. The machine
    /// reports each event exactly once.
    pub(super) fn settle(&mut self, now: SimTime, change: &ChainChange, env: &mut dyn NodeEnv) {
        use FsmEvent::{ClaimConfirmed, ClaimOrphaned, RefundConfirmed, RefundOrphaned};
        let disconnected = (change.disconnected(), ClaimOrphaned, RefundOrphaned);
        let connected = (change.connected(), ClaimConfirmed, RefundConfirmed);
        for (txs, claim_event, refund_event) in [disconnected, connected] {
            for tx in txs {
                for input in &tx.inputs {
                    let Some(&tag) = self.settle_watch.get(&input.prevout) else {
                        continue;
                    };
                    let is_claim = escrow::extract_key_from_claim(tx, &input.prevout).is_some();
                    let event = if is_claim { claim_event } else { refund_event };
                    let settlement = &mut self.escrows.get_mut(&tag).expect("watched").settlement;
                    if !settlement.apply(event, now) {
                        env.note(now, tag, Note::IllegalSettlement(event));
                        continue;
                    }
                    // Orphaned back to Escrowed: the sweep takes over.
                    if let Some(at) = settlement.deadline() {
                        env.wake_at(at);
                    }
                    env.note(now, tag, Note::Settlement(event));
                }
            }
        }
    }
}

impl Node {
    /// The escrow this node published for exchange `tag`, if any.
    pub fn escrow(&self, tag: u64) -> Option<&Escrow> {
        self.recipient.escrows.get(&tag).map(|e| &e.escrow)
    }

    /// The settlement phase of exchange `tag`, once this node published
    /// its escrow.
    pub fn settlement(&self, tag: u64) -> Option<Phase> {
        (self.recipient.escrows.get(&tag)).map(|e| e.settlement.phase())
    }

    /// Outpoints of every escrow this node published.
    pub(crate) fn escrow_outpoints(&self) -> impl Iterator<Item = &OutPoint> {
        self.recipient.settle_watch.keys()
    }

    /// Selects and reserves a mature coin worth at least `amount`.
    fn reserve_coin(&mut self, amount: u64) -> Option<Coin> {
        let script = self.wallet.locking_script();
        let height = self.daemon.chain.height();
        let maturity = self.daemon.chain.params().coinbase_maturity;
        let reserved = &mut self.recipient.reserved;
        // The smallest sufficient coin, deterministically.
        let (value, op) = (self.daemon.chain.utxo().iter())
            .filter(|(op, entry)| {
                entry.output.script_pubkey == script
                    && !(entry.coinbase && height < entry.height + maturity)
                    && entry.output.value >= amount
                    && !reserved.contains(op)
            })
            .map(|(op, entry)| (entry.output.value, *op))
            .min()?;
        reserved.insert(op);
        Some((op, script, value))
    }

    /// Fig. 3 steps 8–9 at the recipient: verify the uplink, fund the
    /// escrow paying the delivering gateway, flood it toward the miners.
    pub(super) fn on_deliver(
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
        if self.recipient.escrows.contains_key(&tag) {
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
        self.recipient.settle_watch.insert(outpoint, tag);
        let settlement = Settlement::new(admitted_at);
        if let Some(at) = settlement.deadline() {
            env.wake_at(at);
        }
        let parcel = Parcel::tx(tx.clone());
        let escrowed = Escrowed {
            escrow,
            published: Published::new(tx, admitted_at),
            settlement,
            refund: None,
            seen_claim: None,
            equivocated: false,
            sealed: Some((device_id, uplink.clone())),
        };
        self.recipient.escrows.insert(tag, Box::new(escrowed));
        self.daemon.relay.first_sighting(outpoint.txid.0);
        env.flood(admitted_at, &parcel);
        env.note(admitted_at, tag, Note::EscrowPublished(outpoint));
    }

    /// The recipient spots the claim spending its escrow and decrypts.
    pub(super) fn check_claim(&mut self, now: SimTime, tx: &Transaction, env: &mut dyn NodeEnv) {
        for input in &tx.inputs {
            let Some(&tag) = self.recipient.settle_watch.get(&input.prevout) else {
                continue;
            };
            let held = self.recipient.escrows.get_mut(&tag).expect("watched");
            if held.sealed.is_none() {
                continue;
            }
            let Some(e_sk) = escrow::extract_key_from_claim(tx, &input.prevout) else {
                continue;
            };
            let (device_id, uplink) = held.sealed.take().expect("checked above");
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

    /// The escrow sweep, in tag order: from the refund height on,
    /// builds the CLTV refund, and keeps the escrow (until this node's
    /// chain holds it) and the refund published ([`Published::keep`]).
    /// Returns the next sweep due.
    pub(super) fn sweep_escrows(&mut self, now: SimTime, env: &mut dyn NodeEnv) -> Option<SimTime> {
        let mut due: Vec<u64> = self
            .recipient
            .escrows
            .iter()
            .filter(|(_, e)| e.settlement.deadline().is_some_and(|at| at <= now))
            .map(|(tag, _)| *tag)
            .collect();
        due.sort_unstable();
        for tag in due {
            let held = self.recipient.escrows.get_mut(&tag).expect("due escrow");
            held.settlement.note_sweep(now);
            let outpoint = OutPoint {
                txid: held.published.tx.txid(),
                vout: held.escrow.vout,
            };
            if held.refund.is_none() && self.daemon.chain.height() >= held.escrow.refund_height {
                let refund = HashedTx::new(escrow::build_refund(
                    &self.wallet,
                    &held.escrow,
                    self.terms.reward,
                    self.terms.fee,
                ));
                held.refund = Some(Published::new(refund, now));
                env.note(now, tag, Note::Refunding);
            }
            let (daemon, book, costs) = (&mut self.daemon, &self.address_book, &self.terms.costs);
            if !daemon.chain.utxo().contains(&outpoint) {
                held.published.keep(now, tag, daemon, book, costs, env);
            }
            if let Some(refund) = held.refund.as_mut() {
                refund.keep(now, tag, daemon, book, costs, env);
            }
        }
        let escrows = self.recipient.escrows.values();
        escrows.filter_map(|e| e.settlement.deadline()).min()
    }
}
