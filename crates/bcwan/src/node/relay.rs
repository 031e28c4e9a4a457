//! Block relay and catch-up (§4.3, §5.1): blocks that arrived before
//! their parent, the tips peers showed, and the headers-first sync —
//! volatile state a restart forgets whole.

use super::*;

/// What a node knows about block relay and catch-up.
#[derive(Default)]
pub(super) struct Relay {
    /// Blocks whose parent has not arrived yet, keyed by parent hash.
    orphans: IdMap<BlockHash, Vec<Arc<Parcel>>>,
    /// Peers' chain heights as they announced them or as the blocks they
    /// relayed showed: bounded by the address book.
    peer_tips: IdMap<NodeId, u64>,
    /// When this node last started a catch-up, and at what height — to
    /// rate-limit attempts and tell a progressing sync from a stalled one.
    last_sync: Option<(SimTime, u64)>,
    /// In-progress headers-first catch-up (§5.1).
    header_sync: Option<HeaderSync>,
}

impl Node {
    /// Chain block gossip: the chain indexes the parcel's hashed body —
    /// one body however many hosts connect it.
    pub(super) fn on_block(
        &mut self,
        now: SimTime,
        from: NodeId,
        parcel: Arc<Parcel>,
        env: &mut dyn NodeEnv,
    ) {
        let hash = parcel.hashed_block().hash();
        if !self.daemon.relay.first_sighting(hash.0) {
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
                    self.relay.orphans.entry(parent).or_default().push(parcel);
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
            // or (after a reorg) disconnected.
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
            self.check_confirmations(done, env);
            // Any orphans waiting on this block connect next.
            if let Some(children) = self.relay.orphans.remove(&block.hash()) {
                pending.extend(children);
            }
        }
        // Keep an in-progress headers-first sync's body window full as
        // batches land and retire.
        if let Some(hs) = self.relay.header_sync.as_mut() {
            let reqs = hs.on_progress(&self.daemon.chain);
            self.send_sync_requests(at, reqs, env);
        }
    }

    /// A `Headers` batch: fed to the catch-up machine, whose requests go
    /// out.
    pub(super) fn on_headers(
        &mut self,
        now: SimTime,
        start_height: u64,
        headers: &[BlockHeader],
        env: &mut dyn NodeEnv,
    ) {
        let Some(hs) = self.relay.header_sync.as_mut() else {
            return; // stale batch from a finished or restarted sync
        };
        let reqs = hs.on_headers(&self.daemon.chain, start_height, headers);
        self.send_sync_requests(now, reqs, env);
    }

    /// Records that `peer`'s chain reaches at least `height`.
    pub(super) fn note_tip(&mut self, peer: NodeId, height: u64) {
        if peer != self.id && (peer.0 as usize) < self.address_book.len() {
            let tip = self.relay.peer_tips.entry(peer).or_default();
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
    pub(super) fn start_sync(&mut self, now: SimTime, env: &mut dyn NodeEnv) {
        // A burst of orphans asks once.
        let cooldown = SimDuration::from_secs(5);
        let last_sync = self.relay.last_sync;
        if last_sync.is_some_and(|(last, _)| now < last + cooldown) {
            return;
        }
        let height = self.height();
        let tips = self.relay.peer_tips.iter().map(|(&peer, &tip)| (tip, peer));
        let mut ahead: Vec<(u64, NodeId)> = tips.filter(|&(tip, _)| tip > height).collect();
        // Tallest first; ties broken by id for determinism.
        ahead.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let Some(&(target, _)) = ahead.first() else {
            return; // nobody known to be ahead of us
        };
        let peers = ahead.into_iter().take(3).map(|(_, peer)| peer).collect();
        let progressed = last_sync.is_some_and(|(_, synced)| height > synced);
        self.relay.last_sync = Some((now, height));
        let reqs = match self.relay.header_sync.as_mut() {
            Some(hs) if progressed && hs.is_active() => {
                hs.on_tip(target);
                hs.on_progress(&self.daemon.chain)
            }
            _ => {
                let (hs, reqs) = HeaderSync::start(peers, height, target);
                self.relay.header_sync = Some(hs);
                reqs
            }
        };
        self.send_sync_requests(now, reqs, env);
    }

    /// Transmits what the catch-up machine asked for, and retires the
    /// machine once it has nothing more to ask.
    fn send_sync_requests(&mut self, now: SimTime, reqs: Vec<SyncRequest>, env: &mut dyn NodeEnv) {
        let header_sync = &mut self.relay.header_sync;
        if header_sync.as_ref().is_some_and(|hs| !hs.is_active()) {
            *header_sync = None;
        }
        for req in reqs {
            let (peer, msg) = match req {
                SyncRequest::Headers { peer, from } => (peer, ChainMessage::GetHeadersFrom(from)),
                SyncRequest::Bodies { peer, from } => (peer, ChainMessage::GetBlocksFrom(from)),
            };
            env.unicast(now, peer, WanMessage::Chain(msg));
        }
    }
}
