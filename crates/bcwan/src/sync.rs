//! Start-up chain synchronization (paper §5.1), headers-first.
//!
//! "On start-up, each node retrieves the recent blocks from other nodes
//! and scans their content for foreign gateways IPs." A joining or
//! restarted gateway syncs in two phases driven by `HeaderSync`:
//!
//! 1. **Locate** — fetch bounded header batches
//!    (`ChainMessage::GetHeadersFrom` / `Headers`) from a peer, walking
//!    back with a doubling look-behind until a batch links onto the
//!    local main chain. Headers are 88 bytes, so finding the fork point
//!    costs ~0.3% of the bandwidth of walking bodies — and it finds the
//!    *exact* fork even when the local tip sits on a reorged-away
//!    branch (the case the old tallest-peer block walk handled by
//!    blindly doubling how far back it re-requested bodies).
//! 2. **Fetch** — pull bodies in bounded [`GetBlocksFrom`] batches
//!    striped across every known sync peer, keeping one batch in
//!    flight per peer until the located best height is reached.
//!
//! `main_chain_above` is the server half both the simulated world and
//! the live fleet answer both requests from.
//!
//! [`GetBlocksFrom`]: bcwan_p2p::ChainMessage::GetBlocksFrom

use bcwan_chain::{Block, BlockHeader, Chain};
use bcwan_p2p::NodeId;

/// What a `GetBlocksFrom(height)` or `GetHeadersFrom(height)` request is
/// answered from: the main-chain blocks strictly above `height`, in
/// order, at most `max` of them — so one lagging peer cannot make a
/// daemon serialize its whole chain into a single response. Each is
/// found by height, with no walk from genesis. The requester re-asks
/// from its new tip until it stops making progress.
pub(crate) fn main_chain_above(
    chain: &Chain,
    height: u64,
    max: usize,
) -> impl Iterator<Item = &Block> {
    (height.saturating_add(1)..=u64::MAX)
        .map_while(|h| chain.block_at(h))
        .take(max)
}

/// Blocks served per `GetBlocksFrom` answer, so one lagging peer cannot
/// make a daemon serialize its whole chain into a single response. A
/// still-behind requester asks again from its new height.
pub(crate) const SYNC_BATCH: usize = 32;

/// Maximum headers per [`Headers`] batch. At 88 serialized bytes per
/// header a full batch is ~22 KiB — small enough for one WAN datagram
/// in the sim's cost model, large enough that locating a fork a few
/// hundred blocks back takes one or two round-trips.
///
/// [`Headers`]: bcwan_p2p::ChainMessage::Headers
pub(crate) const HEADER_BATCH: usize = 256;

/// A request the header-sync driver wants sent to a peer. The caller
/// (sim world or live fleet node) owns the transport, so the machine
/// only *describes* traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncRequest {
    /// Send `ChainMessage::GetHeadersFrom(from)` to `peer`.
    Headers {
        /// Peer to ask.
        peer: NodeId,
        /// Height to request strictly above.
        from: u64,
    },
    /// Send `ChainMessage::GetBlocksFrom(from)` to `peer`.
    Bodies {
        /// Peer to ask.
        peer: NodeId,
        /// Height to request strictly above.
        from: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum HeaderSyncState {
    /// Walking header batches back until one links onto our chain.
    Locating {
        /// Height of the last `GetHeadersFrom` we issued.
        asked_from: u64,
        /// Look-behind applied on the *next* miss (doubles each time).
        back: u64,
    },
    /// Fork located; bodies are being striped across peers.
    Fetching {
        /// Height of the common ancestor with the serving peer.
        fork: u64,
        /// Next body batch to issue starts strictly above this height.
        next_batch: u64,
        /// Starts of batches currently in flight.
        inflight: Vec<u64>,
    },
    /// Local main chain reached the located target height.
    Done,
    /// The peer's headers never linked (foreign genesis) or failed
    /// validation; the caller should drop the peer and retry later.
    Failed,
}

/// Headers-first catch-up sync, the requester half.
///
/// Drive it with [`on_headers`] for every `Headers` batch received and
/// [`on_progress`] after connecting blocks; both return the requests to
/// transmit. Lost responses are not retried internally — restarting the
/// machine (the callers already rate-limit sync attempts) re-locates
/// the fork cheaply.
///
/// [`on_headers`]: HeaderSync::on_headers
/// [`on_progress`]: HeaderSync::on_progress
#[derive(Debug, Clone)]
pub(crate) struct HeaderSync {
    peers: Vec<NodeId>,
    target: u64,
    state: HeaderSyncState,
}

impl HeaderSync {
    /// Starts a sync toward `target` (the best height announced by the
    /// first peer). `peers[0]` answers header requests; bodies are
    /// striped across all of `peers`. Returns the machine and its
    /// opening request.
    pub fn start(peers: Vec<NodeId>, local_height: u64, target: u64) -> (Self, Vec<SyncRequest>) {
        assert!(!peers.is_empty(), "header sync needs at least one peer");
        let sync = HeaderSync {
            peers,
            target,
            state: HeaderSyncState::Locating {
                asked_from: local_height,
                back: 1,
            },
        };
        let req = SyncRequest::Headers {
            peer: sync.peers[0],
            from: local_height,
        };
        (sync, vec![req])
    }

    /// Raises the target when a taller tip is announced mid-sync.
    pub(crate) fn on_tip(&mut self, height: u64) {
        if height > self.target {
            self.target = height;
        }
    }

    /// Whether the machine still wants traffic.
    pub(crate) fn is_active(&self) -> bool {
        !matches!(self.state, HeaderSyncState::Done | HeaderSyncState::Failed)
    }

    /// Feeds a received `Headers` batch. Finds the highest batch entry
    /// that matches our main chain (or links `headers[0]` onto it); on
    /// a hit, switches to body fetching; on a miss, walks the request
    /// back with a doubling look-behind.
    pub(crate) fn on_headers(
        &mut self,
        chain: &Chain,
        start_height: u64,
        headers: &[BlockHeader],
    ) -> Vec<SyncRequest> {
        let HeaderSyncState::Locating { asked_from, back } = self.state else {
            return Vec::new(); // stale batch; bodies already in flight
        };
        if start_height != asked_from {
            return Vec::new(); // answer to a request we no longer own
        }
        if headers.is_empty() {
            // The peer has nothing above start_height: either we are
            // already at (or past) its tip, or it lied about its
            // height. Both mean there is nothing to fetch from it.
            self.state = if chain.height() >= self.target {
                HeaderSyncState::Done
            } else {
                HeaderSyncState::Failed
            };
            return Vec::new();
        }
        // Internal linkage + proof-of-work, before trusting any of it.
        for (i, header) in headers.iter().enumerate() {
            if header.bits != chain.params().difficulty_bits || !header.meets_target() {
                self.state = HeaderSyncState::Failed;
                return Vec::new();
            }
            if i > 0 && header.prev_hash != headers[i - 1].hash() {
                self.state = HeaderSyncState::Failed;
                return Vec::new();
            }
        }
        // Highest batch entry that IS one of our main-chain blocks.
        let mut fork = None;
        for (i, header) in headers.iter().enumerate().rev() {
            let h = start_height + 1 + i as u64;
            if chain.block_at(h).map(|b| b.hash()) == Some(header.hash()) {
                fork = Some(h);
                break;
            }
        }
        // Or the batch links directly onto our block at start_height.
        if fork.is_none()
            && chain.block_at(start_height).map(|b| b.hash()) == Some(headers[0].prev_hash)
        {
            fork = Some(start_height);
        }
        match fork {
            Some(fork) => {
                let claimed = start_height + headers.len() as u64;
                if claimed > self.target {
                    self.target = claimed;
                }
                self.state = HeaderSyncState::Fetching {
                    fork,
                    next_batch: fork,
                    inflight: Vec::new(),
                };
                self.fill_window(chain.height())
            }
            None if start_height == 0 => {
                // Nothing in common down to genesis: a foreign chain.
                self.state = HeaderSyncState::Failed;
                Vec::new()
            }
            None => {
                let from = start_height.saturating_sub(back);
                self.state = HeaderSyncState::Locating {
                    asked_from: from,
                    back: back.saturating_mul(2),
                };
                vec![SyncRequest::Headers {
                    peer: self.peers[0],
                    from,
                }]
            }
        }
    }

    /// Call after connecting received blocks: retires completed body
    /// batches and keeps one batch in flight per peer until the target
    /// height is reached.
    pub(crate) fn on_progress(&mut self, chain: &Chain) -> Vec<SyncRequest> {
        if chain.height() >= self.target {
            if matches!(self.state, HeaderSyncState::Fetching { .. }) {
                self.state = HeaderSyncState::Done;
            }
            return Vec::new();
        }
        self.fill_window(chain.height())
    }

    fn fill_window(&mut self, local_height: u64) -> Vec<SyncRequest> {
        let target = self.target;
        let peers = &self.peers;
        let HeaderSyncState::Fetching {
            next_batch,
            inflight,
            ..
        } = &mut self.state
        else {
            return Vec::new();
        };
        let batch = SYNC_BATCH as u64;
        // A batch starting at `s` covers (s, s + SYNC_BATCH]; it is
        // done once our main chain reaches its upper edge. (Batches on
        // a not-yet-dominant branch park as side-chain blocks and
        // retire only when the reorg lands — deep reorgs therefore
        // proceed one window at a time, which the shallow forks the
        // sim's partitions produce never hit.)
        inflight.retain(|&start| local_height < start + batch);
        let mut reqs = Vec::new();
        while inflight.len() < peers.len() && *next_batch < target {
            let stripe = (*next_batch / batch) as usize % peers.len();
            reqs.push(SyncRequest::Bodies {
                peer: peers[stripe],
                from: *next_batch,
            });
            inflight.push(*next_batch);
            *next_batch += batch;
        }
        reqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The machine's phase name.
    fn phase(hs: &HeaderSync) -> &'static str {
        match hs.state {
            HeaderSyncState::Locating { .. } => "locating",
            HeaderSyncState::Fetching { .. } => "fetching",
            HeaderSyncState::Done => "done",
            HeaderSyncState::Failed => "failed",
        }
    }

    /// The height both chains are known to share, once located.
    fn fork_height(hs: &HeaderSync) -> Option<u64> {
        match hs.state {
            HeaderSyncState::Fetching { fork, .. } => Some(fork),
            _ => None,
        }
    }

    /// Whether the peer's chain turned out unlinkable or invalid.
    fn failed(hs: &HeaderSync) -> bool {
        matches!(hs.state, HeaderSyncState::Failed)
    }

    /// A `GetBlocksFrom(height)` answer.
    fn blocks_above(chain: &Chain, height: u64) -> Vec<Block> {
        main_chain_above(chain, height, SYNC_BATCH)
            .cloned()
            .collect()
    }

    /// A `GetHeadersFrom(height)` answer.
    fn headers_above(chain: &Chain, height: u64) -> Vec<BlockHeader> {
        let blocks = main_chain_above(chain, height, HEADER_BATCH);
        blocks.map(|block| block.header.clone()).collect()
    }
    use bcwan_chain::{BlockAction, ChainParams, Transaction, TxOut, Wallet};
    use bcwan_script::Script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mine_empty(chain: &mut Chain, tag: &[u8]) {
        let params = chain.params().clone();
        let height = chain.height() + 1;
        let cb = Transaction::coinbase(
            height,
            tag,
            vec![TxOut {
                value: params.coinbase_reward,
                script_pubkey: Script::new(),
            }],
        );
        let block = bcwan_chain::Block::mine(chain.tip(), height, params.difficulty_bits, vec![cb]);
        chain.add_block(block).unwrap();
    }

    fn two_chains(seed: u64) -> (Chain, Chain, Wallet, ChainParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ChainParams::multichain_like();
        params.coinbase_maturity = 0;
        let wallet = Wallet::generate(&mut rng);
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 1_000)]);
        let veteran = Chain::new(params.clone(), genesis.clone());
        let newcomer = Chain::new(params.clone(), genesis);
        (veteran, newcomer, wallet, params)
    }

    /// Applies served blocks the way a syncing node does, tolerating
    /// duplicates and invalid entries. Returns `(connected, rejected)`.
    fn apply(chain: &mut Chain, blocks: Vec<Block>) -> (usize, usize) {
        let (mut connected, mut rejected) = (0, 0);
        for block in blocks {
            match chain.add_block(block) {
                Ok(BlockAction::Extended(_)) | Ok(BlockAction::Reorganized { .. }) => {
                    connected += 1;
                }
                Ok(BlockAction::SideChain) | Ok(BlockAction::AlreadyKnown) => {}
                Err(_) => rejected += 1,
            }
        }
        (connected, rejected)
    }

    #[test]
    fn partial_sync_resumes_where_it_left_off() {
        let (mut veteran, mut newcomer, _, _) = two_chains(2);
        for i in 0..4u8 {
            mine_empty(&mut veteran, &[i]);
        }
        apply(&mut newcomer, blocks_above(&veteran, 0));
        // The veteran advances again; only the delta transfers.
        for i in 4..9u8 {
            mine_empty(&mut veteran, &[i]);
        }
        let blocks = blocks_above(&veteran, newcomer.height());
        assert_eq!(blocks.len(), 5);
        assert_eq!(apply(&mut newcomer, blocks), (5, 0));
        assert_eq!(newcomer.tip(), veteran.tip());
    }

    #[test]
    fn garbage_blocks_are_counted_not_fatal() {
        let (mut veteran, mut newcomer, _, params) = two_chains(4);
        mine_empty(&mut veteran, b"good");
        let mut blocks = blocks_above(&veteran, 0);
        // A block from nowhere (unknown parent).
        let junk = bcwan_chain::Block::mine(
            bcwan_chain::BlockHash([0xee; 32]),
            9,
            params.difficulty_bits,
            vec![Transaction::coinbase(
                9,
                b"junk",
                vec![TxOut {
                    value: 1,
                    script_pubkey: Script::new(),
                }],
            )],
        );
        blocks.push(junk);
        assert_eq!(apply(&mut newcomer, blocks), (1, 1));
        assert_eq!(newcomer.height(), 1);
    }

    #[test]
    fn headers_first_full_catchup_with_striping() {
        let (mut veteran, mut newcomer, _, _) = two_chains(6);
        for i in 0..40u8 {
            mine_empty(&mut veteran, &[i]);
        }
        let (mut hs, reqs) = HeaderSync::start(
            vec![NodeId(1), NodeId(2)],
            newcomer.height(),
            veteran.height(),
        );
        assert_eq!(
            reqs,
            vec![SyncRequest::Headers {
                peer: NodeId(1),
                from: 0
            }]
        );
        let headers = headers_above(&veteran, 0);
        assert_eq!(headers.len(), 40);
        let reqs = hs.on_headers(&newcomer, 0, &headers);
        assert_eq!(phase(&hs), "fetching");
        assert_eq!(fork_height(&hs), Some(0));
        // One body batch in flight per peer, striped round-robin.
        assert_eq!(
            reqs,
            vec![
                SyncRequest::Bodies {
                    peer: NodeId(1),
                    from: 0
                },
                SyncRequest::Bodies {
                    peer: NodeId(2),
                    from: 32
                },
            ]
        );
        for req in reqs {
            let SyncRequest::Bodies { from, .. } = req else {
                panic!("only bodies expected while fetching");
            };
            let blocks = blocks_above(&veteran, from);
            apply(&mut newcomer, blocks);
        }
        let reqs = hs.on_progress(&newcomer);
        assert!(reqs.is_empty());
        assert_eq!(phase(&hs), "done");
        assert!(!hs.is_active());
        assert_eq!(newcomer.tip(), veteran.tip());
    }

    #[test]
    fn locate_walks_back_past_a_stale_branch() {
        let (mut veteran, mut newcomer, _, _) = two_chains(7);
        for i in 0..4u8 {
            mine_empty(&mut veteran, &[i]);
        }
        apply(&mut newcomer, blocks_above(&veteran, 0));
        // Diverge: the newcomer mines two blocks of its own while the
        // veteran's branch grows longer.
        for i in 0..2u8 {
            mine_empty(&mut newcomer, &[0xa0 + i]);
        }
        for i in 4..10u8 {
            mine_empty(&mut veteran, &[i]);
        }
        assert_ne!(
            newcomer.block_at(5).unwrap().hash(),
            veteran.block_at(5).unwrap().hash()
        );

        let (mut hs, mut reqs) =
            HeaderSync::start(vec![NodeId(0)], newcomer.height(), veteran.height());
        let mut hops = 0;
        while phase(&hs) == "locating" {
            let SyncRequest::Headers { from, .. } = reqs[0] else {
                panic!("locating only issues header requests");
            };
            let headers = headers_above(&veteran, from);
            reqs = hs.on_headers(&newcomer, from, &headers);
            hops += 1;
            assert!(hops < 10, "locate must converge");
        }
        // Doubling look-behind found the exact common ancestor without
        // a single block body moving.
        assert_eq!(fork_height(&hs), Some(4));
        for req in reqs {
            let SyncRequest::Bodies { from, .. } = req else {
                panic!("fetching only issues body requests");
            };
            let blocks = blocks_above(&veteran, from);
            apply(&mut newcomer, blocks);
        }
        hs.on_progress(&newcomer);
        assert!(!hs.is_active());
        assert_eq!(
            newcomer.tip(),
            veteran.tip(),
            "reorged onto the longer branch"
        );
    }

    #[test]
    fn foreign_genesis_fails_cleanly() {
        let (mut veteran, _, _, _) = two_chains(8);
        let (_, mut stranger, _, _) = two_chains(9);
        for i in 0..3u8 {
            mine_empty(&mut veteran, &[i]);
        }
        let (mut hs, _) = HeaderSync::start(vec![NodeId(0)], stranger.height(), veteran.height());
        let headers = headers_above(&veteran, 0);
        let reqs = hs.on_headers(&stranger, 0, &headers);
        assert!(reqs.is_empty());
        assert!(failed(&hs), "a chain with a foreign genesis never links");
        let _ = &mut stranger;
    }

    #[test]
    fn broken_header_linkage_fails_validation() {
        let (mut veteran, newcomer, _, _) = two_chains(10);
        for i in 0..4u8 {
            mine_empty(&mut veteran, &[i]);
        }
        let mut headers = headers_above(&veteran, 0);
        headers.swap(1, 2);
        let (mut hs, _) = HeaderSync::start(vec![NodeId(0)], 0, veteran.height());
        assert!(hs.on_headers(&newcomer, 0, &headers).is_empty());
        assert!(failed(&hs));
    }

    #[test]
    fn lying_peer_with_no_headers_fails() {
        let (_, newcomer, _, _) = two_chains(11);
        // Peer announced height 5 but serves nothing above 0.
        let (mut hs, _) = HeaderSync::start(vec![NodeId(0)], 0, 5);
        assert!(hs.on_headers(&newcomer, 0, &[]).is_empty());
        assert!(failed(&hs));
    }

    #[test]
    fn answers_are_bounded_and_a_height_past_the_tip_gets_none() {
        let (mut veteran, _, _, _) = two_chains(12);
        for i in 0..40u8 {
            mine_empty(&mut veteran, &[i]);
        }
        assert_eq!(blocks_above(&veteran, 0).len(), SYNC_BATCH, "bounded");
        let tail: Vec<_> = blocks_above(&veteran, 30).iter().map(Block::hash).collect();
        let expected: Vec<_> = (31..=40)
            .map(|h| veteran.block_at(h).unwrap().hash())
            .collect();
        assert_eq!(tail, expected, "strictly above, in order");
        for height in [40, 41, u64::MAX - 1, u64::MAX] {
            assert_eq!(main_chain_above(&veteran, height, SYNC_BATCH).count(), 0);
        }
    }

    #[test]
    fn duplicate_blocks_are_harmless() {
        let (mut veteran, mut newcomer, _, _) = two_chains(5);
        mine_empty(&mut veteran, b"x");
        let blocks = blocks_above(&veteran, 0);
        assert_eq!(apply(&mut newcomer, blocks.clone()), (1, 0));
        assert_eq!(apply(&mut newcomer, blocks), (0, 0));
        assert_eq!(newcomer.height(), 1);
    }
}
