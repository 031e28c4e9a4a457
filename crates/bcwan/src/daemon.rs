//! The per-host blockchain daemon, including the Multichain stall model.
//!
//! The paper wraps Multichain in a Golang daemon; requests serialize
//! through it. We model the daemon as a single-server queue: every piece
//! of work *starts* no earlier than the daemon's `busy_until` and pushes
//! `busy_until` forward by its processing cost. Block arrival with
//! verification enabled charges the sampled stall duration — the §5.2
//! observation that the daemon becomes "unresponsive for extended
//! periods upon each block arrival", which separates Fig. 5 from Fig. 6.

use crate::costs::CostModel;
use bcwan_chain::{
    BlockAction, Chain, ChainError, HashedBlock, HashedTx, Mempool, MempoolError, ReorgInfo,
    Transaction,
};
use bcwan_p2p::SeenFilter;
use bcwan_sim::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

bcwan_sim::counters! {
    /// Statistics the daemon accumulates (`daemon.*` rows).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct DaemonStats {
        /// Blocks accepted onto the main chain.
        pub blocks_accepted: u64 => "daemon.blocks_accepted_total",
        /// Transactions admitted to the mempool.
        pub txs_accepted: u64 => "daemon.txs_accepted_total",
        /// Number of verification stalls suffered.
        pub stalls: u64 => "daemon.stalls_total",
        /// Total simulated time spent stalled.
        pub total_stall: SimDuration => "daemon.stall_seconds_total",
    }
}

/// A host's chain daemon.
pub struct Daemon {
    /// The host's view of the chain.
    pub chain: Chain,
    /// The host's mempool.
    pub mempool: Mempool,
    /// Gossip dedup state.
    pub relay: SeenFilter,
    busy_until: SimTime,
    stats: DaemonStats,
    last_change: ChainChange,
}

/// The transactions the last accepted block moved on the main chain.
/// Cloning bumps a reference count: the extending block is the body the
/// chain indexed.
#[derive(Debug, Clone, Default)]
pub(crate) enum ChainChange {
    /// The last block left the main chain as it was (a side-chain, known
    /// or refused block), or the daemon restarted since.
    #[default]
    None,
    /// A block extended the tip.
    Extended(HashedBlock),
    /// A longer branch replaced part of the main chain.
    Reorganized(Arc<ReorgInfo>),
}

impl ChainChange {
    /// Transactions the block (all of them, coinbase first) or the reorg
    /// branch (non-coinbase ones) confirmed.
    pub fn connected(&self) -> &[Transaction] {
        match self {
            ChainChange::None => &[],
            ChainChange::Extended(block) => &block.transactions,
            ChainChange::Reorganized(info) => &info.connected_txs,
        }
    }

    /// Transactions a reorg disconnected; empty after an extension.
    pub fn disconnected(&self) -> &[Transaction] {
        match self {
            ChainChange::Reorganized(info) => &info.disconnected_txs,
            _ => &[],
        }
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("height", &self.chain.height())
            .field("mempool", &self.mempool.len())
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

impl Daemon {
    /// Wraps a chain into a fresh daemon. The mempool shares the chain's
    /// signature cache, so scripts verified at admission are not re-run
    /// when the containing block connects. (The simulator binds every
    /// host to one memo: it hands in `chain.with_sig_cache(shared)`.)
    pub fn new(chain: Chain) -> Self {
        Daemon {
            mempool: Mempool::with_cache(chain.sig_cache().clone()),
            chain,
            relay: SeenFilter::new(),
            busy_until: SimTime::ZERO,
            stats: DaemonStats::default(),
            last_change: ChainChange::default(),
        }
    }

    /// Replaces the chain (a warm restart reopened it from its store),
    /// binding the newcomer to the memo the outgoing chain and the
    /// mempool share — a reopened chain arrives with a fresh private
    /// cache, and leaving it would split admission from connect.
    pub(crate) fn replace_chain(&mut self, chain: Chain) {
        let cache = self.chain.sig_cache().clone();
        self.chain = chain.with_sig_cache(cache);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// Charges `cost` of daemon time starting no earlier than `now`;
    /// returns the completion instant.
    pub fn occupy(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + cost;
        self.busy_until = done;
        done
    }

    /// Processes an incoming transaction at `now`. Returns the completion
    /// time (when downstream reactions may fire) and the admission result.
    pub(crate) fn accept_transaction(
        &mut self,
        now: SimTime,
        tx: impl Into<HashedTx>,
        costs: &CostModel,
    ) -> (SimTime, Result<u64, MempoolError>) {
        let done = self.occupy(now, costs.tx_validate);
        let height = self.chain.height();
        let result = self
            .mempool
            .insert(tx, self.chain.utxo(), height + 1, self.chain.params());
        if result.is_ok() {
            self.stats.txs_accepted += 1;
        }
        (done, result)
    }

    /// Processes an incoming block at `now`: chain acceptance, mempool
    /// cleanup, and — when the chain's stall model is enabled — the
    /// verification freeze. Returns the completion time and the action.
    pub(crate) fn accept_block(
        &mut self,
        now: SimTime,
        block: impl Into<HashedBlock>,
        rng: &mut SimRng,
    ) -> (SimTime, Result<BlockAction, ChainError>) {
        let block = block.into();
        // The stall models the verification work itself, so it is charged
        // whether or not the block extends the chain.
        let stall = self
            .chain
            .params()
            .stall
            .clone()
            .sample(block.transactions.len(), rng);
        if stall > SimDuration::ZERO {
            self.stats.stalls += 1;
            self.stats.total_stall += stall;
        }
        let done = self.occupy(now, stall);
        let result = self.chain.add_block(block.clone());
        match result {
            Ok(BlockAction::Extended(_)) => {
                self.stats.blocks_accepted += 1;
                self.mempool
                    .remove_confirmed_ids(&block.transactions, block.txids());
                self.last_change = ChainChange::Extended(block);
            }
            Ok(BlockAction::Reorganized { .. }) => {
                self.stats.blocks_accepted += 1;
                let reorg = self.chain.take_last_reorg().unwrap_or_default();
                self.repair_mempool_after_reorg(&reorg);
                self.last_change = ChainChange::Reorganized(Arc::new(reorg));
            }
            _ => self.last_change = ChainChange::None,
        }
        (done, result)
    }

    /// Brings the mempool back in line with a reorganized chain — the
    /// discipline Bitcoin Core applies on every reorg:
    ///
    /// 1. evict pool entries the new branch confirmed (or that conflict
    ///    with what it confirmed),
    /// 2. resubmit transactions the old branch confirmed but the new one
    ///    did not (oldest first, so parents precede children), forgetting
    ///    their relay ids so a network re-broadcast can propagate,
    /// 3. sweep out anything left whose inputs the new UTXO view no
    ///    longer supplies.
    fn repair_mempool_after_reorg(&mut self, info: &ReorgInfo) {
        self.mempool.remove_confirmed(&info.connected_txs);
        let height = self.chain.height();
        for tx in &info.disconnected_txs {
            let tx = HashedTx::new(tx.clone());
            self.relay.forget(&tx.txid().0);
            let _ = self
                .mempool
                .insert(tx, self.chain.utxo(), height + 1, self.chain.params());
        }
        self.mempool
            .evict_invalid(self.chain.utxo(), height + 1, self.chain.params());
    }

    /// What the last `accept_block` connected and disconnected:
    /// [`ChainChange::None`] unless that block changed the main chain, so
    /// a side-chain, known or refused block never re-reports the block
    /// before it.
    pub(crate) fn last_change(&self) -> &ChainChange {
        &self.last_change
    }

    /// Models a crash-restart: durable state (the chain) survives,
    /// volatile state (mempool contents, relay dedup filters, queue
    /// backlog) is lost. Returns how many pooled transactions vanished.
    pub(crate) fn crash_restart(&mut self, now: SimTime) -> usize {
        let lost = self.mempool.clear();
        self.relay = SeenFilter::new();
        self.busy_until = now;
        self.last_change = ChainChange::default();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_chain::{Block, ChainParams, SigCache, StallModel, TxOut, Wallet};
    use bcwan_script::Script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_daemon(stall: bool) -> (Daemon, Wallet) {
        let mut rng = StdRng::seed_from_u64(5);
        let wallet = Wallet::generate(&mut rng);
        let mut params = ChainParams::fast_test();
        if stall {
            params.stall = StallModel::multichain_observed();
        }
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 10_000)]);
        (Daemon::new(Chain::new(params, genesis)), wallet)
    }

    fn next_block(daemon: &Daemon, tag: &[u8]) -> Block {
        let height = daemon.chain.height() + 1;
        let cb = Transaction::coinbase(
            height,
            tag,
            vec![TxOut {
                value: daemon.chain.params().coinbase_reward,
                script_pubkey: Script::new(),
            }],
        );
        Block::mine(
            daemon.chain.tip(),
            height,
            daemon.chain.params().difficulty_bits,
            vec![cb],
        )
    }

    #[test]
    fn occupy_serializes_work() {
        let (mut daemon, _) = make_daemon(false);
        let t0 = SimTime::ZERO;
        let d1 = daemon.occupy(t0, SimDuration::from_secs(2));
        assert_eq!(d1.as_secs(), 2);
        // Work arriving during the busy period queues.
        let d2 = daemon.occupy(SimTime::from_micros(1), SimDuration::from_secs(1));
        assert_eq!(d2.as_secs(), 3);
        // Work arriving after idle starts immediately.
        let late = SimTime::from_micros(10_000_000);
        let d3 = daemon.occupy(late, SimDuration::from_secs(1));
        assert_eq!(d3.as_secs(), 11);
    }

    #[test]
    fn block_without_stall_completes_instantly() {
        let (mut daemon, _) = make_daemon(false);
        let mut rng = SimRng::seed_from_u64(1);
        let block = next_block(&daemon, b"a");
        let (done, action) = daemon.accept_block(SimTime::ZERO, block, &mut rng);
        assert_eq!(done, SimTime::ZERO);
        assert!(matches!(action, Ok(BlockAction::Extended(1))));
        assert_eq!(daemon.stats().stalls, 0);
        assert_eq!(daemon.stats().blocks_accepted, 1);
    }

    #[test]
    fn block_with_stall_freezes_daemon() {
        let (mut daemon, _) = make_daemon(true);
        let mut rng = SimRng::seed_from_u64(2);
        let block = next_block(&daemon, b"a");
        let (done, action) = daemon.accept_block(SimTime::ZERO, block, &mut rng);
        assert!(matches!(action, Ok(BlockAction::Extended(1))));
        // The stall base is ~5.5 s with log-normal jitter; any draw is
        // well over the no-stall cost, which is what this test pins.
        assert!(done.as_secs_f64() > 3.0, "stall should freeze, got {done}");
        assert_eq!(daemon.stats().stalls, 1);
        // A transaction arriving during the freeze waits it out.
        assert!(daemon.busy_until > SimTime::ZERO);
    }

    #[test]
    fn transaction_flow_through_daemon() {
        let (mut daemon, wallet) = make_daemon(false);
        // Mature the genesis coin.
        let mut rng = SimRng::seed_from_u64(3);
        for i in 0..daemon.chain.params().coinbase_maturity {
            let block = next_block(&daemon, &[i as u8]);
            daemon
                .accept_block(SimTime::ZERO, block, &mut rng)
                .1
                .unwrap();
        }
        let coin = {
            let cb = &daemon.chain.block_at(0).unwrap().transactions[0];
            bcwan_chain::OutPoint {
                txid: cb.txid(),
                vout: 0,
            }
        };
        let tx = wallet.build_payment(
            vec![(coin, wallet.locking_script())],
            vec![TxOut {
                value: 9_990,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let (_, result) = daemon.accept_transaction(SimTime::ZERO, tx, &CostModel::pi_class());
        assert_eq!(result.unwrap(), 10);
        assert_eq!(daemon.stats().txs_accepted, 1);
        assert_eq!(daemon.mempool.len(), 1);
    }

    /// `n` daemons on one bootstrapped chain (genesis coin matured),
    /// all bound to one verification memo — the simulator's wiring.
    fn shared_memo_fleet(n: usize) -> (Vec<Daemon>, Wallet, Arc<SigCache>) {
        let mut rng = StdRng::seed_from_u64(5);
        let wallet = Wallet::generate(&mut rng);
        let params = ChainParams::fast_test();
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 10_000)]);
        let cache = Arc::new(SigCache::default());
        let mut daemons: Vec<Daemon> = (0..n)
            .map(|_| {
                let chain = Chain::new(params.clone(), genesis.clone());
                Daemon::new(chain.with_sig_cache(cache.clone()))
            })
            .collect();
        let mut rng = SimRng::seed_from_u64(3);
        for i in 0..params.coinbase_maturity {
            let block = next_block(&daemons[0], &[i as u8]);
            for d in &mut daemons {
                d.accept_block(SimTime::ZERO, block.clone(), &mut rng)
                    .1
                    .unwrap();
            }
        }
        (daemons, wallet, cache)
    }

    fn spend_genesis_coin(daemon: &Daemon, wallet: &Wallet, value: u64) -> Transaction {
        let cb = &daemon.chain.block_at(0).unwrap().transactions[0];
        let coin = bcwan_chain::OutPoint {
            txid: cb.txid(),
            vout: 0,
        };
        wallet.build_payment(
            vec![(coin, wallet.locking_script())],
            vec![TxOut {
                value,
                script_pubkey: Script::new(),
            }],
            0,
        )
    }

    #[test]
    fn shared_memo_never_admits_what_a_host_must_refuse() {
        let (mut daemons, wallet, cache) = shared_memo_fleet(3);
        let costs = CostModel::pi_class();
        let t = spend_genesis_coin(&daemons[0], &wallet, 9_990);

        // Host A verifies T: the one script run of this whole test.
        let [a, b, c] = &mut daemons[..] else {
            unreachable!()
        };
        a.accept_transaction(SimTime::ZERO, t.clone(), &costs)
            .1
            .unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 0));

        // T with one signature byte flipped has a different key: host B
        // runs the script itself and refuses. (Byte 0 of the unlocking
        // script is the signature's push length; byte 9 is inside it.)
        let mut forged = t.clone();
        let mut sig = forged.inputs[0].script_sig.to_bytes();
        sig[9] ^= 0x01;
        forged.inputs[0].script_sig = Script::from_bytes(&sig).unwrap();
        let refused = b.accept_transaction(SimTime::ZERO, forged, &costs).1;
        assert!(
            matches!(
                refused,
                Err(MempoolError::Invalid(
                    bcwan_chain::TxError::ScriptFailed { .. }
                ))
            ),
            "{refused:?}"
        );
        assert!(b.mempool.is_empty());

        // T itself is a memo hit on B — admitted without a second run.
        b.accept_transaction(SimTime::ZERO, t.clone(), &costs)
            .1
            .unwrap();
        assert_eq!(cache.hits(), 1, "B found T already verified");

        // Host C's chain spent the coin differently, so its view lacks
        // T's input: the memo holds T's key, and C still refuses —
        // input existence is checked per host, before any script.
        let rival = spend_genesis_coin(c, &wallet, 9_000);
        let mut block = next_block(c, b"rival");
        block = Block::mine(
            block.header.prev_hash,
            block.header.time_us,
            block.header.bits,
            vec![block.transactions[0].clone(), rival],
        );
        let mut rng = SimRng::seed_from_u64(8);
        c.accept_block(SimTime::ZERO, block, &mut rng).1.unwrap();
        let refused = c.accept_transaction(SimTime::ZERO, t, &costs).1;
        assert!(
            matches!(
                refused,
                Err(MempoolError::Invalid(bcwan_chain::TxError::MissingInput(_)))
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn replaced_chain_keeps_admission_warming_connect() {
        // Regression: a warm restart swapped in the reopened chain with
        // its fresh private cache while the mempool kept the old one, so
        // admission no longer warmed connect on that host.
        let dir = std::env::temp_dir().join(format!("bcwan-daemon-rebind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(5);
        let wallet = Wallet::generate(&mut rng);
        let mut params = ChainParams::fast_test();
        params.coinbase_maturity = 0;
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 10_000)]);
        let store = bcwan_chain::StoreConfig::default();
        let chain = Chain::create_with_store(params.clone(), genesis, &dir, store.clone()).unwrap();
        let cache = Arc::new(SigCache::default());
        let mut daemon = Daemon::new(chain.with_sig_cache(cache.clone()));

        // Crash and warm restart: the store reopens into a new `Chain`.
        daemon.crash_restart(SimTime::ZERO);
        let reopened = Chain::open_store(params, &dir, store).unwrap().chain;
        assert!(!Arc::ptr_eq(reopened.sig_cache(), &cache));
        daemon.replace_chain(reopened);
        assert!(Arc::ptr_eq(daemon.chain.sig_cache(), &cache));

        // Admit after the restart (the one script run), then connect
        // the block that confirms it: a memo hit, not a second run.
        let tx = spend_genesis_coin(&daemon, &wallet, 9_990);
        daemon
            .accept_transaction(SimTime::ZERO, tx.clone(), &CostModel::pi_class())
            .1
            .unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        let coinbase = next_block(&daemon, b"c").transactions[0].clone();
        let block = Block::mine(
            daemon.chain.tip(),
            1,
            daemon.chain.params().difficulty_bits,
            vec![coinbase, tx],
        );
        let mut rng = SimRng::seed_from_u64(1);
        let (_, action) = daemon.accept_block(SimTime::ZERO, block, &mut rng);
        assert!(matches!(action, Ok(BlockAction::Extended(1))));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert!(daemon.mempool.is_empty(), "confirmed tx left the pool");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_applies_even_for_side_blocks() {
        let (mut daemon, _) = make_daemon(true);
        let mut rng = SimRng::seed_from_u64(4);
        let b1 = next_block(&daemon, b"main");
        daemon.accept_block(SimTime::ZERO, b1, &mut rng).1.unwrap();
        // A competing block at height 1: still verified, still stalls.
        let stalls_before = daemon.stats().stalls;
        let alt = {
            let cb = Transaction::coinbase(
                1,
                b"alt",
                vec![TxOut {
                    value: daemon.chain.params().coinbase_reward,
                    script_pubkey: Script::new(),
                }],
            );
            Block::mine(
                daemon.chain.block_at(0).unwrap().hash(),
                1,
                daemon.chain.params().difficulty_bits,
                vec![cb],
            )
        };
        let (_, action) = daemon.accept_block(SimTime::ZERO, alt, &mut rng);
        assert!(matches!(action, Ok(BlockAction::SideChain)));
        assert_eq!(daemon.stats().stalls, stalls_before + 1);
        // But it does not count as accepted.
        assert_eq!(daemon.stats().blocks_accepted, 1);
    }
}
