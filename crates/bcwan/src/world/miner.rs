//! The mining leg: the master's block schedule, miner failover, and the
//! censorship route-around.

use super::{Event, Queue, World};
use crate::fsm::Phase;
use crate::node::Node;
use bcwan_chain::{ChainParams, IdSet, OutPoint};
use bcwan_sim::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::HashSet;

bcwan_sim::counters! {
    /// Blocks the mining duty produced.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct BlockTally {
        pub(super) blocks_mined: u64 => "world.blocks_mined_total",
        pub(super) standby_blocks_mined: u64 => "world.standby_blocks_mined_total",
    }
}

/// Who the mining duty passes over, and what it produced.
#[derive(Default)]
pub(super) struct Miner {
    /// Miners some node suspected of censorship. Sticky for the rest of
    /// the run: mining duty routes around them while any other live host
    /// can mine.
    pub(super) censor_suspects: HashSet<u32>,
    pub(super) blocks: BlockTally,
}

/// The wait until the next block: exponential around the target
/// interval, one draw from the run's stream.
pub(super) fn next_block_delay(rng: &mut SimRng, params: &ChainParams) -> SimDuration {
    let mean = params.target_block_interval.as_secs_f64();
    SimDuration::from_secs_f64(rng.exponential(mean))
}

impl World {
    /// Who mines right now: the master (host 0) in every clean run, and
    /// under chaos the live host with the tallest chain — ties break
    /// toward the lowest id, so the master takes back over once it has
    /// caught up after a failover. Hosts suspected of claim censorship
    /// are passed over while any other live host can mine (the
    /// route-around half of the censorship defence); with nobody else
    /// up, a suspect still beats no miner at all. `None` while every
    /// host is crashed.
    fn active_miner(&self, now: SimTime) -> Option<u32> {
        let (chaos, suspects) = (&self.chaos, &self.miner.censor_suspects);
        if chaos.is_idle() && suspects.is_empty() {
            return Some(0);
        }
        let live = (0..self.hosts.len() as u32).filter(|&id| !chaos.host_down(id, now));
        let tallest = |ids: &mut dyn Iterator<Item = u32>| {
            ids.max_by_key(|&id| (self.hosts[id as usize].height(), Reverse(id)))
        };
        let unsuspected = &mut live.clone().filter(|id| !suspects.contains(id));
        tallest(unsuspected).or_else(|| tallest(&mut live.clone()))
    }

    pub(super) fn handle_mine_tick(&mut self, now: SimTime, queue: &mut Queue) {
        self.sample_timeline(now);
        // Stop mining when work is done and nothing is pending anywhere.
        let tally = &self.ledger.tally;
        let work_left = tally.completed + tally.failed < tally.started
            || tally.started < self.cfg.target_exchanges as u64
            || self.hosts.iter().any(|h| !h.daemon.mempool.is_empty())
            // Money still in escrow keeps blocks coming: the refund
            // branch needs the chain to reach the CLTV height.
            || self.ledger.exchanges.iter().enumerate().any(|(i, ex)| {
                let recipient = &self.hosts[ex.home as usize];
                recipient.settlement(i as u64) == Some(Phase::Escrowed)
            });
        if !work_left {
            return;
        }
        self.mine_block(now, queue);
        let delay = next_block_delay(&mut self.rng, &self.cfg.chain_params);
        queue.schedule_in(delay, Event::MineTick);
    }

    /// One turn of mining duty: the acting miner extends its tip — or,
    /// when the chaos plan says so, forks or censors.
    fn mine_block(&mut self, now: SimTime, queue: &mut Queue) {
        // Miner failover; with every host down nobody mines — a block
        // nobody could gossip helps no one.
        let Some(miner) = self.active_miner(now) else {
            return;
        };
        // Scheduled fork injection: mine a heavier side branch instead
        // of extending the tip, forcing every host through a reorg.
        let (mined, whole) = if let Some(depth) = self.chaos.take_fork(now) {
            self.chaos.stats.forks += 1;
            self.at_host(miner, queue, |node, env| node.mine_fork(now, depth, env))
        } else {
            let extended = self.mine_template(now, miner, queue).is_some();
            (u64::from(extended), extended)
        };
        let blocks = &mut self.miner.blocks;
        blocks.blocks_mined += mined;
        if miner != 0 {
            blocks.standby_blocks_mined += mined;
        } else if whole {
            self.audit_master();
        }
    }

    /// The acting miner extends its tip from its pool — leaving out
    /// settlements while the chaos plan has it censor them.
    fn mine_template(&mut self, now: SimTime, miner: u32, queue: &mut Queue) -> Option<SimTime> {
        // Byzantine censorship: a miner inside its CensorClaims window
        // silently excludes every settlement transaction — anything
        // spending a known escrow outpoint, claim and refund alike —
        // from its template. The pool keeps them (censorship is not
        // eviction), so an honest miner taking over mines them at once.
        let mut escrow_ops: IdSet<OutPoint> = IdSet::default();
        if self.chaos.censoring_miner(miner, now) {
            escrow_ops.extend(self.hosts.iter().flat_map(Node::escrow_outpoints));
            let withheld = self.hosts[miner as usize]
                .daemon
                .mempool
                .iter()
                .filter(|tx| tx.inputs.iter().any(|i| escrow_ops.contains(&i.prevout)))
                .count() as u64;
            // Per-template exclusion events, not distinct txs: the same
            // stuck claim counts once per censored block.
            self.chaos.stats.claims_censored += withheld;
        }
        let tag: &[u8] = if miner == 0 { b"master" } else { b"standby" };
        self.at_host(miner, queue, |node, env| {
            node.mine(now, tag, &escrow_ops, env)
        })
    }
}
