//! The always-on settlement auditor.
//!
//! The chaos soak used to check its fairness invariants once, at the end
//! of the run — a violation that appeared at block 40 and was masked by
//! block 90 would never be seen, and a failing run gave no hint *where*
//! the books first stopped balancing. `SettlementAuditor` replaces
//! that with per-block incremental auditing of the master's main chain:
//! every block that connects (or disconnects, in a reorg) updates the
//! minted/fee ledger and the settlement census, and every reconcile
//! re-checks value conservation at the new tip. Violations are counted
//! the moment the offending block lands, so they appear in the schema-v2
//! timeline frame of the interval where they occurred, not just in the
//! final snapshot.
//!
//! The auditor also keeps the Byzantine scorecard: each watched escrow
//! carries its gateway and whether the chaos plan marks that gateway
//! adversarial, so claim revenue splits into
//! `byzantine.honest_revenue_total` vs `byzantine.adversarial_revenue_total`
//! — the soak's headline gate is that honest revenue strictly dominates.
//!
//! The counts are a `counters!` table that `World::fold_metrics` exports
//! at every fold, so a clean run shows explicit zeros in every snapshot
//! and timeline frame rather than omitting the rows.

use std::collections::HashMap;

use bcwan_chain::{Block, BlockHash, Chain, IdMap, OutPoint, TxId};

use crate::escrow;
use crate::fsm::Phase;

/// Which branch of the Listing 1 script a confirmed spend took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SettleKind {
    /// The gateway's key-revealing claim.
    Claim,
    /// The recipient's CLTV refund.
    Refund,
}

/// An escrow outpoint under audit.
#[derive(Debug, Clone, Copy)]
struct WatchedEscrow {
    /// Index of the exchange that published the escrow.
    exchange: usize,
    /// The gateway host the escrow pays.
    gateway: u32,
    /// Whether the chaos plan marks that gateway adversarial.
    adversarial: bool,
}

/// The live main-chain settlement of a watched escrow.
#[derive(Debug, Clone, Copy)]
struct Settlement {
    kind: SettleKind,
    /// Output value the settlement paid (claim revenue to the gateway;
    /// zero relevance for refunds, recorded anyway for the ledger).
    value: u64,
}

/// Per-block audit delta, kept so a reorg can be rolled back exactly.
#[derive(Debug, Clone)]
struct AuditedBlock {
    hash: BlockHash,
    minted: u64,
    fees: u64,
    /// Watched escrow outpoints this block spent.
    spends: Vec<OutPoint>,
}

/// Settlement census returned by [`SettlementAuditor::census`] and
/// [`SettlementAuditor::final_audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FinalAudit {
    /// Escrows settled through the claim branch.
    pub claimed: usize,
    /// Escrows settled through the refund branch.
    pub refunded: usize,
    /// Escrows published but not settled on the main chain.
    pub open: usize,
    /// Total invariant violations (conservation + double settlement +
    /// FSM/chain mismatches).
    pub violations: u64,
}

/// Per-gateway observed settlement behavior, the input the reputation
/// baseline scores instead of its pure-RNG defection model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayOutcome {
    /// The gateway host.
    pub gateway: u32,
    /// Escrows the gateway settled through its claim.
    pub settled: u64,
    /// Escrows that fell through to the recipient's CLTV refund.
    pub refunded: u64,
    /// Whether the chaos plan marked the gateway adversarial.
    pub adversarial: bool,
}

bcwan_sim::counters! {
    /// The auditor's rows: invariant violations, the Byzantine revenue
    /// split, and the blocks audited.
    #[derive(Debug, Clone, Copy, Default)]
    pub(crate) struct AuditStats {
        /// Tips whose UTXO total differed from minted minus burned fees.
        value_violations: u64 => "invariant.value_conservation_violations",
        /// Second live settlements of one escrow.
        double_violations: u64 => "invariant.double_settlement_violations",
        /// Escrows whose recipient's phase disagreed with the chain at the
        /// final audit.
        fsm_violations: u64 => "invariant.fsm_chain_mismatch_violations",
        /// The three above, summed.
        violation_total: u64 => "chaos.invariant.violation_total",
        /// Claim revenue of gateways the plan marks honest.
        honest_revenue: u64 => "byzantine.honest_revenue_total",
        /// Claim revenue of gateways the plan marks adversarial.
        adversarial_revenue: u64 => "byzantine.adversarial_revenue_total",
        /// Main-chain blocks audited, a reorg's reconnects included.
        blocks_audited: u64 => "audit.blocks_audited_total",
    }
}

/// Incremental, reorg-aware auditor over the master's main chain.
///
/// Feed it every tip change via [`SettlementAuditor::reconcile`]; it
/// maintains the audited prefix (popping disconnected blocks and
/// replaying their deltas backwards), checks value conservation at each
/// new tip, detects double settlements the moment the second spend
/// connects, and keeps the honest-vs-adversarial revenue split current.
#[derive(Debug)]
pub(crate) struct SettlementAuditor {
    /// Audited main-chain prefix; index = height.
    blocks: Vec<AuditedBlock>,
    /// Output values of every transaction ever audited, for fee
    /// computation. Never rolled back: values are immutable per txid,
    /// and a reconnected transaction overwrites identically.
    out_values: IdMap<TxId, Vec<u64>>,
    minted: u64,
    fees: u64,
    watched: IdMap<OutPoint, WatchedEscrow>,
    settled: IdMap<OutPoint, Settlement>,
    /// Claim revenue per gateway on the current main chain.
    revenue: HashMap<u32, u64>,
    /// The counted rows; [`Self::stats`] fills in the derived ones.
    counts: AuditStats,
}

impl SettlementAuditor {
    /// An auditor that has seen no block.
    pub fn new() -> Self {
        SettlementAuditor {
            blocks: Vec::new(),
            out_values: IdMap::default(),
            minted: 0,
            fees: 0,
            watched: IdMap::default(),
            settled: IdMap::default(),
            revenue: HashMap::new(),
            counts: AuditStats::default(),
        }
    }

    /// Starts auditing an escrow outpoint for `exchange`, paying
    /// `gateway`. Call once when the escrow transaction is built.
    pub(crate) fn watch(
        &mut self,
        outpoint: OutPoint,
        exchange: usize,
        gateway: u32,
        adversarial: bool,
    ) {
        self.watched.insert(
            outpoint,
            WatchedEscrow {
                exchange,
                gateway,
                adversarial,
            },
        );
    }

    /// Invariant violations found so far (conservation + double
    /// settlement; FSM mismatches only exist after [`Self::final_audit`]).
    pub fn violations(&self) -> u64 {
        let counts = &self.counts;
        counts.value_violations + counts.double_violations + counts.fsm_violations
    }

    /// Every row as of now: the counts, their total and the revenue split.
    pub(crate) fn stats(&self) -> AuditStats {
        let (honest_revenue, adversarial_revenue) = self.split_revenue();
        AuditStats {
            violation_total: self.violations(),
            honest_revenue,
            adversarial_revenue,
            ..self.counts
        }
    }

    /// Claim revenue earned by gateways the plan marks honest.
    pub fn honest_revenue(&self) -> u64 {
        self.split_revenue().0
    }

    /// Claim revenue earned by gateways the plan marks adversarial.
    pub fn adversarial_revenue(&self) -> u64 {
        self.split_revenue().1
    }

    fn split_revenue(&self) -> (u64, u64) {
        let adversarial: std::collections::HashSet<u32> = self
            .watched
            .values()
            .filter(|w| w.adversarial)
            .map(|w| w.gateway)
            .collect();
        let mut honest = 0;
        let mut adv = 0;
        for (gateway, value) in &self.revenue {
            if adversarial.contains(gateway) {
                adv += value;
            } else {
                honest += value;
            }
        }
        (honest, adv)
    }

    /// Per-gateway settled/refunded counts on the current main chain,
    /// sorted by gateway id — the observed-behavior feed for the
    /// reputation baseline (A3, `bcwan_bench::reputation`).
    pub(crate) fn gateway_outcomes(&self) -> Vec<GatewayOutcome> {
        let mut by_gateway: HashMap<u32, GatewayOutcome> = HashMap::new();
        for (outpoint, watched) in &self.watched {
            let entry = by_gateway.entry(watched.gateway).or_insert(GatewayOutcome {
                gateway: watched.gateway,
                settled: 0,
                refunded: 0,
                adversarial: false,
            });
            entry.adversarial |= watched.adversarial;
            match self.settled.get(outpoint).map(|s| s.kind) {
                Some(SettleKind::Claim) => entry.settled += 1,
                Some(SettleKind::Refund) => entry.refunded += 1,
                None => {}
            }
        }
        let mut out: Vec<GatewayOutcome> = by_gateway.into_values().collect();
        out.sort_by_key(|o| o.gateway);
        out
    }

    /// Brings the audited prefix in line with `chain`'s main branch:
    /// pops blocks a reorg (or a warm restart onto a shorter durable
    /// chain) disconnected, audits every new block, and re-checks value
    /// conservation at the new tip. Cheap no-op when the tip is
    /// unchanged.
    pub(crate) fn reconcile(&mut self, chain: &Chain) {
        let tip_height = chain.height();
        if self.blocks.len() as u64 == tip_height + 1
            && self.blocks.last().map(|b| b.hash) == Some(chain.tip())
        {
            return;
        }
        // Pop audited blocks no longer on the main chain.
        while let Some(last) = self.blocks.last() {
            let height = self.blocks.len() as u64 - 1;
            if height <= tip_height && chain.block_at(height).map(|b| b.hash()) == Some(last.hash) {
                break;
            }
            self.disconnect_top();
        }
        // Audit the new main-chain blocks above the common prefix.
        for height in self.blocks.len() as u64..=tip_height {
            let block = chain.block_at(height).expect("main-chain block").clone();
            self.connect(&block, height);
            self.counts.blocks_audited += 1;
        }
        // Value conservation at the tip: every coin in the UTXO set was
        // minted by a coinbase and nothing else, minus burned fees.
        if chain.utxo().total_value() != self.minted.saturating_sub(self.fees) {
            self.counts.value_violations += 1;
        }
    }

    fn connect(&mut self, block: &Block, height: u64) {
        let mut minted = 0u64;
        let mut fees = 0u64;
        let mut spends = Vec::new();
        for (i, tx) in block.transactions.iter().enumerate() {
            let out_sum: u64 = tx.outputs.iter().map(|o| o.value).sum();
            if i == 0 {
                minted += out_sum;
            } else {
                let in_sum: u64 = tx
                    .inputs
                    .iter()
                    .map(|inp| {
                        self.out_values
                            .get(&inp.prevout.txid)
                            .and_then(|v| v.get(inp.prevout.vout as usize))
                            .copied()
                            .unwrap_or(0)
                    })
                    .sum();
                fees += in_sum.saturating_sub(out_sum);
                for input in &tx.inputs {
                    if let Some(watched) = self.watched.get(&input.prevout).copied() {
                        // A second live settlement of the same escrow is
                        // the double-settlement violation, caught at the
                        // exact block where it lands.
                        if self.settled.contains_key(&input.prevout) {
                            self.counts.double_violations += 1;
                        }
                        let kind = if escrow::extract_key_from_claim(tx, &input.prevout).is_some() {
                            SettleKind::Claim
                        } else {
                            SettleKind::Refund
                        };
                        if kind == SettleKind::Claim {
                            *self.revenue.entry(watched.gateway).or_insert(0) += out_sum;
                        }
                        self.settled.insert(
                            input.prevout,
                            Settlement {
                                kind,
                                value: out_sum,
                            },
                        );
                        spends.push(input.prevout);
                    }
                }
            }
            self.out_values
                .insert(tx.txid(), tx.outputs.iter().map(|o| o.value).collect());
        }
        debug_assert_eq!(self.blocks.len() as u64, height);
        self.minted += minted;
        self.fees += fees;
        self.blocks.push(AuditedBlock {
            hash: block.hash(),
            minted,
            fees,
            spends,
        });
    }

    fn disconnect_top(&mut self) {
        let Some(block) = self.blocks.pop() else {
            return;
        };
        self.minted -= block.minted;
        self.fees -= block.fees;
        for outpoint in &block.spends {
            if let Some(settlement) = self.settled.remove(outpoint) {
                if settlement.kind == SettleKind::Claim {
                    if let Some(watched) = self.watched.get(outpoint) {
                        if let Some(rev) = self.revenue.get_mut(&watched.gateway) {
                            *rev = rev.saturating_sub(settlement.value);
                        }
                    }
                }
            }
        }
    }

    /// Settlement census over the audited prefix, recording nothing:
    /// `phases` lists `(exchange, phase)` for each exchange that
    /// published an escrow; `violations` is the running total plus
    /// the FSM↔chain mismatches this pass sees (mid-run an exchange may
    /// legitimately lag its chain, so only [`Self::final_audit`] keeps
    /// them).
    pub fn census(&self, phases: &[(usize, Phase)]) -> FinalAudit {
        // exchange → (claims, refunds) live on the main chain.
        let mut spends: HashMap<usize, (u32, u32)> = HashMap::new();
        for (outpoint, watched) in &self.watched {
            if let Some(settlement) = self.settled.get(outpoint) {
                let entry = spends.entry(watched.exchange).or_default();
                match settlement.kind {
                    SettleKind::Claim => entry.0 += 1,
                    SettleKind::Refund => entry.1 += 1,
                }
            }
        }
        let mut audit = FinalAudit {
            claimed: 0,
            refunded: 0,
            open: 0,
            violations: self.violations(),
        };
        for &(exchange, phase) in phases {
            let mismatch = match spends.get(&exchange).copied().unwrap_or((0, 0)) {
                (1, 0) => {
                    audit.claimed += 1;
                    phase != Phase::Claimed
                }
                (0, 1) => {
                    audit.refunded += 1;
                    phase != Phase::Refunded
                }
                _ => {
                    audit.open += 1;
                    phase != Phase::Escrowed // FSM settled, chain disagrees
                }
            };
            audit.violations += u64::from(mismatch);
        }
        audit
    }

    /// Final census: reconciles one last time, then takes the
    /// [`census`](Self::census) and keeps its FSM↔chain mismatches as
    /// violations.
    pub(crate) fn final_audit(&mut self, chain: &Chain, phases: &[(usize, Phase)]) -> FinalAudit {
        self.reconcile(chain);
        let audit = self.census(phases);
        self.counts.fsm_violations += audit.violations - self.violations();
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_chain::{Block, Chain, ChainParams, Transaction, TxOut, Wallet};
    use bcwan_sim::{Registry, SimRng, Snapshot};

    fn chain_with_wallet() -> (Chain, Wallet) {
        let params = ChainParams::fast_test();
        let mut rng = SimRng::seed_from_u64(7);
        let wallet = Wallet::generate(&mut rng);
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 5_000)]);
        (Chain::new(params, genesis), wallet)
    }

    fn mine(chain: &mut Chain, wallet: &Wallet) {
        let height = chain.height() + 1;
        let cb = Transaction::coinbase(
            height,
            b"audit-test",
            vec![TxOut {
                value: chain.params().coinbase_reward,
                script_pubkey: wallet.locking_script(),
            }],
        );
        let block = Block::mine(
            chain.tip(),
            height,
            chain.params().difficulty_bits,
            vec![cb],
        );
        chain.add_block(block).expect("block connects");
    }

    /// The auditor's rows as a fold exports them.
    fn snapshot(auditor: &SettlementAuditor) -> Snapshot {
        let mut reg = Registry::new();
        auditor.stats().export(&mut reg);
        reg.snapshot()
    }

    #[test]
    fn clean_chain_audits_without_violations() {
        let (mut chain, wallet) = chain_with_wallet();
        let mut auditor = SettlementAuditor::new();
        auditor.reconcile(&chain);
        mine(&mut chain, &wallet);
        mine(&mut chain, &wallet);
        auditor.reconcile(&chain);
        assert_eq!(auditor.violations(), 0);
        let snap = snapshot(&auditor);
        assert_eq!(snap.counter("audit.blocks_audited_total"), Some(3));
        assert_eq!(
            snap.counter("invariant.value_conservation_violations"),
            Some(0),
            "clean runs export explicit zeros"
        );
        assert_eq!(snap.counter("chaos.invariant.violation_total"), Some(0));
    }

    #[test]
    fn reorg_rolls_the_ledger_back_and_forward() {
        let (mut chain, wallet) = chain_with_wallet();
        let mut auditor = SettlementAuditor::new();
        mine(&mut chain, &wallet);
        auditor.reconcile(&chain);
        let fork_point = chain.tip();
        mine(&mut chain, &wallet);
        auditor.reconcile(&chain);
        let minted_before = auditor.minted;

        // A longer private branch (distinct coinbase times → distinct
        // hashes) reorganizes the audited tip away.
        let bits = chain.params().difficulty_bits;
        let reward = chain.params().coinbase_reward;
        let mut prev = fork_point;
        for (height, time_us) in [(2u64, 1_000_000), (3, 2_000_000), (4, 3_000_000)] {
            let cb = Transaction::coinbase(
                height,
                b"private-branch",
                vec![TxOut {
                    value: reward,
                    script_pubkey: wallet.locking_script(),
                }],
            );
            let block = Block::mine(prev, time_us, bits, vec![cb]);
            prev = block.hash();
            chain.add_block(block).expect("branch connects");
        }
        auditor.reconcile(&chain);
        assert_eq!(auditor.violations(), 0, "reorg balances the books");
        assert!(
            auditor.minted != minted_before,
            "ledger followed the reorg ({minted_before} → {})",
            auditor.minted
        );
        assert_eq!(
            auditor.blocks.len() as u64,
            chain.height() + 1,
            "audited prefix tracks the tip"
        );
    }

    #[test]
    fn hidden_inflation_is_caught_at_reconcile() {
        let (mut chain, wallet) = chain_with_wallet();
        let mut auditor = SettlementAuditor::new();
        mine(&mut chain, &wallet);
        auditor.reconcile(&chain);
        assert_eq!(auditor.violations(), 0);
        // Simulate corrupt accounting: the auditor's ledger says less
        // was minted than the chain's UTXO set actually holds.
        auditor.minted -= 1;
        mine(&mut chain, &wallet);
        auditor.reconcile(&chain);
        assert!(auditor.violations() > 0, "conservation break detected");
        let total = snapshot(&auditor).counter("chaos.invariant.violation_total");
        assert!(total.unwrap() > 0);
    }
}
