//! The §6 double-spend attack and its confirmation-depth counter-measure.
//!
//! "If the recipient double spends the first transaction, the recipient
//! can retrieve the ephemeral private key necessary to decipher the
//! encrypted data without rewarding the foreign gateway."
//!
//! Two tools live here:
//!
//! - [`play_double_spend_mechanics`] drives the *real* chain, mempool and
//!   scripts through the attack once, proving each step's outcome
//!   (escrow admitted at the gateway, conflict admitted at the miner,
//!   escrow rejected there, claim orphaned, key nevertheless revealed);
//! - [`simulate_attack_rates`] Monte-Carlos the race between the
//!   conflicting transaction (recipient → miner, one hop) and the honest
//!   escrow relay (recipient → gateway → miner, two hops plus daemon
//!   work), and prices the defence: waiting `D` confirmations costs
//!   `≈ D` block intervals of latency (the §6 Bitcoin analogy:
//!   6 × 10 min = 60 min).

use bcwan::costs::CostModel;
use bcwan::escrow::{build_claim, build_escrow, extract_key_from_claim};
use bcwan_chain::{Chain, ChainParams, Mempool, OutPoint, TxOut, Wallet};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
use bcwan_sim::{LatencyModel, SimRng};

/// The verdict of one mechanics run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleSpendMechanics {
    /// The gateway's mempool accepted the (doomed) escrow.
    pub gateway_accepted_escrow: bool,
    /// The miner accepted the conflicting spend first.
    pub miner_accepted_conflict: bool,
    /// The miner then rejected the honest escrow as a conflict.
    pub miner_rejected_escrow: bool,
    /// The gateway's claim cannot enter the miner's pool (orphan).
    pub claim_orphaned_at_miner: bool,
    /// The recipient still extracted the ephemeral key from the claim
    /// broadcast — the theft.
    pub recipient_got_key: bool,
    /// After mining, the gateway holds no reward on chain.
    pub gateway_unpaid: bool,
}

impl DoubleSpendMechanics {
    /// Whether the §6 attack succeeded end to end.
    pub fn attack_succeeded(&self) -> bool {
        self.recipient_got_key && self.gateway_unpaid
    }
}

/// Plays the zero-confirmation double spend against the real substrate.
pub fn play_double_spend_mechanics(seed: u64) -> DoubleSpendMechanics {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let params = ChainParams::fast_test();
    let recipient = Wallet::generate(&mut rng);
    let gateway = Wallet::generate(&mut rng);
    let miner_wallet = Wallet::generate(&mut rng);

    // Shared bootstrap chain: recipient holds one coin.
    let genesis = Chain::make_genesis(&params, &[(recipient.address(), 1_000)]);
    let mut miner_chain = Chain::new(params.clone(), genesis.clone());
    let mut gateway_chain = Chain::new(params.clone(), genesis);
    // Mature the allocation.
    for h in 1..=params.coinbase_maturity {
        let cb = bcwan_chain::Transaction::coinbase(
            h,
            b"w",
            vec![TxOut {
                value: params.coinbase_reward,
                script_pubkey: miner_wallet.locking_script(),
            }],
        );
        let block =
            bcwan_chain::Block::mine(miner_chain.tip(), h, params.difficulty_bits, vec![cb]);
        miner_chain.add_block(block.clone()).expect("warmup");
        gateway_chain.add_block(block).expect("warmup");
    }
    let coin_outpoint = OutPoint {
        txid: miner_chain.block_at(0).unwrap().transactions[0].txid(),
        vout: 0,
    };
    let coin = (coin_outpoint, recipient.locking_script(), 1_000u64);

    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);

    // The recipient crafts both transactions.
    let escrow = build_escrow(
        &recipient,
        std::slice::from_ref(&coin),
        &e_pk,
        &gateway.address(),
        100,
        10,
        miner_chain.height(),
    );
    let conflict = recipient.build_payment(
        vec![(coin.0, coin.1.clone())],
        vec![TxOut {
            value: 990,
            script_pubkey: recipient.locking_script(),
        }],
        0,
    );

    let mut miner_pool = Mempool::new();
    let mut gateway_pool = Mempool::new();
    let height = miner_chain.height() + 1;

    // Conflict reaches the miner first (one hop); escrow goes to the
    // gateway directly.
    let miner_accepted_conflict = miner_pool
        .insert(conflict.clone(), miner_chain.utxo(), height, &params)
        .is_ok();
    let gateway_accepted_escrow = gateway_pool
        .insert(escrow.tx.clone(), gateway_chain.utxo(), height, &params)
        .is_ok();
    // Gateway relays the escrow to the miner — too late.
    let miner_rejected_escrow = miner_pool
        .insert(escrow.tx.clone(), miner_chain.utxo(), height, &params)
        .is_err();

    // Zero-conf gateway claims immediately, revealing eSk.
    let claim = build_claim(&gateway, escrow.outpoint(), &escrow.script, 100, &e_sk, 5);
    let claim_in_gateway_pool = gateway_pool
        .insert(claim.clone(), gateway_chain.utxo(), height, &params)
        .is_ok();
    debug_assert!(claim_in_gateway_pool);
    // The claim floods; the recipient reads the key out of it.
    let recipient_key = extract_key_from_claim(&claim, &escrow.outpoint());
    let recipient_got_key = recipient_key
        .map(|k| e_pk.matches_private(&k))
        .unwrap_or(false);
    // At the miner the claim is an orphan (its escrow parent was refused).
    let claim_orphaned_at_miner = miner_pool
        .insert(claim, miner_chain.utxo(), height, &params)
        .is_err();

    // The miner mines its pool; the gateway's reward never materializes.
    let template = miner_pool.block_template(params.max_block_size);
    let cb = bcwan_chain::Transaction::coinbase(
        height,
        b"m",
        vec![TxOut {
            value: params.coinbase_reward,
            script_pubkey: miner_wallet.locking_script(),
        }],
    );
    let mut txs = vec![cb];
    txs.extend(template);
    let block = bcwan_chain::Block::mine(miner_chain.tip(), height, params.difficulty_bits, txs);
    miner_chain.add_block(block.clone()).expect("valid block");
    gateway_chain.add_block(block).expect("gateway follows");

    let gateway_script = gateway.locking_script();
    let gateway_unpaid = gateway_chain
        .utxo()
        .find(|e| e.output.script_pubkey == gateway_script)
        .count()
        == 0;

    DoubleSpendMechanics {
        gateway_accepted_escrow,
        miner_accepted_conflict,
        miner_rejected_escrow,
        claim_orphaned_at_miner,
        recipient_got_key,
        gateway_unpaid,
    }
}

/// Configuration for the Monte-Carlo race model.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// WAN latency model between hosts.
    pub latency: LatencyModel,
    /// Daemon processing before the gateway relays the escrow.
    pub costs: CostModel,
    /// Mean block interval of the chain.
    pub block_interval_s: f64,
    /// Confirmations the gateway demands before revealing the key.
    pub confirmation_depth: u64,
}

/// Monte-Carlo outcome for one confirmation depth.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Confirmations demanded.
    pub confirmation_depth: u64,
    /// Fraction of trials where the recipient stole the key.
    pub theft_rate: f64,
    /// Mean extra latency an *honest* exchange pays for this depth (s).
    pub honest_extra_latency_s: f64,
}

/// Runs `trials` double-spend races at the given depth.
///
/// Depth 0: theft succeeds whenever the conflicting transaction beats the
/// two-hop escrow relay to the miner (the gateway has already revealed).
/// Depth ≥ 1: the gateway reveals only after the escrow confirms, which a
/// successful conflict prevents entirely — theft requires losing the race
/// *and* is then impossible; honest latency grows by the confirmation
/// wait.
pub fn simulate_attack_rates(cfg: &AttackConfig, trials: usize, rng: &mut SimRng) -> AttackOutcome {
    let mut thefts = 0usize;
    let mut honest_latency = 0.0f64;
    for _ in 0..trials {
        // Race to the miner.
        let conflict_arrival = cfg.latency.sample(rng).as_secs_f64();
        let escrow_arrival = cfg.latency.sample(rng).as_secs_f64()
            + cfg.costs.tx_validate.as_secs_f64()
            + cfg.latency.sample(rng).as_secs_f64();
        let conflict_wins = conflict_arrival < escrow_arrival;

        if cfg.confirmation_depth == 0 {
            // Gateway revealed on first sight; theft iff the conflict
            // confirms instead of the escrow.
            if conflict_wins {
                thefts += 1;
            }
            // Honest baseline has no added wait.
        } else {
            // The gateway waits for confirmations; if the conflict won,
            // the escrow never confirms and no key is revealed (theft
            // fails; the exchange aborts). If the escrow won, the
            // confirmation wait applies.
            let mut wait = 0.0;
            for _ in 0..cfg.confirmation_depth {
                wait += rng.exponential(cfg.block_interval_s);
            }
            honest_latency += wait;
        }
    }
    AttackOutcome {
        confirmation_depth: cfg.confirmation_depth,
        theft_rate: thefts as f64 / trials as f64,
        honest_extra_latency_s: honest_latency / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanics_reproduce_the_paper_scenario() {
        let outcome = play_double_spend_mechanics(1);
        assert!(outcome.gateway_accepted_escrow);
        assert!(outcome.miner_accepted_conflict);
        assert!(outcome.miner_rejected_escrow);
        assert!(outcome.claim_orphaned_at_miner);
        assert!(outcome.recipient_got_key, "the thief obtains eSk");
        assert!(outcome.gateway_unpaid, "the gateway's reward evaporates");
        assert!(outcome.attack_succeeded());
    }

    #[test]
    fn mechanics_deterministic() {
        assert_eq!(
            play_double_spend_mechanics(7),
            play_double_spend_mechanics(7)
        );
    }

    #[test]
    fn zero_conf_theft_rate_is_high() {
        let cfg = AttackConfig {
            latency: LatencyModel::planetlab(),
            costs: CostModel::pi_class(),
            block_interval_s: 15.0,
            confirmation_depth: 0,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let out = simulate_attack_rates(&cfg, 5000, &mut rng);
        assert!(out.theft_rate > 0.8, "theft rate {}", out.theft_rate);
        assert_eq!(out.honest_extra_latency_s, 0.0);
    }

    #[test]
    fn one_confirmation_stops_theft_but_costs_a_block() {
        let cfg = AttackConfig {
            latency: LatencyModel::planetlab(),
            costs: CostModel::pi_class(),
            block_interval_s: 15.0,
            confirmation_depth: 1,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let out = simulate_attack_rates(&cfg, 5000, &mut rng);
        assert_eq!(out.theft_rate, 0.0);
        assert!(
            (10.0..20.0).contains(&out.honest_extra_latency_s),
            "≈ one 15 s block, got {}",
            out.honest_extra_latency_s
        );
    }

    #[test]
    fn latency_grows_linearly_with_depth() {
        let mut rng = SimRng::seed_from_u64(3);
        let at = |d: u64, rng: &mut SimRng| {
            simulate_attack_rates(
                &AttackConfig {
                    latency: LatencyModel::planetlab(),
                    costs: CostModel::pi_class(),
                    block_interval_s: 15.0,
                    confirmation_depth: d,
                },
                4000,
                rng,
            )
            .honest_extra_latency_s
        };
        let one = at(1, &mut rng);
        let six = at(6, &mut rng);
        // The paper's Bitcoin analogy: 6 confirmations ≈ 6× one.
        assert!((5.0..7.0).contains(&(six / one)), "ratio {}", six / one);
    }
}
