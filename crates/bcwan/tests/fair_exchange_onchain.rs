//! On-chain fair-exchange settlement, end to end on a real [`Chain`].
//!
//! The paper's §6 escrow has two spend paths: the gateway's key-reveal
//! claim, and the recipient's `OP_CHECKLOCKTIMEVERIFY` refund once the
//! lock height passes. This test drives the refund branch with actual
//! blocks — no simulator, no mempool shortcuts: the gateway never
//! claims, a premature refund is rejected by consensus, the refund
//! confirms once the locktime passes, and a late claim of the now-spent
//! escrow is rejected. The recipient ends the run with every satoshi it
//! started with (fees are zero throughout).

use bcwan::escrow;
use bcwan_chain::{
    validate_transaction, Block, BlockAction, Chain, ChainParams, OutPoint, SigCache, Transaction,
    TxOut, UtxoSet, Wallet,
};
use bcwan_crypto::{generate_keypair, RsaKeySize};
use bcwan_script::Script;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mines a block of `txs` (after a fee-burning coinbase) on `parent`.
fn mine_on(
    chain: &Chain,
    parent: bcwan_chain::BlockHash,
    height: u64,
    txs: Vec<Transaction>,
) -> Block {
    let mut transactions = vec![Transaction::coinbase(
        height,
        &height.to_le_bytes(),
        vec![TxOut {
            value: chain.params().coinbase_reward,
            script_pubkey: Script::new(),
        }],
    )];
    transactions.extend(txs);
    Block::mine(parent, height, chain.params().difficulty_bits, transactions)
}

/// Sum of UTXO value locked to `wallet`'s address.
fn wallet_balance(utxo: &UtxoSet, wallet: &Wallet) -> u64 {
    let script = wallet.locking_script();
    utxo.iter()
        .filter(|(_, e)| e.output.script_pubkey == script)
        .map(|(_, e)| e.output.value)
        .sum()
}

#[test]
fn unclaimed_escrow_refunds_after_locktime_and_rejects_late_claim() {
    let mut rng = StdRng::seed_from_u64(42);
    let recipient = Wallet::generate(&mut rng);
    let gateway = Wallet::generate(&mut rng);
    let (e_pk, e_sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);

    const FUND: u64 = 100_000;
    const REWARD: u64 = 60_000;

    let params = ChainParams::fast_test();
    let maturity = params.coinbase_maturity;
    let genesis = Chain::make_genesis(&params, &[(recipient.address(), FUND)]);
    let funding = OutPoint {
        txid: genesis.transactions[0].txid(),
        vout: 0,
    };
    let mut chain = Chain::new(params, genesis);

    // Mine the genesis allocation to maturity before spending it.
    for h in 1..=maturity {
        let b = mine_on(&chain, chain.tip(), h, vec![]);
        assert_eq!(chain.add_block(b).unwrap(), BlockAction::Extended(h));
    }

    // The escrow confirms in the next block; its CLTV branch opens four
    // blocks later.
    let escrow_height = maturity + 1;
    let escrow = escrow::build_escrow_with_delta(
        &recipient,
        &[(funding, recipient.locking_script(), FUND)],
        &e_pk,
        &gateway.address(),
        REWARD,
        0,
        escrow_height,
        4,
    );
    let b = mine_on(&chain, chain.tip(), escrow_height, vec![escrow.tx.clone()]);
    assert_eq!(
        chain.add_block(b).unwrap(),
        BlockAction::Extended(escrow_height)
    );
    assert_eq!(
        wallet_balance(chain.utxo(), &recipient),
        FUND - REWARD,
        "only the change output is the recipient's while escrowed"
    );

    // The gateway never claims. A refund before the lock height must be
    // rejected, both as a lone transaction and inside a block.
    let refund = escrow::build_refund(&recipient, &escrow, REWARD, 0);
    let early_height = chain.height() + 1;
    assert!(early_height < escrow.refund_height, "still inside the lock");
    assert!(
        validate_transaction(
            &refund.clone().into(),
            chain.utxo(),
            early_height,
            chain.params(),
            &SigCache::default()
        )
        .is_err(),
        "CLTV refund invalid before the lock height"
    );
    let premature = mine_on(&chain, chain.tip(), early_height, vec![refund.clone()]);
    assert!(
        chain.add_block(premature).is_err(),
        "consensus rejects a block confirming a premature refund"
    );
    assert_eq!(
        chain.height(),
        escrow_height,
        "rejected block changed nothing"
    );

    // Let the lock height pass with empty blocks…
    for h in chain.height() + 1..escrow.refund_height {
        let b = mine_on(&chain, chain.tip(), h, vec![]);
        assert_eq!(chain.add_block(b).unwrap(), BlockAction::Extended(h));
    }

    // …after which the same refund transaction confirms.
    assert!(validate_transaction(
        &refund.clone().into(),
        chain.utxo(),
        escrow.refund_height,
        chain.params(),
        &SigCache::default()
    )
    .is_ok());
    let b = mine_on(
        &chain,
        chain.tip(),
        escrow.refund_height,
        vec![refund.clone()],
    );
    assert_eq!(
        chain.add_block(b).unwrap(),
        BlockAction::Extended(escrow.refund_height)
    );

    // A late claim spends an outpoint that no longer exists: rejected as
    // a transaction and as a block.
    let claim = escrow::build_claim(
        &gateway,
        escrow.outpoint(),
        &escrow.script,
        REWARD,
        &e_sk,
        0,
    );
    let late_height = chain.height() + 1;
    assert!(
        validate_transaction(
            &claim.clone().into(),
            chain.utxo(),
            late_height,
            chain.params(),
            &SigCache::default()
        )
        .is_err(),
        "escrow outpoint already spent by the refund"
    );
    let late = mine_on(&chain, chain.tip(), late_height, vec![claim]);
    assert!(chain.add_block(late).is_err(), "late claim block rejected");

    // The recipient is whole again, and the gateway earned nothing.
    assert_eq!(wallet_balance(chain.utxo(), &recipient), FUND);
    assert_eq!(wallet_balance(chain.utxo(), &gateway), 0);
}
