//! Ablation A4 (§6): proof-of-work versus proof-of-stake block
//! production at the edge.
//!
//! "The Proof-of-Work is not suitable for edge nodes to run the
//! blockchain as this is a computational power based method of election.
//! Other methods such as Proof-of-stake do not rely on computational
//! power…" This harness compares the two on (a) hash evaluations burned
//! per block at increasing difficulty — the CPU a PoW edge node would
//! waste — and (b) fairness of reward distribution under PoS
//! stake-weighted election.
//!
//! Usage: `ablation_consensus [--json PATH]`.

use bcwan_bench::pos::ValidatorSet;
use bcwan_bench::{harness_args, BenchReport};
use bcwan_chain::{Address, Block, BlockHash, Transaction, TxOut};
use bcwan_script::Script;
use bcwan_sim::{Json, Registry};

struct PowRow {
    difficulty_bits: u32,
    blocks: u32,
    mean_hashes_per_block: f64,
    mean_mine_time_us: f64,
}

fn mine_cost(bits: u32, blocks: u32) -> PowRow {
    let mut total_nonce: u64 = 0;
    let t0 = std::time::Instant::now();
    for i in 0..blocks {
        let cb = Transaction::coinbase(
            u64::from(i),
            b"bench",
            vec![TxOut {
                value: 1,
                script_pubkey: Script::new(),
            }],
        );
        let block = Block::mine(BlockHash([i as u8; 32]), u64::from(i), bits, vec![cb]);
        total_nonce += block.header.nonce + 1; // nonce count ≈ hashes tried
    }
    let elapsed = t0.elapsed();
    PowRow {
        difficulty_bits: bits,
        blocks,
        mean_hashes_per_block: total_nonce as f64 / blocks as f64,
        mean_mine_time_us: elapsed.as_micros() as f64 / blocks as f64,
    }
}

fn main() {
    let json = harness_args().json;
    let mut registry = Registry::new();
    let blocks_counter = registry.counter("pow.blocks_mined_total");
    let hashes_counter = registry.counter("pow.hash_evaluations_total");
    let mine_hist = registry.histogram("pow.mine_seconds_per_block");

    println!("proof-of-work cost (hash evaluations are the edge node's wasted CPU):");
    println!("bits  blocks  hashes/block  µs/block (this machine)");
    let mut pow = Vec::new();
    for bits in [4u32, 8, 12, 16, 20] {
        let blocks = if bits >= 16 { 8 } else { 64 };
        let row = mine_cost(bits, blocks);
        println!(
            "{:>4}  {:>6}  {:>12.0}  {:>8.1}",
            row.difficulty_bits, row.blocks, row.mean_hashes_per_block, row.mean_mine_time_us
        );
        registry.add(blocks_counter, u64::from(row.blocks));
        registry.add(
            hashes_counter,
            (row.mean_hashes_per_block * f64::from(row.blocks)) as u64,
        );
        registry.observe(mine_hist, row.mean_mine_time_us * 1e-6);
        pow.push(
            Json::object()
                .with("difficulty_bits", Json::num(row.difficulty_bits))
                .with("blocks", Json::num(row.blocks))
                .with(
                    "mean_hashes_per_block",
                    Json::num(row.mean_hashes_per_block),
                )
                .with("mean_mine_time_us", Json::num(row.mean_mine_time_us)),
        );
    }

    println!();
    println!("proof-of-stake: zero hashing; election is a stake-weighted draw.");
    println!("validator  stake  expected  observed (10000 slots)");
    let stakes: Vec<(Address, u64)> = (0..5u8)
        .map(|i| (Address([i; 20]), u64::from(i) * 10 + 10))
        .collect();
    let total: u64 = stakes.iter().map(|(_, s)| s).sum();
    let set = ValidatorSet::new(stakes.clone()).expect("valid set");
    let mut pos = Vec::new();
    for (i, (addr, stake)) in stakes.iter().enumerate() {
        let expected = *stake as f64 / total as f64;
        let observed = set.leadership_share(addr, b"bcwan-consensus", 10_000);
        println!("{i:>9}  {stake:>5}  {expected:>8.3}  {observed:>8.3}");
        pos.push(
            Json::object()
                .with("validator", Json::size(i))
                .with("stake", Json::uint(*stake))
                .with("expected_share", Json::num(expected))
                .with("observed_share", Json::num(observed)),
        );
    }
    println!();
    println!("shape check: PoW cost grows ×2^4 per 4 difficulty bits (prohibitive on");
    println!("battery/edge hardware); PoS costs one hash per slot and allocates blocks");
    println!("stake-proportionally — the paper's §6 argument.");
    if let Some(path) = json {
        BenchReport::new("ablation_consensus")
            .config("pos_slots", Json::size(10_000))
            .rows(
                Json::object()
                    .with("pow", Json::Array(pow))
                    .with("pos", Json::Array(pos)),
            )
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
