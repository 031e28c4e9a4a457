//! A node's keys are its own, and key ahead is invisible: a node draws
//! its session keys from its key stream alone ([`key_stream`]), so key
//! *k* is the *k*-th keypair of that stream whatever else the node does,
//! and its other draws — a verification stall per accepted block — do not
//! depend on how many keys it drew. Under any thread timing, a keypair
//! computed ahead on a helper is the one the inline keygen would draw.
//!
//! The timing is randomized (no wait, a yield, or a sleep long enough for
//! the helper) so that every way a claim can be served — adopted, waited
//! for, taken back from the queue — is taken, on any machine with a spare
//! core. A debug build draws a fifth of the keys and runs 40 armed drops;
//! `cargo test --release -p bcwan --test key_ahead` runs the full counts.

use bcwan::daemon::Daemon;
use bcwan::device::{Downlink, Uplink};
use bcwan::fleet::{BusFleet, Fleet};
use bcwan::keyahead::{key_stream, KeyAhead};
use bcwan::world::{ExperimentResult, WorkloadConfig, World};
use bcwan_chain::{Chain, StallModel};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPublicKey};
use bcwan_p2p::NodeId;
use bcwan_sim::{SimDuration, SimRng};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

const SIZE: RsaKeySize = RsaKeySize::Rsa512;
const SEED: u64 = 2018;

/// Three live nodes on an in-process bus; node 0 mines.
fn fleet() -> Fleet<BusFleet> {
    Fleet::new(BusFleet::new(3), 3, SEED)
}

/// Node `node` hears a key request for exchange `tag` and opens a session:
/// the key it sends down.
fn open_session(fleet: &mut Fleet<BusFleet>, node: usize, tag: u64) -> RsaPublicKey {
    match fleet.act(node, |n, now, env| {
        n.on_uplink(now, tag, Uplink::Request, env)
    }) {
        Some((_, Downlink::Key(e_pk))) => e_pk,
        other => panic!("a request brings a key down: {other:?}"),
    }
}

/// Node 0 mines `blocks` blocks, and every node accepts each.
fn mine(fleet: &mut Fleet<BusFleet>, blocks: usize) {
    for _ in 0..blocks {
        fleet.mine(0);
        while fleet.step() > 0 {}
    }
}

#[test]
fn a_nodes_kth_key_is_the_kth_keypair_of_its_stream() {
    let rounds = if cfg!(debug_assertions) { 12 } else { 60 };
    let mut fleet = fleet();
    let mut plain = [1, 2].map(|node| key_stream(SEED, NodeId(node)));
    let mut script = SimRng::seed_from_u64(0x6b65_7961_6865_6164);
    for tag in 0..rounds {
        // Either gateway, after any number of accepted blocks.
        let node = 1 + script.index(2);
        mine(&mut fleet, script.index(4));
        match script.index(3) {
            0 => {}
            1 => thread::yield_now(),
            _ => thread::sleep(Duration::from_millis(5)),
        }
        let got = open_session(&mut fleet, node, tag);
        let (want, _) = generate_keypair(&mut plain[node - 1], SIZE);
        assert_eq!(got, want, "exchange {tag} at node {node}");
    }
    assert!(
        fleet.nodes[1].node.height() > 0,
        "the gateways accepted blocks"
    );
}

/// The verification stalls node 1 suffers over eight blocks, one total
/// per block, after it drew `keys` session keys. Its daemon is swapped for
/// one over the same genesis that stalls on every block, so each accepted
/// block takes a draw from the node's RNG.
fn stalls_after(keys: u64) -> Vec<SimDuration> {
    let mut fleet = fleet();
    let node = &mut fleet.nodes[1].node;
    let genesis = node.daemon.chain.block_at(0).expect("genesis").clone();
    let mut params = node.daemon.chain.params().clone();
    params.stall = StallModel::multichain_observed();
    node.daemon = Daemon::new(Chain::new(params, genesis));
    for tag in 0..keys {
        open_session(&mut fleet, 1, tag);
    }
    (0..8)
        .map(|_| {
            mine(&mut fleet, 1);
            fleet.nodes[1].node.daemon.stats().total_stall
        })
        .collect()
}

#[test]
fn stall_draws_do_not_depend_on_how_many_keys_were_drawn() {
    let none = stalls_after(0);
    assert!(
        none.windows(2).all(|w| w[0] < w[1]),
        "every block stalls: {none:?}"
    );
    assert_eq!(stalls_after(50), none);
}

#[test]
fn armed_drops_leave_the_pool_serving() {
    // Two inline keygens arm a stream; an optimized build can afford
    // them a thousand times.
    let drops = if cfg!(debug_assertions) { 40 } else { 1_000 };
    for seed in 0..drops {
        let mut stream = KeyAhead::new(SimRng::seed_from_u64(seed));
        stream.keypair(SIZE);
        stream.keypair(SIZE);
        drop(stream);
    }

    let mut fresh = KeyAhead::new(SimRng::seed_from_u64(8));
    let mut plain = SimRng::seed_from_u64(8);
    for k in 0..4 {
        fresh.wait_ahead();
        let (got, _) = fresh.keypair(SIZE);
        assert_eq!(
            got,
            generate_keypair(&mut plain, SIZE).0,
            "fresh keypair {k}"
        );
    }
    if KeyAhead::helpers() > 0 {
        assert!(fresh.claims().adopted >= 2, "{:?}", fresh.claims());
    }
}

fn digest(result: &ExperimentResult) -> String {
    let latencies_us: Vec<u64> = result
        .latencies
        .samples()
        .iter()
        .map(|s| (s * 1e6).round() as u64)
        .collect();
    format!(
        "fp={} sim_us={} blocks={} completed={} lat_us={:?}",
        result.utxo_fingerprint,
        result.sim_time.as_micros(),
        result.blocks_mined,
        result.completed,
        latencies_us
    )
}

/// Two gateways with about 30 sessions each, so both keep a keypair
/// ahead for almost every exchange (the other goldens open one to three
/// per gateway). It must reproduce alone and with two copies competing
/// for the helpers.
#[test]
fn many_session_world_reproduces_across_threads() {
    let golden = format!(
        "fp=11407545848137729256 sim_us=992540861 blocks=63 completed=60 lat_us={:?}",
        [464_992u64; 60]
    );
    let run = || digest(&World::new(WorkloadConfig::tiny(60, 2018)).run());
    assert_eq!(run(), golden, "alone");
    let barrier = Barrier::new(2);
    let both: Vec<String> = thread::scope(|scope| {
        let copies: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    run()
                })
            })
            .collect();
        copies
            .into_iter()
            .map(|copy| copy.join().expect("world thread panicked"))
            .collect()
    });
    for (i, copy) in both.iter().enumerate() {
        assert_eq!(*copy, golden, "concurrent copy {i}");
    }
}
