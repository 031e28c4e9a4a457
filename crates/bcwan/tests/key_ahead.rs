//! A node's keys are its own, and key ahead is invisible: a node draws
//! its session keys from its key stream alone ([`key_stream`]), so key
//! *k* is the *k*-th keypair of that stream whatever else the node does,
//! and its other draws — a verification stall per accepted block — do not
//! depend on how many keys it drew. Under any thread timing, a keypair
//! computed ahead on a helper is the one the inline keygen would draw.
//!
//! The timing is randomized (no wait, a yield, or a sleep long enough for
//! the helper) so that every way a claim can be served — adopted, waited
//! for, taken back from the queue, adopted from a key chained two deep —
//! is taken, on any machine with a spare core. A debug build draws a
//! fifth of the keys and runs 40 armed drops; `cargo test --release -p
//! bcwan --test key_ahead` runs the full counts. The job state machine
//! itself (chaining, promotion, cancelling a chain) is pinned exactly by
//! the unit tests in `keyahead.rs`.

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

/// Draws the next keypair of `keys` and checks it against the plain
/// stream.
fn next_matches(keys: &mut KeyAhead, plain: &mut SimRng, size: RsaKeySize, what: &str) {
    let (got, _) = keys.keypair(size);
    assert_eq!(got, generate_keypair(plain, size).0, "{what}");
}

/// With both keys ahead run, two claims in a row adopt them — the second
/// is the key a helper chained after the first, from that keygen's
/// output — and each is the stream's next keypair.
#[test]
fn chained_keys_are_adopted_in_stream_order() {
    let pairs = if cfg!(debug_assertions) { 4 } else { 20 };
    let mut keys = KeyAhead::new(SimRng::seed_from_u64(21));
    let mut plain = SimRng::seed_from_u64(21);
    for k in 0..2 {
        next_matches(&mut keys, &mut plain, SIZE, &format!("inline keypair {k}"));
    }
    for pair in 0..pairs {
        keys.wait_ahead();
        let before = keys.claims();
        next_matches(&mut keys, &mut plain, SIZE, &format!("pair {pair}, next"));
        next_matches(
            &mut keys,
            &mut plain,
            SIZE,
            &format!("pair {pair}, chained"),
        );
        if KeyAhead::helpers() > 0 {
            let after = keys.claims();
            assert_eq!(after.adopted, before.adopted + 2, "pair {pair}: {after:?}");
            assert_eq!(
                (after.waited, after.taken_back),
                (before.waited, before.taken_back),
                "pair {pair}: both were ready"
            );
        }
    }
}

/// Asking for another key size discards both keys run ahead at the old
/// one: the new size's keys come from the stream state the last claimed
/// key left, and once run ahead at the new size they are adopted again.
#[test]
fn a_size_change_cancels_the_chained_key() {
    let mut keys = KeyAhead::new(SimRng::seed_from_u64(33));
    let mut plain = SimRng::seed_from_u64(33);
    let big = RsaKeySize::Rsa1024;
    for (k, size) in [SIZE, SIZE, big, big, big, SIZE, SIZE, SIZE]
        .into_iter()
        .enumerate()
    {
        keys.wait_ahead();
        let before = keys.claims();
        next_matches(
            &mut keys,
            &mut plain,
            size,
            &format!("keypair {k} at {size:?}"),
        );
        if KeyAhead::helpers() > 0 {
            // The stream arms after its second keygen, and keypairs 2
            // and 5 change size: those four run inline.
            let adopted = ![0, 1, 2, 5].contains(&k);
            assert_eq!(
                keys.claims().adopted,
                before.adopted + u64::from(adopted),
                "keypair {k}"
            );
        }
    }
}

/// Nodes dropped at every stage of a chain — just armed, both keys run,
/// just after adopting one — leave nothing running for them that delays
/// a fresh node, whose chain is adopted in stream order.
#[test]
fn dropped_chains_leave_the_pool_serving() {
    let drops = if cfg!(debug_assertions) { 12 } else { 300 };
    for seed in 0..drops {
        let mut keys = KeyAhead::new(SimRng::seed_from_u64(seed));
        keys.keypair(SIZE);
        keys.keypair(SIZE);
        if seed % 3 > 0 {
            keys.wait_ahead();
        }
        if seed % 3 == 2 {
            keys.keypair(SIZE);
        }
        drop(keys);
    }

    let mut fresh = KeyAhead::new(SimRng::seed_from_u64(9));
    let mut plain = SimRng::seed_from_u64(9);
    for k in 0..6 {
        if k % 2 == 0 {
            fresh.wait_ahead();
        }
        next_matches(&mut fresh, &mut plain, SIZE, &format!("fresh keypair {k}"));
    }
    if KeyAhead::helpers() > 0 {
        assert_eq!(fresh.claims().adopted, 4, "{:?}", fresh.claims());
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
