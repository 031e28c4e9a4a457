//! Key ahead is invisible: a node's RNG behind [`KeyAhead`] draws exactly
//! what a plain [`SimRng`] doing the same operations inline draws, under
//! any thread timing — every keypair, every fork, the state left after.
//!
//! The timing is randomized (no wait, a yield, or a wait for the helper)
//! so that every way a claim can be served — adopted, waited for, taken
//! back from the queue — is taken, on any machine with a spare core.
//! A debug build runs a tenth of the operations and 40 armed drops;
//! `cargo test --release -p bcwan --test key_ahead` runs the full counts.

use bcwan::keyahead::{Claims, KeyAhead};
use bcwan::world::{ExperimentResult, WorkloadConfig, World};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};
use bcwan_sim::SimRng;
use rand::RngCore;
use std::sync::Barrier;
use std::thread;

const SIZE: RsaKeySize = RsaKeySize::Rsa512;

/// One stream two ways: behind [`KeyAhead`], and plain.
struct Stream {
    ahead: KeyAhead,
    plain: SimRng,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            ahead: KeyAhead::new(SimRng::seed_from_u64(seed)),
            plain: SimRng::seed_from_u64(seed),
        }
    }

    fn keypair(&mut self, at: &str) {
        let (pk, sk) = self.ahead.keypair(SIZE);
        let (want_pk, want_sk) = generate_keypair(&mut self.plain, SIZE);
        assert_eq!(pk.to_bytes(), want_pk.to_bytes(), "{at}: public key");
        assert_eq!(sk.to_bytes(), want_sk.to_bytes(), "{at}: private key");
    }

    /// A fork of both; equal children also mean equal parents, since a
    /// fork is one draw.
    fn fork(&mut self, label: u64, at: &str) {
        let got = self.ahead.fork(label).next_u64();
        assert_eq!(got, self.plain.fork(label).next_u64(), "{at}: fork {label}");
    }
}

fn add(total: &mut Claims, c: Claims) {
    total.adopted += c.adopted;
    total.waited += c.waited;
    total.taken_back += c.taken_back;
}

#[test]
fn interleavings_draw_what_the_inline_rng_draws() {
    let ops = if cfg!(debug_assertions) { 160 } else { 1_600 };
    let mut script = SimRng::seed_from_u64(0x6b65_7961_6865_6164);
    let mut next_seed = 0..;
    let mut streams: Vec<Stream> = (0..4)
        .map(|_| Stream::new(next_seed.next().expect("unbounded")))
        .collect();
    let mut total = Claims::default();
    for step in 0..ops {
        let i = script.index(streams.len());
        let at = format!("step {step}, stream {i}");
        match script.index(10) {
            0..=5 => streams[i].keypair(&at),
            6..=8 => streams[i].fork(script.next_u64(), &at),
            _ => {
                let fresh = Stream::new(next_seed.next().expect("unbounded"));
                let dropped = std::mem::replace(&mut streams[i], fresh);
                add(&mut total, dropped.ahead.claims());
            }
        }
        match script.index(3) {
            0 => {}
            1 => thread::yield_now(),
            _ => streams[script.index(streams.len())].ahead.wait_ahead(),
        }
    }
    for (i, mut stream) in streams.into_iter().enumerate() {
        stream.fork(0, &format!("end, stream {i}"));
        add(&mut total, stream.ahead.claims());
    }
    if KeyAhead::helpers() > 0 {
        assert!(total.adopted > 0, "{total:?}");
        assert!(total.waited > 0, "{total:?}");
        assert!(total.taken_back > 0, "{total:?}");
    }
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
    // And a thousand re-arms: every fork cancels the job and queues one.
    let mut stream = Stream::new(7);
    stream.keypair("prime 1");
    stream.keypair("prime 2");
    for label in 0..1_000 {
        stream.fork(label, "re-arm");
    }
    drop(stream);

    let mut fresh = Stream::new(8);
    for k in 0..4 {
        fresh.ahead.wait_ahead();
        fresh.keypair(&format!("fresh keypair {k}"));
    }
    if KeyAhead::helpers() > 0 {
        assert!(
            fresh.ahead.claims().adopted >= 2,
            "{:?}",
            fresh.ahead.claims()
        );
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
/// per gateway). Recorded before keys were generated ahead; it must
/// reproduce alone and with two copies competing for the helpers.
#[test]
fn many_session_world_reproduces_across_threads() {
    let golden = format!(
        "fp=12725717858446455502 sim_us=992540861 blocks=63 completed=60 lat_us={:?}",
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
