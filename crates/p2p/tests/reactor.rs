//! The TCP runtime waits on readiness, not on a clock: what that promises
//! at the sockets, on loopback. Every wait here is bounded, so a thread
//! that sleeps through its wake fails a test instead of wedging the
//! suite — and shows as one stall of the runtime's poll cap (250 ms),
//! which is what the 100 ms bounds below are set under.

use bcwan_p2p::transport::frame::encode_frame;
use bcwan_p2p::transport::{
    Codec, CodecError, FrameKey, TcpConfig, TcpHost, TcpRuntime, TransportStats,
};
use bcwan_p2p::{Inbox, NodeId};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Toy codec: a `u32`, little-endian, behind a tag byte.
struct U32Codec;

impl Codec<u32> for U32Codec {
    fn encode(&self, msg: &u32) -> Vec<u8> {
        let mut out = vec![0xaa];
        out.extend_from_slice(&msg.to_le_bytes());
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<u32, CodecError> {
        match bytes {
            [0xaa, rest @ ..] => rest
                .try_into()
                .map(u32::from_le_bytes)
                .map_err(|_| CodecError::new("want four bytes after the tag")),
            _ => Err(CodecError::new("want the tag byte")),
        }
    }
}

type Host = TcpHost<u32, U32Codec>;

/// How long anything that should happen "at once" may take.
const PROMPT: Duration = Duration::from_millis(100);

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn config(read_timeout: Duration) -> TcpConfig {
    TcpConfig {
        read_timeout: Some(read_timeout),
        ..TcpConfig::fast_test()
    }
}

fn bind_on(runtime: &TcpRuntime<u32, U32Codec>, node: u32, cfg: TcpConfig) -> (Host, Inbox<u32>) {
    TcpHost::bind_with_runtime(runtime, loopback(), NodeId(node), U32Codec, cfg).expect("bind")
}

fn bind(node: u32, cfg: TcpConfig) -> (Host, Inbox<u32>) {
    TcpHost::bind(loopback(), NodeId(node), U32Codec, cfg).expect("bind")
}

/// A valid frame carrying `msg`, as a peer outside any `TcpHost` writes it.
fn raw_frame(msg: u32) -> Vec<u8> {
    encode_frame(&FrameKey::dev(), 9, 0, &U32Codec.encode(&msg))
}

/// Polls `cond` every millisecond for at most `within`; how long it took.
fn eventually(within: Duration, mut cond: impl FnMut() -> bool) -> Option<Duration> {
    let started = Instant::now();
    while !cond() {
        if started.elapsed() > within {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(started.elapsed())
}

#[test]
fn round_trips_take_no_ticks_and_no_wake_is_lost() {
    let runtime = TcpRuntime::new(1).expect("runtime");
    let (alice, alice_inbox) = bind_on(&runtime, 1, TcpConfig::fast_test());
    let (bob, bob_inbox) = bind_on(&runtime, 2, TcpConfig::fast_test());
    let mut ping_pong = |i: u32| {
        let started = Instant::now();
        alice.send(bob.local_addr(), &i).expect("ping");
        assert_eq!(
            bob_inbox.recv_timeout(PROMPT * 10).expect("ping lands").msg,
            i
        );
        bob.send(alice.local_addr(), &i).expect("pong");
        assert_eq!(
            alice_inbox
                .recv_timeout(PROMPT * 10)
                .expect("pong lands")
                .msg,
            i
        );
        started.elapsed()
    };
    ping_pong(0); // dials both directions
    let mut trips: Vec<Duration> = (1..=200).map(&mut ping_pong).collect();
    trips.sort();
    let (median, max) = (trips[trips.len() / 2], trips[trips.len() - 1]);
    // Two hops on 1 ms idle ticks cannot go under 2 ms; readiness does
    // it in a tenth of one. And a wake that went missing anywhere — the
    // hand-off, the worker, the inbox — would be one trip of a poll cap.
    assert!(median < Duration::from_millis(1), "median {median:?}");
    assert!(max < PROMPT, "slowest {max:?}");
    alice.shutdown();
    bob.shutdown();
}

#[test]
fn idle_connection_is_reaped_at_its_deadline_while_the_worker_blocks() {
    const DEADLINE: Duration = Duration::from_millis(100);
    let (alice, _alice_inbox) = bind(1, TcpConfig::fast_test());
    let (bob, bob_inbox) = bind(2, config(DEADLINE));
    let sent = Instant::now();
    alice.send(bob.local_addr(), &7).expect("send");
    bob_inbox.recv_timeout(PROMPT * 10).expect("delivered");
    let rejected = TransportStats::get(&bob.stats().frames_rejected);
    // Nothing else happens on bob's runtime: only the deadline itself
    // can end its worker's wait.
    eventually(DEADLINE * 5, || {
        TransportStats::get(&bob.stats().timeouts) == 1
    })
    .expect("the quiet connection was reaped");
    let took = sent.elapsed();
    assert!(took >= DEADLINE, "reaped early, after {took:?}");
    assert!(took <= DEADLINE * 7 / 2, "reaped late, after {took:?}");
    assert_eq!(
        TransportStats::get(&bob.stats().frames_rejected),
        rejected + 1
    );
    alice.shutdown();
    bob.shutdown();
}

#[test]
fn a_host_bound_on_a_blocked_runtime_is_served_at_once() {
    let runtime = TcpRuntime::new(1).expect("runtime");
    // Long enough for the poller and the worker to be fast asleep.
    std::thread::sleep(Duration::from_millis(50));
    let (bob, bob_inbox) = bind_on(&runtime, 2, TcpConfig::fast_test());
    let mut peer = TcpStream::connect(bob.local_addr()).expect("connect");
    peer.write_all(&raw_frame(5)).expect("write");
    let env = bob_inbox
        .recv_timeout(PROMPT)
        .expect("registering the listener woke the poller");
    assert_eq!(env.msg, 5);
    bob.shutdown();
}

#[test]
fn shutdown_and_drop_close_the_listener_at_once() {
    let refused = |addr: SocketAddr| eventually(PROMPT, || TcpStream::connect(addr).is_err());

    let (host, _inbox) = bind(1, TcpConfig::fast_test());
    host.shutdown();
    assert!(
        refused(host.local_addr()).is_some(),
        "shutdown woke the poller"
    );

    let (host, _inbox) = bind(2, TcpConfig::fast_test());
    let addr = host.local_addr();
    drop(host);
    assert!(refused(addr).is_some(), "the last drop woke the poller");
}

#[test]
fn a_peer_that_dies_mid_frame_costs_one_rejection_and_nothing_else() {
    let (bob, bob_inbox) = bind(2, TcpConfig::fast_test());
    let frame = raw_frame(5);
    let mut dying = TcpStream::connect(bob.local_addr()).expect("connect");
    dying.write_all(&frame[..frame.len() / 2]).expect("write");
    dying.shutdown(Shutdown::Both).expect("hard close");
    eventually(PROMPT * 10, || {
        TransportStats::get(&bob.stats().frames_rejected) == 1
    })
    .expect("the torn frame was counted");

    // The worker went back to blocking, and still wakes for the next peer.
    let mut peer = TcpStream::connect(bob.local_addr()).expect("connect");
    peer.write_all(&frame).expect("write");
    let env = bob_inbox.recv_timeout(PROMPT * 10).expect("delivered");
    assert_eq!(env.msg, 5);
    assert_eq!(TransportStats::get(&bob.stats().frames_rejected), 1);
    bob.shutdown();
}

/// The pool's side of a reaped connection: the sender's pooled stream
/// is half-closed, and a write into it succeeds and goes nowhere.
#[test]
fn a_pooled_connection_the_peer_reaped_is_dialled_again() {
    let (alice, _alice_inbox) = bind(1, TcpConfig::fast_test());
    let (bob, bob_inbox) = bind(2, config(Duration::from_millis(100)));
    alice.send(bob.local_addr(), &1).expect("send");
    assert_eq!(bob_inbox.recv_timeout(PROMPT * 10).expect("first").msg, 1);
    eventually(PROMPT * 10, || {
        TransportStats::get(&bob.stats().timeouts) >= 1
    })
    .expect("bob reaped the quiet connection");
    // Counted an instant before the socket is closed; let the FIN out.
    std::thread::sleep(Duration::from_millis(5));

    alice.send(bob.local_addr(), &2).expect("send");
    assert_eq!(
        bob_inbox
            .recv_timeout(PROMPT * 10)
            .expect("the second message is not lost")
            .msg,
        2
    );
    assert_eq!(TransportStats::get(&alice.stats().dials), 2);
    assert_eq!(TransportStats::get(&alice.stats().pool_hits), 0);
    alice.shutdown();
    bob.shutdown();
}
