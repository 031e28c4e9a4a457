//! `live_tcp`: the only workload through real sockets — the frame codec
//! and TCP runtime of `p2p::transport`, and `bcwan`'s wire codec, net and
//! fleet. Four sections per repetition, all on loopback, one client, one
//! connection per direction, closed loop (link rate is not claimed):
//!
//! (a) Fig. 3 exchanges with partition recovery, each on a fresh
//!     five-host TCP fleet — the paper's headline latency, live;
//! (b) ping-pongs of one `Tx` message between two hosts — round trip,
//!     where the runtime's 1 ms idle ticks show;
//! (c) a windowed stream of the smallest frames (one `Tx`, ~230 B) —
//!     per-frame cost;
//! (d) a windowed stream of the largest (a 400-transaction `Block`,
//!     ~90 KiB) — HMAC, CRC and codec bytes per second.

use crate::harness::{measure, timed, Ctx, Outcome};
use crate::layers::{self, bcwan, chain, p2p};
use crate::stats::{median, tail};
use crate::{alloc, deadline, micro, trace};
use std::time::{Duration, Instant};

/// Frames in flight before the sender waits for a delivery.
const SMALL_WINDOW: usize = 64;
const BLOCK_WINDOW: usize = 8;
/// How long one delivery may take before the section counts it lost.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(5);

struct Sizes {
    exchanges: usize,
    pingpongs: usize,
    small_frames: usize,
    block_frames: usize,
}

#[derive(Default)]
struct Rep {
    fleet_setup_s: Vec<f64>,
    exchange_s: Vec<f64>,
    rtt_s: Vec<f64>,
    dial_s: f64,
    small_stream_s: f64,
    block_stream_s: f64,
    small_allocs: alloc::Counts,
    exchanges_failed: u64,
    sends_failed: u64,
    frames_lost: u64,
    fleet_frames: u64,
    sync_batches: u64,
    inbox_depth_max: u64,
    counters: p2p::Counters,
    bad_mac_counted: bool,
}

/// Streams `count` copies of `msg` from `a` to `b`, at most `window`
/// undelivered at a time. Returns `(sends refused, frames never seen)`.
fn stream(
    name: &'static str,
    a: &p2p::Endpoint,
    b: &p2p::Endpoint,
    msg: &bcwan::WanMessage,
    count: usize,
    window: usize,
    depth_max: &mut u64,
) -> (u64, u64) {
    let (mut sent, mut received, mut refused) = (0usize, 0usize, 0u64);
    while received + (refused as usize) < count {
        if sent < count && sent - received - (refused as usize) < window {
            if !p2p::send(name, &a.host, b.addr, msg) {
                refused += 1;
            }
            sent += 1;
            continue;
        }
        *depth_max = (*depth_max).max(p2p::inbox_depth(&b.inbox));
        if p2p::recv(&b.inbox, DELIVERY_TIMEOUT).is_none() {
            break;
        }
        received += 1;
    }
    (refused, (count - received) as u64 - refused)
}

/// The two messages every section sends, built from the seed: one
/// pre-signed spend is the smallest frame, a mined block of 400 the largest.
fn messages(seed: u64) -> (bcwan::WanMessage, bcwan::WanMessage) {
    let inputs = chain::inputs(&mut layers::input_rng(seed, 0x7c9), 1, 400);
    let state = chain::new_chain(&inputs);
    let mut pool = chain::new_pool(&state);
    for tx in &inputs.batches[0] {
        assert!(
            chain::admit(&mut pool, tx, &state),
            "pre-signed spend admitted"
        );
    }
    (
        bcwan::tx_message(&inputs.batches[0][0]),
        bcwan::block_message(&chain::template_and_mine(&pool, &state)),
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    deadline::phase("inputs");
    let sizes = Sizes {
        exchanges: ctx.size(20, 3),
        pingpongs: ctx.size(250, 40),
        small_frames: ctx.size(20_000, 2_000),
        block_frames: ctx.size(200, 20),
    };
    // This copy is for the checks and microbenches; every repetition's
    // set-up builds its own.
    let (small, block) = messages(ctx.seed);
    let block_payload = bcwan::wire_encode("wire_encode_block", &block).len();
    let mut exchange_no = 0u64;

    deadline::phase("exchange / ping-pong / stream repetitions");
    let mut measured = measure(
        ctx,
        || (p2p::pair(), messages(ctx.seed)),
        |((a, b), (small, block))| {
            let mut rep = Rep::default();

            // (a) Exchanges over TCP, each on a fresh fleet.
            for _ in 0..sizes.exchanges {
                exchange_no += 1;
                let (s, mut fleet) = timed(|| bcwan::tcp_fleet(ctx.seed.wrapping_add(exchange_no)));
                rep.fleet_setup_s.push(s);
                let (s, outcome) = timed(|| bcwan::tcp_exchange(&mut fleet));
                rep.exchange_s.push(s);
                let ok = outcome.is_some_and(|o| {
                    rep.sync_batches += o.sync_batches;
                    o.decrypted_reading
                        && o.gateway_claimed
                        && o.all_heights_two
                        && o.straggler_caught_up
                });
                rep.exchanges_failed += u64::from(!ok);
                rep.fleet_frames += bcwan::tcp_frames_sent(&fleet);
            }

            // (b) Ping-pong: the first send in each direction dials.
            let (dial_s, dialled) = timed(|| {
                p2p::send("tcp_dial_send", &a.host, b.addr, &small)
                    && p2p::recv(&b.inbox, DELIVERY_TIMEOUT).is_some()
                    && p2p::send("tcp_dial_send", &b.host, a.addr, &small)
                    && p2p::recv(&a.inbox, DELIVERY_TIMEOUT).is_some()
            });
            rep.dial_s = dial_s / 2.0;
            rep.sends_failed += u64::from(!dialled);
            for _ in 0..sizes.pingpongs {
                let (s, ok) = timed(|| {
                    p2p::send("tcp_send_small", &a.host, b.addr, &small)
                        && p2p::recv(&b.inbox, DELIVERY_TIMEOUT).is_some()
                        && p2p::send("tcp_send_small", &b.host, a.addr, &small)
                        && p2p::recv(&a.inbox, DELIVERY_TIMEOUT).is_some()
                });
                rep.rtt_s.push(s);
                rep.sends_failed += u64::from(!ok);
            }

            // (c) Small-frame stream, (d) block stream.
            let allocs0 = alloc::counts();
            let (s, (refused, lost)) = timed(|| {
                stream(
                    "tcp_send_small",
                    &a,
                    &b,
                    &small,
                    sizes.small_frames,
                    SMALL_WINDOW,
                    &mut rep.inbox_depth_max,
                )
            });
            rep.small_allocs = alloc::counts().since(allocs0);
            rep.small_stream_s = s;
            rep.sends_failed += refused;
            rep.frames_lost += lost;
            let (s, (refused, lost)) = timed(|| {
                stream(
                    "tcp_send_block",
                    &a,
                    &b,
                    &block,
                    sizes.block_frames,
                    BLOCK_WINDOW,
                    &mut rep.inbox_depth_max,
                )
            });
            rep.block_stream_s = s;
            rep.sends_failed += refused;
            rep.frames_lost += lost;
            let wall = rep.exchange_s.iter().sum::<f64>()
                + rep.rtt_s.iter().sum::<f64>()
                + dial_s
                + rep.small_stream_s
                + rep.block_stream_s;

            // One frame with a flipped MAC byte must be refused and counted.
            let before = p2p::counters(&b.host).auth_failures;
            let forged =
                p2p::frame_with_flipped_mac(&bcwan::wire_encode("wire_encode_small", &small));
            let injected = p2p::inject_raw(b.addr, &forged);
            let waited = Instant::now();
            while p2p::counters(&b.host).auth_failures == before
                && waited.elapsed() < Duration::from_secs(2)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            rep.counters = p2p::counters(&a.host);
            let b_counters = p2p::counters(&b.host);
            rep.counters.retries += b_counters.retries;
            rep.counters.auth_failures = b_counters.auth_failures;
            rep.bad_mac_counted = injected && b_counters.auth_failures == before + 1;
            p2p::shutdown(&a.host);
            p2p::shutdown(&b.host);
            (wall, rep)
        },
    );
    // All of a repetition's set-up: its messages (signing, admitting and
    // mining a 400-transaction block: nine tenths of it, and what keeps the
    // figure steady), the pair's bind, plus every fleet's.
    let add_fleet_setups = |setups: &mut [f64], reps: &[Rep]| {
        for (setup, rep) in setups.iter_mut().zip(reps) {
            *setup += rep.fleet_setup_s.iter().sum::<f64>();
        }
    };
    add_fleet_setups(&mut measured.times.setup_s, &measured.outputs);
    if let Some(traced) = &mut measured.traced {
        add_fleet_setups(&mut traced.times.setup_s, &traced.outputs);
    }

    deadline::phase("checks");
    let mut out = Outcome::default();
    let per_rep = (sizes.exchanges + 2 * (sizes.pingpongs + 1)) as u64
        + (sizes.small_frames + sizes.block_frames) as u64;
    for (i, rep) in measured.all_outputs().enumerate() {
        out.attempted += per_rep;
        out.failed += rep.exchanges_failed + rep.sends_failed + rep.frames_lost;
        out.check(rep.exchanges_failed == 0, || {
            format!(
                "rep {i}: {} exchanges did not settle as Fig. 3 says",
                rep.exchanges_failed
            )
        });
        out.check(rep.sends_failed == 0, || {
            format!("rep {i}: {} sends returned an error", rep.sends_failed)
        });
        out.check(rep.frames_lost == 0, || {
            format!("rep {i}: {} streamed frames never arrived", rep.frames_lost)
        });
        out.check(rep.bad_mac_counted, || {
            format!("rep {i}: the forged frame was not refused and counted exactly once")
        });
    }
    out.exact(
        "small_frame_payload_b",
        bcwan::wire_encode("wire_encode_small", &small).len(),
    );
    out.exact("block_frame_payload_b", block_payload);

    // The primary unit of work is the settled exchange. The two streams'
    // rates swing by a factor of two from one repetition to the next (a
    // 64-frame window and the runtime's 1 ms idle tick fall in and out of
    // step), so they are per-layer numbers and weigh on `job_wall_s` only.
    let exchange_s: Vec<f64> = measured
        .outputs
        .iter()
        .map(|r| r.exchange_s.iter().sum())
        .collect();
    out.end_to_end = measured.end_to_end(sizes.exchanges as f64, &exchange_s);
    // Harness thread + accept poller + one connection worker.
    out.per_layer = measured.bench_layer(3);

    if let Some(traced) = &measured.traced {
        deadline::phase("unit-cost microbenches");
        let reps = &traced.outputs;
        let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
            reps.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let exchanges = pooled(|r| &r.exchange_s);
        // The same scenario on the in-process bus: what is left of the
        // TCP time after subtracting this is the transport's share.
        let bus: Vec<f64> = (0..exchanges.len() as u64)
            .map(|i| {
                let mut fleet = bcwan::bus_fleet(ctx.seed.wrapping_add(i));
                let (s, outcome) = timed(|| bcwan::bus_exchange(&mut fleet));
                out.check(outcome.is_some(), || {
                    format!("bus exchange {i} did not settle")
                });
                s
            })
            .collect();
        let rtts = pooled(|r| &r.rtt_s);
        let n_exchanges = exchanges.len() as f64;
        let totals = trace::totals(&traced.spans);
        let span_us = |name| totals.get(&("p2p", name)).map_or(0.0, |t| t.mean_us());
        out.layer("bcwan.tcp_exchange_p50_ms", median(&exchanges) * 1e3, "ms");
        if let Some((_, v)) = tail(&exchanges) {
            out.layer("bcwan.tcp_exchange_tail_ms", v * 1e3, "ms");
        }
        out.layer("bcwan.bus_exchange_p50_ms", median(&bus) * 1e3, "ms");
        out.layer(
            "bcwan.fleet_msgs_per_exchange",
            reps.iter().map(|r| r.fleet_frames).sum::<u64>() as f64 / n_exchanges,
            "count",
        );
        out.layer(
            "bcwan.fleet_sync_batches_per_exchange",
            reps.iter().map(|r| r.sync_batches).sum::<u64>() as f64 / n_exchanges,
            "count",
        );
        out.layer("p2p.tcp_rtt_p50_us", median(&rtts) * 1e6, "us");
        if let Some((_, v)) = tail(&rtts) {
            out.layer("p2p.tcp_rtt_tail_us", v * 1e6, "us");
        }
        out.layer("p2p.tcp_send_small_us", span_us("tcp_send_small"), "us");
        out.layer("p2p.tcp_send_block_us", span_us("tcp_send_block"), "us");
        out.layer("p2p.tcp_dial_us", med(|r| r.dial_s) * 1e6, "us");
        out.layer(
            "p2p.tcp_frames_per_s",
            sizes.small_frames as f64 / med(|r| r.small_stream_s),
            "1/s",
        );
        out.layer(
            "p2p.tcp_mib_per_s",
            (sizes.block_frames * block_payload) as f64
                / (1 << 20) as f64
                / med(|r| r.block_stream_s),
            "MiB/s",
        );
        let r = &reps[0];
        out.layer("p2p.tcp_retries_total", r.counters.retries as f64, "count");
        out.layer(
            "p2p.tcp_auth_fail_total",
            r.counters.auth_failures as f64,
            "count",
        );
        out.layer(
            "p2p.inbox_depth_max",
            reps.iter().map(|r| r.inbox_depth_max).max().unwrap_or(0) as f64,
            "count",
        );
        out.layer(
            "p2p.allocs_per_small_frame",
            r.small_allocs.calls as f64 / sizes.small_frames as f64,
            "count",
        );
        out.per_layer.extend(micro::frame_and_wire(&small, &block));
        out.per_layer.extend(micro::crypto_bulk());
    }
    out.spans = measured.into_spans();
    out
}
