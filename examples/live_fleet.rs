//! Live gateways: the Fig. 3 exchange and a §5.1 partition recovery on
//! running nodes instead of the simulator's event queue.
//!
//! The simulator covers the paper's measurements; this example shows the
//! same gateway daemon (`bcwan::node::Node`) running *live* — in the
//! spirit of the paper's Golang daemons listening on TCP ports. A
//! `Fleet` of five nodes plays `fig3_partition_recovery`: the gateway
//! looks the recipient up in the on-chain directory and forwards a
//! sealed reading, the recipient escrows, the gateway claims and reveals
//! `eSk`, the recipient decrypts, and a node that was cut off the whole
//! time catches up headers-first once its links heal.
//!
//! Run with: `cargo run --release --example live_fleet -- bus` (one
//! in-process queue per node) or `… -- tcp` (real loopback sockets, one
//! shared runtime).

use bcwan::fleet::{
    fig3_partition_recovery, BusFleet, Fleet, FleetTransport, TcpFleet, FLEET_READING,
};
use bcwan_p2p::transport::TcpConfig;
use bcwan_sim::Registry;
use std::time::Duration;

const NODES: usize = 5;
const SEED: u64 = 42;

/// Plays the scenario on `transport` and prints what happened, then the
/// fabric's own counters as `export` publishes them.
fn play<T: FleetTransport>(transport: T, export: impl FnOnce(&T, &mut Registry)) {
    let mut fleet = Fleet::new(transport, NODES, SEED);
    let outcome = fig3_partition_recovery(&mut fleet, Duration::from_secs(30));
    let decrypted = outcome.decrypted.expect("the recipient opened the reading");
    assert_eq!(decrypted, FLEET_READING);
    println!(
        "[recipient] decrypted {:?}",
        String::from_utf8_lossy(&decrypted)
    );
    println!(
        "[gateway]   claimed the escrow: {}",
        outcome.gateway_claimed
    );
    println!(
        "[straggler] caught up after the partition healed: {} ({} sync batches served)",
        outcome.partitioned_caught_up, outcome.sync_batches_served
    );
    println!("[fleet]     final heights {:?}", outcome.heights);

    let mut reg = Registry::new();
    export(&fleet.transport, &mut reg);
    for (name, value) in reg.snapshot().counters {
        if value > 0 {
            println!("[metrics]   {name} = {value}");
        }
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        // The bus is a queue per node and keeps no counters.
        Some("bus") => play(BusFleet::new(NODES), |_, _| {}),
        Some("tcp") => {
            let fabric = TcpFleet::new(NODES, 2, TcpConfig::default()).expect("bind loopback");
            // The gateway's host: its `transport.*` rows tell the story.
            play(fabric, |tcp, reg| tcp.hosts()[1].export_metrics(reg));
        }
        _ => {
            eprintln!("usage: live_fleet <bus|tcp>");
            std::process::exit(2);
        }
    }
    println!("fair exchange on a live fleet complete ✔");
}
