//! Ablation A2 (§6): RSA key size versus LoRa cost.
//!
//! "We chose RSA-512 as method to encrypt our data due to the size limit
//! of the payload that can be sent on the LoRa network… For application
//! where this may be a problem it is possible to use higher levels of
//! encryption but messages will be lengthier on the LoRa network."
//!
//! For each modulus size this prints the data-uplink PHY size (Em + Sig
//! are one RSA block each), its airtime per spreading factor, the
//! duty-cycle message budget, and whether the frame fits the regional
//! payload caps at all; then what the same choice costs the gateway in
//! CPU (ephemeral keygen per message, the node-side signature, and the
//! `OP_CHECKRSA512PAIR` check every validator runs on the revealed key).
//!
//! Usage: `ablation_keysize [--json PATH]`.

use bcwan_bench::{harness_args, BenchReport};
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey};
use bcwan_lora::airtime::{max_messages_per_hour, time_on_air};
use bcwan_lora::frame::data_uplink_phy_len;
use bcwan_lora::params::{RadioConfig, SpreadingFactor, EU868_DUTY_CYCLE};
use bcwan_sim::{Json, Registry, Series};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock seconds of `calls` timed calls of `f`, after one
/// untimed warm-up call.
fn median_secs<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Series = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.summary().expect("at least one call").median
}

fn main() {
    let json = harness_args().json;
    let mut registry = Registry::new();
    let rows_counter = registry.counter("bench.rows_total");
    let misfit_counter = registry.counter("lora.payload_cap_violations_total");
    let airtime_hist = registry.histogram("lora.uplink_airtime_seconds");

    let mut rows = Vec::new();
    println!("RSA    frame(B)  SF    fits  airtime(ms)  msgs/h@1%");
    for size in [RsaKeySize::Rsa512, RsaKeySize::Rsa1024, RsaKeySize::Rsa2048] {
        // Em and Sig both one block of this modulus.
        let phy = data_uplink_phy_len(size.block_len(), size.block_len());
        for sf in [
            SpreadingFactor::Sf7,
            SpreadingFactor::Sf9,
            SpreadingFactor::Sf12,
        ] {
            let cfg = RadioConfig::with_sf(sf);
            let fits = phy <= sf.max_payload() + 4;
            let airtime = time_on_air(&cfg, phy);
            let rate = max_messages_per_hour(&cfg, phy, EU868_DUTY_CYCLE);
            println!(
                "{:>5}  {:>8}  SF{:<3} {:>4}  {:>11.1}  {:>9.1}",
                size.bits(),
                phy,
                sf.value(),
                if fits { "yes" } else { "NO" },
                airtime.as_secs_f64() * 1e3,
                rate,
            );
            registry.inc(rows_counter);
            registry.observe(airtime_hist, airtime.as_secs_f64());
            if !fits {
                registry.inc(misfit_counter);
            }
            rows.push(
                Json::object()
                    .with("rsa_bits", Json::size(size.bits()))
                    .with("uplink_phy_bytes", Json::size(phy))
                    .with("spreading_factor", Json::num(sf.value()))
                    .with("fits", Json::Bool(fits))
                    .with("airtime_ms", Json::num(airtime.as_secs_f64() * 1e3))
                    .with("msgs_per_hour_1pct", Json::num(rate)),
            );
        }
    }
    println!();
    println!("RSA    keygen(ms)  sign(us)  pair_check(us)   (medians, wall clock)");
    for (size, keygens) in [
        (RsaKeySize::Rsa512, 40),
        (RsaKeySize::Rsa1024, 12),
        (RsaKeySize::Rsa2048, 4),
    ] {
        let mut rng = StdRng::seed_from_u64(2018);
        let keygen = median_secs(keygens, || generate_keypair(&mut rng, size));
        let (public, private) = generate_keypair(&mut rng, size);
        let sign = median_secs(50, || private.sign(black_box(b"Em || ePk")));
        // Validators see the revealed key in its wire form: no CRT.
        let revealed = RsaPrivateKey::from_bytes(&private.to_bytes()).expect("own encoding");
        let pair = median_secs(20, || public.matches_private(black_box(&revealed)));
        let costs = [
            ("keygen_ms", keygen * 1e3),
            ("sign_us", sign * 1e6),
            ("pair_check_us", pair * 1e6),
        ];
        println!(
            "{:>5}  {:>10.2}  {:>8.1}  {:>14.1}",
            size.bits(),
            costs[0].1,
            costs[1].1,
            costs[2].1,
        );
        for (op, value) in costs {
            registry.set_gauge(&format!("crypto.rsa{}.{op}", size.bits()), value);
        }
    }
    println!();
    println!("shape check: doubling the modulus roughly doubles the frame and halves");
    println!("the duty-cycle budget; RSA-2048 no longer fits SF9+ payload caps at all —");
    println!("the paper's §6 justification for accepting RSA-512's weakness.");
    if let Some(path) = json {
        BenchReport::new("ablation_keysize")
            .config("duty_cycle", Json::num(EU868_DUTY_CYCLE))
            .rows(Json::Array(rows))
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
