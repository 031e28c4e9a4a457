//! Extension E1: node energy budget and channel contention.
//!
//! The paper's introduction leans on LoRa's "low power aspect (multi-year
//! life, coin cell operation)"; BcWAN adds a request frame and a downlink
//! receive to every delivery. This harness prices the full exchange in
//! millijoules, projects coin-cell battery life across send rates, and
//! reports the ALOHA contention the §5.2 workload would put on a single
//! channel.
//!
//! Usage: `node_energy [--json PATH]`.

use bcwan::costs::CostModel;
use bcwan_bench::{harness_args, BenchReport};
use bcwan_lora::collision::{aloha_success_probability, offered_load};
use bcwan_lora::energy::{battery_life_years, exchange_energy, EnergyModel};
use bcwan_lora::params::RadioConfig;
use bcwan_lora::time_on_air;
use bcwan_sim::{Json, Registry};

fn main() {
    let json = harness_args().json;
    let model = EnergyModel::sx1276_coin_cell();
    let cfg = RadioConfig::paper_sf7();
    let costs = CostModel::pi_class();
    let crypto_time = costs.node_encrypt + costs.node_sign;
    // BcWAN frame sizes: 28 B request, 79 B key downlink, 160 B data.
    let ex = exchange_energy(&model, &cfg, 28, 79, 160, crypto_time);

    println!("one BcWAN exchange at SF7 (node side):");
    println!("  request tx : {:7.3} mJ", ex.request_tx * 1e3);
    println!("  ePk rx     : {:7.3} mJ", ex.key_rx * 1e3);
    println!("  crypto     : {:7.3} mJ", ex.crypto * 1e3);
    println!("  data tx    : {:7.3} mJ", ex.data_tx * 1e3);
    println!("  total      : {:7.3} mJ", ex.total() * 1e3);

    let mut registry = Registry::new();
    let energy_gauge = registry.gauge("energy.exchange_mj");
    registry.set(energy_gauge, ex.total() * 1e3);
    let life_hist = registry.histogram("energy.battery_life_years");
    let aloha_hist = registry.histogram("lora.aloha_success_probability");

    println!("\ncoin-cell (1000 mAh) battery life vs exchange rate:");
    println!("  rate/day   years");
    let mut battery_years = Vec::new();
    for rate in [1.0, 24.0, 96.0, 480.0, 1440.0] {
        let years = battery_life_years(&model, &ex, rate, 1000.0);
        println!("  {rate:>8.0}  {years:>6.1}");
        registry.observe(life_hist, years);
        battery_years.push(Json::Array(vec![Json::num(rate), Json::num(years)]));
    }

    println!("\nALOHA contention, 160 B data frames on one SF7 channel:");
    println!("  sensors  frame-success-probability (each at 1 msg/50 s)");
    let airtime = time_on_air(&cfg, 160).as_secs_f64();
    let mut contention = Vec::new();
    for sensors in [10u32, 30, 60, 150, 300] {
        let g = offered_load(sensors, 1.0 / 50.0, airtime);
        let p = aloha_success_probability(g);
        println!("  {sensors:>7}  {p:>8.3}");
        registry.observe(aloha_hist, p);
        contention.push(Json::Array(vec![Json::num(sensors), Json::num(p)]));
    }
    println!("\nThe intro's multi-year coin-cell claim holds at telemetry rates");
    println!("(24/day ⇒ years of life) but not at the duty-cycle ceiling; and one");
    println!("channel tolerates a gateway's 30 sensors, not the whole city's 300.");

    if let Some(path) = json {
        BenchReport::new("node_energy")
            .config("battery_mah", Json::num(1000.0))
            .config("data_frame_bytes", Json::size(160))
            .rows(
                Json::object()
                    .with("exchange_mj", Json::num(ex.total() * 1e3))
                    .with("request_tx_mj", Json::num(ex.request_tx * 1e3))
                    .with("key_rx_mj", Json::num(ex.key_rx * 1e3))
                    .with("crypto_mj", Json::num(ex.crypto * 1e3))
                    .with("data_tx_mj", Json::num(ex.data_tx * 1e3))
                    .with("battery_years", Json::Array(battery_years))
                    .with("contention", Json::Array(contention)),
            )
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
